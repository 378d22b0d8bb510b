//! The policy-driven cluster controller, [`PolicyScheduler`].
//!
//! The paper leaves slurmctld untouched ("the purpose is to give a proof of
//! integration of DROM APIs, not to present new scheduling policies");
//! [`PolicyScheduler`] is the step beyond it: a CPU-granular controller that
//! delegates every decision to a pluggable [`SchedulerPolicy`] and validates
//! the returned actions before applying them, so no policy can oversubscribe
//! a node or resize a job outside its malleable range. The paper's
//! unmodified-controller behaviour is this controller under
//! [`FirstFitPolicy`](crate::FirstFitPolicy).

use serde::{Deserialize, Serialize};

use drom_metrics::TimeUs;

use crate::error::SlurmError;
use crate::policy::{
    AdmissionOrder, ClusterView, JobAllocation, QueuedJob, RunningJob, SchedIndex, SchedulerAction,
    SchedulerPolicy,
};

/// Counters of everything a [`PolicyScheduler`] did, reported next to the
/// workload metrics so a policy's behaviour (how often it shrank, expanded,
/// raced a completion) is visible in the experiment tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Jobs started.
    pub started: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Shrink resizes applied.
    pub shrinks: u64,
    /// Expand resizes applied.
    pub expands: u64,
    /// Resize actions that raced a completion (the job was already gone) and
    /// were dropped. Benign: the policy decided on a snapshot that a
    /// same-instant completion invalidated.
    pub resize_races: u64,
    /// Running jobs put back into the waiting queue via
    /// [`PolicyScheduler::requeue`].
    pub requeues: u64,
}

/// A CPU-granular cluster controller driven by a pluggable scheduling policy.
///
/// The scheduler owns the authoritative cluster state (free CPUs per node,
/// running allocations, the pending queue) and, at every [`tick`], hands a
/// read-only [`ClusterView`] to its [`SchedulerPolicy`] and applies the
/// validated actions. It is the shared substrate of the trace-driven cluster
/// simulator (`drom-sim`) and of the real execution path, where a `Start`
/// maps onto [`Srun::launch`](crate::Srun::launch), a shrink onto
/// [`Slurmd::shrink_job`](crate::Slurmd::shrink_job) and an expand onto
/// [`Slurmd::release_resources`](crate::Slurmd::release_resources).
///
/// The scheduler also owns an incrementally maintained [`SchedIndex`] —
/// per-node free, reclaimable-CPU summary and donor lists — updated at every
/// applied start / resize / completion and handed to the policy through the
/// view, so an index-aware policy (the malleable one) never recomputes those
/// sums from the running set. In debug builds every [`tick`] cross-checks
/// the index and the admission order against from-scratch rebuilds.
///
/// [`tick`]: PolicyScheduler::tick
pub struct PolicyScheduler {
    node_cpus: usize,
    index: SchedIndex,
    running: Vec<RunningJob>,
    /// Waiting jobs, in arbitrary storage order — `order` below holds the
    /// admission sequence, so removal is a `swap_remove` + one position
    /// fixup instead of an O(queue) shift.
    queue: Vec<QueuedJob>,
    /// The incrementally maintained admission order over `queue` (sort key
    /// → queue position), updated in O(log queue) at submission, admitted
    /// start and requeue, and handed to the policy through the view so a
    /// scheduling pass never re-sorts the queue.
    order: AdmissionOrder,
    policy: Box<dyn SchedulerPolicy>,
    stats: SchedulerStats,
}

impl PolicyScheduler {
    /// Creates a scheduler over `num_nodes` homogeneous nodes of `node_cpus`
    /// CPUs, delegating decisions to `policy`.
    pub fn new(num_nodes: usize, node_cpus: usize, policy: Box<dyn SchedulerPolicy>) -> Self {
        PolicyScheduler {
            node_cpus: node_cpus.max(1),
            index: SchedIndex::new(num_nodes.max(1), node_cpus.max(1)),
            running: Vec::new(),
            queue: Vec::new(),
            order: AdmissionOrder::new(),
            policy,
            stats: SchedulerStats::default(),
        }
    }

    /// The name of the policy in charge.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// CPUs per node.
    pub fn node_cpus(&self) -> usize {
        self.node_cpus
    }

    /// Free CPUs on each node.
    pub fn free_cpus(&self) -> &[usize] {
        self.index.free()
    }

    /// The event-maintained availability index (free / reclaimable CPUs and
    /// donor lists per node) the scheduler hands to its policy.
    pub fn sched_index(&self) -> &SchedIndex {
        &self.index
    }

    /// Total CPUs currently allocated to running jobs.
    pub fn allocated_cpus(&self) -> usize {
        self.running.iter().map(|r| r.alloc.total_cpus()).sum()
    }

    /// The running jobs with their current allocations.
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Jobs waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The waiting jobs, in **storage** order (arbitrary): index into it
    /// with [`admission_order`](Self::admission_order) positions to walk the
    /// admission sequence.
    pub fn queue(&self) -> &[QueuedJob] {
        &self.queue
    }

    /// The maintained admission order over [`queue`](Self::queue).
    pub fn admission_order(&self) -> &AdmissionOrder {
        &self.order
    }

    /// Counters of applied actions.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Queues a job.
    ///
    /// # Errors
    ///
    /// [`SlurmError::Unschedulable`] when no node of the cluster can ever
    /// satisfy the request — accepting such a job would block an FCFS queue
    /// forever, so submission fails instead of livelocking the scheduler.
    /// [`SlurmError::DuplicateJob`] when a job with the same id is already
    /// waiting — ids key the admission order, so a second copy would
    /// silently replace the first. State is untouched either way.
    pub fn submit(&mut self, job: QueuedJob) -> Result<(), SlurmError> {
        if let Err(reason) = job.fits_ever(self.index.free().len(), self.node_cpus) {
            return Err(SlurmError::Unschedulable {
                job_id: job.id,
                reason,
            });
        }
        if self.order.contains(job.id) {
            return Err(SlurmError::DuplicateJob { job_id: job.id });
        }
        self.order.insert(&job, self.queue.len());
        self.queue.push(job);
        Ok(())
    }

    /// Puts a running job back into the waiting queue (e.g. a node failure
    /// or a preemption on the execution path): its allocation is unwound
    /// from the cluster state exactly like a completion, and it re-enters
    /// the admission order under its **original** priority and submission
    /// time — a requeue never changes the job's place in line relative to
    /// jobs it already outranked.
    ///
    /// # Errors
    ///
    /// [`SlurmError::DuplicateJob`] if a job with the same id already waits;
    /// [`SlurmError::UnknownJob`] if the job is not running. State is
    /// untouched either way.
    pub fn requeue(&mut self, job_id: u64) -> Result<(), SlurmError> {
        if self.order.contains(job_id) {
            return Err(SlurmError::DuplicateJob { job_id });
        }
        let job = self.take_running(job_id)?.job;
        self.stats.requeues += 1;
        self.order.insert(&job, self.queue.len());
        self.queue.push(job);
        Ok(())
    }

    /// Removes a running job, unwinding its allocation from the index.
    fn take_running(&mut self, job_id: u64) -> Result<RunningJob, SlurmError> {
        let pos = self
            .running
            .iter()
            .position(|r| r.alloc.job_id == job_id)
            .ok_or(SlurmError::UnknownJob { job_id })?;
        let job = self.running.remove(pos);
        self.index.on_complete(&job);
        Ok(job)
    }

    /// Refreshes a running job's estimated completion time (the trace engine
    /// calls this whenever a resize changes the job's finish estimate, which
    /// keeps backfill reservations honest). The estimate the job already
    /// carries changes nothing.
    pub fn set_expected_end(&mut self, job_id: u64, end_us: Option<TimeUs>) {
        if let Some(job) = self.running.iter_mut().find(|r| r.alloc.job_id == job_id) {
            // Move the job's release-timeline entry first (the index reads
            // the old estimate off the job), so the next pass's drain
            // forecast walks the refreshed one.
            self.index.on_estimate(job, end_us);
            job.expected_end_us = end_us;
        }
    }

    /// Removes a completed job, freeing its CPUs, and returns its final state.
    ///
    /// # Errors
    ///
    /// [`SlurmError::UnknownJob`] if the job is not running.
    pub fn job_finished(&mut self, job_id: u64) -> Result<RunningJob, SlurmError> {
        let job = self.take_running(job_id)?;
        self.stats.completed += 1;
        Ok(job)
    }

    /// Runs one scheduling pass at virtual time `now_us`: asks the policy for
    /// its actions, validates each against the live state and applies the
    /// valid ones. Returns the actions actually applied, in order.
    ///
    /// A `Resize` naming a job that is no longer running is dropped and
    /// counted in [`SchedulerStats::resize_races`] — the policy decided on a
    /// snapshot, and a completion at the very same instant may have retired
    /// its victim (see `docs/scheduling.md` for how this mirrors the
    /// registry's pending-mask cancellation rules).
    ///
    /// # Errors
    ///
    /// [`SlurmError::InvalidAction`] when an action would overcommit a node,
    /// start an unknown job or resize outside the malleable range. State is
    /// untouched by the offending action.
    pub fn tick(&mut self, now_us: TimeUs) -> Result<Vec<SchedulerAction>, SlurmError> {
        debug_assert_eq!(
            self.index,
            SchedIndex::rebuild_from_capacity(
                self.index.free().len(),
                self.node_cpus,
                &self.running,
            ),
            "event-maintained index diverged from the running set"
        );
        debug_assert_eq!(
            self.order,
            AdmissionOrder::from_queue(&self.queue),
            "maintained admission order diverged from the queue"
        );
        let view = ClusterView {
            node_cpus: self.node_cpus,
            running: &self.running,
            index: &self.index,
            order: &self.order,
        };
        let actions = self.policy.schedule(&view, &self.queue, now_us);
        let mut applied = Vec::with_capacity(actions.len());
        for action in actions {
            match action {
                SchedulerAction::Start {
                    job_id,
                    ref node_indices,
                    cpus_per_node,
                } => {
                    self.apply_start(job_id, node_indices, cpus_per_node, now_us)?;
                    applied.push(action);
                }
                SchedulerAction::Resize {
                    job_id,
                    cpus_per_node,
                } => {
                    if self.apply_resize(job_id, cpus_per_node)? {
                        applied.push(action);
                    }
                }
            }
        }
        Ok(applied)
    }

    // PANIC: validated actions index the controller's own free vector.
    fn apply_start(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        width: usize,
        now_us: TimeUs,
    ) -> Result<(), SlurmError> {
        let invalid = |reason: String| SlurmError::InvalidAction { job_id, reason };
        // The admission order doubles as the queue-position lookup.
        let pos = self
            .order
            .position_of(job_id)
            .filter(|&p| self.queue.get(p).is_some_and(|j| j.id == job_id))
            .ok_or_else(|| invalid("start of a job that is not queued".into()))?;
        let job = &self.queue[pos];
        if node_indices.len() != job.nodes {
            return Err(invalid(format!(
                "allocated {} nodes, job wants {}",
                node_indices.len(),
                job.nodes
            )));
        }
        let free = self.index.free();
        let mut seen = vec![false; free.len()];
        for &idx in node_indices {
            if idx >= free.len() || seen[idx] {
                return Err(invalid(format!("bad or duplicate node index {idx}")));
            }
            seen[idx] = true;
            if free[idx] < width {
                return Err(invalid(format!(
                    "node {idx} has {} free CPUs, start needs {width}",
                    free[idx]
                )));
            }
        }
        let floor = if job.malleable {
            job.min_cpus_per_node
        } else {
            job.cpus_per_node
        };
        if width < floor.max(1) || width > job.cpus_per_node {
            return Err(invalid(format!(
                "width {width} outside the job's [{floor}, {}] range",
                job.cpus_per_node
            )));
        }
        // All validation passed: remove the admitted job in O(1) — the
        // queue's storage order carries no meaning (the admission order
        // does), so `swap_remove` plus one position fixup for the moved
        // tail job replaces the O(queue) shifting `remove`.
        let job = self.queue.swap_remove(pos);
        self.order.remove(job_id);
        if let Some(moved) = self.queue.get(pos) {
            self.order.set_pos(moved.id, pos);
        }
        // The initial completion estimate scales with the admitted width (a
        // job started at half width needs ~2× its declared duration — more
        // if its speedup curve says shrinking is worse than linear), so
        // backfill/drain reservations stay honest even when the driver never
        // refreshes estimates via set_expected_end.
        let expected_end_us = job.expected_end_us(now_us, width);
        let started = RunningJob {
            alloc: JobAllocation {
                job_id,
                node_indices: node_indices.to_vec(),
                cpus_per_node: width,
            },
            job,
            start_us: now_us,
            expected_end_us,
        };
        self.index.on_start(&started);
        self.running.push(started);
        self.stats.started += 1;
        Ok(())
    }

    /// Applies a resize; `Ok(false)` means the action was dropped as a benign
    /// completion race.
    // PANIC: validated actions index the controller's own free vector.
    fn apply_resize(&mut self, job_id: u64, width: usize) -> Result<bool, SlurmError> {
        let invalid = |reason: String| SlurmError::InvalidAction { job_id, reason };
        let Some(pos) = self.running.iter().position(|r| r.alloc.job_id == job_id) else {
            self.stats.resize_races += 1;
            return Ok(false);
        };
        let current = self.running[pos].alloc.cpus_per_node;
        if width == current {
            return Ok(false);
        }
        let job = &self.running[pos].job;
        if !job.malleable {
            return Err(invalid("resize of a rigid job".into()));
        }
        if width < job.min_cpus_per_node.max(1) || width > job.cpus_per_node {
            return Err(invalid(format!(
                "width {width} outside the job's [{}, {}] range",
                job.min_cpus_per_node, job.cpus_per_node
            )));
        }
        if width > current {
            let extra = width - current;
            for &idx in &self.running[pos].alloc.node_indices {
                if self.index.free()[idx] < extra {
                    return Err(invalid(format!(
                        "expand needs {extra} CPUs on node {idx}, only {} free",
                        self.index.free()[idx]
                    )));
                }
            }
            self.stats.expands += 1;
        } else {
            self.stats.shrinks += 1;
        }
        self.index.on_resize(&self.running[pos], width);
        self.running[pos].alloc.cpus_per_node = width;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FirstFitPolicy, MalleablePolicy};

    #[test]
    fn policy_scheduler_first_fit_lifecycle() {
        let mut sched = PolicyScheduler::new(2, 16, Box::new(FirstFitPolicy::default()));
        assert_eq!(sched.policy_name(), "first-fit");
        assert_eq!(sched.node_cpus(), 16);
        sched.submit(QueuedJob::new(1, 2, 16)).unwrap();
        sched.submit(QueuedJob::new(2, 1, 8)).unwrap();
        let applied = sched.tick(0).unwrap();
        assert_eq!(applied.len(), 1, "job 2 blocks behind the full-cluster job");
        assert_eq!(sched.allocated_cpus(), 32);
        assert_eq!(sched.queue_len(), 1);
        assert_eq!(sched.free_cpus(), &[0, 0]);

        sched.job_finished(1).unwrap();
        let applied = sched.tick(10).unwrap();
        assert_eq!(applied.len(), 1);
        assert_eq!(sched.allocated_cpus(), 8);
        assert_eq!(sched.running().len(), 1);
        assert_eq!(sched.stats().started, 2);
        assert_eq!(sched.stats().completed, 1);
        assert!(matches!(
            sched.job_finished(99),
            Err(SlurmError::UnknownJob { job_id: 99 })
        ));
    }

    #[test]
    fn policy_scheduler_rejects_impossible_jobs() {
        let mut sched = PolicyScheduler::new(2, 16, Box::new(FirstFitPolicy::default()));
        let err = sched.submit(QueuedJob::new(1, 1, 32)).unwrap_err();
        assert!(matches!(err, SlurmError::Unschedulable { job_id: 1, .. }));
        let err = sched.submit(QueuedJob::new(2, 4, 1)).unwrap_err();
        assert!(matches!(err, SlurmError::Unschedulable { job_id: 2, .. }));
        assert_eq!(
            sched.queue_len(),
            0,
            "impossible jobs never enter the queue"
        );
    }

    /// Regression: a second submission under a waiting id used to replace
    /// the first copy's admission key while both stayed queued. It is now a
    /// typed error with the state untouched — as is requeueing a running
    /// job whose id waits again.
    #[test]
    fn policy_scheduler_rejects_duplicate_waiting_ids() {
        let mut sched = PolicyScheduler::new(1, 16, Box::new(FirstFitPolicy::default()));
        sched.submit(QueuedJob::new(1, 1, 16)).unwrap();
        sched.tick(0).unwrap(); // job 1 runs; its id no longer waits
        sched.submit(QueuedJob::new(1, 1, 16)).unwrap();
        sched.submit(QueuedJob::new(2, 1, 8)).unwrap();
        let err = sched.submit(QueuedJob::new(2, 1, 4).with_priority(9));
        assert_eq!(err, Err(SlurmError::DuplicateJob { job_id: 2 }));
        assert_eq!(
            sched.requeue(1),
            Err(SlurmError::DuplicateJob { job_id: 1 })
        );
        assert_eq!(sched.queue_len(), 2);
        assert_eq!(sched.admission_order().len(), 2);
        assert_eq!(sched.running().len(), 1);
        assert_eq!(sched.stats().requeues, 0);
        // The surviving copies still schedule in order once the node frees.
        sched.job_finished(1).unwrap();
        assert_eq!(sched.tick(10).unwrap().len(), 1);
        assert_eq!(sched.queue()[0].cpus_per_node, 8, "the first job 2 waits");
    }

    #[test]
    fn policy_scheduler_malleable_shrink_and_reexpand() {
        let mut sched = PolicyScheduler::new(2, 16, Box::new(MalleablePolicy::default()));
        sched
            .submit(QueuedJob::new(1, 2, 16).malleable(4).with_submit_us(0))
            .unwrap();
        sched.tick(0).unwrap();
        assert_eq!(sched.allocated_cpus(), 32);

        // A rigid half-node job arrives: job 1 shrinks to admit it.
        sched
            .submit(QueuedJob::new(2, 1, 8).with_submit_us(5))
            .unwrap();
        sched.tick(5).unwrap();
        assert_eq!(sched.stats().shrinks, 1);
        assert_eq!(sched.running().len(), 2);
        let job1 = sched
            .running()
            .iter()
            .find(|r| r.alloc.job_id == 1)
            .unwrap();
        assert_eq!(job1.alloc.cpus_per_node, 8);
        assert!(job1.is_shrunk());

        // Job 2 completes: the next pass re-expands job 1 to full width.
        sched.job_finished(2).unwrap();
        sched.tick(50).unwrap();
        assert_eq!(sched.stats().expands, 1);
        let job1 = sched
            .running()
            .iter()
            .find(|r| r.alloc.job_id == 1)
            .unwrap();
        assert_eq!(job1.alloc.cpus_per_node, 16);
        assert_eq!(sched.free_cpus(), &[0, 0]);
    }

    /// Regression (shrunk-duration rounding): a job started below its
    /// request must get a completion estimate of ⌈duration · request /
    /// width⌉ — under linear speedup it cannot finish earlier. The old
    /// truncating division produced 141 here, one microsecond *before* the
    /// engine's actual completion, letting reservations promise CPUs the
    /// job still holds.
    #[test]
    fn shrunk_start_estimate_is_never_optimistic() {
        let mut sched = PolicyScheduler::new(1, 8, Box::new(MalleablePolicy::default()));
        sched.submit(QueuedJob::new(1, 1, 3)).unwrap();
        sched.tick(0).unwrap();
        // 5 CPUs free: job 2 (7 wide, floor 1, 101 µs) is admitted at 5.
        sched
            .submit(
                QueuedJob::new(2, 1, 7)
                    .malleable(1)
                    .with_expected_duration_us(101),
            )
            .unwrap();
        sched.tick(0).unwrap();
        let job2 = sched
            .running()
            .iter()
            .find(|r| r.alloc.job_id == 2)
            .unwrap();
        assert_eq!(job2.alloc.cpus_per_node, 5);
        assert_eq!(
            job2.expected_end_us,
            Some(142), // ⌈101 · 7 / 5⌉ = ⌈141.4⌉, not 141
            "estimate must round up, matching the engine's exact completion"
        );
    }

    /// A shrunk start whose job carries a speedup curve records the
    /// curve-scaled completion estimate, not the linear one — the controller
    /// and the policy must plan around the same instant.
    #[test]
    fn shrunk_start_estimate_consults_the_speedup_curve() {
        use crate::policy::SpeedupCurve;
        let rates: Vec<u64> = (0..=7u64)
            .map(|w| {
                if w == 7 {
                    SpeedupCurve::FP
                } else {
                    w * SpeedupCurve::FP / 14
                }
            })
            .collect();
        let mut sched = PolicyScheduler::new(1, 8, Box::new(MalleablePolicy::default()));
        sched.submit(QueuedJob::new(1, 1, 3)).unwrap();
        sched.tick(0).unwrap();
        sched
            .submit(
                QueuedJob::new(2, 1, 7)
                    .malleable(1)
                    .with_expected_duration_us(101)
                    .with_speedup(SpeedupCurve::from_rates(rates)),
            )
            .unwrap();
        sched.tick(0).unwrap();
        let job2 = sched
            .running()
            .iter()
            .find(|r| r.alloc.job_id == 2)
            .unwrap();
        assert_eq!(job2.alloc.cpus_per_node, 5);
        assert_eq!(
            job2.expected_end_us,
            Some(283), // ⌈101·FP / (5·FP/14)⌉, not the linear ⌈101·7/5⌉ = 142
            "the controller's estimate must follow the job's curve"
        );
    }

    /// The scheduler's event-maintained index stays equal to a from-scratch
    /// rebuild across a start / shrink / expand / complete lifecycle.
    #[test]
    fn policy_scheduler_keeps_index_consistent() {
        let mut sched = PolicyScheduler::new(2, 16, Box::new(MalleablePolicy::default()));
        sched
            .submit(QueuedJob::new(1, 2, 16).malleable(4).with_submit_us(0))
            .unwrap();
        sched.tick(0).unwrap();
        sched
            .submit(QueuedJob::new(2, 1, 8).with_submit_us(5))
            .unwrap();
        sched.tick(5).unwrap(); // shrinks job 1 to admit job 2
        let expected = SchedIndex::rebuild_from_capacity(2, 16, sched.running());
        assert_eq!(*sched.sched_index(), expected);
        assert_eq!(sched.sched_index().reclaim(), &[0, 0]); // both at their floors
        sched.job_finished(2).unwrap();
        sched.tick(50).unwrap(); // re-expands job 1
        let expected = SchedIndex::rebuild_from_capacity(2, 16, sched.running());
        assert_eq!(*sched.sched_index(), expected);
        assert_eq!(sched.sched_index().free(), &[0, 0]);
        assert_eq!(sched.sched_index().donors(0), &[1]);
        assert_eq!(sched.sched_index().donors(1), &[1]);
        sched.job_finished(1).unwrap();
        assert_eq!(*sched.sched_index(), SchedIndex::new(2, 16));
    }

    /// Every estimate transition `set_expected_end` can make — the same
    /// instant again, another instant, dropping the estimate, gaining one —
    /// then a resize and the completions, each leaving the index equal to a
    /// from-scratch rebuild with one timeline entry per estimated job.
    #[test]
    fn estimate_transitions_keep_the_index_equal_to_a_rebuild() {
        fn check(sched: &PolicyScheduler) {
            assert_eq!(
                *sched.sched_index(),
                SchedIndex::rebuild_from_capacity(2, 16, sched.running())
            );
            let estimated = sched
                .running()
                .iter()
                .filter(|r| r.expected_end_us.is_some());
            assert_eq!(sched.sched_index().timeline().len(), estimated.count());
        }
        let mut sched = PolicyScheduler::new(2, 16, Box::new(MalleablePolicy::default()));
        sched
            .submit(
                QueuedJob::new(1, 2, 16)
                    .malleable(4)
                    .with_expected_duration_us(100),
            )
            .unwrap();
        sched.tick(0).unwrap();
        assert_eq!(sched.running()[0].expected_end_us, Some(100));
        check(&sched);
        // Some → the same Some: a no-op end to end.
        let before = sched.sched_index().clone();
        sched.set_expected_end(1, Some(100));
        assert_eq!(*sched.sched_index(), before);
        check(&sched);
        // Some → another Some, Some → None, None → None, None → Some.
        for end_us in [Some(250), None, None, Some(300)] {
            sched.set_expected_end(1, end_us);
            assert_eq!(sched.running()[0].expected_end_us, end_us);
            check(&sched);
        }
        // A resize rewrites the estimated job's release in place: job 2
        // (no estimate) is admitted by shrinking job 1.
        sched.submit(QueuedJob::new(2, 1, 8)).unwrap();
        sched.tick(5).unwrap();
        assert_eq!(sched.stats().shrinks, 1);
        check(&sched);
        sched.set_expected_end(2, Some(300)); // shares job 1's instant
        check(&sched);
        sched.job_finished(1).unwrap();
        check(&sched);
        sched.job_finished(2).unwrap();
        check(&sched);
        assert!(sched.sched_index().timeline().is_empty());
    }

    #[test]
    fn policy_scheduler_drops_racing_resize() {
        // A hand-written policy that resizes a job that no longer runs.
        struct RacingPolicy;
        impl crate::policy::SchedulerPolicy for RacingPolicy {
            fn name(&self) -> &'static str {
                "racing"
            }
            fn schedule(
                &mut self,
                _view: &ClusterView<'_>,
                _queue: &[QueuedJob],
                _now_us: TimeUs,
            ) -> Vec<SchedulerAction> {
                vec![SchedulerAction::Resize {
                    job_id: 77,
                    cpus_per_node: 4,
                }]
            }
        }
        let mut sched = PolicyScheduler::new(1, 16, Box::new(RacingPolicy));
        let applied = sched.tick(0).unwrap();
        assert!(applied.is_empty());
        assert_eq!(sched.stats().resize_races, 1);
    }

    #[test]
    fn policy_scheduler_rejects_overcommitting_policy() {
        struct GreedyPolicy;
        impl crate::policy::SchedulerPolicy for GreedyPolicy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn schedule(
                &mut self,
                _view: &ClusterView<'_>,
                queue: &[QueuedJob],
                _now_us: TimeUs,
            ) -> Vec<SchedulerAction> {
                // Start everything on node 0 regardless of capacity.
                queue
                    .iter()
                    .map(|j| SchedulerAction::Start {
                        job_id: j.id,
                        node_indices: vec![0],
                        cpus_per_node: j.cpus_per_node,
                    })
                    .collect()
            }
        }
        let mut sched = PolicyScheduler::new(1, 16, Box::new(GreedyPolicy));
        sched.submit(QueuedJob::new(1, 1, 16)).unwrap();
        sched.submit(QueuedJob::new(2, 1, 16)).unwrap();
        let err = sched.tick(0).unwrap_err();
        assert!(matches!(err, SlurmError::InvalidAction { job_id: 2, .. }));
        // The valid first action was applied; the cluster state stayed sane.
        assert_eq!(sched.allocated_cpus(), 16);
        assert_eq!(sched.free_cpus(), &[0]);
    }
}
