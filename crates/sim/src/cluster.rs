//! Event-driven replay of a synthetic job trace against a scheduling policy.
//!
//! Where [`engine`](crate::engine) replays the paper's fixed two-job figure
//! workloads with calibrated application models, this module asks the
//! cluster-scale question the paper leaves open: *what does DROM buy a
//! scheduler under a realistic job stream?* A [`ClusterSim`] replays a
//! [`trace`](crate::trace) — hundreds of nodes, thousands of jobs — against
//! any [`SchedulerPolicy`], driving the same validated [`PolicyScheduler`]
//! state machine the real execution path uses, and reports makespan,
//! mean/P95 response time and node utilization through `drom-metrics`.
//!
//! # Progress model
//!
//! A trace job carries its duration *at full request width*. A job without
//! an application model progresses at `allocated / requested` of full speed
//! (linear speedup — the paper's LeWI measurements show near-linear scaling
//! for its applications; `docs/scheduling.md` discusses the limits of this
//! assumption), so a shrink slows a job down exactly as much as it frees
//! CPUs for someone else and the comparison between policies is purely
//! about *scheduling*. A job carrying a
//! [`SpeedupCurve`](drom_slurm::SpeedupCurve) (the model-aware traces, see
//! [`crate::rate`]) instead progresses at the calibrated per-width rate of
//! its application — static data partitions make shrinking cost more than
//! linear, memory-bound saturation makes expansion worthless — through
//! exactly the same integer accounting, and the scheduler's duration
//! estimates read the same curve, so estimates and simulated completions
//! agree by construction. Resize overhead is not modelled: the paper
//! measures DROM reconfiguration in microseconds against jobs that run for
//! minutes.
//!
//! Progress is accounted **exactly**, in integer work units
//! ([`JobProgress`]; CPU-microseconds for linear jobs, fixed-point units for
//! model jobs): the one rounding in the
//! engine is the completion event's wall-clock instant (rounded up to the
//! next whole microsecond), so arbitrary resize sequences can never drift a
//! job's completion away from the work actually delivered.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use drom_metrics::{JobRecord, Scenario, TimeUs, UtilizationStat, WorkloadReport};
use drom_slurm::policy::{SchedulerAction, SchedulerPolicy};
use drom_slurm::{PolicyScheduler, SchedulerStats, SlurmError};

use crate::progress::JobProgress;
use crate::rate::JobRate;
use crate::trace::TraceJob;

/// Hard cap on processed events per trace job: a scheduling policy that
/// resizes without converging would otherwise spin the virtual clock forever.
const EVENTS_PER_JOB_GUARD: u64 = 1000;

/// What happens at one instant of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A trace job (by index) is submitted.
    Arrival(usize),
    /// A running job finishes — valid only if `gen` still matches the job's
    /// run model (a resize reschedules completion under a fresh generation).
    Completion { job_id: u64, gen: u64 },
}

/// Run state of one running trace job — the replay loop's one per-job
/// record, opened at the job's start and dropped at its completion.
struct JobRun {
    /// How the delivery rate derives from the allocation: linear CPU-µs for
    /// model-less jobs (the PR 3/4 arithmetic, bit for bit), the job's
    /// speedup curve otherwise — the same curve the scheduler's estimates
    /// consult.
    rate: JobRate,
    /// Nodes of the allocation — the request's: a resize keeps the node set.
    nodes: usize,
    /// Exact integer progress (work remaining, delivery rate).
    progress: JobProgress,
    /// Generation of the currently valid completion event.
    gen: u64,
}

impl JobRun {
    /// `traced` starts at `width` CPUs per node: its whole work, declared at
    /// full request width, is still to deliver.
    fn start(traced: &TraceJob, width: usize, now: TimeUs) -> Self {
        let rate = JobRate::for_job(&traced.job);
        let nodes = traced.job.nodes;
        JobRun {
            progress: JobProgress::start_scaled(
                rate.work(traced.duration_us),
                rate.rate(nodes, width),
                now,
            ),
            rate,
            nodes,
            gen: 0,
        }
    }

    /// The job runs at `width` CPUs per node from `now` on (what the old
    /// rate delivered until `now` is accounted first). Returns the
    /// completion instant, valid under generation `gen` only.
    fn run_at(&mut self, width: usize, now: TimeUs, gen: u64) -> TimeUs {
        self.progress
            .set_rate(now, self.rate.rate(self.nodes, width));
        self.gen = gen;
        self.progress.completion_us()
    }
}

/// The outcome of replaying one trace under one policy.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// Name of the policy that ran.
    pub policy: &'static str,
    /// The run as a paper-style [`WorkloadReport`] (per-job submit / start /
    /// end records in completion order, plus every derived metric from the
    /// one `drom-metrics` implementation). The scenario is labelled
    /// [`Scenario::Drom`] regardless of policy — the trace engine always
    /// runs on the DROM-enabled stack; the policy name lives in
    /// [`policy`](Self::policy).
    pub report: WorkloadReport,
    /// CPU-time accounting over the whole run.
    pub utilization: UtilizationStat,
    /// What the scheduler did (starts, shrinks, expands, races).
    pub stats: SchedulerStats,
    /// Events the engine processed (arrivals, completions, stale completions).
    pub events_processed: u64,
}

impl ClusterRunReport {
    /// Per-job timing records, in completion order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.report.jobs
    }

    /// Makespan in seconds: last job end minus first job submission.
    pub fn makespan_s(&self) -> f64 {
        self.report.total_run_time() as f64 / 1e6
    }

    /// Mean response time in seconds.
    pub fn mean_response_s(&self) -> f64 {
        self.report.average_response_time() / 1e6
    }

    /// 95th-percentile response time in seconds.
    pub fn p95_response_s(&self) -> f64 {
        self.report.p95_response_time() / 1e6
    }

    /// Mean wait (queue) time in seconds.
    pub fn mean_wait_s(&self) -> f64 {
        self.report.average_wait_time() / 1e6
    }

    /// Node utilization over the run as a fraction in `[0, 1]`.
    pub fn utilization_fraction(&self) -> f64 {
        self.utilization.fraction()
    }
}

/// A homogeneous cluster on which traces are replayed.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSim {
    num_nodes: usize,
    node_cpus: usize,
}

impl ClusterSim {
    /// Creates a cluster of `num_nodes` nodes with `node_cpus` CPUs each.
    pub fn new(num_nodes: usize, node_cpus: usize) -> Self {
        ClusterSim {
            num_nodes: num_nodes.max(1),
            node_cpus: node_cpus.max(1),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// CPUs per node.
    pub fn node_cpus(&self) -> usize {
        self.node_cpus
    }

    /// Replays `trace` to completion under `policy`.
    ///
    /// # Errors
    ///
    /// * [`SlurmError::Unschedulable`] as soon as a trace job arrives that no
    ///   node can ever host — the engine refuses to livelock on it.
    /// * [`SlurmError::InvalidAction`] if the policy emits an action the
    ///   cluster state cannot honour.
    // PANIC: the trace-index map is keyed by every traced job id, and the
    // convergence guard flags a policy that stopped making progress — failing
    // fast on a broken engine invariant is the error contract here.
    pub fn run(
        &self,
        policy: Box<dyn SchedulerPolicy>,
        trace: &[TraceJob],
    ) -> Result<ClusterRunReport, SlurmError> {
        let mut sched = PolicyScheduler::new(self.num_nodes, self.node_cpus, policy);
        let policy_name = sched.policy_name();
        let index_of: HashMap<u64, usize> = trace
            .iter()
            .enumerate()
            .map(|(idx, t)| (t.job.id, idx))
            .collect();

        // Min-heap of (time, sequence, event); the sequence keeps same-instant
        // events in insertion order (completions before the arrivals they
        // unblock were pushed before them only if submitted earlier — ties are
        // resolved deterministically either way because the scheduler is
        // re-ticked after every event).
        let mut events: BinaryHeap<Reverse<(TimeUs, u64, Event)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        for (idx, tj) in trace.iter().enumerate() {
            events.push(Reverse((tj.job.submit_us, seq, Event::Arrival(idx))));
            seq += 1;
        }

        let mut runs: HashMap<u64, JobRun> = HashMap::new();
        let mut gen_counter: u64 = 0;
        let mut records: Vec<JobRecord> = Vec::new();
        let mut busy_cpu_us: u128 = 0;
        // The utilization interval is [first submission, last completion] —
        // a trace sliced out of a longer log may start far from t = 0, and
        // the cluster offered no schedulable capacity before its first job.
        let run_start: TimeUs = trace.iter().map(|t| t.job.submit_us).min().unwrap_or(0);
        let mut last_t: TimeUs = run_start;
        let mut processed: u64 = 0;
        let guard = (trace.len() as u64 + 1) * EVENTS_PER_JOB_GUARD;

        while let Some(Reverse((now, _, event))) = events.pop() {
            processed += 1;
            assert!(
                processed <= guard,
                "cluster simulation failed to converge under policy {policy_name}"
            );
            // A completion superseded by a resize changes nothing — and must
            // not advance the accounting clock either: a stale event can sit
            // *past* the real end of the run (an expand moves a completion
            // earlier), and letting it stretch `last_t` would inflate the
            // capacity denominator of exactly the policies that resize.
            if let Event::Completion { job_id, gen } = event {
                if !runs.get(&job_id).is_some_and(|r| r.gen == gen) {
                    continue;
                }
            }
            // Account the CPU time of the interval that just elapsed.
            busy_cpu_us += sched.allocated_cpus() as u128 * (now.saturating_sub(last_t)) as u128;
            last_t = now;

            match event {
                Event::Arrival(idx) => {
                    sched.submit(trace[idx].job.clone())?;
                }
                Event::Completion { job_id, gen: _ } => {
                    runs.remove(&job_id);
                    let done = sched.job_finished(job_id)?;
                    records.push(JobRecord::new(
                        format!("job{job_id}"),
                        done.job.submit_us,
                        done.start_us,
                        now,
                    ));
                }
            }

            for action in sched.tick(now)? {
                // A start opens the job's record, a resize finds it; either
                // way the job runs at the action's width from now on, and its
                // completion moves.
                let (SchedulerAction::Start {
                    job_id,
                    cpus_per_node: width,
                    ..
                }
                | SchedulerAction::Resize {
                    job_id,
                    cpus_per_node: width,
                }) = action;
                gen_counter += 1;
                let finish = runs
                    .entry(job_id)
                    .or_insert_with(|| JobRun::start(&trace[index_of[&job_id]], width, now))
                    .run_at(width, now, gen_counter);
                sched.set_expected_end(job_id, Some(finish));
                let completion = Event::Completion {
                    job_id,
                    gen: gen_counter,
                };
                events.push(Reverse((finish, seq, completion)));
                seq += 1;
            }
        }

        Ok(ClusterRunReport {
            policy: policy_name,
            report: WorkloadReport::new(Scenario::Drom, records),
            utilization: UtilizationStat {
                busy_cpu_us,
                capacity_cpu_us: (self.num_nodes * self.node_cpus) as u128
                    * last_t.saturating_sub(run_start) as u128,
            },
            stats: sched.stats(),
            events_processed: processed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::speedup_curve;
    use crate::trace::{
        mixed_hpc_trace, model_aware_trace, queue_churn_trace, reservation_heavy_trace,
    };
    use drom_apps::AppKind;
    use drom_slurm::policy::QueuedJob;
    use drom_slurm::{
        BackfillPolicy, FirstFitPolicy, MalleablePolicy, MalleableScanPolicy, SpeedupCurve,
    };

    fn tiny_trace() -> Vec<TraceJob> {
        mixed_hpc_trace(11, 60, 8, 16, 1.2).generate()
    }

    #[test]
    fn every_policy_completes_the_trace() {
        let sim = ClusterSim::new(8, 16);
        let trace = tiny_trace();
        for policy in [
            Box::new(FirstFitPolicy::default()) as Box<dyn SchedulerPolicy>,
            Box::new(BackfillPolicy::default()),
            Box::new(MalleablePolicy::default()),
        ] {
            let report = sim.run(policy, &trace).unwrap();
            assert_eq!(report.jobs().len(), trace.len(), "{}", report.policy);
            assert_eq!(report.stats.started as usize, trace.len());
            assert_eq!(report.stats.completed as usize, trace.len());
            assert!(report.makespan_s() > 0.0);
            assert!(report.mean_response_s() > 0.0);
            assert!(report.p95_response_s() >= report.mean_response_s() * 0.5);
            let util = report.utilization_fraction();
            assert!(util > 0.0 && util <= 1.0, "{}: util {util}", report.policy);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = ClusterSim::new(8, 16);
        let trace = tiny_trace();
        let a = sim
            .run(Box::new(MalleablePolicy::default()), &trace)
            .unwrap();
        let b = sim
            .run(Box::new(MalleablePolicy::default()), &trace)
            .unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn malleable_beats_first_fit_on_a_loaded_cluster() {
        let sim = ClusterSim::new(16, 16);
        let trace = mixed_hpc_trace(3, 150, 16, 16, 1.2).generate();
        let ff = sim
            .run(Box::new(FirstFitPolicy::default()), &trace)
            .unwrap();
        let mall = sim
            .run(Box::new(MalleablePolicy::default()), &trace)
            .unwrap();
        assert!(
            mall.makespan_s() < ff.makespan_s(),
            "malleable {} vs first-fit {}",
            mall.makespan_s(),
            ff.makespan_s()
        );
        assert!(mall.mean_response_s() < ff.mean_response_s());
        assert!(
            mall.stats.shrinks > 0,
            "the win must come from malleability"
        );
        assert!(mall.stats.expands > 0, "shrunk jobs must re-expand");
    }

    #[test]
    fn zero_duration_jobs_complete_instantly() {
        let jobs = vec![
            TraceJob {
                job: QueuedJob::new(1, 1, 8)
                    .with_submit_us(10)
                    .with_expected_duration_us(0),
                duration_us: 0,
            },
            TraceJob {
                job: QueuedJob::new(2, 1, 8)
                    .with_submit_us(10)
                    .with_expected_duration_us(100),
                duration_us: 100,
            },
        ];
        let report = ClusterSim::new(1, 16)
            .run(Box::new(FirstFitPolicy::default()), &jobs)
            .unwrap();
        assert_eq!(report.jobs().len(), 2);
        let zero = report.jobs().iter().find(|j| j.name == "job1").unwrap();
        assert_eq!(zero.start, 10);
        assert_eq!(zero.end, 10);
        assert_eq!(zero.response_time(), 0);
    }

    #[test]
    fn impossible_job_errors_instead_of_livelocking() {
        let jobs = vec![TraceJob {
            job: QueuedJob::new(1, 1, 32), // 32 CPUs per node on 16-CPU nodes
            duration_us: 100,
        }];
        for policy in [
            Box::new(FirstFitPolicy::default()) as Box<dyn SchedulerPolicy>,
            Box::new(BackfillPolicy::default()),
            Box::new(MalleablePolicy::default()),
        ] {
            let err = ClusterSim::new(4, 16).run(policy, &jobs).unwrap_err();
            assert!(matches!(err, SlurmError::Unschedulable { job_id: 1, .. }));
        }
    }

    #[test]
    fn shrink_to_admit_races_a_same_instant_completion() {
        // Job 1 owns the whole (single-node) cluster and completes at exactly
        // t = 1000 — the same instant job 3 arrives wanting the full node.
        // Job 2 (malleable, full width) starts at t=1000 too; the policy's
        // shrink/start decisions interleave with the completion at one
        // timestamp and must still converge with job 1's CPUs reused.
        let jobs = vec![
            TraceJob {
                job: QueuedJob::new(1, 1, 16)
                    .with_submit_us(0)
                    .with_expected_duration_us(1000),
                duration_us: 1000,
            },
            TraceJob {
                job: QueuedJob::new(2, 1, 16)
                    .malleable(4)
                    .with_submit_us(1000)
                    .with_expected_duration_us(4000),
                duration_us: 4000,
            },
            TraceJob {
                job: QueuedJob::new(3, 1, 8)
                    .with_submit_us(1000)
                    .with_expected_duration_us(1000),
                duration_us: 1000,
            },
        ];
        let report = ClusterSim::new(1, 16)
            .run(Box::new(MalleablePolicy::default()), &jobs)
            .unwrap();
        assert_eq!(report.jobs().len(), 3);
        // Jobs 2 and 3 start in the same pass, so job 2's shrink folds into a
        // narrower admission width rather than a separate resize; what must
        // remain is the re-expansion once job 3 completes.
        assert!(report.stats.expands >= 1);
        // Job 3 never waited for job 2 to finish.
        let j3 = report.jobs().iter().find(|j| j.name == "job3").unwrap();
        assert_eq!(j3.start, 1000);
        // Job 2 ran shrunk for a while, so it finished later than its full
        // width duration but the accounting still adds up.
        let j2 = report.jobs().iter().find(|j| j.name == "job2").unwrap();
        assert!(j2.run_time() > 4000);
        assert_eq!(report.stats.resize_races, 0);
    }

    /// Regression (shrunk-duration rounding, end to end): job 6 is admitted
    /// shrunk (13 CPUs requested, 7 granted → ends at 10 + ⌈101·13/7⌉ = 198),
    /// job 7 gets a drain reservation at exactly that instant, and job 8
    /// (duration 188, ending exactly at 198) is entitled to backfill the
    /// free CPUs at t = 10. With the old truncating estimate the reservation
    /// sat at 197 — one microsecond before the shrunk job actually releases
    /// its CPUs (a promise job 6 itself violates) — and job 8 was refused,
    /// waiting until t = 198 to start.
    #[test]
    fn truncated_shrunk_estimate_no_longer_blocks_boundary_backfill() {
        let rigid = |id, nodes, width, submit, dur| TraceJob {
            job: QueuedJob::new(id, nodes, width)
                .with_submit_us(submit)
                .with_expected_duration_us(dur),
            duration_us: dur,
        };
        let jobs = vec![
            rigid(1, 1, 16, 0, 50_000), // node 0, blocks it for good
            rigid(2, 3, 2, 0, 10),      // nodes 1–3: releases 2 CPUs each at t=10
            TraceJob {
                // node 1 donor: full width 13, floor 9 → 4 reclaimable
                job: QueuedJob::new(3, 1, 13)
                    .malleable(9)
                    .with_submit_us(0)
                    .with_expected_duration_us(40_000),
                duration_us: 40_000,
            },
            rigid(4, 1, 13, 0, 50_000), // node 2 filler
            rigid(5, 1, 13, 0, 50_000), // node 3 filler
            TraceJob {
                // Admitted shrunk at t=10: avail on node 1 = 3 free + 4
                // reclaimable = 7 ≥ its shrink floor ⌈13/2⌉ = 7.
                job: QueuedJob::new(6, 1, 13)
                    .malleable(1)
                    .with_submit_us(1)
                    .with_expected_duration_us(101),
                duration_us: 101,
            },
            rigid(7, 3, 3, 2, 1_000), // reserved at job 6's end
            rigid(8, 1, 2, 3, 188),   // ends exactly at the reservation
        ];
        let report = ClusterSim::new(4, 16)
            .run(Box::new(MalleablePolicy::default()), &jobs)
            .unwrap();
        let j6 = report.jobs().iter().find(|j| j.name == "job6").unwrap();
        assert_eq!(j6.start, 10, "job 6 is admitted (shrunk) at the release");
        assert_eq!(j6.end, 198, "exact engine completion: 10 + ⌈101·13/7⌉");
        let j8 = report.jobs().iter().find(|j| j.name == "job8").unwrap();
        assert_eq!(
            j8.start, 10,
            "job 8 ends exactly at the (rounded-up) reservation instant and \
             must backfill immediately"
        );
        assert_eq!(j8.end, 198);
    }

    /// The indexed malleable policy and the pre-index reference scan replay
    /// whole traces to byte-identical reports, stats and event counts —
    /// linear traces *and* model-aware ones, so the curve-driven donor
    /// ranking, shrink economics and expansion targeting are exercised by
    /// the differential too.
    #[test]
    fn indexed_policy_matches_reference_scan_on_traces() {
        for (seed, nodes, jobs, load) in
            [(11, 8, 60, 1.2), (3, 16, 150, 1.2), (2018, 32, 300, 1.15)]
        {
            let sim = ClusterSim::new(nodes, 16);
            for trace in [
                mixed_hpc_trace(seed, jobs, nodes, 16, load).generate(),
                model_aware_trace(seed, jobs, nodes, 16, load).generate(),
                // The reservation-dense stream: wide rigid jobs force a
                // drain reservation in most passes, so the timeline walk and
                // the replay reference disagree loudly if either drifts.
                reservation_heavy_trace(seed, jobs, nodes, 16, load).generate(),
                // The queue-churn stream: short jobs over-subscribe the
                // cluster so the waiting queue stays deep and every pass is
                // admission-bound — the surface where the incremental
                // admission order and the index's count histograms do their
                // work. The scan reference keeps the full re-sort and scans
                // every node per probe, so a tie-break slip or a drifted
                // count diverges here first.
                queue_churn_trace(seed, jobs, nodes, 16, load + 0.1).generate(),
            ] {
                let indexed = sim
                    .run(Box::new(MalleablePolicy::default()), &trace)
                    .unwrap();
                let scanned = sim
                    .run(Box::new(MalleableScanPolicy::default()), &trace)
                    .unwrap();
                assert_eq!(indexed.report, scanned.report, "seed {seed}");
                assert_eq!(indexed.stats, scanned.stats, "seed {seed}");
                assert_eq!(
                    indexed.events_processed, scanned.events_processed,
                    "seed {seed}"
                );
            }
        }
    }

    /// Linear (curve-less) traces replay **byte-identically to PR 5** under
    /// the curve-aware policy: these integer digests were captured from the
    /// committed pre-curve implementation (the one behind the PR 5 sweep
    /// tables in `BENCH_sched.json`), and the curve-driven donor ranking,
    /// shrink economics and expansion targeting must all collapse to the old
    /// rules when no job carries a curve. Any drift in a sum, stat or event
    /// count here means model-blind behaviour changed.
    #[test]
    fn linear_replay_is_pinned_to_the_pr5_committed_digests() {
        for (seed, nodes, jobs, load, digest) in [
            (
                2018u64,
                32usize,
                300usize,
                1.15f64,
                (
                    1_464_106_261_953u128,
                    1_740_934_542_902u128,
                    12_105_439_265u64,
                    87u64,
                    57u64,
                    744u64,
                ),
            ),
            (
                11,
                8,
                60,
                1.2,
                (214_581_415_225, 263_920_502_372, 7_774_986_649, 20, 13, 153),
            ),
        ] {
            let sim = ClusterSim::new(nodes, 16);
            let trace = mixed_hpc_trace(seed, jobs, nodes, 16, load).generate();
            let r = sim
                .run(Box::new(MalleablePolicy::default()), &trace)
                .unwrap();
            let sum_start: u128 = r.jobs().iter().map(|j| j.start as u128).sum();
            let sum_end: u128 = r.jobs().iter().map(|j| j.end as u128).sum();
            let got = (
                sum_start,
                sum_end,
                r.report.total_run_time(),
                r.stats.shrinks,
                r.stats.expands,
                r.events_processed,
            );
            assert_eq!(got, digest, "seed {seed}: linear replay drifted from PR 5");
        }

        // The reservation-dense stream, pinned the same way *before* the
        // release-timeline rewrite of `earliest_release_fit`: every pass on
        // this trace forecasts a drain reservation, so these digests are the
        // strongest byte-identity witness the timeline walk must reproduce.
        let sim = ClusterSim::new(32, 16);
        let trace = reservation_heavy_trace(2018, 300, 32, 16, 1.15).generate();
        let r = sim
            .run(Box::new(MalleablePolicy::default()), &trace)
            .unwrap();
        let sum_start: u128 = r.jobs().iter().map(|j| j.start as u128).sum();
        let sum_end: u128 = r.jobs().iter().map(|j| j.end as u128).sum();
        let got = (
            sum_start,
            sum_end,
            r.report.total_run_time(),
            r.stats.shrinks,
            r.stats.expands,
            r.events_processed,
        );
        assert_eq!(
            got,
            (
                1_051_586_406_371u128,
                1_187_645_406_137u128,
                8_044_835_231u64,
                119u64,
                96u64,
                815u64
            ),
            "reservation-dense replay drifted from the pre-timeline digests"
        );
    }

    /// Integer digest of a whole replay: start/end sums, total run time,
    /// shrink/expand counts and the event count. Two replays with equal
    /// digests on these traces are byte-identical for every purpose the
    /// sweep tables report.
    fn replay_digest(r: &ClusterRunReport) -> (u128, u128, u64, u64, u64, u64) {
        (
            r.jobs().iter().map(|j| j.start as u128).sum(),
            r.jobs().iter().map(|j| j.end as u128).sum(),
            r.report.total_run_time(),
            r.stats.shrinks,
            r.stats.expands,
            r.events_processed,
        )
    }

    /// The queue-churn stream replays byte-identically to the **pre-PR-8**
    /// full-re-sort / probe-everything implementation under all three
    /// policies. These digests were captured from the committed code
    /// *before* the incremental admission order and any count-based probe
    /// skip existed, so a count guard that rejects a probe the full scan
    /// would have passed — or any ordering slip in the incremental index —
    /// breaks a sum here. This trace keeps the queue deep on purpose: it is
    /// the admission-bound surface the machinery was built for.
    #[test]
    fn queue_churn_replay_is_pinned_for_all_policies() {
        let sim = ClusterSim::new(32, 16);
        let trace = queue_churn_trace(2018, 300, 32, 16, 1.3).generate();
        for (policy, digest) in [
            (
                Box::new(FirstFitPolicy::default()) as Box<dyn SchedulerPolicy>,
                (
                    126_393_560_709u128,
                    140_234_781_524u128,
                    988_475_237u64,
                    0u64,
                    0u64,
                    600u64,
                ),
            ),
            (
                Box::new(BackfillPolicy::default()),
                (115_757_635_249, 129_598_856_064, 970_711_602, 0, 0, 600),
            ),
            (
                Box::new(MalleablePolicy::default()),
                (105_120_910_445, 124_091_405_167, 934_436_021, 81, 87, 768),
            ),
        ] {
            let name = policy.name();
            let r = sim.run(policy, &trace).unwrap();
            assert_eq!(
                replay_digest(&r),
                digest,
                "{name}: queue-churn replay drifted from the pre-admission-index digests"
            );
        }
    }

    /// Mega-tier smoke: the 10 000-node cluster replaying a 2 000-job slice
    /// of the mega trace, pinned to pre-PR-8 digests for all three policies.
    /// Release-only — the debug-mode `debug_assert` oracles re-sort and
    /// rebuild on every pass, which is exactly the O(cluster) work this tier
    /// exists to avoid paying.
    #[cfg(not(debug_assertions))]
    #[test]
    fn mega_replay_smoke_is_pinned_for_all_policies() {
        let sim = ClusterSim::new(10_000, 16);
        let trace = crate::trace::mega_trace(2018, 2_000).generate();
        for (policy, digest) in [
            (
                Box::new(FirstFitPolicy::default()) as Box<dyn SchedulerPolicy>,
                (
                    8_079_087_724_395u128,
                    9_222_464_302_415u128,
                    10_038_384_031u64,
                    0u64,
                    0u64,
                    4_000u64,
                ),
            ),
            (
                Box::new(BackfillPolicy::default()),
                (
                    8_036_766_279_801,
                    9_180_142_857_821,
                    10_038_384_031,
                    0,
                    0,
                    4_000,
                ),
            ),
            (
                Box::new(MalleablePolicy::default()),
                (
                    7_316_703_157_087,
                    9_031_261_469_692,
                    9_549_445_946,
                    956,
                    888,
                    5_844,
                ),
            ),
        ] {
            let name = policy.name();
            let r = sim.run(policy, &trace).unwrap();
            assert_eq!(
                replay_digest(&r),
                digest,
                "{name}: mega replay drifted from the pre-admission-index digests"
            );
        }
    }

    /// Differential: attaching an explicitly **linear** curve to every job
    /// replays byte-identically to attaching no curve at all — the
    /// model-aware path is purely additive over the PR 4 engine.
    #[test]
    fn linear_curves_replay_byte_identically_to_no_curves() {
        let sim = ClusterSim::new(8, 16);
        let base = tiny_trace();
        let with_curves: Vec<TraceJob> = base
            .iter()
            .cloned()
            .map(|mut t| {
                t.job.speedup = Some(SpeedupCurve::linear(t.job.cpus_per_node));
                t
            })
            .collect();
        for policy in [
            Box::new(FirstFitPolicy::default()) as Box<dyn SchedulerPolicy>,
            Box::new(BackfillPolicy::default()),
            Box::new(MalleablePolicy::default()),
        ] {
            let name = policy.name();
            let plain = sim.run(policy, &base).unwrap();
            let curved = match name {
                "first-fit" => sim.run(Box::new(FirstFitPolicy::default()), &with_curves),
                "backfill" => sim.run(Box::new(BackfillPolicy::default()), &with_curves),
                _ => sim.run(Box::new(MalleablePolicy::default()), &with_curves),
            }
            .unwrap();
            assert_eq!(plain.report, curved.report, "{name}");
            assert_eq!(plain.stats, curved.stats, "{name}");
            assert_eq!(plain.events_processed, curved.events_processed, "{name}");
        }
    }

    /// A policy that never resizes (first-fit) replays a model-aware trace
    /// identically to its linear twin: at full width every curve delivers
    /// exactly the declared duration, so the models only matter where
    /// malleability does.
    #[test]
    fn first_fit_is_blind_to_the_app_models() {
        let sim = ClusterSim::new(8, 16);
        let linear = mixed_hpc_trace(11, 60, 8, 16, 1.2).generate();
        let model = model_aware_trace(11, 60, 8, 16, 1.2).generate();
        let a = sim
            .run(Box::new(FirstFitPolicy::default()), &linear)
            .unwrap();
        let b = sim
            .run(Box::new(FirstFitPolicy::default()), &model)
            .unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.events_processed, b.events_processed);
    }

    /// Whole-scenario regression for the static-partition expansion
    /// over-speedup: a NEST-like job *launched* with 8 threads per node
    /// whose allocation request is 16 wide gains nothing from the extra
    /// CPUs, so shrinking it back to its launch width is free — its
    /// completion stays exactly at its full-width duration. Pre-fix,
    /// `effective_parallelism` treated width 16 as twice width 8, so the
    /// same shrink stretched the job's completion by ~50%.
    #[test]
    fn static_partition_job_shrinks_to_launch_width_for_free() {
        let curve = speedup_curve(AppKind::Nest, 8, 16);
        assert_eq!(
            curve.rate(8),
            curve.rate(16),
            "the launch width is the whole-curve plateau post-fix"
        );
        let jobs = vec![
            TraceJob {
                job: QueuedJob::new(1, 1, 16)
                    .malleable(8)
                    .with_submit_us(0)
                    .with_expected_duration_us(1_000)
                    .with_speedup(curve),
                duration_us: 1_000,
            },
            TraceJob {
                job: QueuedJob::new(2, 1, 8)
                    .with_submit_us(10)
                    .with_expected_duration_us(500),
                duration_us: 500,
            },
        ];
        let report = ClusterSim::new(1, 16)
            .run(Box::new(MalleablePolicy::default()), &jobs)
            .unwrap();
        assert!(report.stats.shrinks >= 1, "job 1 is shrunk to admit job 2");
        let j2 = report.jobs().iter().find(|j| j.name == "job2").unwrap();
        assert_eq!(j2.start, 10, "job 2 is admitted by the shrink");
        let j1 = report.jobs().iter().find(|j| j.name == "job1").unwrap();
        assert_eq!(
            j1.end, 1_000,
            "shrinking to the launch width must not slow the job at all"
        );
    }

    /// Model-aware estimate honesty, end to end: a static-partition job
    /// admitted shrunk gets a curve-scaled completion estimate from the
    /// controller, and the engine completes it at **exactly** that instant —
    /// the estimate and the progress accounting read the same curve.
    #[test]
    fn model_estimates_match_engine_completions_exactly() {
        let curve = speedup_curve(AppKind::Nest, 16, 16);
        let jobs = vec![
            TraceJob {
                // Rigid 7-wide blocker that outlives everything: 9 CPUs
                // stay free — an *uneven* share of the 16-chunk partition.
                job: QueuedJob::new(1, 1, 7)
                    .with_submit_us(0)
                    .with_expected_duration_us(1_000_000),
                duration_us: 1_000_000,
            },
            TraceJob {
                // NEST-like: request 16, admitted shrunk at the 9 free CPUs
                // and stuck there for its whole life.
                job: QueuedJob::new(2, 1, 16)
                    .malleable(8)
                    .with_submit_us(10)
                    .with_expected_duration_us(1_000)
                    .with_speedup(curve.clone()),
                duration_us: 1_000,
            },
        ];
        let report = ClusterSim::new(1, 16)
            .run(Box::new(MalleablePolicy::default()), &jobs)
            .unwrap();
        let j2 = report.jobs().iter().find(|j| j.name == "job2").unwrap();
        assert_eq!(j2.start, 10);
        let predicted = 10 + curve.scaled_duration_us(1_000, 9);
        assert_eq!(
            j2.end, predicted,
            "engine completion must equal the curve-scaled estimate"
        );
        // And the curve says the uneven 16→9 shrink costs *more* than the
        // linear ⌈1000·16/9⌉ = 1778: nine threads carry sixteen chunks no
        // faster than eight would, so the sub-linear penalty is visible end
        // to end.
        assert!(
            curve.scaled_duration_us(1_000, 9) > 1_778,
            "an uneven static shrink must cost more than linear, got {}",
            curve.scaled_duration_us(1_000, 9)
        );
    }

    /// The committed model-aware tier claim: under the calibrated app mix
    /// the malleable policy's shrinks are no longer free (and its honest
    /// estimates move every reservation), so the replay differs measurably
    /// from its linear twin — same arrivals, same durations, same policy,
    /// only the speedup curves differ. The *direction* of the shift is an
    /// empirical result recorded in EXPERIMENTS.md, not a theorem: costlier
    /// shrinks hurt, but the longer (honest) estimates also reshape
    /// reservations and backfill.
    #[test]
    fn model_coupling_measurably_shifts_malleable_outcomes() {
        let sim = ClusterSim::new(16, 16);
        let linear = mixed_hpc_trace(3, 150, 16, 16, 1.2).generate();
        let model = model_aware_trace(3, 150, 16, 16, 1.2).generate();
        let lin = sim
            .run(Box::new(MalleablePolicy::default()), &linear)
            .unwrap();
        let modl = sim
            .run(Box::new(MalleablePolicy::default()), &model)
            .unwrap();
        assert!(modl.stats.shrinks > 0, "malleability must still engage");
        let delta = (modl.mean_response_s() - lin.mean_response_s()).abs() / lin.mean_response_s();
        assert!(
            delta > 0.02,
            "the model coupling must move mean response by a measurable \
             amount: model {} vs linear {}",
            modl.mean_response_s(),
            lin.mean_response_s()
        );
    }

    #[test]
    fn backfill_beats_first_fit_on_response_time() {
        let sim = ClusterSim::new(16, 16);
        let trace = mixed_hpc_trace(3, 150, 16, 16, 1.2).generate();
        let ff = sim
            .run(Box::new(FirstFitPolicy::default()), &trace)
            .unwrap();
        let bf = sim
            .run(Box::new(BackfillPolicy::default()), &trace)
            .unwrap();
        assert!(
            bf.mean_response_s() <= ff.mean_response_s(),
            "backfill {} vs first-fit {}",
            bf.mean_response_s(),
            ff.mean_response_s()
        );
    }
}
