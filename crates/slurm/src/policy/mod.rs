//! Pluggable cluster-scheduling policies over a CPU-level cluster view.
//!
//! The paper deliberately leaves `slurmctld` untouched ("the purpose is to
//! give a proof of integration of DROM APIs, not to present new scheduling
//! policies"). This module is the step beyond that proof: it defines the
//! [`SchedulerPolicy`] trait — a cluster-wide decision procedure fed a
//! [`ClusterView`] and a queue of [`QueuedJob`]s — and three implementations:
//!
//! * [`FirstFitPolicy`] — the baseline: FCFS order, first-fit placement,
//!   head-of-line blocking. This is the paper's unmodified-controller
//!   behaviour lifted to CPU granularity.
//! * [`BackfillPolicy`] — conservative EASY-style backfill: one reservation
//!   for the blocked head job; only jobs with a declared time limit that
//!   finish before the reservation may jump the queue.
//! * [`MalleablePolicy`] — the DROM-enabled policy: when the head job does not
//!   fit, running malleable jobs are *shrunk* (down to their per-node floor)
//!   to admit it, and re-expanded toward their full request whenever CPUs free
//!   up. On the execution path the shrink/expand actions map onto the
//!   `DROM_PreInit` steal and pending-mask machinery (see
//!   [`Slurmd::shrink_job`](crate::Slurmd::shrink_job) and
//!   [`Slurmd::release_resources`](crate::Slurmd::release_resources)); in the
//!   trace-driven simulator they map onto virtual-time reallocation.
//!
//! Policies are pure decision procedures: they never mutate cluster state.
//! The [`PolicyScheduler`](crate::PolicyScheduler) applies (and validates)
//! the returned [`SchedulerAction`]s, so a buggy policy cannot oversubscribe
//! a node. The scheduler also maintains a [`SchedIndex`] — per-node free /
//! reclaimable CPUs, donor lists and the node-count histograms over them,
//! updated event-by-event — and an [`AdmissionOrder`] over the waiting
//! queue; every [`ClusterView`] carries both, so a pass never rescans the
//! running set, counts nodes or re-sorts the queue
//! ([`MalleableScanPolicy`] preserves the pre-index reference for
//! differential tests and benches). `docs/scheduling.md` documents the exact
//! semantics of each policy, the complexity budget, and how a shrink
//! composes with the registry's pending-mask rules.
//!
//! Layout: `curve` (speedup curves), `index` (the [`SchedIndex`], its count
//! histograms and its release timeline), `admission` (the maintained order),
//! `placement` (first-fit, the FCFS phase and the timeline forecast every
//! policy shares), one file per policy, and
//! `reference` (the pre-index implementations the differential tests and
//! benches compare against).

mod admission;
mod backfill;
mod curve;
mod first_fit;
mod index;
mod malleable;
mod placement;
mod reference;
#[cfg(test)]
mod tests;

use drom_metrics::TimeUs;

use crate::job::JobSpec;

pub use admission::AdmissionOrder;
pub use backfill::BackfillPolicy;
pub use curve::SpeedupCurve;
pub use first_fit::FirstFitPolicy;
pub use index::{FreeHist, ReleaseTimeline, SchedIndex};
pub use malleable::MalleablePolicy;
pub use reference::MalleableScanPolicy;

/// A job submission as the scheduling policies see it: pure resource shape,
/// no application payload.
///
/// Widths are *per node*: a job asks for `nodes × cpus_per_node` CPUs and a
/// malleable job may run anywhere between `nodes × min_cpus_per_node` and its
/// full request (the allocation width is uniform across its nodes, matching
/// the block task distribution every workload of the paper uses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// Unique job identifier.
    pub id: u64,
    /// Submission time (virtual µs).
    pub submit_us: TimeUs,
    /// Number of nodes requested.
    pub nodes: usize,
    /// CPUs requested on each of those nodes.
    pub cpus_per_node: usize,
    /// Smallest per-node width the job tolerates (= `cpus_per_node` for a
    /// rigid job; typically one CPU per task for a malleable one).
    pub min_cpus_per_node: usize,
    /// `true` if the job tolerates having its CPUs changed at run time.
    pub malleable: bool,
    /// Scheduling priority (larger is more urgent).
    pub priority: u32,
    /// Expected duration (virtual µs) at full request width, if declared.
    /// Backfill reservations treat `None` as "unbounded".
    pub expected_duration_us: Option<TimeUs>,
    /// The job's speedup curve, when its application model is known. `None`
    /// means linear speedup (`rate ∝ width`) — the PR 3/4 behaviour. Every
    /// duration estimate the policies and the controller derive for a
    /// non-full width consults this curve, so drain reservations stay honest
    /// when shrinking a static-partition job costs more than linear.
    pub speedup: Option<SpeedupCurve>,
}

impl QueuedJob {
    /// Creates a rigid job: `nodes × cpus_per_node`, no time limit.
    pub fn new(id: u64, nodes: usize, cpus_per_node: usize) -> Self {
        QueuedJob {
            id,
            submit_us: 0,
            nodes: nodes.max(1),
            cpus_per_node: cpus_per_node.max(1),
            min_cpus_per_node: cpus_per_node.max(1),
            malleable: false,
            priority: 0,
            expected_duration_us: None,
            speedup: None,
        }
    }

    /// Marks the job malleable, able to shrink to `min_cpus_per_node`.
    pub fn malleable(mut self, min_cpus_per_node: usize) -> Self {
        self.malleable = true;
        self.min_cpus_per_node = min_cpus_per_node.clamp(1, self.cpus_per_node);
        self
    }

    /// Sets the submission time.
    pub fn with_submit_us(mut self, submit_us: TimeUs) -> Self {
        self.submit_us = submit_us;
        self
    }

    /// Sets the priority.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Declares the expected duration (enables backfilling around this job).
    pub fn with_expected_duration_us(mut self, duration_us: TimeUs) -> Self {
        self.expected_duration_us = Some(duration_us);
        self
    }

    /// Attaches the job's speedup curve (model-aware scaling for every
    /// shrunk-width duration estimate).
    pub fn with_speedup(mut self, curve: SpeedupCurve) -> Self {
        self.speedup = Some(curve);
        self
    }

    /// Expected duration (µs) of this job granted `width` CPUs per node
    /// instead of its full request: the speedup curve when the job carries
    /// one, linear `⌈duration × request / width⌉` scaling otherwise. Rounds
    /// **up** — a truncated (optimistic) estimate lets a drain reservation
    /// promise an instant the shrunk job itself still occupies.
    pub fn scaled_duration_us(&self, duration_us: TimeUs, width: usize) -> TimeUs {
        match &self.speedup {
            Some(curve) => curve.scaled_duration_us(duration_us, width),
            None => curve::scaled_duration(duration_us, self.cpus_per_node, width),
        }
    }

    /// When this job, started (or re-estimated) at `now_us` with `width` CPUs
    /// per node, is expected to end: the one width-scaled start estimate the
    /// malleable pass plans around and the controller records. `None`
    /// without a declared duration.
    pub(crate) fn expected_end_us(&self, now_us: TimeUs, width: usize) -> Option<TimeUs> {
        self.expected_duration_us
            .map(|d| now_us.saturating_add(self.scaled_duration_us(d, width)))
    }

    /// The width below which the malleable policy will not push this job:
    /// its declared floor, but never less than half its request.
    pub(crate) fn shrink_floor(&self) -> usize {
        self.min_cpus_per_node
            .max(self.cpus_per_node.div_ceil(2))
            .max(1)
    }

    /// CPUs per node this job holds above its shrink floor at `width`.
    pub(crate) fn spare(&self, width: usize) -> usize {
        width.saturating_sub(self.shrink_floor())
    }

    /// The part of [`spare`](Self::spare) this job's curve prices at zero:
    /// what it can give up at `width` without losing any throughput (0 for a
    /// curve-less linear job).
    pub(crate) fn cheap_spare(&self, width: usize) -> usize {
        match &self.speedup {
            Some(curve) => curve.zero_cost_run(width, self.spare(width)),
            None => 0,
        }
    }

    /// Derives the policy-level shape from a [`JobSpec`]: the per-node width
    /// is the widest node's `tasks × threads`, the malleable floor is one CPU
    /// per task, and the expected duration is the declared time limit.
    pub fn from_spec(spec: &JobSpec) -> Self {
        let tasks_widest = spec.tasks_per_node().into_iter().max().unwrap_or(1).max(1);
        let request = tasks_widest * spec.threads_per_task.max(1);
        QueuedJob {
            id: spec.id,
            submit_us: spec.submit_time,
            nodes: spec.nodes.max(1),
            cpus_per_node: request,
            min_cpus_per_node: if spec.malleable {
                tasks_widest
            } else {
                request
            },
            malleable: spec.malleable,
            priority: spec.priority,
            expected_duration_us: spec.time_limit_us,
            speedup: None,
        }
    }

    /// Total CPUs of the full request.
    pub fn total_cpus(&self) -> usize {
        self.nodes * self.cpus_per_node
    }

    /// Checks that the job could start on a cluster of `num_nodes` nodes of
    /// `node_cpus` CPUs if every CPU were free. Returns the reason it never
    /// can, if so — the admission guard that keeps impossible jobs out of
    /// the queue (error, not livelock).
    pub fn fits_ever(&self, num_nodes: usize, node_cpus: usize) -> Result<(), String> {
        if self.cpus_per_node == 0 || self.nodes == 0 {
            return Err("job requests zero CPUs".into());
        }
        if self.nodes > num_nodes {
            return Err(format!(
                "wants {} nodes, cluster has {num_nodes}",
                self.nodes
            ));
        }
        if self.cpus_per_node > node_cpus {
            return Err(format!(
                "wants {} CPUs per node, nodes have {node_cpus}",
                self.cpus_per_node
            ));
        }
        if self.min_cpus_per_node > self.cpus_per_node {
            return Err(format!(
                "malleable floor {} exceeds request {}",
                self.min_cpus_per_node, self.cpus_per_node
            ));
        }
        Ok(())
    }
}

/// Where a running job's CPUs live: a set of nodes and the uniform per-node
/// width currently granted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobAllocation {
    /// The allocated job.
    pub job_id: u64,
    /// Indices (into the cluster's node list) of the allocated nodes.
    pub node_indices: Vec<usize>,
    /// CPUs currently granted on each of those nodes.
    pub cpus_per_node: usize,
}

impl JobAllocation {
    /// Total CPUs of the allocation.
    pub fn total_cpus(&self) -> usize {
        self.node_indices.len() * self.cpus_per_node
    }
}

/// A running job in the [`ClusterView`]: its request, its current allocation
/// and the controller's completion estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningJob {
    /// The job's original request.
    pub job: QueuedJob,
    /// Current allocation.
    pub alloc: JobAllocation,
    /// When the job started (virtual µs).
    pub start_us: TimeUs,
    /// Estimated completion time, refreshed by the engine driving the
    /// scheduler; `None` when no estimate exists.
    pub expected_end_us: Option<TimeUs>,
}

impl RunningJob {
    /// `true` if the job currently holds fewer CPUs than it requested.
    pub fn is_shrunk(&self) -> bool {
        self.alloc.cpus_per_node < self.job.cpus_per_node
    }
}

/// What a policy may ask the cluster to do. Actions are validated and applied
/// by [`PolicyScheduler::tick`](crate::PolicyScheduler::tick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerAction {
    /// Start a queued job on the given nodes at the given per-node width
    /// (which may be below its request if the job is malleable).
    Start {
        /// The queued job to start.
        job_id: u64,
        /// Node indices of the allocation.
        node_indices: Vec<usize>,
        /// CPUs granted on each node.
        cpus_per_node: usize,
    },
    /// Change a running malleable job's per-node width (shrink or expand),
    /// keeping its node set.
    Resize {
        /// The running job to resize.
        job_id: u64,
        /// The new per-node width.
        cpus_per_node: usize,
    },
}

/// Read-only cluster state handed to a policy: homogeneous node capacity,
/// every running job, and the driver's maintained [`SchedIndex`] and
/// [`AdmissionOrder`]. The index is the one source of truth for per-node
/// free CPUs ([`free`](Self::free)); a driver that keeps no incremental
/// state builds both one-shot with [`SchedIndex::rebuild`] and
/// [`AdmissionOrder::from_queue`].
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// CPUs per node (the cluster is homogeneous, like the paper's).
    pub node_cpus: usize,
    /// Every running job with its current allocation.
    pub running: &'a [RunningJob],
    /// Per-node free / reclaimable CPUs, donor lists and the release
    /// timeline over `running`.
    pub index: &'a SchedIndex,
    /// The admission order over the queue passed to
    /// [`SchedulerPolicy::schedule`] next to this view.
    pub order: &'a AdmissionOrder,
}

impl<'a> ClusterView<'a> {
    /// Free CPUs on each node, indexed by node.
    pub fn free(&self) -> &'a [usize] {
        self.index.free()
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.free().len()
    }

    /// Total free CPUs across the cluster.
    pub fn total_free(&self) -> usize {
        self.free().iter().sum()
    }
}

/// A cluster-wide scheduling policy: given the current state and queue, emit
/// the actions to take *now*. Called at every scheduling event (submission,
/// completion, explicit tick); must be deterministic for a given input.
pub trait SchedulerPolicy: Send {
    /// Short policy name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Decides what to start/resize right now. Implementations must not
    /// assume their actions are applied — the scheduler validates them.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction>;
}
