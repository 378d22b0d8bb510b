//! A SLURM-like node manager with a DROM-enabled `task/affinity` plugin.
//!
//! Section 5 of the paper integrates DROM into SLURM without touching the
//! cluster controller: "Slurmctld … is unchanged, as the purpose is to give a
//! proof of integration of DROM APIs, not to present new scheduling policies.
//! … the implementation is enclosed in the SLURM's task/affinity plugin, in
//! charge of distributing the resources assigned by slurmctld to the job's
//! tasks." This crate reproduces exactly that division of labour:
//!
//! * [`Slurmd`] — the per-node daemon. Its `launch_request` computes the CPU
//!   masks for the starting job's tasks and, when another job already runs on
//!   the node, new (shrunk) masks for the running tasks (equipartition,
//!   socket-aware).
//! * [`SlurmStepd`] — the step daemon: `pre_launch` reserves the computed mask
//!   through `DROM_PreInit` (shrinking the victims), `post_term` cleans up with
//!   `DROM_PostFinalize`.
//! * [`Srun`] — the launcher tying the two together for a whole job across
//!   nodes, plus `release_resources` redistributing CPUs when a job ends.
//! * [`Cluster`] — node inventory (topology + per-node DROM shared memory).
//! * [`policy`] — the step beyond the paper: a pluggable [`SchedulerPolicy`]
//!   trait with first-fit, conservative-backfill and malleable
//!   (shrink-to-admit) implementations, driven by [`PolicyScheduler`] and
//!   benchmarked at cluster scale by `drom-sim`'s trace engine. See
//!   `docs/scheduling.md` for the policy semantics.
//!
//! # Example: co-allocating two jobs on one node
//!
//! ```
//! use std::sync::Arc;
//! use drom_slurm::{Cluster, JobSpec, Srun};
//! use drom_core::DromProcess;
//!
//! let cluster = Arc::new(Cluster::marenostrum3(1));
//! let srun = Srun::new(Arc::clone(&cluster), true);
//!
//! // Job 1: one task using the whole 16-CPU node.
//! let job1 = JobSpec::new(1, "simulation").with_tasks(1);
//! let launched1 = srun.launch(&job1, &["node0".into()]).unwrap();
//! let proc1 = DromProcess::init_from_environ(
//!     &launched1.tasks[0].environ,
//!     cluster.shmem("node0").unwrap(),
//! ).unwrap();
//! assert_eq!(proc1.num_cpus(), 16);
//!
//! // Job 2 arrives: the plugin shrinks job 1 and gives half the node to job 2.
//! let job2 = JobSpec::new(2, "analytics").with_tasks(2);
//! let launched2 = srun.launch(&job2, &["node0".into()]).unwrap();
//! assert_eq!(launched2.tasks.len(), 2);
//! // Job 1 observes the shrink at its next malleability point.
//! assert_eq!(proc1.poll_drom().unwrap().unwrap().count(), 8);
//! ```
//!
//! # Example: a custom scheduling policy
//!
//! Policies are pure decision procedures over a [`ClusterView`]; the
//! [`PolicyScheduler`] validates and applies whatever they return. A complete
//! policy fits in a few lines — here, one that only ever starts single-node
//! jobs, at full width, on the emptiest node:
//!
//! ```
//! use drom_slurm::policy::{
//!     ClusterView, QueuedJob, SchedulerAction, SchedulerPolicy,
//! };
//! use drom_slurm::PolicyScheduler;
//!
//! struct SmallJobsOnly;
//!
//! impl SchedulerPolicy for SmallJobsOnly {
//!     fn name(&self) -> &'static str {
//!         "small-jobs-only"
//!     }
//!     fn schedule(
//!         &mut self,
//!         view: &ClusterView<'_>,
//!         queue: &[QueuedJob],
//!         _now_us: u64,
//!     ) -> Vec<SchedulerAction> {
//!         let mut free = view.free().to_vec();
//!         let mut actions = Vec::new();
//!         for job in queue.iter().filter(|j| j.nodes == 1) {
//!             // Emptiest node first; ties break on the lower index.
//!             let Some((node, _)) = free
//!                 .iter()
//!                 .enumerate()
//!                 .max_by_key(|&(i, &f)| (f, std::cmp::Reverse(i)))
//!             else {
//!                 break;
//!             };
//!             if free[node] < job.cpus_per_node {
//!                 continue;
//!             }
//!             free[node] -= job.cpus_per_node;
//!             actions.push(SchedulerAction::Start {
//!                 job_id: job.id,
//!                 node_indices: vec![node],
//!                 cpus_per_node: job.cpus_per_node,
//!             });
//!         }
//!         actions
//!     }
//! }
//!
//! let mut sched = PolicyScheduler::new(4, 16, Box::new(SmallJobsOnly));
//! sched.submit(QueuedJob::new(1, 1, 8)).unwrap();
//! sched.submit(QueuedJob::new(2, 2, 8)).unwrap(); // two nodes: never picked
//! let applied = sched.tick(0).unwrap();
//! assert_eq!(applied.len(), 1);
//! assert_eq!(sched.queue_len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod affinity;
pub mod cluster;
pub mod controller;
pub mod error;
pub mod job;
pub mod launcher;
pub mod policy;
pub mod slurmd;
pub mod stepd;

pub use affinity::{AffinityPlugin, NodeLaunchPlan};
pub use cluster::{Cluster, NodeHw};
pub use controller::{PolicyScheduler, SchedulerStats};
pub use error::SlurmError;
pub use job::{JobSpec, JobState};
pub use launcher::{LaunchedJob, LaunchedTask, Srun};
pub use policy::{
    AdmissionOrder, BackfillPolicy, ClusterView, FirstFitPolicy, JobAllocation, MalleablePolicy,
    MalleableScanPolicy, QueuedJob, RunningJob, SchedIndex, SchedulerAction, SchedulerPolicy,
    SpeedupCurve,
};
pub use slurmd::Slurmd;
pub use stepd::SlurmStepd;
