//! Discrete-event replay of the paper's workload experiments in virtual time.
//!
//! The evaluation (Section 6) runs two-job workloads on two MareNostrum III
//! nodes and compares a *Serial* scenario (the second job waits for the first
//! to free the nodes) against the *DROM* scenario (the second job is
//! co-allocated and the node CPUs are repartitioned on the fly). We cannot run
//! on MN3, so this crate replays those workloads in virtual time:
//!
//! * admission is the evaluation's rule — Serial runs one job at a time, DROM
//!   co-allocates up to two per node — and placement is the equipartition
//!   arithmetic of `drom-cpuset` the real `task/affinity` path uses;
//! * the progress of every job under a given CPU assignment comes from the
//!   calibrated application models of `drom-apps::perfmodel`.
//!
//! The result of a simulation is a [`WorkloadReport`](drom_metrics::WorkloadReport)
//! (total run time, per-job response times) plus the per-job execution
//! [`segments`](JobSegment) from which the Figure 13 cycles/µs timelines and
//! the Figure 14 IPC histograms are derived.
//!
//! # Example: use case 1 (in-situ analytics), Serial vs DROM
//!
//! ```
//! use drom_sim::{Scenario, WorkloadSimulator};
//! use drom_sim::scenario::in_situ_workload;
//! use drom_apps::Table1;
//!
//! let workload = in_situ_workload(Table1::NEST_CONF1, Table1::PILS_CONF2, 100.0);
//! let serial = WorkloadSimulator::new(Scenario::Serial).run(&workload);
//! let drom = WorkloadSimulator::new(Scenario::Drom).run(&workload);
//! // DROM completes the workload sooner and improves the average response time.
//! assert!(drom.report.total_run_time() < serial.report.total_run_time());
//! assert!(drom.report.average_response_time() < serial.report.average_response_time());
//! ```
//!
//! # Beyond the paper: cluster-scale trace replay
//!
//! The [`cluster`] engine replays *synthetic workload traces* (hundreds of
//! nodes, thousands of jobs) against any
//! [`SchedulerPolicy`](drom_slurm::policy::SchedulerPolicy), reporting
//! makespan, mean/P95 response time and node utilization — the experiment
//! the `cluster_sweep` binary runs to compare first-fit, backfill and the
//! DROM-malleable policy on the same job stream:
//!
//! ```
//! use drom_sim::{ClusterSim, mixed_hpc_trace};
//! use drom_slurm::{FirstFitPolicy, MalleablePolicy};
//!
//! // A small loaded cluster: 8 nodes × 16 CPUs, 40 jobs at ~1.2× capacity.
//! let trace = mixed_hpc_trace(42, 40, 8, 16, 1.2).generate();
//! let sim = ClusterSim::new(8, 16);
//! let first_fit = sim.run(Box::new(FirstFitPolicy::default()), &trace).unwrap();
//! let malleable = sim.run(Box::new(MalleablePolicy::default()), &trace).unwrap();
//! // Shrinking running jobs to admit queued work cuts the queue wait.
//! assert!(malleable.mean_response_s() <= first_fit.mean_response_s());
//! assert!(malleable.stats.started == 40 && malleable.stats.completed == 40);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod progress;
pub mod rate;
pub mod report;
pub mod scenario;
pub mod trace;

pub use cluster::{ClusterRunReport, ClusterSim};
pub use engine::{JobSegment, SimulationResult, WorkloadSimulator};
pub use progress::JobProgress;
pub use rate::{phase_rate, speedup_curve, JobRate};
pub use report::{comparison_row, ipc_samples, job_cycles_series, ComparisonRow};
pub use scenario::{high_priority_workload, in_situ_workload, SimJob};
pub use trace::{
    default_app_mix, mega_trace, mixed_hpc_trace, model_aware_trace, queue_churn_trace,
    reservation_heavy_trace, scale_out_trace, ArrivalProcess, JobClass, TraceConfig, TraceJob,
};

/// Re-export of the scenario enum shared with the metrics crate.
pub use drom_metrics::Scenario;
