//! Errors of the SLURM-like node manager.

use std::fmt;

use drom_core::DromError;

/// Errors returned by the scheduler, the node daemons and the launcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlurmError {
    /// The requested node does not exist in the cluster.
    UnknownNode {
        /// The unknown node name.
        node: String,
    },
    /// The node already runs a job and DROM co-allocation is disabled.
    NodeBusy {
        /// The busy node.
        node: String,
    },
    /// The job asks for more tasks than the node can hold (every task needs at
    /// least one CPU).
    NotEnoughCpus {
        /// The node that cannot satisfy the request.
        node: String,
        /// Tasks requested on that node.
        requested_tasks: usize,
        /// CPUs physically available.
        available_cpus: usize,
    },
    /// The job is unknown to the daemon (e.g. completing a job twice).
    UnknownJob {
        /// The unknown job id.
        job_id: u64,
    },
    /// No node of the cluster can ever satisfy the job's request, even with
    /// every CPU free: admitting it to the queue would livelock the scheduler,
    /// so submission must fail instead.
    Unschedulable {
        /// The job that can never start.
        job_id: u64,
        /// Human-readable explanation of the impossible requirement.
        reason: String,
    },
    /// A job with this id is already waiting in the queue. Waiting ids key
    /// the admission order, so the second copy is rejected.
    DuplicateJob {
        /// The id that is already queued.
        job_id: u64,
    },
    /// A scheduling policy emitted an action the cluster state cannot honour
    /// (overcommitted node, resize outside the job's malleable range, …).
    /// The action is rejected before any state changes.
    InvalidAction {
        /// The job the action referred to.
        job_id: u64,
        /// What was wrong with the action.
        reason: String,
    },
    /// An underlying DROM call failed.
    Drom(DromError),
}

impl fmt::Display for SlurmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlurmError::UnknownNode { node } => write!(f, "unknown node {node}"),
            SlurmError::NodeBusy { node } => {
                write!(f, "node {node} is busy and co-allocation is disabled")
            }
            SlurmError::NotEnoughCpus {
                node,
                requested_tasks,
                available_cpus,
            } => write!(
                f,
                "node {node} cannot host {requested_tasks} tasks with only {available_cpus} cpus"
            ),
            SlurmError::UnknownJob { job_id } => write!(f, "unknown job {job_id}"),
            SlurmError::Unschedulable { job_id, reason } => {
                write!(f, "job {job_id} can never be scheduled: {reason}")
            }
            SlurmError::DuplicateJob { job_id } => {
                write!(f, "job {job_id} is already waiting in the queue")
            }
            SlurmError::InvalidAction { job_id, reason } => {
                write!(f, "invalid scheduler action for job {job_id}: {reason}")
            }
            SlurmError::Drom(err) => write!(f, "DROM error: {err}"),
        }
    }
}

impl std::error::Error for SlurmError {}

impl From<DromError> for SlurmError {
    fn from(err: DromError) -> Self {
        SlurmError::Drom(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        assert!(SlurmError::UnknownNode { node: "n7".into() }
            .to_string()
            .contains("n7"));
        assert!(SlurmError::NodeBusy { node: "n1".into() }
            .to_string()
            .contains("busy"));
        assert!(SlurmError::UnknownJob { job_id: 42 }
            .to_string()
            .contains("42"));
        let unsched = SlurmError::Unschedulable {
            job_id: 7,
            reason: "wants 32 CPUs per node, nodes have 16".into(),
        };
        assert!(unsched.to_string().contains("never"));
        assert!(unsched.to_string().contains("32"));
        assert!(SlurmError::DuplicateJob { job_id: 9 }
            .to_string()
            .contains("already waiting"));
        let err: SlurmError = DromError::NotInitialized.into();
        assert!(matches!(err, SlurmError::Drom(_)));
        assert!(err.to_string().contains("DROM"));
    }
}
