//! `srun`: launching a job's tasks across its allocated nodes.
//!
//! The launcher drives the per-node daemons: for every node of the allocation
//! it asks `slurmd` for the launch plan, lets the step daemon reserve the masks
//! through `DROM_PreInit`, and hands back the environments the application
//! processes register with. When the job completes, it runs `post_term` for
//! every task and `release_resources` on every node.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use drom_core::{DromEnviron, Pid};
use drom_cpuset::CpuSet;

use crate::cluster::Cluster;
use crate::error::SlurmError;
use crate::job::JobSpec;
use crate::slurmd::Slurmd;

/// One launched task: where it runs, which pid it was given and the
/// environment it must register with.
#[derive(Debug, Clone)]
pub struct LaunchedTask {
    /// Node the task runs on.
    pub node: String,
    /// Global task index within the job.
    pub task_index: usize,
    /// The synthetic pid assigned by the launcher.
    pub pid: Pid,
    /// The mask the task was given.
    pub mask: CpuSet,
    /// The registration environment (`DROM_PreInit`'s `next_environ`).
    pub environ: DromEnviron,
}

/// A launched job: the job description plus every task placement.
#[derive(Debug, Clone)]
pub struct LaunchedJob {
    /// The job that was launched.
    pub job: JobSpec,
    /// The nodes of the allocation, in order.
    pub nodes: Vec<String>,
    /// Every task of the job.
    pub tasks: Vec<LaunchedTask>,
}

impl LaunchedJob {
    /// The tasks placed on one node.
    pub fn tasks_on(&self, node: &str) -> Vec<&LaunchedTask> {
        self.tasks.iter().filter(|t| t.node == node).collect()
    }

    /// Total CPUs currently assigned to the job (sum of task masks).
    pub fn total_cpus(&self) -> usize {
        self.tasks.iter().map(|t| t.mask.count()).sum()
    }
}

/// The job launcher: one `Slurmd` per node, a pid counter and the launch /
/// complete entry points.
pub struct Srun {
    cluster: Arc<Cluster>,
    slurmds: Mutex<HashMap<String, Arc<Slurmd>>>,
    drom_enabled: bool,
    next_pid: AtomicU32,
}

impl Srun {
    /// Creates the launcher. `drom_enabled` selects the modified SLURM
    /// (co-allocation through DROM) or the baseline behaviour.
    pub fn new(cluster: Arc<Cluster>, drom_enabled: bool) -> Self {
        Srun {
            cluster,
            slurmds: Mutex::new(HashMap::new()),
            drom_enabled,
            next_pid: AtomicU32::new(1000),
        }
    }

    /// The cluster this launcher manages.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// `true` if DROM co-allocation is enabled.
    pub fn drom_enabled(&self) -> bool {
        self.drom_enabled
    }

    /// The per-node daemon of `node`, creating it on first use.
    pub fn slurmd(&self, node: &str) -> Result<Arc<Slurmd>, SlurmError> {
        let mut slurmds = self.slurmds.lock();
        if let Some(d) = slurmds.get(node) {
            return Ok(Arc::clone(d));
        }
        let hw = self.cluster.node(node)?.clone();
        let shmem = self.cluster.shmem(node)?;
        let daemon = Arc::new(Slurmd::new(hw, shmem, self.drom_enabled));
        slurmds.insert(node.to_string(), Arc::clone(&daemon));
        Ok(daemon)
    }

    /// Launches `job` on the given nodes: computes masks, pre-initialises every
    /// task and returns the placements. Tasks are distributed over the nodes in
    /// blocks (the paper's configuration always splits tasks evenly).
    ///
    /// # Errors
    ///
    /// [`SlurmError::InvalidAction`] for an empty node list (nothing is
    /// launched); every per-node failure of the daemons otherwise.
    pub fn launch(&self, job: &JobSpec, nodes: &[String]) -> Result<LaunchedJob, SlurmError> {
        if nodes.is_empty() {
            return Err(SlurmError::InvalidAction {
                job_id: job.id,
                reason: "launch on an empty node list".into(),
            });
        }
        // Block distribution of tasks over the allocation.
        let per_node = {
            let base = job.num_tasks / nodes.len();
            let extra = job.num_tasks % nodes.len();
            (0..nodes.len())
                .map(|i| base + usize::from(i < extra))
                .collect::<Vec<_>>()
        };

        let mut tasks = Vec::with_capacity(job.num_tasks);
        let mut task_index = 0usize;
        for (node, &ntasks) in nodes.iter().zip(per_node.iter()) {
            if ntasks == 0 {
                continue;
            }
            let slurmd = self.slurmd(node)?;
            let plan = slurmd.launch_request(job.id, ntasks)?;
            for mask in plan.task_masks.iter() {
                // SAFETY(ordering): pid allocator; only uniqueness matters.
                let pid = self.next_pid.fetch_add(1, Ordering::Relaxed);
                let environ = slurmd.pre_launch(job.id, pid, mask)?;
                tasks.push(LaunchedTask {
                    node: node.clone(),
                    task_index,
                    pid,
                    mask: mask.clone(),
                    environ,
                });
                task_index += 1;
            }
        }
        Ok(LaunchedJob {
            job: job.clone(),
            nodes: nodes.to_vec(),
            tasks,
        })
    }

    /// Applies a malleable-policy shrink to a launched job: on every node of
    /// the allocation the job's tasks are shrunk so they collectively hold
    /// `cpus_per_node` CPUs (posted through the DROM pending-mask machinery;
    /// tasks adapt at their next malleability point). Returns the total CPUs
    /// freed across the allocation.
    ///
    /// This is how a [`SchedulerPolicy`](crate::policy::SchedulerPolicy)
    /// `Resize` decision reaches the registry on the execution path; the
    /// matching expansion is [`complete`](Self::complete)'s
    /// `release_resources` pass when a co-runner finishes.
    ///
    /// The shrink is validated on *every* node before it is applied on any,
    /// so a task that has not consumed a previous update (`PendingDirty` on
    /// one node) cannot leave the allocation at non-uniform widths — the
    /// whole call fails and the scheduler retries at its next pass.
    pub fn shrink(
        &self,
        launched: &LaunchedJob,
        cpus_per_node: usize,
    ) -> Result<usize, SlurmError> {
        // Phase 1: plan (and thereby validate) the shrink on every node;
        // phase 2: apply exactly the validated plans.
        let mut plans = Vec::with_capacity(launched.nodes.len());
        for node in &launched.nodes {
            let slurmd = self.slurmd(node)?;
            let plan = slurmd.shrink_plan(launched.job.id, cpus_per_node)?;
            plans.push((slurmd, plan));
        }
        let mut freed = 0;
        for (slurmd, (posts, node_freed)) in &plans {
            slurmd.apply_shrink_posts(posts)?;
            freed += node_freed;
        }
        Ok(freed)
    }

    /// Completes a launched job: `post_term` for every task, then
    /// `release_resources` on every node so surviving jobs expand.
    pub fn complete(&self, launched: &LaunchedJob) -> Result<(), SlurmError> {
        for task in &launched.tasks {
            let slurmd = self.slurmd(&task.node)?;
            slurmd.post_term(launched.job.id, task.pid)?;
        }
        for node in &launched.nodes {
            let slurmd = self.slurmd(node)?;
            slurmd.release_resources(launched.job.id)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drom_core::DromProcess;

    fn setup(drom: bool) -> (Arc<Cluster>, Srun) {
        let cluster = Arc::new(Cluster::marenostrum3(2));
        let srun = Srun::new(Arc::clone(&cluster), drom);
        (cluster, srun)
    }

    #[test]
    fn launch_two_node_job() {
        let (cluster, srun) = setup(true);
        let job = JobSpec::new(1, "NEST Conf. 1").with_tasks(2).with_nodes(2);
        let launched = srun
            .launch(&job, &["node0".into(), "node1".into()])
            .unwrap();
        assert_eq!(launched.tasks.len(), 2);
        assert_eq!(launched.tasks_on("node0").len(), 1);
        assert_eq!(launched.tasks_on("node1").len(), 1);
        assert_eq!(launched.total_cpus(), 32);
        // The processes can register and adopt their masks.
        for task in &launched.tasks {
            let shmem = cluster.shmem(&task.node).unwrap();
            let proc = DromProcess::init_from_environ(&task.environ, shmem).unwrap();
            assert_eq!(proc.num_cpus(), 16);
            proc.finalize().unwrap();
        }
        srun.complete(&launched).unwrap();
        assert!(srun.slurmd("node0").unwrap().running_jobs().is_empty());
        assert!(srun.drom_enabled());
    }

    #[test]
    fn coallocation_shares_both_nodes() {
        let (cluster, srun) = setup(true);
        let nodes = vec!["node0".to_string(), "node1".to_string()];
        // Long simulation: 4 tasks over 2 nodes, whole machine.
        let sim = JobSpec::new(1, "simulation").with_tasks(4).with_nodes(2);
        let launched_sim = srun.launch(&sim, &nodes).unwrap();
        let sim_procs: Vec<_> = launched_sim
            .tasks
            .iter()
            .map(|t| {
                DromProcess::init_from_environ(&t.environ, cluster.shmem(&t.node).unwrap()).unwrap()
            })
            .collect();
        assert_eq!(launched_sim.total_cpus(), 32);

        // Analytics job: 2 tasks over the same 2 nodes.
        let analytics = JobSpec::new(2, "analytics").with_tasks(2).with_nodes(2);
        let launched_ana = srun.launch(&analytics, &nodes).unwrap();
        assert_eq!(launched_ana.tasks.len(), 2);
        // Fair sharing: the analytics gets half of each node.
        assert_eq!(launched_ana.total_cpus(), 16);

        // The simulation's tasks shrink at their next malleability point.
        let total_after: usize = sim_procs
            .iter()
            .map(|p| {
                p.poll_drom().unwrap();
                p.num_cpus()
            })
            .sum();
        assert_eq!(total_after, 16);

        // Analytics finishes: the simulation gets everything back.
        srun.complete(&launched_ana).unwrap();
        let total_restored: usize = sim_procs
            .iter()
            .map(|p| {
                p.poll_drom().unwrap();
                p.num_cpus()
            })
            .sum();
        assert_eq!(total_restored, 32);
    }

    #[test]
    fn shrink_spans_the_whole_allocation() {
        let (cluster, srun) = setup(true);
        let nodes = vec!["node0".to_string(), "node1".to_string()];
        let job = JobSpec::new(1, "wide").with_tasks(2).with_nodes(2);
        let launched = srun.launch(&job, &nodes).unwrap();
        let procs: Vec<_> = launched
            .tasks
            .iter()
            .map(|t| {
                DromProcess::init_from_environ(&t.environ, cluster.shmem(&t.node).unwrap()).unwrap()
            })
            .collect();
        // Shrink to half width on both nodes: 8 CPUs freed per node.
        assert_eq!(srun.shrink(&launched, 8).unwrap(), 16);
        for proc in &procs {
            assert_eq!(proc.poll_drom().unwrap().unwrap().count(), 8);
        }
        // Shrinking to the current width frees nothing further.
        assert_eq!(srun.shrink(&launched, 8).unwrap(), 0);
        srun.complete(&launched).unwrap();
    }

    #[test]
    fn shrink_with_unconsumed_update_fails_atomically() {
        let (cluster, srun) = setup(true);
        let nodes = vec!["node0".to_string(), "node1".to_string()];
        let job = JobSpec::new(1, "wide").with_tasks(2).with_nodes(2);
        let launched = srun.launch(&job, &nodes).unwrap();
        let procs: Vec<_> = launched
            .tasks
            .iter()
            .map(|t| {
                DromProcess::init_from_environ(&t.environ, cluster.shmem(&t.node).unwrap()).unwrap()
            })
            .collect();
        assert_eq!(srun.shrink(&launched, 8).unwrap(), 16);
        // Only node0's task polls; node1's still carries the pending shrink.
        procs[0].poll_drom().unwrap();
        let err = srun.shrink(&launched, 4).unwrap_err();
        assert!(
            matches!(
                err,
                SlurmError::Drom(drom_core::DromError::PendingDirty { .. })
            ),
            "got {err:?}"
        );
        // Nothing was applied anywhere: node0's task has no new pending and
        // node1's still carries the ORIGINAL 8-CPU shrink, not a 4-CPU one.
        assert!(procs[0].poll_drom().unwrap().is_none());
        assert_eq!(procs[1].poll_drom().unwrap().unwrap().count(), 8);
        // Once every task polled, the retried shrink goes through.
        assert_eq!(srun.shrink(&launched, 4).unwrap(), 8);
        srun.complete(&launched).unwrap();
    }

    #[test]
    fn serial_launcher_refuses_busy_nodes() {
        let (_cluster, srun) = setup(false);
        let nodes = vec!["node0".to_string()];
        let job1 = JobSpec::new(1, "first").with_tasks(1);
        let _launched = srun.launch(&job1, &nodes).unwrap();
        let job2 = JobSpec::new(2, "second").with_tasks(1);
        let err = srun.launch(&job2, &nodes).unwrap_err();
        assert!(matches!(err, SlurmError::NodeBusy { .. }));
    }

    #[test]
    fn unknown_node_fails() {
        let (_cluster, srun) = setup(true);
        let job = JobSpec::new(1, "x");
        assert!(matches!(
            srun.launch(&job, &["nope".into()]),
            Err(SlurmError::UnknownNode { .. })
        ));
    }

    /// Regression: an empty node list used to trip an `assert!` (and, past
    /// it, a division by zero); it is a typed error with nothing launched.
    #[test]
    fn empty_node_list_is_a_typed_error() {
        let (_cluster, srun) = setup(true);
        let job = JobSpec::new(7, "nowhere").with_tasks(2);
        assert!(matches!(
            srun.launch(&job, &[]),
            Err(SlurmError::InvalidAction { job_id: 7, .. })
        ));
        assert!(srun.slurmd("node0").unwrap().running_jobs().is_empty());
    }

    #[test]
    fn more_nodes_than_tasks() {
        let (_cluster, srun) = setup(true);
        let job = JobSpec::new(1, "tiny").with_tasks(1).with_nodes(2);
        let launched = srun
            .launch(&job, &["node0".into(), "node1".into()])
            .unwrap();
        assert_eq!(launched.tasks.len(), 1);
        assert_eq!(launched.tasks[0].node, "node0");
    }
}
