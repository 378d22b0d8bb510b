//! The virtual-time engine: admission, CPU grants, progress and completion.

use drom_apps::perfmodel::PerfModel;
use drom_cpuset::distribution::balanced_sizes;
use drom_metrics::{JobRecord, Scenario, WorkloadReport};

use crate::scenario::SimJob;

/// Numerical tolerance on remaining work (core-seconds).
const EPS: f64 = 1e-6;

/// CPUs of one node of the paper's environment (MareNostrum III).
const NODE_CPUS: usize = 16;

/// Jobs co-allocated on one node at most, as in the paper's experiments.
const MAX_JOBS_PER_NODE: usize = 2;

/// One stretch of virtual time during which a job ran with a fixed CPU grant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSegment {
    /// The job this segment belongs to.
    pub job_id: u64,
    /// Segment start (seconds).
    pub start_s: f64,
    /// Segment end (seconds).
    pub end_s: f64,
    /// CPUs granted to each task during the segment.
    pub cpus_per_task: usize,
    /// Number of MPI tasks of the job.
    pub tasks: usize,
    /// `true` while the job is in its initialization phase.
    pub in_init_phase: bool,
    /// Average per-thread utilization (fraction of a core actually used).
    pub utilization: f64,
    /// Modelled IPC of the job's threads during the segment.
    pub ipc: f64,
}

impl JobSegment {
    /// Segment length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The outcome of simulating one workload under one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// The scenario that was simulated.
    pub scenario: Scenario,
    /// System-level metrics (total run time, response times).
    pub report: WorkloadReport,
    /// Per-job execution segments (the data behind Figures 13 and 14).
    pub segments: Vec<JobSegment>,
}

impl SimulationResult {
    /// The segments of one job, in time order.
    pub fn segments_of(&self, job_id: u64) -> Vec<&JobSegment> {
        self.segments
            .iter()
            .filter(|s| s.job_id == job_id)
            .collect()
    }

    /// End of the workload in seconds.
    pub fn makespan_s(&self) -> f64 {
        self.segments.iter().map(|s| s.end_s).fold(0.0, f64::max)
    }
}

struct RunningJob {
    job: SimJob,
    start_s: f64,
    remaining_init: f64,
    remaining_main: f64,
    cpus_per_task: usize,
    rate: f64,
    oversub_factor: f64,
}

impl RunningJob {
    fn in_init(&self) -> bool {
        self.remaining_init > EPS
    }
}

/// Simulates workloads on a small cluster in virtual time.
#[derive(Debug, Clone)]
pub struct WorkloadSimulator {
    scenario: Scenario,
    models: PerfModel,
}

impl WorkloadSimulator {
    /// Creates a simulator of the paper's environment: two MareNostrum III
    /// nodes of 16 CPUs, at most two jobs co-allocated per node.
    pub fn new(scenario: Scenario) -> Self {
        WorkloadSimulator {
            scenario,
            models: PerfModel::new(),
        }
    }

    /// The scenario this simulator runs.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// CPUs granted per node to each of the co-allocated jobs: every job gets
    /// at most its request; the fair share bounds jobs that request more; CPUs
    /// nobody needs are handed to jobs still below their request.
    fn node_grants(&self, requests: &[usize]) -> Vec<usize> {
        if requests.is_empty() {
            return Vec::new();
        }
        if self.scenario == Scenario::Oversubscribed {
            // Everybody gets what they asked for; contention is modelled by the
            // oversubscription factor instead.
            return requests.iter().map(|&r| r.min(NODE_CPUS)).collect();
        }
        let fair = balanced_sizes(NODE_CPUS, requests.len());
        let mut grants: Vec<usize> = requests
            .iter()
            .zip(fair.iter())
            .map(|(&req, &share)| req.min(share))
            .collect();
        let mut leftover = NODE_CPUS.saturating_sub(grants.iter().sum());
        // Round-robin the leftover to jobs that still want more.
        let mut progress = true;
        while leftover > 0 && progress {
            progress = false;
            for (grant, &req) in grants.iter_mut().zip(requests.iter()) {
                if leftover == 0 {
                    break;
                }
                if *grant < req {
                    *grant += 1;
                    leftover -= 1;
                    progress = true;
                }
            }
        }
        grants
    }

    fn oversubscription_factor(&self, requests: &[usize]) -> f64 {
        if self.scenario != Scenario::Oversubscribed {
            return 1.0;
        }
        let total: usize = requests.iter().map(|&r| r.min(NODE_CPUS)).sum();
        if total <= NODE_CPUS {
            1.0
        } else {
            NODE_CPUS as f64 / total as f64
        }
    }

    /// Recomputes the CPU grant and progress rate of every running job.
    fn reallocate(&self, running: &mut [RunningJob]) {
        let requests: Vec<usize> = running
            .iter()
            .map(|r| r.job.config.cpus_per_node())
            .collect();
        let grants = self.node_grants(&requests);
        let factor = self.oversubscription_factor(&requests);
        for (job, grant_per_node) in running.iter_mut().zip(grants) {
            let tasks_per_node = job.job.config.tasks_per_node().max(1);
            let cpus_per_task = (grant_per_node / tasks_per_node).max(1);
            let model = self.models.of(job.job.config.kind);
            job.cpus_per_task = cpus_per_task;
            job.oversub_factor = factor;
            // The init-vs-steady rate switch lives in `crate::rate` — the
            // same definition the cluster engine's speedup curves are
            // compiled from, so the two engines cannot drift.
            job.rate =
                crate::rate::phase_rate(model, &job.job.config, cpus_per_task, job.in_init())
                    * factor;
        }
    }

    fn admission_allows(&self, running_count: usize) -> bool {
        match self.scenario {
            Scenario::Serial => running_count == 0,
            Scenario::Drom | Scenario::Oversubscribed => running_count < MAX_JOBS_PER_NODE,
        }
    }

    /// Runs the workload to completion and returns the metrics.
    pub fn run(&self, jobs: &[SimJob]) -> SimulationResult {
        let mut pending: Vec<SimJob> = jobs.to_vec();
        pending.sort_by(submit_order);
        let mut running: Vec<RunningJob> = Vec::new();
        let mut segments: Vec<JobSegment> = Vec::new();
        let mut records: Vec<JobRecord> = Vec::new();
        let mut now = 0.0f64;
        let mut guard = 0usize;

        while !pending.is_empty() || !running.is_empty() {
            guard += 1;
            assert!(guard < 100_000, "simulation failed to converge");

            // Admit every job that may start now (priority first, then FIFO).
            loop {
                let mut arrived: Vec<usize> = pending
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| j.submit_s <= now + EPS)
                    .map(|(i, _)| i)
                    .collect();
                arrived.sort_by_key(|&i| {
                    (
                        std::cmp::Reverse(pending[i].priority),
                        (pending[i].submit_s * 1e6) as u64,
                        pending[i].id,
                    )
                });
                match arrived.first() {
                    Some(&idx) if self.admission_allows(running.len()) => {
                        let job = pending.remove(idx);
                        let model = self.models.of(job.config.kind);
                        let total = model.total_work(&job.config) * job.work_scale;
                        let init = model.init_work(&job.config) * job.work_scale;
                        running.push(RunningJob {
                            start_s: now,
                            remaining_init: init,
                            remaining_main: total - init,
                            cpus_per_task: job.config.threads_per_task,
                            rate: 0.0,
                            oversub_factor: 1.0,
                            job,
                        });
                    }
                    _ => break,
                }
            }

            if running.is_empty() {
                // Nothing running: jump to the next submission.
                if let Some(next) = pending
                    .iter()
                    .map(|j| j.submit_s)
                    .fold(None::<f64>, |acc, s| Some(acc.map_or(s, |a| a.min(s))))
                {
                    now = now.max(next);
                    continue;
                }
                break;
            }

            self.reallocate(&mut running);

            // Time until the next phase completion or the next submission.
            let mut dt = f64::INFINITY;
            for job in &running {
                let remaining = if job.in_init() {
                    job.remaining_init
                } else {
                    job.remaining_main
                };
                if job.rate > 0.0 {
                    dt = dt.min(remaining / job.rate);
                }
            }
            for job in &pending {
                if job.submit_s > now + EPS {
                    dt = dt.min(job.submit_s - now);
                }
            }
            assert!(dt.is_finite(), "no progress possible: stalled simulation");
            let end = now + dt;

            // Record segments and advance progress.
            for job in running.iter_mut() {
                let model = self.models.of(job.job.config.kind);
                let threads_initial = job.job.config.threads_per_task;
                let utilization = if job.in_init() {
                    (model.init_parallelism / job.cpus_per_task as f64).min(1.0)
                } else {
                    (model.effective_parallelism(job.cpus_per_task, threads_initial)
                        * model.efficiency(job.cpus_per_task.min(threads_initial) as f64)
                        / job.cpus_per_task as f64)
                        .min(1.0)
                } * job.oversub_factor;
                segments.push(JobSegment {
                    job_id: job.job.id,
                    start_s: now,
                    end_s: end,
                    cpus_per_task: job.cpus_per_task,
                    tasks: job.job.config.mpi_tasks,
                    in_init_phase: job.in_init(),
                    utilization,
                    ipc: model.ipc(job.cpus_per_task),
                });
                let work = job.rate * dt;
                if job.in_init() {
                    job.remaining_init = (job.remaining_init - work).max(0.0);
                } else {
                    job.remaining_main = (job.remaining_main - work).max(0.0);
                }
            }
            now = end;

            // Retire completed jobs.
            let mut i = 0;
            while i < running.len() {
                if !running[i].in_init() && running[i].remaining_main <= EPS {
                    let done = running.remove(i);
                    records.push(JobRecord::new(
                        done.job.name.clone(),
                        (done.job.submit_s * 1e6) as u64,
                        (done.start_s * 1e6) as u64,
                        (now * 1e6) as u64,
                    ));
                } else {
                    i += 1;
                }
            }
        }

        SimulationResult {
            scenario: self.scenario,
            report: WorkloadReport::new(self.scenario, records),
            segments,
        }
    }
}

/// Submission order: by submit time, ties broken by job id.
///
/// Uses `total_cmp` so a NaN submit time (e.g. from a bad workload file)
/// sorts deterministically (after every real time) instead of silently
/// comparing `Equal` to everything and leaving the order
/// partition-dependent.
fn submit_order(a: &SimJob, b: &SimJob) -> std::cmp::Ordering {
    a.submit_s.total_cmp(&b.submit_s).then(a.id.cmp(&b.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{high_priority_workload, in_situ_workload};
    use drom_apps::Table1;
    use drom_metrics::workload::percent_improvement;

    fn seconds(us: u64) -> f64 {
        us as f64 / 1e6
    }

    #[test]
    fn submit_order_is_total_under_nan_and_ties() {
        let job = |id, submit_s| crate::scenario::SimJob::new(id, Table1::NEST_CONF1, submit_s);
        // Equal submit times fall back to the id, both ways round.
        let mut jobs = [job(2, 5.0), job(1, 5.0), job(3, 1.0)];
        jobs.sort_by(submit_order);
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![3, 1, 2]);
        // A NaN submit time sorts after every real time — deterministically,
        // regardless of the input permutation.
        let with_nan = vec![job(4, f64::NAN), job(5, 2.0), job(6, f64::NAN)];
        let mut a = with_nan.clone();
        let mut b: Vec<_> = with_nan.into_iter().rev().collect();
        a.sort_by(submit_order);
        b.sort_by(submit_order);
        let order = |v: &[crate::scenario::SimJob]| v.iter().map(|j| j.id).collect::<Vec<_>>();
        assert_eq!(order(&a), vec![5, 4, 6]);
        assert_eq!(order(&a), order(&b));
    }

    #[test]
    fn single_job_matches_model_time() {
        let sim = WorkloadSimulator::new(Scenario::Serial);
        let jobs = vec![crate::scenario::SimJob::new(1, Table1::NEST_CONF1, 0.0)];
        let result = sim.run(&jobs);
        assert_eq!(result.report.jobs.len(), 1);
        let model = drom_apps::AppModel::for_kind(drom_apps::AppKind::Nest);
        let expected = model.execution_time(&Table1::NEST_CONF1, 16);
        let simulated = seconds(result.report.jobs[0].run_time());
        assert!(
            (simulated - expected).abs() / expected < 0.01,
            "simulated {simulated} vs model {expected}"
        );
        // One init segment + one main segment.
        assert!(result.segments_of(1).len() >= 2);
    }

    #[test]
    fn serial_scenario_queues_the_second_job() {
        let workload = in_situ_workload(Table1::NEST_CONF1, Table1::PILS_CONF2, 100.0);
        let result = WorkloadSimulator::new(Scenario::Serial).run(&workload);
        let sim_job = &result.report.jobs[0];
        let analytics = result
            .report
            .jobs
            .iter()
            .find(|j| j.name.contains("Pils"))
            .unwrap();
        // The analytics waits for the whole simulation.
        assert!(analytics.start >= sim_job.end);
        assert!(analytics.wait_time() > 0);
    }

    #[test]
    fn drom_beats_serial_for_in_situ_analytics() {
        let workload = in_situ_workload(Table1::NEST_CONF1, Table1::PILS_CONF2, 100.0);
        let serial = WorkloadSimulator::new(Scenario::Serial).run(&workload);
        let drom = WorkloadSimulator::new(Scenario::Drom).run(&workload);

        // Total run time improves (Fig. 4), moderately.
        let rt_improvement = percent_improvement(
            serial.report.total_run_time() as f64,
            drom.report.total_run_time() as f64,
        );
        assert!(rt_improvement > 0.0, "DROM must not be slower overall");
        assert!(rt_improvement < 25.0);

        // The analytics response time collapses (Fig. 6: up to 96%).
        let serial_ana = serial.report.response_time_of(&workload[1].name).unwrap() as f64;
        let drom_ana = drom.report.response_time_of(&workload[1].name).unwrap() as f64;
        let ana_improvement = percent_improvement(serial_ana, drom_ana);
        assert!(
            ana_improvement > 80.0,
            "analytics response should collapse, got {ana_improvement:.1}%"
        );

        // The simulation's response time degrades only slightly (0 - ~7%).
        let serial_sim = serial.report.response_time_of(&workload[0].name).unwrap() as f64;
        let drom_sim = drom.report.response_time_of(&workload[0].name).unwrap() as f64;
        let sim_degradation = -percent_improvement(serial_sim, drom_sim);
        assert!(
            (0.0..10.0).contains(&sim_degradation),
            "simulation degradation was {sim_degradation:.1}%"
        );

        // Average response time improves a lot (Fig. 8: 37 - 48%).
        let avg_improvement = percent_improvement(
            serial.report.average_response_time(),
            drom.report.average_response_time(),
        );
        assert!(
            avg_improvement > 25.0,
            "average response improvement was {avg_improvement:.1}%"
        );
    }

    #[test]
    fn drom_grants_match_the_requests_in_use_case_1() {
        let workload = in_situ_workload(Table1::NEST_CONF1, Table1::STREAM_CONF1, 100.0);
        let drom = WorkloadSimulator::new(Scenario::Drom).run(&workload);
        // While STREAM (2 CPUs per node requested) is running, NEST keeps
        // 14 CPUs per task.
        let nest_during_overlap = drom
            .segments_of(1)
            .iter()
            .find(|s| s.start_s >= 100.0 && s.cpus_per_task < 16)
            .cloned()
            .cloned();
        let seg = nest_during_overlap.expect("an overlap segment exists");
        assert_eq!(seg.cpus_per_task, 14);
    }

    #[test]
    fn high_priority_use_case_improves_response_time() {
        let workload = high_priority_workload(200.0);
        let serial = WorkloadSimulator::new(Scenario::Serial).run(&workload);
        let drom = WorkloadSimulator::new(Scenario::Drom).run(&workload);

        // Fig. 13: total run time improves a little (paper: 2.5%).
        let rt_improvement = percent_improvement(
            serial.report.total_run_time() as f64,
            drom.report.total_run_time() as f64,
        );
        assert!(
            rt_improvement > 0.0 && rt_improvement < 20.0,
            "got {rt_improvement:.1}%"
        );

        // Fig. 15: average response time improves (paper: 10%).
        let avg_improvement = percent_improvement(
            serial.report.average_response_time(),
            drom.report.average_response_time(),
        );
        assert!(
            avg_improvement > 0.0 && avg_improvement < 35.0,
            "got {avg_improvement:.1}%"
        );

        // Under DROM the two simulators equipartition the node: 8 CPUs each.
        let overlap_seg = drom
            .segments_of(2)
            .iter()
            .find(|s| !s.in_init_phase)
            .cloned()
            .cloned()
            .expect("CoreNeuron has a steady segment");
        assert_eq!(overlap_seg.cpus_per_task, 8);
    }

    #[test]
    fn oversubscribed_mode_is_worse_than_drom() {
        let workload = in_situ_workload(Table1::NEST_CONF1, Table1::PILS_CONF1, 100.0);
        let drom = WorkloadSimulator::new(Scenario::Drom).run(&workload);
        let oversub = WorkloadSimulator::new(Scenario::Oversubscribed).run(&workload);
        // With oversubscription both jobs run degraded; the workload takes at
        // least as long as with DROM repartitioning.
        assert!(oversub.report.total_run_time() >= drom.report.total_run_time());
    }

    #[test]
    fn segments_are_contiguous_and_positive() {
        let workload = high_priority_workload(150.0);
        let result = WorkloadSimulator::new(Scenario::Drom).run(&workload);
        for job_id in [1, 2] {
            let segs = result.segments_of(job_id);
            assert!(!segs.is_empty());
            for pair in segs.windows(2) {
                assert!(pair[0].end_s <= pair[1].start_s + 1e-9);
            }
            for seg in segs {
                assert!(seg.duration_s() > 0.0);
                assert!(seg.utilization > 0.0 && seg.utilization <= 1.0);
                assert!(seg.ipc > 0.0);
            }
        }
        assert!(result.makespan_s() > 0.0);
    }

    #[test]
    fn grants_respect_requests_and_capacity() {
        let sim = WorkloadSimulator::new(Scenario::Drom);
        assert_eq!(sim.node_grants(&[16, 1]), vec![15, 1]);
        assert_eq!(sim.node_grants(&[16, 2]), vec![14, 2]);
        assert_eq!(sim.node_grants(&[16, 16]), vec![8, 8]);
        assert_eq!(sim.node_grants(&[4, 2]), vec![4, 2]);
        assert_eq!(sim.node_grants(&[16]), vec![16]);
        assert!(sim.node_grants(&[]).is_empty());
        let total: usize = sim.node_grants(&[16, 16]).iter().sum();
        assert!(total <= 16);
    }

    #[test]
    fn scenario_accessors() {
        let sim = WorkloadSimulator::new(Scenario::Drom);
        assert_eq!(sim.scenario(), Scenario::Drom);
    }
}
