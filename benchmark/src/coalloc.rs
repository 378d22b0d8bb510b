//! The real-path half of a run: the paper's Figure 2 in a loop.
//!
//! A resident two-task "sim" job owns both nodes of `Cluster::marenostrum3(2)`
//! — launched through `Srun`, registered through `DromProcess`, each task
//! with an `OmpRuntime` of 16 threads whose team follows DROM through a
//! `DromOmptTool`. Cycles alternate two ways of admitting a rigid 2 × 8-CPU
//! co-runner:
//!
//! * **sched** — the scheduler decides: `PolicyScheduler::submit` + `tick`
//!   answer `[Resize 1→8, Start]`, `Srun::shrink` posts the masks, each sim
//!   task polls and its team drops to 8, then `Srun::launch` places the
//!   co-runner on the freed CPUs;
//! * **steal** — the paper's own flow: `Srun::launch` while the nodes are
//!   full, so `DROM_PreInit` steals the CPUs, then the victims poll.
//!
//! Both end with the co-runner's `finalize`, `Srun::complete` (which hands
//! the CPUs back), the scheduler's `job_finished` + `tick` on sched cycles,
//! and the sim tasks polling back to 16. Between admission and release every
//! sim task makes [`IDLE_POLLS_PER_TASK`] idle `poll_drom` calls, timed as
//! one batch: reads beside the writes, on the same `shmem` slots.
//!
//! One thread drives everything, one operation at a time (a closed loop with
//! one client); the 30 parked OpenMP workers only wake for the team check.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drom_core::DromProcess;
use drom_ompsim::{DromOmptTool, OmpRuntime};
use drom_shmem::ShmemStats;
use drom_slurm::policy::{QueuedJob, SchedulerAction};
use drom_slurm::{Cluster, JobSpec, LaunchedJob, MalleablePolicy, PolicyScheduler, Srun};

use crate::spans::{SpanId, SpanLog};

/// Scheduler id of the resident job.
const SIM_JOB: u64 = 1;
/// CPUs per node, and the sim job's full team width.
const FULL: usize = 16;
/// Width of the sim teams while the co-runner is there, and of the co-runner.
const HALF: usize = 8;
/// Idle `poll_drom` calls each sim task makes per cycle.
pub const IDLE_POLLS_PER_TASK: usize = 500;
/// One untimed `parallel` region per this many cycles checks the real team.
const TEAM_CHECK_EVERY: u64 = 1024;
/// Cycles `RealPath::new` runs before anything is timed.
const WARMUP_CYCLES: usize = 2_000;
/// Sched/steal cycle pairs a section runs at least, and at most (the sample
/// buffers are sized and touched up front so peak memory does not depend on
/// how many cycles fit into the time budget).
const MIN_PAIRS: usize = 64;
const MAX_PAIRS: usize = 1 << 17;

/// Receives the layer boundaries of a cycle. The untraced instantiation
/// compiles to nothing, so traced and untraced cycles share one body.
pub trait Probe {
    /// `true` when sim tasks call `poll_drom` and `TeamSettings::apply_mask`
    /// separately (so each gets a span) instead of `poll_and_apply`.
    const SPLIT_POLL: bool;
    /// A cycle starts.
    fn begin(&mut self, name: &'static str, op_id: u32);
    /// The call(s) since the previous boundary belong to `name`.
    fn mark(&mut self, name: &'static str);
    /// The time since the previous boundary is benchmark glue (checks).
    fn skip(&mut self);
    /// The cycle ends.
    fn end(&mut self);
}

/// The untraced probe.
pub struct NoProbe;

impl Probe for NoProbe {
    const SPLIT_POLL: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: &'static str, _: u32) {}
    #[inline(always)]
    fn mark(&mut self, _: &'static str) {}
    #[inline(always)]
    fn skip(&mut self) {}
    #[inline(always)]
    fn end(&mut self) {}
}

/// Records one span per boundary, back to back: a span starts where the
/// previous one ended, so one clock read serves both.
pub struct SpanProbe<'a> {
    log: &'a mut SpanLog,
    cycle: Option<SpanId>,
    op_id: u32,
    last_ns: u64,
}

impl<'a> SpanProbe<'a> {
    /// A probe appending to `log`.
    pub fn new(log: &'a mut SpanLog) -> Self {
        SpanProbe {
            log,
            cycle: None,
            op_id: 0,
            last_ns: 0,
        }
    }
}

impl Probe for SpanProbe<'_> {
    const SPLIT_POLL: bool = true;

    fn begin(&mut self, name: &'static str, op_id: u32) {
        self.last_ns = self.log.now_ns();
        self.op_id = op_id;
        self.cycle = Some(self.log.open(name, self.last_ns, op_id));
    }

    fn mark(&mut self, name: &'static str) {
        let now = self.log.now_ns();
        self.log
            .push(name, self.last_ns, now, self.cycle, self.op_id);
        self.last_ns = now;
    }

    fn skip(&mut self) {
        self.last_ns = self.log.now_ns();
    }

    fn end(&mut self) {
        let now = self.log.now_ns();
        if let Some(cycle) = self.cycle.take() {
            self.log.close(cycle, now);
        }
    }
}

/// One task of the resident job.
struct SimTask {
    process: Arc<DromProcess>,
    runtime: OmpRuntime,
    tool: Arc<DromOmptTool>,
}

impl SimTask {
    /// The malleability point: take a pending mask, resize the team.
    fn poll_and_apply<P: Probe>(&self, probe: &mut P) -> Result<(), String> {
        if P::SPLIT_POLL {
            let mask = self.process.poll_drom().map_err(|e| e.to_string())?;
            probe.mark("core.poll_update");
            if let Some(mask) = mask {
                self.runtime.settings().apply_mask(&mask);
                probe.mark("ompsim.apply_mask");
            }
        } else {
            self.tool.poll_and_apply();
        }
        Ok(())
    }

    /// Runs one real fork-join region and returns the team size it had.
    fn region_team_size(&self) -> usize {
        let seen = AtomicUsize::new(0);
        self.runtime.parallel(|ctx| {
            if ctx.thread_num == 0 {
                seen.store(ctx.team_size, Ordering::Relaxed);
            }
        });
        seen.load(Ordering::Relaxed)
    }
}

/// End-to-end timings of one sched cycle, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct SchedTimes {
    /// `submit` call to every sim team at width 8.
    pub shrink_effect: u32,
    /// `Srun::launch` + `init_from_environ` of the co-runner.
    pub launch: u32,
    /// The batch of idle polls (2 × [`IDLE_POLLS_PER_TASK`] calls).
    pub idle_batch: u32,
    /// Co-runner `finalize` to every sim team back at width 16.
    pub expand_effect: u32,
}

/// End-to-end timings of one steal cycle, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct StealTimes {
    /// `Srun::launch` call to victims at width 8, newcomer initialised.
    pub steal_effect: u32,
    /// The batch of idle polls.
    pub idle_batch: u32,
}

fn ns_between(from: Instant, to: Instant) -> u32 {
    u32::try_from(to.duration_since(from).as_nanos()).unwrap_or(u32::MAX)
}

/// The resident job, its launcher and its scheduler.
pub struct RealPath {
    cluster: Arc<Cluster>,
    srun: Srun,
    sched: PolicyScheduler,
    nodes: Vec<String>,
    sim_job: LaunchedJob,
    tasks: Vec<SimTask>,
    co_spec: JobSpec,
    cycles: u64,
}

impl RealPath {
    /// Builds the cluster, starts the resident job through the scheduler and
    /// the launcher, attaches its runtimes and runs the warm-up cycles.
    pub fn new() -> Result<Self, String> {
        let cluster = Arc::new(Cluster::marenostrum3(2));
        let srun = Srun::new(Arc::clone(&cluster), true);
        let nodes = cluster.node_names();
        let mut sched =
            PolicyScheduler::new(nodes.len(), FULL, Box::new(MalleablePolicy::default()));
        sched
            .submit(QueuedJob::new(SIM_JOB, nodes.len(), FULL).malleable(HALF))
            .map_err(|e| e.to_string())?;
        let started = sched.tick(0).map_err(|e| e.to_string())?;
        if !matches!(
            started.as_slice(),
            [SchedulerAction::Start {
                job_id: SIM_JOB,
                cpus_per_node: FULL,
                ..
            }]
        ) {
            return Err(format!(
                "resident job was not started at full width: {started:?}"
            ));
        }
        let sim_spec = JobSpec::new(SIM_JOB, "sim")
            .with_tasks(nodes.len())
            .with_nodes(nodes.len());
        let sim_job = srun.launch(&sim_spec, &nodes).map_err(|e| e.to_string())?;
        let mut tasks = Vec::with_capacity(sim_job.tasks.len());
        for task in &sim_job.tasks {
            let shmem = cluster.shmem(&task.node).map_err(|e| e.to_string())?;
            let process = Arc::new(
                DromProcess::init_from_environ(&task.environ, shmem).map_err(|e| e.to_string())?,
            );
            let runtime = OmpRuntime::new(FULL);
            let tool = DromOmptTool::attach(&runtime, Arc::clone(&process));
            tasks.push(SimTask {
                process,
                runtime,
                tool,
            });
        }
        let co_spec = JobSpec::new(0, "co-runner")
            .with_tasks(nodes.len())
            .with_nodes(nodes.len())
            .rigid();
        let mut path = RealPath {
            cluster,
            srun,
            sched,
            nodes,
            sim_job,
            tasks,
            co_spec,
            cycles: 0,
        };
        path.check_widths(FULL)?;
        for _ in 0..WARMUP_CYCLES / 2 {
            path.sched_cycle(&mut NoProbe)?;
            path.steal_cycle(&mut NoProbe)?;
        }
        Ok(path)
    }

    /// Registry counters of both nodes, summed.
    pub fn shmem_stats(&self) -> ShmemStats {
        let mut total = ShmemStats::default();
        for node in &self.nodes {
            if let Ok(shmem) = self.cluster.shmem(node) {
                let s = shmem.stats();
                total.registers += s.registers;
                total.polls += s.polls;
                total.poll_updates += s.poll_updates;
                total.steals += s.steals;
            }
        }
        total
    }

    fn check_widths(&self, want: usize) -> Result<(), String> {
        for (i, task) in self.tasks.iter().enumerate() {
            let (team, cpus) = (task.runtime.max_threads(), task.process.num_cpus());
            if team != want || cpus != want {
                return Err(format!(
                    "cycle {}: sim task {i} has a team of {team} on {cpus} CPUs, expected {want}",
                    self.cycles
                ));
            }
        }
        Ok(())
    }

    /// Checks that co-runner and sim tasks share the nodes 8/8 and, every
    /// [`TEAM_CHECK_EVERY`] cycles, that a real region gets that team.
    fn check_shared(&self, co_runner: &[DromProcess]) -> Result<(), String> {
        self.check_widths(HALF)?;
        if let Some(p) = co_runner.iter().find(|p| p.num_cpus() != HALF) {
            return Err(format!(
                "cycle {}: co-runner task got {} CPUs, expected {HALF}",
                self.cycles,
                p.num_cpus()
            ));
        }
        if self.cycles.is_multiple_of(TEAM_CHECK_EVERY) {
            for task in &self.tasks {
                let team = task.region_team_size();
                if team != task.runtime.max_threads() {
                    return Err(format!(
                        "cycle {}: a region ran with {team} threads, max_threads() says {}",
                        self.cycles,
                        task.runtime.max_threads()
                    ));
                }
            }
        }
        Ok(())
    }

    fn launch_co_runner<P: Probe>(
        &mut self,
        probe: &mut P,
        launch_name: &'static str,
    ) -> Result<(LaunchedJob, Vec<DromProcess>), String> {
        let job = self
            .srun
            .launch(&self.co_spec, &self.nodes)
            .map_err(|e| e.to_string())?;
        probe.mark(launch_name);
        let mut processes = Vec::with_capacity(job.tasks.len());
        for task in &job.tasks {
            let shmem = self.cluster.shmem(&task.node).map_err(|e| e.to_string())?;
            processes.push(
                DromProcess::init_from_environ(&task.environ, shmem).map_err(|e| e.to_string())?,
            );
            probe.mark("core.init");
        }
        Ok((job, processes))
    }

    fn idle_polls<P: Probe>(&self, probe: &mut P) -> Result<(), String> {
        for task in &self.tasks {
            for _ in 0..IDLE_POLLS_PER_TASK {
                if black_box(task.process.poll_drom())
                    .map_err(|e| e.to_string())?
                    .is_some()
                {
                    return Err(format!("cycle {}: an idle poll found a mask", self.cycles));
                }
            }
        }
        probe.mark("core.poll_idle");
        Ok(())
    }

    fn release_co_runner<P: Probe>(
        &mut self,
        probe: &mut P,
        job: &LaunchedJob,
        processes: &[DromProcess],
    ) -> Result<(), String> {
        for process in processes {
            process.finalize().map_err(|e| e.to_string())?;
            probe.mark("core.finalize");
        }
        self.srun.complete(job).map_err(|e| e.to_string())?;
        probe.mark("slurm.launcher.complete");
        Ok(())
    }

    /// One scheduler-driven co-allocation.
    pub fn sched_cycle<P: Probe>(&mut self, probe: &mut P) -> Result<SchedTimes, String> {
        self.cycles += 1;
        let id = SIM_JOB + self.cycles;
        let now_us = self.cycles;
        self.co_spec.id = id;
        let request = QueuedJob::new(id, self.nodes.len(), HALF).with_submit_us(now_us);
        probe.begin("coalloc.sched_cycle", self.cycles as u32);

        let t_submit = Instant::now();
        self.sched.submit(request).map_err(|e| e.to_string())?;
        let actions = self.sched.tick(now_us).map_err(|e| e.to_string())?;
        probe.mark("slurm.controller.admit_tick");
        let admitted = matches!(
            actions.as_slice(),
            [
                SchedulerAction::Resize { job_id: SIM_JOB, cpus_per_node: HALF },
                SchedulerAction::Start { job_id, cpus_per_node: HALF, .. },
            ] if *job_id == id
        );
        if !admitted {
            return Err(format!(
                "cycle {}: expected [Resize 1→8, Start], got {actions:?}",
                self.cycles
            ));
        }
        self.srun
            .shrink(&self.sim_job, HALF)
            .map_err(|e| e.to_string())?;
        probe.mark("slurm.launcher.shrink");
        for task in &self.tasks {
            task.poll_and_apply(probe)?;
        }
        let t_shrunk = Instant::now();
        let (job, processes) = self.launch_co_runner(probe, "slurm.launcher.launch")?;
        let t_launched = Instant::now();
        self.check_shared(&processes)?;
        probe.skip();

        let t_idle = Instant::now();
        self.idle_polls(probe)?;
        let t_release = Instant::now();
        self.release_co_runner(probe, &job, &processes)?;
        self.sched.job_finished(id).map_err(|e| e.to_string())?;
        let actions = self.sched.tick(now_us).map_err(|e| e.to_string())?;
        probe.mark("slurm.controller.finish_tick");
        for task in &self.tasks {
            task.poll_and_apply(probe)?;
        }
        let t_expanded = Instant::now();
        probe.end();
        if !matches!(
            actions.as_slice(),
            [SchedulerAction::Resize {
                job_id: SIM_JOB,
                cpus_per_node: FULL
            }]
        ) {
            return Err(format!(
                "cycle {}: expected [Resize 1→16], got {actions:?}",
                self.cycles
            ));
        }
        self.check_widths(FULL)?;
        Ok(SchedTimes {
            shrink_effect: ns_between(t_submit, t_shrunk),
            launch: ns_between(t_shrunk, t_launched),
            idle_batch: ns_between(t_idle, t_release),
            expand_effect: ns_between(t_release, t_expanded),
        })
    }

    /// One launcher-driven co-allocation: no scheduler, `DROM_PreInit` steals.
    pub fn steal_cycle<P: Probe>(&mut self, probe: &mut P) -> Result<StealTimes, String> {
        self.cycles += 1;
        self.co_spec.id = SIM_JOB + self.cycles;
        probe.begin("coalloc.steal_cycle", self.cycles as u32);

        let t_launch = Instant::now();
        let (job, processes) = self.launch_co_runner(probe, "slurm.launcher.steal_launch")?;
        for task in &self.tasks {
            task.poll_and_apply(probe)?;
        }
        let t_shrunk = Instant::now();
        self.check_shared(&processes)?;
        probe.skip();

        let t_idle = Instant::now();
        self.idle_polls(probe)?;
        let t_release = Instant::now();
        self.release_co_runner(probe, &job, &processes)?;
        for task in &self.tasks {
            task.poll_and_apply(probe)?;
        }
        probe.end();
        self.check_widths(FULL)?;
        Ok(StealTimes {
            steal_effect: ns_between(t_launch, t_shrunk),
            idle_batch: ns_between(t_idle, t_release),
        })
    }
}

/// Per-cycle samples of a section, in nanoseconds.
pub struct CycleSamples {
    /// [`SchedTimes::shrink_effect`] per sched cycle.
    pub shrink_effect: Vec<u32>,
    /// [`StealTimes::steal_effect`] per steal cycle.
    pub steal_effect: Vec<u32>,
    /// [`SchedTimes::expand_effect`] per sched cycle.
    pub expand_effect: Vec<u32>,
    /// [`SchedTimes::launch`] per sched cycle.
    pub launch: Vec<u32>,
    /// Idle-poll batches of both kinds of cycle.
    pub idle_batch: Vec<u32>,
}

impl CycleSamples {
    /// Buffers for [`MAX_PAIRS`] pairs with every page already touched, so a
    /// run's peak memory is the same however many cycles it gets through.
    pub fn preallocated() -> Self {
        let touched = |len: usize| {
            let mut v = vec![1u32; len];
            v.clear();
            v
        };
        CycleSamples {
            shrink_effect: touched(MAX_PAIRS),
            steal_effect: touched(MAX_PAIRS),
            expand_effect: touched(MAX_PAIRS),
            launch: touched(MAX_PAIRS),
            idle_batch: touched(2 * MAX_PAIRS),
        }
    }

    /// Sched/steal pairs recorded so far.
    pub fn pairs(&self) -> usize {
        self.shrink_effect.len()
    }

    fn push_pair(&mut self, sched: SchedTimes, steal: StealTimes) {
        self.shrink_effect.push(sched.shrink_effect);
        self.expand_effect.push(sched.expand_effect);
        self.launch.push(sched.launch);
        self.idle_batch.push(sched.idle_batch);
        self.steal_effect.push(steal.steal_effect);
        self.idle_batch.push(steal.idle_batch);
    }
}

/// Counts of a real-path section.
#[derive(Debug, Default)]
pub struct CycleChecks {
    /// Cycles started.
    pub attempted: u64,
    /// Cycles in which a layer call returned `Err` or a width was wrong. The
    /// section stops at the first one: the state behind it is not the state
    /// the next cycle assumes.
    pub failed: u64,
    /// Why.
    pub errors: Vec<String>,
}

fn run_pair<P: Probe>(
    path: &mut RealPath,
    probe: &mut P,
    checks: &mut CycleChecks,
) -> Option<(SchedTimes, StealTimes, u32)> {
    let t = Instant::now();
    checks.attempted += 1;
    let sched = path.sched_cycle(probe);
    let steal = sched.as_ref().ok().map(|_| {
        checks.attempted += 1;
        path.steal_cycle(probe)
    });
    match (sched, steal) {
        (Ok(sched), Some(Ok(steal))) => Some((sched, steal, ns_between(t, Instant::now()))),
        (Err(err), _) | (_, Some(Err(err))) => {
            checks.failed += 1;
            checks.errors.push(err);
            None
        }
        (Ok(_), None) => unreachable!("a steal cycle follows every successful sched cycle"),
    }
}

/// Runs untraced sched/steal pairs until `budget` has elapsed.
pub fn run_untraced(
    path: &mut RealPath,
    budget: Duration,
    samples: &mut CycleSamples,
) -> CycleChecks {
    let mut checks = CycleChecks::default();
    let started = Instant::now();
    let mut pairs = 0;
    while pairs < MAX_PAIRS && (pairs < MIN_PAIRS || started.elapsed() < budget) {
        let Some((sched, steal, _)) = run_pair(path, &mut NoProbe, &mut checks) else {
            break;
        };
        samples.push_pair(sched, steal);
        pairs += 1;
    }
    checks
}

/// Pairs per block of the traced section.
pub const BLOCK_PAIRS: usize = 32;

/// Runs blocks of untraced and traced pairs in turn until `budget` has
/// elapsed: the untraced blocks feed `samples` (the tails), the traced ones
/// `log`. Each traced block is compared with the untraced block right before
/// it — traced over untraced wall time, minus one — and the ratios go to
/// `overhead`: neighbours share whatever the host is doing at that moment, so
/// their ratio does not drift with it.
pub fn run_traced(
    path: &mut RealPath,
    budget: Duration,
    samples: &mut CycleSamples,
    overhead: &mut Vec<f64>,
    log: &mut SpanLog,
) -> CycleChecks {
    let mut checks = CycleChecks::default();
    let started = Instant::now();
    'blocks: while samples.pairs() + BLOCK_PAIRS <= MAX_PAIRS
        && (overhead.len() < MIN_PAIRS / BLOCK_PAIRS || started.elapsed() < budget)
    {
        let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
        for _ in 0..BLOCK_PAIRS {
            let Some((sched, steal, wall)) = run_pair(path, &mut NoProbe, &mut checks) else {
                break 'blocks;
            };
            samples.push_pair(sched, steal);
            plain_ns += u64::from(wall);
        }
        for _ in 0..BLOCK_PAIRS {
            let mut probe = SpanProbe::new(log);
            let Some((_, _, wall)) = run_pair(path, &mut probe, &mut checks) else {
                break 'blocks;
            };
            traced_ns += u64::from(wall);
        }
        overhead.push(traced_ns as f64 / plain_ns as f64 - 1.0);
    }
    checks
}
