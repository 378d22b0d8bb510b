//! The scheduler-replay half of a run: a seeded trace replayed through
//! `ClusterSim::run` under one policy, timed from outside.
//!
//! Every timed replay of a run uses its own sub-trace (same generator and
//! size, sub-seed derived from `--seed` and the replay's index): the cost of
//! a scheduling pass depends on the queue and fill level a trace happens to
//! produce, so a run's median over many sub-traces is far steadier across
//! seeds than any number of repeats of one trace.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drom_sim::{
    mega_trace, mixed_hpc_trace, queue_churn_trace, ClusterRunReport, ClusterSim, TraceJob,
};
use drom_slurm::policy::{ClusterView, QueuedJob, SchedulerAction, SchedulerPolicy};
use drom_slurm::{BackfillPolicy, FirstFitPolicy, MalleablePolicy};

use crate::spans::{SpanId, SpanLog};
use crate::stats::{median, median_grouped, percentile_sorted, supported_percentile};

/// CPUs per node of every replayed cluster (the paper's MareNostrum III node).
pub const NODE_CPUS: usize = 16;

/// Timed replays a run makes at least, however slow they are.
const MIN_REPS: usize = 3;

/// Which trace generator of `drom-sim` a workload replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// `mixed_hpc_trace(seed, jobs, nodes, 16, load)`.
    Mixed {
        /// Cluster size.
        nodes: usize,
        /// Offered load relative to capacity.
        load: f64,
    },
    /// `queue_churn_trace(seed, jobs, nodes, 16, load)`.
    Churn {
        /// Cluster size.
        nodes: usize,
        /// Offered load relative to capacity.
        load: f64,
    },
    /// `mega_trace(seed, jobs)` on the 10 000-node tier.
    Mega,
}

/// Which built-in policy decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// `FirstFitPolicy`.
    FirstFit,
    /// `BackfillPolicy`.
    Backfill,
    /// `MalleablePolicy`.
    Malleable,
}

/// One replay configuration: generator, size and policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplaySpec {
    /// Trace generator and cluster shape.
    pub trace: TraceKind,
    /// Jobs per generated trace.
    pub jobs: usize,
    /// Deciding policy.
    pub policy: PolicyKind,
}

impl ReplaySpec {
    /// Nodes of the replayed cluster.
    pub fn nodes(&self) -> usize {
        match self.trace {
            TraceKind::Mixed { nodes, .. } | TraceKind::Churn { nodes, .. } => nodes,
            TraceKind::Mega => drom_sim::trace::MEGA_NODES,
        }
    }

    /// The cluster the traces are replayed on.
    pub fn sim(&self) -> ClusterSim {
        ClusterSim::new(self.nodes(), NODE_CPUS)
    }

    /// Generates the trace of replay number `rep`. Replay 0 uses `seed`
    /// itself, so its digest can be compared with digests pinned elsewhere
    /// for the same `(generator, seed)`.
    pub fn generate(&self, seed: u64, rep: u32) -> Vec<TraceJob> {
        let sub_seed = seed.wrapping_add(u64::from(rep).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match self.trace {
            TraceKind::Mixed { nodes, load } => {
                mixed_hpc_trace(sub_seed, self.jobs, nodes, NODE_CPUS, load)
            }
            TraceKind::Churn { nodes, load } => {
                queue_churn_trace(sub_seed, self.jobs, nodes, NODE_CPUS, load)
            }
            TraceKind::Mega => mega_trace(sub_seed, self.jobs),
        }
        .generate()
    }

    /// A fresh instance of the deciding policy.
    pub fn policy(&self) -> Box<dyn SchedulerPolicy> {
        match self.policy {
            PolicyKind::FirstFit => Box::new(FirstFitPolicy::default()),
            PolicyKind::Backfill => Box::new(BackfillPolicy::default()),
            PolicyKind::Malleable => Box::new(MalleablePolicy::default()),
        }
    }
}

/// Integer digest of a whole replay — Σstart, Σend, total run time, shrinks,
/// expands, events processed: the definition the pinned tests in
/// `crates/sim/src/cluster.rs` use. Equal digests mean the same decisions.
pub type Digest = (u128, u128, u64, u64, u64, u64);

/// The [`Digest`] of a replay.
pub fn digest(report: &ClusterRunReport) -> Digest {
    (
        report.jobs().iter().map(|j| u128::from(j.start)).sum(),
        report.jobs().iter().map(|j| u128::from(j.end)).sum(),
        report.report.total_run_time(),
        report.stats.shrinks,
        report.stats.expands,
        report.events_processed,
    )
}

/// Number of trace jobs a replay did not carry through correctly: every job
/// must complete exactly once, start no earlier than it was submitted and
/// end after it started, and the scheduler's own counters must agree.
pub fn incomplete_jobs(trace: &[TraceJob], report: &ClusterRunReport) -> u64 {
    // Trace jobs are numbered 1..=n; `seen` counts completions per job.
    let mut seen = vec![0u8; trace.len() + 1];
    let mut bad = 0u64;
    for record in report.jobs() {
        let id = record
            .name
            .strip_prefix("job")
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&id| id >= 1 && id <= trace.len());
        match id {
            Some(id) => {
                seen[id] = seen[id].saturating_add(1);
                if record.start < record.submit || record.end <= record.start {
                    bad += 1;
                }
            }
            None => bad += 1,
        }
    }
    bad += seen[1..].iter().filter(|&&n| n != 1).count() as u64;
    let jobs = trace.len() as u64;
    if report.stats.started != jobs || report.stats.completed != jobs {
        bad = bad.max(1);
    }
    bad
}

/// What a [`TimedPolicy`] records about one `schedule` call.
#[derive(Debug, Clone, Copy)]
pub struct PassSample {
    /// Start of the call.
    pub start: Instant,
    /// Duration of the call in nanoseconds.
    pub dur_ns: u32,
    /// Actions the pass emitted.
    pub actions: u32,
    /// Waiting jobs the pass was shown.
    pub queue_len: u32,
    /// Running jobs the pass was shown.
    pub running: u32,
}

/// Shared store a [`TimedPolicy`] appends to; the policy itself is consumed
/// by `ClusterSim::run`.
pub type PassLog = Arc<Mutex<Vec<PassSample>>>;

/// A `SchedulerPolicy` that times every pass of the policy it wraps and is
/// otherwise invisible: same name, same arguments in, same actions out.
pub struct TimedPolicy {
    inner: Box<dyn SchedulerPolicy>,
    log: PassLog,
}

impl TimedPolicy {
    /// Wraps `inner`, appending one [`PassSample`] per pass to `log`.
    pub fn new(inner: Box<dyn SchedulerPolicy>, log: PassLog) -> Self {
        TimedPolicy { inner, log }
    }
}

impl SchedulerPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: u64,
    ) -> Vec<SchedulerAction> {
        let start = Instant::now();
        let actions = self.inner.schedule(view, queue, now_us);
        let dur_ns = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.log
            .lock()
            .expect("pass log is only locked by this thread")
            .push(PassSample {
                start,
                dur_ns,
                actions: actions.len() as u32,
                queue_len: queue.len() as u32,
                running: view.running.len() as u32,
            });
        actions
    }
}

/// The replay state a run sets up before it measures.
pub struct ReplaySetup {
    /// What is replayed.
    pub spec: ReplaySpec,
    /// The cluster.
    pub sim: ClusterSim,
    /// Trace of replay 0.
    pub first_trace: Vec<TraceJob>,
    /// Time `TraceConfig::generate` took for `first_trace`.
    pub generate_s: f64,
}

impl ReplaySetup {
    /// Generates the first trace, builds the cluster and replays the first
    /// sixteenth of the trace once, so the allocator and the code are warm
    /// before the first timed replay. (No more than that: how long a
    /// prefix takes depends on which jobs a seed happens to put first, and
    /// that spread should not dominate `setup_s`.)
    pub fn new(spec: ReplaySpec, seed: u64) -> Result<Self, String> {
        let t = Instant::now();
        let first_trace = spec.generate(seed, 0);
        let generate_s = t.elapsed().as_secs_f64();
        let sim = spec.sim();
        let warm = &first_trace[..(first_trace.len() / 16).max(1)];
        sim.run(spec.policy(), warm)
            .map_err(|e| format!("warm-up replay failed: {e}"))?;
        Ok(ReplaySetup {
            spec,
            sim,
            first_trace,
            generate_s,
        })
    }
}

/// Counts and checks shared by the untraced and the traced replay section.
#[derive(Debug, Default)]
pub struct ReplayChecks {
    /// Trace jobs handed to `ClusterSim::run`.
    pub jobs_attempted: u64,
    /// Jobs of replays that returned `Err`, plus [`incomplete_jobs`].
    pub jobs_failed: u64,
    /// Human-readable reasons the section is not correct (empty = correct).
    pub errors: Vec<String>,
    /// Digest of replay 0, when it completed.
    pub first_digest: Option<Digest>,
}

/// One timed replay and what it needs to be checked against.
struct TimedReplay {
    wall_s: f64,
    report: ClusterRunReport,
}

fn timed_replay(
    setup: &ReplaySetup,
    policy: Box<dyn SchedulerPolicy>,
    trace: &[TraceJob],
    checks: &mut ReplayChecks,
) -> Option<TimedReplay> {
    checks.jobs_attempted += trace.len() as u64;
    let t = Instant::now();
    let result = setup.sim.run(policy, trace);
    let wall_s = t.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            let bad = incomplete_jobs(trace, &report);
            if bad > 0 {
                checks.jobs_failed += bad;
                checks.errors.push(format!(
                    "{bad} jobs of a replay did not complete exactly once"
                ));
            }
            Some(TimedReplay { wall_s, report })
        }
        Err(err) => {
            checks.jobs_failed += trace.len() as u64;
            checks.errors.push(format!("ClusterSim::run failed: {err}"));
            None
        }
    }
}

/// Live events of a replay: one arrival and one completion per job. Each one
/// triggers a scheduling pass; superseded completion events (which the event
/// loop pops and drops) are left out, so the rate does not move with the
/// number of resizes a trace happens to cause.
fn live_events(trace: &[TraceJob]) -> f64 {
    2.0 * trace.len() as f64
}

/// Result of the untraced replay section.
#[derive(Debug)]
pub struct UntracedReplays {
    /// Live events per wall-clock second of `ClusterSim::run`, per replay.
    pub events_per_s: Vec<f64>,
    /// Counts and correctness.
    pub checks: ReplayChecks,
}

/// Replays sub-traces 0, 1, 2, … until `budget` has elapsed, then replays
/// sub-trace 0 once more, which must reproduce its digest.
pub fn run_untraced(setup: &ReplaySetup, seed: u64, budget: Duration) -> UntracedReplays {
    let mut checks = ReplayChecks::default();
    let mut events_per_s = Vec::new();
    let started = Instant::now();
    let mut rep = 0u32;
    loop {
        let generated;
        let trace = if rep == 0 {
            &setup.first_trace
        } else {
            generated = setup.spec.generate(seed, rep);
            &generated
        };
        let before = started.elapsed();
        if let Some(run) = timed_replay(setup, setup.spec.policy(), trace, &mut checks) {
            events_per_s.push(live_events(trace) / run.wall_s);
            if rep == 0 {
                checks.first_digest = Some(digest(&run.report));
            }
        }
        rep += 1;
        // Stop while there is still room for the closing replay below.
        let now = started.elapsed();
        if rep as usize >= MIN_REPS - 1 && now + 2 * (now - before) > budget {
            break;
        }
    }
    if let Some(again) = timed_replay(setup, setup.spec.policy(), &setup.first_trace, &mut checks) {
        events_per_s.push(live_events(&setup.first_trace) / again.wall_s);
        if checks.first_digest != Some(digest(&again.report)) {
            checks
                .errors
                .push("replaying the same trace twice gave two digests".into());
        }
    }
    UntracedReplays {
        events_per_s,
        checks,
    }
}

/// What one traced replay says about each layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedRep {
    /// `sim.trace.generate_s`
    pub generate_s: f64,
    /// `sim.trace.jobs`
    pub jobs: f64,
    /// Events the loop popped, stale ones included (`sim.cluster.events`).
    pub events: f64,
    /// `(events − 2·jobs) / events`
    pub stale_event_ratio: f64,
    /// Simulated mean wait over mean response time: the share of a job's
    /// response time it spent queued. (A ratio, not seconds: simulated times
    /// repeat exactly for a seed, and a result line must not carry a time
    /// that reads the same on every run.)
    pub wait_share: f64,
    /// Simulated utilization (%).
    pub utilization_pct: f64,
    /// `slurm.policy.passes`
    pub passes: f64,
    /// Median pass (µs).
    pub pass_p50_us: f64,
    /// Tail pass (µs), at the p99 when the replay has ≥ 1000 passes.
    pub pass_p99_us: f64,
    /// Longest pass (µs).
    pub pass_max_us: f64,
    /// Actions emitted by all passes.
    pub actions: f64,
    /// Share of passes that emitted no action.
    pub empty_pass_ratio: f64,
    /// Σ durations of those passes (s).
    pub empty_pass_busy_s: f64,
    /// Median / maximum queue length a pass was shown.
    pub queue_len_p50: f64,
    /// See above.
    pub queue_len_max: f64,
    /// Median number of running jobs a pass was shown.
    pub running_p50: f64,
    /// `SchedulerStats` of the replay.
    pub starts: f64,
    /// See above.
    pub shrinks: f64,
    /// See above.
    pub expands: f64,
    /// See above.
    pub resize_races: f64,
    /// Traced wall over untraced wall of the same trace, minus one (%).
    pub tracing_overhead_pct: f64,
}

/// Result of the traced replay section.
pub struct TracedReplays {
    /// Per-layer numbers, one entry per traced replay.
    pub reps: Vec<TracedRep>,
    /// The `sim.cluster.run` span of each traced replay, parallel to `reps`;
    /// their self times are the `sim.cluster.self_*` metrics.
    pub run_spans: Vec<SpanId>,
    /// Counts and correctness.
    pub checks: ReplayChecks,
}

/// Replays each sub-trace twice — once plainly, once under a [`TimedPolicy`]
/// inside a `sim.cluster.run` span — until `budget` has elapsed. Both must
/// give one digest; their wall-clock difference is the tracing overhead.
pub fn run_traced(
    setup: &ReplaySetup,
    seed: u64,
    budget: Duration,
    log: &mut SpanLog,
) -> TracedReplays {
    let mut out = TracedReplays {
        reps: Vec::new(),
        run_spans: Vec::new(),
        checks: ReplayChecks::default(),
    };
    let passes: PassLog = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let mut rep = 0u32;
    loop {
        let (generated, generate_s);
        let trace = if rep == 0 {
            generate_s = setup.generate_s;
            &setup.first_trace
        } else {
            let t = Instant::now();
            generated = setup.spec.generate(seed, rep);
            generate_s = t.elapsed().as_secs_f64();
            &generated
        };
        let before = started.elapsed();
        // Alternate which of the pair runs first, so neither side always
        // inherits the other's warm caches.
        let traced_first = rep % 2 == 1;
        let mut plain = None;
        if !traced_first {
            plain = timed_replay(setup, setup.spec.policy(), trace, &mut out.checks);
        }
        passes.lock().expect("single thread").clear();
        let policy = Box::new(TimedPolicy::new(setup.spec.policy(), Arc::clone(&passes)));
        let span_start = log.now_ns();
        let traced = timed_replay(setup, policy, trace, &mut out.checks);
        let span_end = log.now_ns();
        if traced_first {
            plain = timed_replay(setup, setup.spec.policy(), trace, &mut out.checks);
        }
        if let (Some(plain), Some(traced)) = (plain, traced) {
            let d = digest(&traced.report);
            if d != digest(&plain.report) {
                out.checks
                    .errors
                    .push("TimedPolicy changed the replay digest".into());
            }
            if rep == 0 {
                out.checks.first_digest = Some(d);
            }
            let run = log.open("sim.cluster.run", span_start, rep);
            log.close(run, span_end);
            let samples = passes.lock().expect("single thread");
            for s in samples.iter() {
                let from = log.ns_of(s.start);
                log.push(
                    "slurm.policy.schedule",
                    from,
                    from + u64::from(s.dur_ns),
                    Some(run),
                    rep,
                );
            }
            let mut summary = summarize(trace, &traced.report, &samples);
            summary.generate_s = generate_s;
            summary.tracing_overhead_pct = (traced.wall_s / plain.wall_s - 1.0) * 100.0;
            out.reps.push(summary);
            out.run_spans.push(run);
        }
        rep += 1;
        // Stop when another pair would not fit.
        let now = started.elapsed();
        if rep as usize >= MIN_REPS && now + (now - before) > budget {
            break;
        }
    }
    out
}

fn summarize(trace: &[TraceJob], report: &ClusterRunReport, samples: &[PassSample]) -> TracedRep {
    let events = report.events_processed as f64;
    let mut durs: Vec<u32> = samples.iter().map(|s| s.dur_ns).collect();
    durs.sort_unstable();
    let mut queue: Vec<u32> = samples.iter().map(|s| s.queue_len).collect();
    queue.sort_unstable();
    let mut running: Vec<u32> = samples.iter().map(|s| s.running).collect();
    running.sort_unstable();
    let empty = samples.iter().filter(|s| s.actions == 0);
    let us = |ns: u32| f64::from(ns) / 1e3;
    let tail = supported_percentile(durs.len(), 99.0);
    TracedRep {
        jobs: trace.len() as f64,
        events,
        stale_event_ratio: (events - live_events(trace)) / events,
        wait_share: report.mean_wait_s() / report.mean_response_s(),
        utilization_pct: report.utilization_fraction() * 100.0,
        passes: samples.len() as f64,
        pass_p50_us: median_grouped(&durs) / 1e3,
        pass_p99_us: us(percentile_sorted(&durs, tail)),
        pass_max_us: us(percentile_sorted(&durs, 100.0)),
        actions: samples.iter().map(|s| f64::from(s.actions)).sum(),
        empty_pass_ratio: empty.clone().count() as f64 / samples.len() as f64,
        empty_pass_busy_s: empty.map(|s| f64::from(s.dur_ns)).sum::<f64>() / 1e9,
        queue_len_p50: f64::from(percentile_sorted(&queue, 50.0)),
        queue_len_max: f64::from(percentile_sorted(&queue, 100.0)),
        running_p50: f64::from(percentile_sorted(&running, 50.0)),
        starts: report.stats.started as f64,
        shrinks: report.stats.shrinks as f64,
        expands: report.stats.expands as f64,
        resize_races: report.stats.resize_races as f64,
        ..TracedRep::default()
    }
}

/// Median over traced replays of one field.
pub fn median_of(reps: &[TracedRep], field: impl Fn(&TracedRep) -> f64) -> f64 {
    let mut values: Vec<f64> = reps.iter().map(field).collect();
    median(&mut values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ReplaySpec {
        ReplaySpec {
            trace: TraceKind::Mixed {
                nodes: 32,
                load: 1.15,
            },
            jobs: 300,
            policy: PolicyKind::Malleable,
        }
    }

    /// The wrapper must be decision-transparent: a 300-job trace replays to
    /// the same digest with and without it — and, for seed 2018, to the
    /// digest `crates/sim/src/cluster.rs` pins for this very configuration.
    #[test]
    fn timed_policy_is_decision_transparent() {
        let spec = small();
        let trace = spec.generate(2018, 0);
        let sim = spec.sim();
        let plain = sim.run(spec.policy(), &trace).unwrap();
        let log: PassLog = Arc::new(Mutex::new(Vec::new()));
        let timed = sim
            .run(
                Box::new(TimedPolicy::new(spec.policy(), Arc::clone(&log))),
                &trace,
            )
            .unwrap();
        assert_eq!(timed.policy, plain.policy, "the wrapper delegates name()");
        assert_eq!(digest(&timed), digest(&plain));
        assert_eq!(
            digest(&plain),
            (
                1_464_106_261_953,
                1_740_934_542_902,
                12_105_439_265,
                87,
                57,
                744
            )
        );
        assert_eq!(incomplete_jobs(&trace, &plain), 0);
        // One pass per live event, and the log saw real queues.
        let samples = log.lock().unwrap();
        assert_eq!(samples.len(), 2 * trace.len());
        assert!(samples.iter().any(|s| s.queue_len > 0 && s.actions > 0));
    }

    #[test]
    fn a_truncated_report_counts_its_missing_jobs() {
        let spec = small();
        let trace = spec.generate(7, 0);
        let report = spec.sim().run(spec.policy(), &trace[..100]).unwrap();
        // 100 of 300 jobs completed: 200 missing.
        assert_eq!(incomplete_jobs(&trace, &report), 200);
    }

    #[test]
    fn sub_traces_differ_and_replay_zero_uses_the_seed_itself() {
        let spec = small();
        assert_eq!(
            spec.generate(11, 0),
            mixed_hpc_trace(11, 300, 32, 16, 1.15).generate()
        );
        assert_ne!(spec.generate(11, 0), spec.generate(11, 1));
        assert_eq!(spec.generate(11, 3), spec.generate(11, 3));
    }
}
