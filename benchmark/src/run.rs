//! One run of one workload: set-up, the replay section, the real-path
//! section, the checks, and the result line.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::coalloc::{self, CycleSamples, RealPath, IDLE_POLLS_PER_TASK};
use crate::layers;
use crate::manifest::{WorkloadSpec, DEFAULT_SEED, END_TO_END, PER_LAYER};
use crate::replay::{self, median_of, ReplaySetup, ReplaySpec};
use crate::spans::SpanLog;
use crate::stats::{median, median_grouped, p50_and_tail};

/// Times a run sets everything up; `setup_s` is the median.
const SETUPS: usize = 3;

/// Spans a traced run writes to its span file at most (the first ones).
const SPAN_FILE_LIMIT: usize = 100_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: &'static WorkloadSpec,
    /// Seed handed to the trace generators, and to nothing else.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// `true`: per-layer metrics from spans; `false`: end-to-end metrics.
    pub trace: bool,
    /// Small traces, for smoke tests. The numbers are not comparable.
    pub quick: bool,
    /// Directory the span file of a traced run goes to.
    pub out_dir: PathBuf,
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
    /// Samples the value is a median (or count) over.
    pub samples: usize,
}

/// Outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every check passed and every metric was measured.
    pub correct: bool,
    /// Operations attempted: trace jobs replayed plus real-path cycles.
    pub attempted: u64,
    /// Of those, failed: a job that did not complete exactly once, a cycle
    /// in which a layer call returned `Err` or a width was wrong.
    pub failed: u64,
    /// The metrics of the mode, in table order.
    pub metrics: Vec<Metric>,
    /// Why the run is not correct (empty when it is).
    pub errors: Vec<String>,
}

impl RunResult {
    /// The last line a run prints: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a run builds before it measures.
struct Ready {
    replay: ReplaySetup,
    path: RealPath,
    samples: CycleSamples,
}

fn set_up(spec: ReplaySpec, seed: u64) -> Result<Ready, String> {
    Ok(Ready {
        replay: ReplaySetup::new(spec, seed)?,
        path: RealPath::new()?,
        samples: CycleSamples::preallocated(),
    })
}

/// Collects metrics against the table of the mode, so a metric that is
/// missing, unknown or not a finite number makes the run incorrect instead
/// of slipping through.
struct Collector {
    table: &'static [crate::manifest::MetricSpec],
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

impl Collector {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        match self.table.iter().find(|m| m.name == name) {
            Some(spec) if value.is_finite() => self.metrics.push(Metric {
                name,
                value,
                unit: spec.unit,
                samples,
            }),
            Some(_) => self.errors.push(format!("{name} is not a number")),
            None => self.errors.push(format!("{name} is not in the table")),
        }
    }

    fn finish(mut self) -> (Vec<Metric>, Vec<String>) {
        for spec in self.table {
            if !self.metrics.iter().any(|m| m.name == spec.name) {
                self.errors.push(format!("{} was not measured", spec.name));
            }
        }
        let order = |m: &Metric| self.table.iter().position(|s| s.name == m.name);
        self.metrics.sort_by_key(order);
        (self.metrics, self.errors)
    }
}

/// Runs `opts.workload` once.
pub fn run(opts: &RunOptions) -> RunResult {
    let mut spec = opts.workload.replay;
    if opts.quick {
        spec.jobs = opts.workload.quick_jobs;
    }
    let mut result = RunResult::default();

    // Set-up, SETUPS times over; the last one is kept and measured on.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t = Instant::now();
        match set_up(spec, opts.seed) {
            Ok(r) => ready = Some(r),
            Err(err) => {
                result.errors.push(format!("set-up failed: {err}"));
                return result;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut ready = ready.expect("SETUPS is at least 1");

    let replay_budget = Duration::from_secs_f64(opts.seconds * opts.workload.replay_share);
    let path_budget = Duration::from_secs_f64(opts.seconds * (1.0 - opts.workload.replay_share));
    let mut collector = Collector {
        table: if opts.trace { &PER_LAYER } else { &END_TO_END },
        metrics: Vec::new(),
        errors: Vec::new(),
    };

    let (replay_checks, cycle_checks) = if opts.trace {
        traced(opts, &mut ready, replay_budget, path_budget, &mut collector)
    } else {
        let mut replays = replay::run_untraced(&ready.replay, opts.seed, replay_budget);
        let cycles = coalloc::run_untraced(&mut ready.path, path_budget, &mut ready.samples);
        let rates = &mut replays.events_per_s;
        if !rates.is_empty() {
            collector.put("replay_events_per_s", median(rates), rates.len());
        }
        let s = &mut ready.samples;
        if s.pairs() > 0 {
            for (name, samples) in [
                ("shrink_effect_p50_us", &mut s.shrink_effect),
                ("steal_effect_p50_us", &mut s.steal_effect),
                ("expand_effect_p50_us", &mut s.expand_effect),
                ("launch_p50_us", &mut s.launch),
            ] {
                let (p50, _) = p50_and_tail(samples, 99.0);
                collector.put(name, p50 / 1e3, samples.len());
            }
            collector.put(
                "poll_idle_ns",
                idle_poll_ns(&mut s.idle_batch),
                s.idle_batch.len(),
            );
        }
        collector.put("setup_s", median(&mut setup_s), SETUPS);
        collector.put("peak_rss_mb", peak_rss_mb(), 1);
        (replays.checks, cycles)
    };

    if !opts.quick
        && opts.seed == DEFAULT_SEED
        && replay_checks.first_digest != Some(opts.workload.pinned_digest)
    {
        result.errors.push(format!(
            "replay 0 of seed {DEFAULT_SEED} has digest {:?}, pinned is {:?}",
            replay_checks.first_digest, opts.workload.pinned_digest
        ));
    }
    result.attempted = replay_checks.jobs_attempted + cycle_checks.attempted;
    result.failed = replay_checks.jobs_failed + cycle_checks.failed;
    result.errors.extend(replay_checks.errors);
    result.errors.extend(cycle_checks.errors);
    let (metrics, missing) = collector.finish();
    result.metrics = metrics;
    result.errors.extend(missing);
    result.correct = result.errors.is_empty() && result.failed == 0 && result.attempted > 0;
    result
}

/// Per-call nanoseconds of an idle poll: the median batch over its calls.
fn idle_poll_ns(batches: &mut [u32]) -> f64 {
    let (p50, _) = p50_and_tail(batches, 99.0);
    p50 / (2 * IDLE_POLLS_PER_TASK) as f64
}

/// Reads one per-replay number.
type RepField = fn(&replay::TracedRep) -> f64;

/// The traced mode: both sections under spans, the stand-alone layer
/// measurements, the span file.
fn traced(
    opts: &RunOptions,
    ready: &mut Ready,
    replay_budget: Duration,
    path_budget: Duration,
    out: &mut Collector,
) -> (replay::ReplayChecks, coalloc::CycleChecks) {
    let mut log = SpanLog::new();
    let replays = replay::run_traced(&ready.replay, opts.seed, replay_budget, &mut log);
    let replay_spans = log.spans().len();
    let mut cycle_overhead = Vec::new();
    let cycles = coalloc::run_traced(
        &mut ready.path,
        path_budget,
        &mut ready.samples,
        &mut cycle_overhead,
        &mut log,
    );
    let own_ns = log.self_times_ns();

    // Replays: medians over the traced replays of each per-replay number —
    // except the decomposition of the run span, which is taken whole from
    // the replay with the median run time, so that the printed
    // `slurm.policy.busy_s + sim.cluster.self_s = sim.cluster.run_s` holds.
    let reps = &replays.reps;
    if !reps.is_empty() {
        let n = reps.len();
        let spans = log.spans();
        let mut by_run_time: Vec<usize> = (0..n).collect();
        by_run_time.sort_by_key(|&r| spans[replays.run_spans[r].index()].duration_ns());
        let mid = by_run_time[(n - 1) / 2];
        let run = replays.run_spans[mid].index();
        let run_s = spans[run].duration_ns() as f64 / 1e9;
        let self_s = own_ns[run] as f64 / 1e9;
        out.put("sim.cluster.run_s", run_s, n);
        out.put("sim.cluster.self_s", self_s, n);
        out.put("slurm.policy.busy_s", run_s - self_s, n);
        out.put("slurm.policy.busy_share", 1.0 - self_s / run_s, n);
        out.put(
            "sim.cluster.self_us_per_event",
            self_s * 1e6 / reps[mid].events,
            n,
        );
        let fields: [(&'static str, RepField); 21] = [
            ("sim.trace.generate_s", |r| r.generate_s),
            ("sim.trace.jobs", |r| r.jobs),
            ("sim.cluster.events", |r| r.events),
            ("sim.cluster.stale_event_ratio", |r| r.stale_event_ratio),
            ("sim.cluster.wait_share", |r| r.wait_share),
            ("sim.cluster.utilization_pct", |r| r.utilization_pct),
            ("slurm.policy.passes", |r| r.passes),
            ("slurm.policy.pass_p50_us", |r| r.pass_p50_us),
            ("slurm.policy.pass_p99_us", |r| r.pass_p99_us),
            ("slurm.policy.pass_max_us", |r| r.pass_max_us),
            ("slurm.policy.actions", |r| r.actions),
            ("slurm.policy.empty_pass_ratio", |r| r.empty_pass_ratio),
            ("slurm.policy.empty_pass_busy_s", |r| r.empty_pass_busy_s),
            ("slurm.policy.queue_len_p50", |r| r.queue_len_p50),
            ("slurm.policy.queue_len_max", |r| r.queue_len_max),
            ("slurm.policy.running_p50", |r| r.running_p50),
            ("slurm.controller.starts", |r| r.starts),
            ("slurm.controller.shrinks", |r| r.shrinks),
            ("slurm.controller.expands", |r| r.expands),
            ("slurm.controller.resize_races", |r| r.resize_races),
            ("bench.tracing_overhead_pct", |r| r.tracing_overhead_pct),
        ];
        // Pass percentiles are over the passes of one replay, not over replays.
        let passes = median_of(reps, |r| r.passes) as usize;
        for (name, field) in fields {
            let samples = if name.starts_with("slurm.policy.pass_") {
                passes
            } else {
                n
            };
            out.put(name, median_of(reps, field), samples);
        }
    }

    // Real path: medians per span name over the traced cycles.
    let spans = log.spans();
    let mut by_name: Vec<(&'static str, Vec<u32>)> = Vec::new();
    let (mut cycle_ns, mut cycle_own_ns) = (0u64, 0u64);
    for (i, span) in spans.iter().enumerate().skip(replay_spans) {
        if span.parent.is_none() {
            cycle_ns += span.duration_ns();
            cycle_own_ns += own_ns[i];
            continue;
        }
        let dur = span.duration_ns() as u32;
        match by_name.iter_mut().find(|(n, _)| *n == span.name) {
            Some((_, v)) => v.push(dur),
            None => by_name.push((span.name, vec![dur])),
        }
    }
    let mut p50_of = |name: &str| -> Option<(f64, usize)> {
        let (_, v) = by_name.iter_mut().find(|(n, _)| *n == name)?;
        v.sort_unstable();
        Some((median_grouped(v), v.len()))
    };
    for (span, metric, per) in [
        (
            "slurm.controller.admit_tick",
            "slurm.controller.admit_tick_p50_us",
            1e3,
        ),
        (
            "slurm.controller.finish_tick",
            "slurm.controller.finish_tick_p50_us",
            1e3,
        ),
        ("slurm.launcher.shrink", "slurm.launcher.shrink_p50_us", 1e3),
        ("slurm.launcher.launch", "slurm.launcher.launch_p50_us", 1e3),
        (
            "slurm.launcher.steal_launch",
            "slurm.launcher.steal_launch_p50_us",
            1e3,
        ),
        (
            "slurm.launcher.complete",
            "slurm.launcher.complete_p50_us",
            1e3,
        ),
        ("core.init", "core.init_p50_us", 1e3),
        ("core.finalize", "core.finalize_p50_us", 1e3),
        ("core.poll_update", "core.poll_update_p50_ns", 1.0),
        ("ompsim.apply_mask", "ompsim.apply_mask_p50_ns", 1.0),
        (
            "core.poll_idle",
            "core.poll_idle_ns",
            (2 * IDLE_POLLS_PER_TASK) as f64,
        ),
    ] {
        if let Some((ns, n)) = p50_of(span) {
            out.put(metric, ns / per, n);
        }
    }
    if cycle_ns > 0 {
        out.put(
            "coalloc.unattributed_pct",
            cycle_own_ns as f64 / cycle_ns as f64 * 100.0,
            cycle_overhead.len() * 2 * coalloc::BLOCK_PAIRS,
        );
    }
    let s = &mut ready.samples;
    if s.pairs() > 0 && !cycle_overhead.is_empty() {
        for (name, samples) in [
            ("coalloc.shrink_effect_p99_us", &mut s.shrink_effect),
            ("coalloc.steal_effect_p99_us", &mut s.steal_effect),
            ("coalloc.expand_effect_p99_us", &mut s.expand_effect),
        ] {
            let (_, tail) = p50_and_tail(samples, 99.0);
            out.put(name, f64::from(tail) / 1e3, samples.len());
        }
        out.put(
            "coalloc.tracing_overhead_pct",
            median(&mut cycle_overhead) * 100.0,
            cycle_overhead.len(),
        );
    }
    out.put("coalloc.cycles", cycles.attempted as f64, 1);
    let shmem = ready.path.shmem_stats();
    out.put("shmem.polls", shmem.polls as f64, 1);
    out.put("shmem.poll_hit_ratio", shmem.poll_hit_ratio(), 1);
    out.put("shmem.steals", shmem.steals as f64, 1);
    out.put("shmem.registers", shmem.registers as f64, 1);

    // Stand-alone layer measurements, sized down under --quick.
    let scale = if opts.quick { 10 } else { 1 };
    out.put(
        "ompsim.region_p50_us",
        layers::region_p50_us(2_000 / scale),
        2_000 / scale,
    );
    out.put(
        "cpuset.co_allocate_p50_ns",
        layers::co_allocate_p50_ns(100 / scale),
        100 / scale,
    );
    out.put(
        "cpuset.redistribute_freed_p50_ns",
        layers::redistribute_freed_p50_ns(100 / scale),
        100 / scale,
    );
    match layers::poll_vs_admin_ns(Duration::from_millis(200 / scale as u64)) {
        Ok(ns) => out.put("shmem.poll_vs_admin_ns", ns, 1),
        Err(err) => out.errors.push(format!("shmem.poll_vs_admin_ns: {err}")),
    }

    out.put("bench.spans", spans.len() as f64, 1);
    let file = opts
        .out_dir
        .join(format!("{}.spans.csv", opts.workload.name));
    if let Err(err) = log.write_csv_file(&file, SPAN_FILE_LIMIT) {
        out.errors
            .push(format!("writing {}: {err}", file.display()));
    }
    (replays.checks, cycles)
}
