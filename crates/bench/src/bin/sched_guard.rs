//! CI perf-regression guard for the malleable scheduling pass.
//!
//! Re-measures the loaded 128-node `sched_scale/malleable_pass_128n` case
//! (the exact snapshot the bench uses, via `drom_bench::sched_fixtures`),
//! its model-aware twin `malleable_model_pass_128n` (the same view with
//! calibrated speedup curves attached), and the 1024-node
//! `malleable_reservation_pass_1024n` drain-forecast case (the
//! release-timeline walk that replaced the per-attempt replay), plus the
//! mega-shape queue-churn events/sec replay (controller, index upkeep and
//! policy end to end), and fails — exit code 1 — when any exceeds its
//! committed `BENCH_sched.json` baseline by more than the given factor
//! (default 2×, `--factor F` overrides).
//!
//! The committed baseline is an absolute wall-clock number from one machine;
//! CI runners are arbitrarily faster or slower. To keep the threshold about
//! *code*, not machine speed, the guard also times the preserved pre-index
//! reference (`malleable_scan_pass_128n`) in the same process and scales the
//! limit by `scan_measured / scan_baseline` — a runner that is 3× slower
//! gets a 3× wider absolute limit, but an indexed pass that regresses
//! relative to the scan reference (the O(queue × nodes × running) class this
//! guard exists for: pre-index was ~30× the baseline) still fails.
//!
//! Run with: `cargo run --release -p drom-bench --bin sched_guard`
//! (`--baseline path/to/BENCH_sched.json` overrides the default location).

use std::time::Instant;

use drom_bench::sched_fixtures::{
    loaded_state, loaded_state_model, reservation_stress_state, NODE_CPUS,
};
use drom_sim::{queue_churn_trace, ClusterSim};
use drom_slurm::policy::{AdmissionOrder, ClusterView, SchedIndex, SchedulerPolicy};
use drom_slurm::{MalleablePolicy, MalleableScanPolicy};

const INDEXED_KEY: &str = "sched_scale/malleable_pass_128n";
const MODEL_KEY: &str = "sched_scale/malleable_model_pass_128n";
const RESERVATION_KEY: &str = "sched_scale/malleable_reservation_pass_1024n";
const SCAN_KEY: &str = "sched_scale/malleable_scan_pass_128n";
/// Whole-trace replay of the queue-churn trace at the mega node count with
/// the malleable policy — the only key where state evolves between passes,
/// so the index's event upkeep and the admission order are actually
/// exercised. Stored as mean ns **per event**.
const EVENTS_KEY: &str = "sched_guard/queue_churn_events_mega";

/// Events-per-second probe: one end-to-end replay of a queue-heavy trace on
/// the mega node count. Returns (ns per event, events processed).
fn measure_events() -> (f64, u64) {
    let trace = queue_churn_trace(2018, 3_000, 10_000, 16, 1.3).generate();
    let sim = ClusterSim::new(10_000, 16);
    let started = Instant::now();
    let report = sim
        .run(Box::new(MalleablePolicy::default()), &trace)
        .expect("queue-churn replay failed");
    let elapsed = started.elapsed().as_nanos() as f64;
    (
        elapsed / report.events_processed as f64,
        report.events_processed,
    )
}

/// Extracts `"<key>": { "mean_ns": N }` from the **`"benches"` section** of
/// the baseline JSON. The vendored serde stand-in has no JSON parser, so
/// this does the one lookup the guard needs by string scanning — anchored
/// past the `"benches"` key because the same bench names also appear in the
/// historical `pr3_baseline` section, whose numbers must never feed the
/// limit.
fn baseline_mean_ns(json: &str, key: &str) -> Option<u64> {
    let benches = json.find("\"benches\"")?;
    let at = benches + json[benches..].find(&format!("\"{key}\""))?;
    let rest = &json[at..];
    let mean = rest.find("\"mean_ns\"")?;
    let digits: String = rest[mean + "\"mean_ns\"".len()..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Mean ns of one `schedule` call over `iters` timed iterations (after a
/// short warm-up).
fn measure(
    policy: &mut dyn SchedulerPolicy,
    view: &ClusterView<'_>,
    queue: &[drom_slurm::QueuedJob],
    iters: u32,
) -> f64 {
    for _ in 0..iters.div_ceil(10).max(3) {
        std::hint::black_box(policy.schedule(view, queue, 1_000));
    }
    let started = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(policy.schedule(view, queue, 1_000));
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn main() {
    let baseline_path = arg("--baseline").unwrap_or_else(|| "BENCH_sched.json".to_string());
    let factor: f64 = arg("--factor").map_or(2.0, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("invalid value {v:?} for --factor"))
    });
    let json = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let indexed_baseline = baseline_mean_ns(&json, INDEXED_KEY)
        .unwrap_or_else(|| panic!("no {INDEXED_KEY} mean_ns in {baseline_path}"));
    let model_baseline = baseline_mean_ns(&json, MODEL_KEY)
        .unwrap_or_else(|| panic!("no {MODEL_KEY} mean_ns in {baseline_path}"));
    let reservation_baseline = baseline_mean_ns(&json, RESERVATION_KEY)
        .unwrap_or_else(|| panic!("no {RESERVATION_KEY} mean_ns in {baseline_path}"));
    let scan_baseline = baseline_mean_ns(&json, SCAN_KEY)
        .unwrap_or_else(|| panic!("no {SCAN_KEY} mean_ns in {baseline_path}"));
    let events_baseline = baseline_mean_ns(&json, EVENTS_KEY)
        .unwrap_or_else(|| panic!("no {EVENTS_KEY} mean_ns in {baseline_path}"));

    let (free, running, queue) = loaded_state(128);
    let index = SchedIndex::rebuild(&free, &running);
    let order = AdmissionOrder::from_queue(&queue);
    let view = ClusterView {
        node_cpus: NODE_CPUS,
        running: &running,
        index: &index,
        order: &order,
    };
    let (free_m, running_m, queue_m) = loaded_state_model(128);
    let index_m = SchedIndex::rebuild(&free_m, &running_m);
    let order_m = AdmissionOrder::from_queue(&queue_m);
    let view_m = ClusterView {
        node_cpus: NODE_CPUS,
        running: &running_m,
        index: &index_m,
        order: &order_m,
    };
    let (free_r, running_r, queue_r) = reservation_stress_state(1024);
    let index_r = SchedIndex::rebuild(&free_r, &running_r);
    let order_r = AdmissionOrder::from_queue(&queue_r);
    let view_r = ClusterView {
        node_cpus: NODE_CPUS,
        running: &running_r,
        index: &index_r,
        order: &order_r,
    };

    let indexed_ns = measure(&mut MalleablePolicy::default(), &view, &queue, 200);
    let model_ns = measure(&mut MalleablePolicy::default(), &view_m, &queue_m, 200);
    let reservation_ns = measure(&mut MalleablePolicy::default(), &view_r, &queue_r, 200);
    let scan_ns = measure(&mut MalleableScanPolicy::default(), &view, &queue, 20);
    let (events_ns, events) = measure_events();
    println!(
        "sched_guard: queue-churn mega replay {events} events at {events_ns:.0} ns/event \
         ({:.0} events/s)",
        1e9 / events_ns
    );

    // How much slower/faster this machine is than the one that recorded the
    // baseline, judged by the reference implementation (whose cost this PR
    // class does not change).
    let machine = scan_ns / scan_baseline as f64;
    println!(
        "sched_guard: reference scan {scan_ns:.0} ns (baseline {scan_baseline} ns, \
         machine speed x{machine:.2})"
    );
    let mut failed = false;
    for (key, measured, baseline) in [
        (INDEXED_KEY, indexed_ns, indexed_baseline),
        (MODEL_KEY, model_ns, model_baseline),
        (RESERVATION_KEY, reservation_ns, reservation_baseline),
        (EVENTS_KEY, events_ns, events_baseline),
    ] {
        let limit_ns = baseline as f64 * factor * machine;
        println!(
            "sched_guard: {key} measured {measured:.0} ns (baseline {baseline} ns); \
             limit {limit_ns:.0} ns ({factor:.1}x)"
        );
        if measured > limit_ns {
            eprintln!(
                "sched_guard: FAIL — {key} is {:.1}x the committed baseline \
                 after machine-speed calibration",
                measured / (baseline as f64 * machine)
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("sched_guard: OK");
}
