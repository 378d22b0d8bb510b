//! Cluster-scale scheduling sweep: first-fit vs conservative backfill vs the
//! DROM-malleable policy, replaying the same synthetic trace on the same
//! cluster (the dynamic-workload experiment the paper's Section 5 leaves to
//! future schedulers).
//!
//! Run with: `cargo run --release -p drom-bench --bin cluster_sweep`
//! (`--nodes N`, `--jobs M`, `--seed S`, `--load 1.15` override the
//! 128-node × 2000-job × 1.15-offered-load default; `--csv` appends CSV
//! output, like every figure binary).
//!
//! `--tier scale-out` switches to the 1024-node × 10 000-job tier
//! (`drom_sim::scale_out_trace`) that exists to exercise the indexed
//! malleable pass — the pre-index policy cannot finish it in reasonable
//! time. `--jobs` still overrides for smoke runs (CI replays the tier at a
//! reduced job count).
//!
//! `--tier model-aware` replays the standing trace with the calibrated
//! application mix attached (`drom_sim::model_aware_trace`): the *same*
//! arrivals, shapes and durations as the standing tier, but every job
//! carries its application's speedup curve, so shrinking a static-partition
//! job is no longer free and memory-bound jobs gain nothing from expansion.
//! The linear standing rows are the control; the delta between the two
//! tiers is the committed measurement of what the model coupling changes
//! (EXPERIMENTS.md).
//!
//! `--scan` replays the malleable row a second time under the O(nodes·jobs)
//! reference scan (`MalleableScanPolicy`) and hard-fails on any divergence
//! from the indexed pass — the differential harness the CI smoke runs on the
//! model-aware tier, where the curve-driven donor ranking has the most
//! surface to drift.
//!
//! `--loss-tolerance F` adds one more malleable row replayed with the
//! shrink-economics gate relaxed to `gain × F ≥ loss` (`F = 1.0` is the
//! default strict gate), so the utilization/response trade of admitting
//! throughput-losing shrinks is a committed measurement rather than a guess.

use std::str::FromStr;

use drom_bench::emit;
use drom_metrics::{workload::percent_improvement, Table};
use drom_sim::trace::{MEGA_JOBS, MEGA_NODES, SCALE_OUT_JOBS, SCALE_OUT_NODES};
use drom_sim::{
    mega_trace, mixed_hpc_trace, model_aware_trace, queue_churn_trace, reservation_heavy_trace,
    scale_out_trace, ClusterRunReport, ClusterSim,
};
use drom_slurm::policy::{SchedulerPolicy, SpeedupCurve};
use drom_slurm::{BackfillPolicy, FirstFitPolicy, MalleablePolicy, MalleableScanPolicy};

/// Value of `flag` on the command line, or `default`. An unparsable value is
/// a hard error: silently running the experiment at a default the user did
/// not ask for would poison recorded results.
fn arg<T: FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == flag).map(|i| args.get(i + 1)) {
        None => default,
        Some(Some(v)) => v.parse().unwrap_or_else(|_| {
            panic!("invalid value {v:?} for {flag}");
        }),
        Some(None) => panic!("{flag} needs a value"),
    }
}

/// `true` when the bare `name` flag is present on the command line.
fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    let tier = arg::<String>("--tier", "standing".to_string());
    let seed = arg::<u64>("--seed", 2018);
    let node_cpus = 16;
    let (nodes, jobs, load, config) = match tier.as_str() {
        "standing" => {
            let nodes = arg::<usize>("--nodes", 128);
            let jobs = arg::<usize>("--jobs", 2000);
            let load = arg::<f64>("--load", 1.15); // ratio of capacity
            (
                nodes,
                jobs,
                load,
                mixed_hpc_trace(seed, jobs, nodes, node_cpus, load),
            )
        }
        // The scale-out tier pins the cluster shape and load so committed
        // results always mean the same experiment; only the job count (CI
        // smoke) and seed vary.
        "scale-out" => {
            assert!(
                std::env::args().all(|a| a != "--nodes" && a != "--load"),
                "--tier scale-out pins the cluster shape; use the standing \
                 tier with --nodes/--load instead"
            );
            let jobs = arg::<usize>("--jobs", SCALE_OUT_JOBS);
            (SCALE_OUT_NODES, jobs, 1.15, scale_out_trace(seed, jobs))
        }
        // The model-aware tier: the standing cluster shape with the
        // calibrated app mix. `--nodes/--jobs/--load` still apply (CI smokes
        // a reduced job count) — the tier differs from "standing" only in
        // the attached speedup curves, which is exactly what makes the two
        // tables comparable row by row.
        "model-aware" => {
            let nodes = arg::<usize>("--nodes", 128);
            let jobs = arg::<usize>("--jobs", 2000);
            let load = arg::<f64>("--load", 1.15);
            (
                nodes,
                jobs,
                load,
                model_aware_trace(seed, jobs, nodes, node_cpus, load),
            )
        }
        // The reservation-dense tier: wide rigid job classes keep the head
        // of the queue blocked, so almost every malleable pass forecasts a
        // drain reservation — the workload the release-timeline index
        // exists for. Standing cluster shape, standing overrides apply.
        "reservation-heavy" => {
            let nodes = arg::<usize>("--nodes", 128);
            let jobs = arg::<usize>("--jobs", 2000);
            let load = arg::<f64>("--load", 1.15);
            (
                nodes,
                jobs,
                load,
                reservation_heavy_trace(seed, jobs, nodes, node_cpus, load),
            )
        }
        // The queue-churn tier: short over-subscribing jobs keep the
        // waiting queue deep, so the run is admission-bound — the surface
        // the incremental admission order and the index's count histograms
        // serve. Standing cluster shape, standing overrides apply; `--scan`
        // replays it against the full-re-sort, scan-everything reference.
        "queue-churn" => {
            let nodes = arg::<usize>("--nodes", 128);
            let jobs = arg::<usize>("--jobs", 2000);
            let load = arg::<f64>("--load", 1.3);
            (
                nodes,
                jobs,
                load,
                queue_churn_trace(seed, jobs, nodes, node_cpus, load),
            )
        }
        // The mega tier pins the cluster shape like scale-out: 10k nodes ×
        // 100k jobs, feasible end-to-end only with the release-timeline
        // reservations and the histogram admission guards. `--jobs` still
        // overrides for CI smoke runs.
        "mega" => {
            assert!(
                std::env::args().all(|a| a != "--nodes" && a != "--load"),
                "--tier mega pins the cluster shape; use the standing tier \
                 with --nodes/--load instead"
            );
            let jobs = arg::<usize>("--jobs", MEGA_JOBS);
            (MEGA_NODES, jobs, 1.15, mega_trace(seed, jobs))
        }
        other => panic!(
            "unknown tier {other:?} (use \"standing\", \"scale-out\", \
             \"model-aware\", \"reservation-heavy\", \"queue-churn\" or \
             \"mega\")"
        ),
    };

    let trace = config.generate();
    let sim = ClusterSim::new(nodes, node_cpus);
    println!(
        "cluster_sweep: {nodes} nodes x {node_cpus} CPUs, {jobs} jobs, \
         seed {seed}, offered load ~{load:.2}x capacity\n"
    );

    let policies: Vec<Box<dyn SchedulerPolicy>> = vec![
        Box::new(FirstFitPolicy::default()),
        Box::new(BackfillPolicy::default()),
        Box::new(MalleablePolicy::default()),
    ];
    let reports: Vec<ClusterRunReport> = policies
        .into_iter()
        .map(|p| sim.run(p, &trace).expect("trace jobs all fit the cluster"))
        .collect();

    // Optional extra malleable row with the shrink-economics gate relaxed to
    // `gain × tolerance ≥ loss`; labelled with the tolerance so committed
    // tables stay self-describing.
    let tolerance_run: Option<(String, ClusterRunReport)> =
        std::env::args().any(|a| a == "--loss-tolerance").then(|| {
            let t = arg::<f64>("--loss-tolerance", 1.0);
            assert!(
                t.is_finite() && t > 0.0,
                "--loss-tolerance must be positive"
            );
            let tol_fp = (t * SpeedupCurve::FP as f64).round() as u64;
            let r = sim
                .run(
                    Box::new(MalleablePolicy::with_loss_tolerance(tol_fp)),
                    &trace,
                )
                .expect("trace jobs all fit the cluster");
            (format!("malleable(tol={t:.2})"), r)
        });

    if flag("--scan") {
        let scan = sim
            .run(Box::new(MalleableScanPolicy::default()), &trace)
            .expect("trace jobs all fit the cluster");
        let indexed = &reports[2];
        assert!(
            scan.report == indexed.report
                && scan.utilization == indexed.utilization
                && scan.stats == indexed.stats
                && scan.events_processed == indexed.events_processed,
            "indexed malleable pass diverged from the reference scan \
             (stats {:?} vs {:?})",
            indexed.stats,
            scan.stats,
        );
        println!("scan check: reference-scan replay identical to the indexed malleable pass\n");
    }

    let mut table = Table::new(
        "Scheduling policies on one trace",
        &[
            "policy",
            "makespan [s]",
            "mean resp [s]",
            "P95 resp [s]",
            "mean wait [s]",
            "util [%]",
            "shrinks",
            "expands",
        ],
    );
    let labelled = reports
        .iter()
        .map(|r| (r.policy.to_string(), r))
        .chain(tolerance_run.iter().map(|(label, r)| (label.clone(), r)));
    for (label, r) in labelled.clone() {
        table.add_row(&[
            label,
            format!("{:.0}", r.makespan_s()),
            format!("{:.0}", r.mean_response_s()),
            format!("{:.0}", r.p95_response_s()),
            format!("{:.0}", r.mean_wait_s()),
            format!("{:.1}", r.utilization_fraction() * 100.0),
            r.stats.shrinks.to_string(),
            r.stats.expands.to_string(),
        ]);
    }
    emit(&table);

    let baseline = &reports[0];
    let mut vs = Table::new(
        "Improvement over first-fit [%] (positive = better)",
        &["policy", "makespan", "mean resp", "P95 resp", "utilization"],
    );
    for (label, r) in labelled.skip(1) {
        vs.add_row(&[
            label,
            format!(
                "{:+.1}",
                percent_improvement(baseline.makespan_s(), r.makespan_s())
            ),
            format!(
                "{:+.1}",
                percent_improvement(baseline.mean_response_s(), r.mean_response_s())
            ),
            format!(
                "{:+.1}",
                percent_improvement(baseline.p95_response_s(), r.p95_response_s())
            ),
            format!(
                "{:+.1}",
                // Higher is better for utilization: flip the sign convention.
                -percent_improvement(baseline.utilization_fraction(), r.utilization_fraction())
            ),
        ]);
    }
    emit(&vs);
}
