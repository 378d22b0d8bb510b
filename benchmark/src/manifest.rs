//! Names, units, directions and bounds: the one table `BENCHMARK.json`, the
//! run's output and `--check-repeat` are all generated from.

use crate::replay::{PolicyKind, ReplaySpec, TraceKind};

/// Seconds one run measures (`--seconds`, and `run_seconds` of the manifest).
pub const RUN_SECONDS: u32 = 10;

/// Seed used when `--seed` is not given; replay digests are pinned for it.
pub const DEFAULT_SEED: u64 = 2018;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a run prints.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; printed by every untraced run. Bounds are
/// at least three times the widest spread (interquartile range over median,
/// ten seeds) seen on any workload when the benchmark was defined — see
/// `baseline.json` — and never above the 0.25 the contract allows.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("replay_events_per_s", "1/s", Higher, 0.10),
    e2e("shrink_effect_p50_us", "us", Lower, 0.20),
    e2e("steal_effect_p50_us", "us", Lower, 0.20),
    e2e("expand_effect_p50_us", "us", Lower, 0.20),
    e2e("launch_p50_us", "us", Lower, 0.20),
    e2e("poll_idle_ns", "ns", Lower, 0.20),
];

/// What single layers did; printed by every traced run. No bounds.
pub const PER_LAYER: [MetricSpec; 52] = [
    layer("sim.trace.generate_s", "s", Lower),
    layer("sim.trace.jobs", "count", Higher),
    layer("sim.cluster.run_s", "s", Lower),
    layer("sim.cluster.events", "count", Lower),
    layer("sim.cluster.stale_event_ratio", "ratio", Lower),
    layer("sim.cluster.self_s", "s", Lower),
    layer("sim.cluster.self_us_per_event", "us", Lower),
    layer("sim.cluster.wait_share", "ratio", Lower),
    layer("sim.cluster.utilization_pct", "%", Higher),
    layer("slurm.policy.passes", "count", Lower),
    layer("slurm.policy.busy_s", "s", Lower),
    layer("slurm.policy.busy_share", "ratio", Lower),
    layer("slurm.policy.pass_p50_us", "us", Lower),
    layer("slurm.policy.pass_p99_us", "us", Lower),
    layer("slurm.policy.pass_max_us", "us", Lower),
    layer("slurm.policy.actions", "count", Higher),
    layer("slurm.policy.empty_pass_ratio", "ratio", Lower),
    layer("slurm.policy.empty_pass_busy_s", "s", Lower),
    layer("slurm.policy.queue_len_p50", "count", Lower),
    layer("slurm.policy.queue_len_max", "count", Lower),
    layer("slurm.policy.running_p50", "count", Higher),
    layer("slurm.controller.starts", "count", Higher),
    layer("slurm.controller.shrinks", "count", Lower),
    layer("slurm.controller.expands", "count", Lower),
    layer("slurm.controller.resize_races", "count", Lower),
    layer("bench.tracing_overhead_pct", "%", Lower),
    layer("slurm.controller.admit_tick_p50_us", "us", Lower),
    layer("slurm.controller.finish_tick_p50_us", "us", Lower),
    layer("slurm.launcher.shrink_p50_us", "us", Lower),
    layer("slurm.launcher.launch_p50_us", "us", Lower),
    layer("slurm.launcher.steal_launch_p50_us", "us", Lower),
    layer("slurm.launcher.complete_p50_us", "us", Lower),
    layer("core.init_p50_us", "us", Lower),
    layer("core.finalize_p50_us", "us", Lower),
    layer("core.poll_update_p50_ns", "ns", Lower),
    layer("core.poll_idle_ns", "ns", Lower),
    layer("ompsim.apply_mask_p50_ns", "ns", Lower),
    layer("ompsim.region_p50_us", "us", Lower),
    layer("cpuset.co_allocate_p50_ns", "ns", Lower),
    layer("cpuset.redistribute_freed_p50_ns", "ns", Lower),
    layer("shmem.polls", "count", Higher),
    layer("shmem.poll_hit_ratio", "ratio", Lower),
    layer("shmem.steals", "count", Higher),
    layer("shmem.registers", "count", Higher),
    layer("shmem.poll_vs_admin_ns", "ns", Lower),
    layer("coalloc.cycles", "count", Higher),
    layer("coalloc.shrink_effect_p99_us", "us", Lower),
    layer("coalloc.steal_effect_p99_us", "us", Lower),
    layer("coalloc.expand_effect_p99_us", "us", Lower),
    layer("coalloc.unattributed_pct", "%", Lower),
    layer("coalloc.tracing_overhead_pct", "%", Lower),
    layer("bench.spans", "count", Lower),
];

/// One workload: a replay configuration and how a run's measured time is
/// split between replaying it and driving the real path.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name; later issues cite it.
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
    /// What is replayed.
    pub replay: ReplaySpec,
    /// Jobs per trace under `--quick`.
    pub quick_jobs: usize,
    /// Share of `--seconds` spent replaying; the rest drives the real path.
    pub replay_share: f64,
    /// Digest of replay 0 for [`DEFAULT_SEED`] at full size.
    pub pinned_digest: crate::replay::Digest,
}

/// Share of the measured time the four replay workloads spend replaying.
const REPLAY_HEAVY: f64 = 0.8;

/// The five workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "wide_malleable",
        why: "malleable policy on 2048 nodes: pass cost is node-proportional and half the passes decide nothing, so O(changes) passes must show here",
        replay: ReplaySpec {
            trace: TraceKind::Mixed {
                nodes: 2048,
                load: 1.15,
            },
            jobs: 2_000,
            policy: PolicyKind::Malleable,
        },
        quick_jobs: 200,
        replay_share: REPLAY_HEAVY,
        pinned_digest: (
            7_955_436_901_511,
            9_684_951_702_660,
            10_357_320_263,
            885,
            798,
            5_683,
        ),
    },
    WorkloadSpec {
        name: "deep_queue_malleable",
        why: "same policy, 128 nodes, queue hundreds deep: admission order, probe memo and donor ranking carry the pass; a node-proportional gain predicts no change",
        replay: ReplaySpec {
            trace: TraceKind::Churn {
                nodes: 128,
                load: 1.3,
            },
            jobs: 10_000,
            policy: PolicyKind::Malleable,
        },
        quick_jobs: 1_000,
        replay_share: REPLAY_HEAVY,
        pinned_digest: (
            86_406_454_074_456,
            87_119_275_183_659,
            21_731_961_484,
            1_588,
            1_617,
            23_205,
        ),
    },
    WorkloadSpec {
        name: "firstfit_wide",
        why: "first-fit on 10000 nodes: the pass is the smaller part, event loop and controller index upkeep the larger, so upkeep moved into every event shows here",
        replay: ReplaySpec {
            trace: TraceKind::Mega,
            jobs: 10_000,
            policy: PolicyKind::FirstFit,
        },
        quick_jobs: 1_000,
        replay_share: REPLAY_HEAVY,
        pinned_digest: (
            227_126_025_592_994,
            232_872_350_348_393,
            48_570_881_659,
            0,
            0,
            20_000,
        ),
    },
    WorkloadSpec {
        name: "backfill_wide",
        why: "same trace under backfill: reservation window test on the release timeline, no PassState; guards merging first-fit and backfill into one admission loop",
        replay: ReplaySpec {
            trace: TraceKind::Mega,
            jobs: 10_000,
            policy: PolicyKind::Backfill,
        },
        quick_jobs: 1_000,
        replay_share: REPLAY_HEAVY,
        pinned_digest: (
            221_863_048_930_164,
            227_609_373_685_563,
            48_570_881_659,
            0,
            0,
            20_000,
        ),
    },
    WorkloadSpec {
        name: "coalloc_real",
        why: "the real path, paper Fig. 2 in a loop: scheduler shrink and launcher steal admit a co-runner beside idle polls on the same shmem slots; replay kept small",
        replay: ReplaySpec {
            trace: TraceKind::Mixed {
                nodes: 32,
                load: 1.15,
            },
            jobs: 300,
            policy: PolicyKind::Malleable,
        },
        quick_jobs: 300,
        replay_share: 1.0 - REPLAY_HEAVY,
        // The digest `crates/sim/src/cluster.rs` pins for this configuration.
        pinned_digest: (
            1_464_106_261_953,
            1_740_934_542_902,
            12_105_439_265,
            87,
            57,
            744,
        ),
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The command `BENCHMARK.json` names, run from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json` (`--print-manifest`).
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", quoted(&COMMAND));
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the driver refuses a manifest over, checked where the
    /// tables are edited.
    #[test]
    fn the_tables_stay_inside_the_contract() {
        let mut names = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_name(m.name), "{}", m.name);
            assert!(is_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(is_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.replay_share > 0.0 && w.replay_share < 1.0);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` at the root of the repository is generated, never
    /// edited: it must equal `--print-manifest`. (Skipped when the package
    /// is checked out without the repository around it.)
    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(committed, manifest_json());
        }
    }
}
