//! Synthetic workload traces for the cluster-scale scheduling experiments.
//!
//! The paper's evaluation replays two hand-built two-job workloads; the
//! dynamic-workload literature it opens into (DMR, malleable batch schedulers)
//! instead drives a cluster with a *stream* of jobs drawn from a statistical
//! mix. This module generates such streams deterministically: a seeded
//! [`TraceConfig`] — arrival process, job classes (size × duration × share of
//! the mix), malleability — expands into a reproducible list of
//! [`TraceJob`]s that [`ClusterSim`](crate::ClusterSim) replays against any
//! [`SchedulerPolicy`](drom_slurm::policy::SchedulerPolicy).
//!
//! All randomness comes from a small embedded xorshift generator so traces
//! are identical across platforms and runs — a trace is fully described by
//! `(config, seed)`, which is what the committed experiment tables record.

use std::collections::HashMap;

use drom_apps::AppKind;
use drom_metrics::TimeUs;
use drom_slurm::policy::QueuedJob;
use drom_slurm::SpeedupCurve;

use crate::rate::speedup_curve;

/// One job of a synthetic trace: its scheduler-visible shape plus the ground
/// truth the simulator needs (the actual duration at full request width).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceJob {
    /// The job as the scheduler sees it (`expected_duration_us` is set to the
    /// true duration: the trace assumes honest user estimates; see
    /// `docs/scheduling.md` for why that favours backfill).
    pub job: QueuedJob,
    /// True duration (virtual µs) when running at the full request width.
    pub duration_us: TimeUs,
}

/// How job arrivals are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson process: exponentially distributed inter-arrival times with
    /// the given mean.
    Poisson {
        /// Mean inter-arrival time (µs).
        mean_interarrival_us: TimeUs,
    },
    /// Fixed spacing: every job arrives exactly this long after the previous.
    Uniform {
        /// Inter-arrival time (µs).
        interarrival_us: TimeUs,
    },
}

/// One class of the job mix: a resource shape, a duration range and a weight.
#[derive(Debug, Clone, PartialEq)]
pub struct JobClass {
    /// Relative weight of this class in the mix (need not sum to 1 across
    /// classes).
    pub weight: f64,
    /// Nodes requested.
    pub nodes: usize,
    /// CPUs requested per node.
    pub cpus_per_node: usize,
    /// Malleable floor (CPUs per node); ignored for rigid classes.
    pub min_cpus_per_node: usize,
    /// `true` if jobs of this class tolerate resizing.
    pub malleable: bool,
    /// Durations are drawn log-uniformly from this range (µs, at full width).
    pub duration_range_us: (TimeUs, TimeUs),
}

/// A complete trace description: expand it with [`TraceConfig::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Seed of the deterministic generator.
    pub seed: u64,
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// The job mix (must not be empty).
    pub classes: Vec<JobClass>,
    /// Weighted application mix. Empty (the default) means every job scales
    /// linearly — the PR 3/4 traces, reproduced byte for byte. Non-empty
    /// assigns each generated job an application kind (weighted draw from a
    /// *separate* RNG stream, so the base trace — arrivals, shapes,
    /// durations — is identical to the linear trace of the same seed) and
    /// attaches the matching calibrated [`SpeedupCurve`] from
    /// [`crate::rate::speedup_curve`].
    pub app_mix: Vec<(AppKind, f64)>,
}

impl TraceConfig {
    /// Expands the configuration into its job list. Jobs are numbered from 1
    /// in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or all weights are non-positive.
    pub fn generate(&self) -> Vec<TraceJob> {
        assert!(
            !self.classes.is_empty(),
            "a trace needs at least one job class"
        );
        let total_weight: f64 = self.classes.iter().map(|c| c.weight.max(0.0)).sum();
        assert!(
            total_weight > 0.0,
            "job class weights must sum to a positive value"
        );
        let mut rng = XorShift64::new(self.seed);
        let mut jobs = Vec::with_capacity(self.num_jobs);
        let mut clock: TimeUs = 0;
        for id in 1..=self.num_jobs as u64 {
            clock += match self.arrival {
                ArrivalProcess::Poisson {
                    mean_interarrival_us,
                } => {
                    // Inverse-CDF exponential; clamp u away from 0 so ln is finite.
                    let u = rng.next_f64().max(1e-12);
                    (-(u.ln()) * mean_interarrival_us as f64).round() as TimeUs
                }
                ArrivalProcess::Uniform { interarrival_us } => interarrival_us,
            };
            let class = self.pick_class(&mut rng, total_weight);
            let (lo, hi) = class.duration_range_us;
            let (lo, hi) = (lo.max(1) as f64, hi.max(1) as f64);
            let duration_us = (lo.ln() + rng.next_f64() * (hi.ln() - lo.ln()))
                .exp()
                .round() as TimeUs;
            let mut job = QueuedJob::new(id, class.nodes, class.cpus_per_node)
                .with_submit_us(clock)
                .with_expected_duration_us(duration_us);
            if class.malleable {
                job = job.malleable(class.min_cpus_per_node);
            }
            jobs.push(TraceJob { job, duration_us });
        }
        self.assign_apps(&mut jobs);
        jobs
    }

    /// Attaches a weighted-drawn application model to every job when
    /// [`app_mix`](Self::app_mix) is non-empty. Uses its own RNG stream
    /// (salted seed) so the base trace stays byte-identical to the linear
    /// trace of the same `(config, seed)` — the model-aware path is purely
    /// additive.
    fn assign_apps(&self, jobs: &mut [TraceJob]) {
        if self.app_mix.is_empty() {
            return;
        }
        let total: f64 = self.app_mix.iter().map(|&(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "app mix weights must sum to a positive value");
        let mut rng = XorShift64::new(self.seed ^ APP_MIX_STREAM_SALT);
        // Curves depend only on (kind, request width): build each once.
        let mut curves: HashMap<(AppKind, usize), SpeedupCurve> = HashMap::new();
        for tj in jobs.iter_mut() {
            let mut target = rng.next_f64() * total;
            let mut picked = self.app_mix.last().expect("non-empty mix").0;
            for &(kind, weight) in &self.app_mix {
                target -= weight.max(0.0);
                if target <= 0.0 {
                    picked = kind;
                    break;
                }
            }
            let width = tj.job.cpus_per_node;
            let curve = curves
                .entry((picked, width))
                .or_insert_with(|| speedup_curve(picked, width, width))
                .clone();
            tj.job.speedup = Some(curve);
        }
    }

    /// Returns the configuration with the given application mix attached
    /// (see [`app_mix`](Self::app_mix)); works on any trace, including
    /// [`mixed_hpc_trace`] and [`scale_out_trace`].
    pub fn with_app_mix(mut self, app_mix: Vec<(AppKind, f64)>) -> Self {
        self.app_mix = app_mix;
        self
    }

    fn pick_class(&self, rng: &mut XorShift64, total_weight: f64) -> &JobClass {
        let mut target = rng.next_f64() * total_weight;
        for class in &self.classes {
            target -= class.weight.max(0.0);
            if target <= 0.0 {
                return class;
            }
        }
        self.classes.last().expect("classes is non-empty")
    }
}

/// The canonical mixed-HPC trace of the scheduling experiments: small
/// single-node jobs, medium and large multi-node jobs, a tail of wide jobs,
/// and a rigid minority — all against `node_cpus`-CPU nodes.
///
/// Durations span 2–30 virtual minutes (log-uniform). The arrival rate is
/// set so the offered load is roughly `load` times the capacity of a
/// `num_nodes`-node cluster, which for `load ≈ 1.1` keeps a deep queue
/// without degenerating into pure saturation.
pub fn mixed_hpc_trace(
    seed: u64,
    num_jobs: usize,
    num_nodes: usize,
    node_cpus: usize,
    load: f64,
) -> TraceConfig {
    let full = node_cpus;
    let half = (node_cpus / 2).max(1);
    let quarter = (node_cpus / 4).max(1);
    // Multi-node classes shrink to the cluster the caller described, so every
    // generated job passes the scheduler's fits_ever admission check.
    let capped = |nodes: usize| nodes.clamp(1, num_nodes.max(1));
    let classes = vec![
        // Small fry: one node, a quarter wide, malleable down to 1 CPU.
        JobClass {
            weight: 0.35,
            nodes: 1,
            cpus_per_node: quarter,
            min_cpus_per_node: 1,
            malleable: true,
            duration_range_us: (120_000_000, 900_000_000),
        },
        // Medium: two nodes, half wide.
        JobClass {
            weight: 0.30,
            nodes: capped(2),
            cpus_per_node: half,
            min_cpus_per_node: (half / 4).max(1),
            malleable: true,
            duration_range_us: (120_000_000, 1_800_000_000),
        },
        // Large: four full-width nodes.
        JobClass {
            weight: 0.20,
            nodes: capped(4),
            cpus_per_node: full,
            min_cpus_per_node: (full / 4).max(1),
            malleable: true,
            duration_range_us: (300_000_000, 1_800_000_000),
        },
        // Wide: an eighth of the cluster, half-width — the jobs that
        // head-of-line block a first-fit queue.
        JobClass {
            weight: 0.10,
            nodes: (num_nodes / 8).max(1),
            cpus_per_node: half,
            min_cpus_per_node: (half / 4).max(1),
            malleable: true,
            duration_range_us: (300_000_000, 1_200_000_000),
        },
        // Rigid minority: legacy jobs that can never be resized.
        JobClass {
            weight: 0.05,
            nodes: capped(2),
            cpus_per_node: full,
            min_cpus_per_node: full,
            malleable: false,
            duration_range_us: (120_000_000, 900_000_000),
        },
    ];
    // Offered load = (mean job CPU-seconds) / (interarrival × capacity).
    let mean_cpu_us: f64 = {
        let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
        classes
            .iter()
            .map(|c| {
                // Log-uniform mean: (hi - lo) / ln(hi / lo).
                let (lo, hi) = (c.duration_range_us.0 as f64, c.duration_range_us.1 as f64);
                let mean_duration = (hi - lo) / (hi / lo).ln();
                c.weight / total_weight * mean_duration * (c.nodes * c.cpus_per_node) as f64
            })
            .sum()
    };
    let capacity = (num_nodes * node_cpus) as f64;
    let mean_interarrival_us = (mean_cpu_us / (capacity * load.max(0.01))).round() as TimeUs;
    TraceConfig {
        seed,
        num_jobs,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: mean_interarrival_us.max(1),
        },
        classes,
        app_mix: Vec::new(),
    }
}

/// Salt of the application-assignment RNG stream: keeps the model-aware
/// draws independent of the base trace draws, so attaching an app mix never
/// perturbs arrivals, shapes or durations.
const APP_MIX_STREAM_SALT: u64 = 0xD20_60AE_57A7_1C3B;

/// The canonical weighted application mix of the model-aware tier: the four
/// calibrated paper applications, weighted so the two static-partition
/// simulators dominate (as they do the paper's evaluation) with a
/// compute-bound and a memory-bound minority.
pub fn default_app_mix() -> Vec<(AppKind, f64)> {
    vec![
        (AppKind::Nest, 0.30),
        (AppKind::CoreNeuron, 0.25),
        (AppKind::Pils, 0.35),
        (AppKind::Stream, 0.10),
    ]
}

/// The model-aware tier: the canonical mixed-HPC trace with the
/// [`default_app_mix`] attached — same arrivals, shapes and durations as the
/// linear trace of the same `(seed, …)` arguments, but every job carries the
/// calibrated speedup curve of its application, so shrinking a
/// static-partition job is no longer free and memory-bound jobs gain nothing
/// from expansion. `cluster_sweep --tier model-aware` drives it.
pub fn model_aware_trace(
    seed: u64,
    num_jobs: usize,
    num_nodes: usize,
    node_cpus: usize,
    load: f64,
) -> TraceConfig {
    mixed_hpc_trace(seed, num_jobs, num_nodes, node_cpus, load).with_app_mix(default_app_mix())
}

/// A reservation-dense job stream: a heavy rigid minority — including
/// cluster-quarter-wide full-width jobs that can never be shrunk into a
/// packed cluster — keeps the queue head blocked, so almost every scheduling
/// pass computes a drain reservation. This is the workload that makes
/// `earliest_release_fit` the dominant pass cost, which is exactly what the
/// release-timeline differentials and the pinned reservation digests need to
/// exercise; the malleable filler classes keep the cluster packed enough
/// that the rigid jobs never fit immediately.
pub fn reservation_heavy_trace(
    seed: u64,
    num_jobs: usize,
    num_nodes: usize,
    node_cpus: usize,
    load: f64,
) -> TraceConfig {
    let full = node_cpus;
    let half = (node_cpus / 2).max(1);
    let quarter = (node_cpus / 4).max(1);
    let capped = |nodes: usize| nodes.clamp(1, num_nodes.max(1));
    let classes = vec![
        // Rigid and a quarter of the cluster wide at full width: the drain
        // generator — it only ever starts into a reservation.
        JobClass {
            weight: 0.20,
            nodes: (num_nodes / 4).max(1),
            cpus_per_node: full,
            min_cpus_per_node: full,
            malleable: false,
            duration_range_us: (120_000_000, 600_000_000),
        },
        // Rigid two-node full-width jobs: block often, drain quickly.
        JobClass {
            weight: 0.15,
            nodes: capped(2),
            cpus_per_node: full,
            min_cpus_per_node: full,
            malleable: false,
            duration_range_us: (120_000_000, 900_000_000),
        },
        // Malleable filler keeping the cluster packed between drains.
        JobClass {
            weight: 0.35,
            nodes: 1,
            cpus_per_node: quarter,
            min_cpus_per_node: 1,
            malleable: true,
            duration_range_us: (120_000_000, 900_000_000),
        },
        JobClass {
            weight: 0.30,
            nodes: capped(2),
            cpus_per_node: half,
            min_cpus_per_node: (half / 4).max(1),
            malleable: true,
            duration_range_us: (120_000_000, 1_200_000_000),
        },
    ];
    let mean_cpu_us: f64 = {
        let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
        classes
            .iter()
            .map(|c| {
                let (lo, hi) = (c.duration_range_us.0 as f64, c.duration_range_us.1 as f64);
                let mean_duration = (hi - lo) / (hi / lo).ln();
                c.weight / total_weight * mean_duration * (c.nodes * c.cpus_per_node) as f64
            })
            .sum()
    };
    let capacity = (num_nodes * node_cpus) as f64;
    let mean_interarrival_us = (mean_cpu_us / (capacity * load.max(0.01))).round() as TimeUs;
    TraceConfig {
        seed,
        num_jobs,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: mean_interarrival_us.max(1),
        },
        classes,
        app_mix: Vec::new(),
    }
}

/// A queue-churn-heavy job stream: **short** durations (tens of virtual
/// seconds instead of tens of minutes) at an offered load well above
/// capacity, so completions — and with them scheduling passes — fire at a
/// high rate against a queue that stays thousands of jobs deep. A rigid
/// full-width minority (including a cluster-quarter-wide blocker class)
/// keeps the queue head blocked most of the time, so the passes are
/// dominated by *failed* admission probes over the whole waiting queue —
/// exactly the per-pass O(queue log queue) sort + O(queue × nodes) re-probe
/// cost the admission-order index and the count histograms exist to remove.
/// `cluster_sweep --tier queue-churn` drives it; the CI `--scan` smoke
/// replays it differentially against the reference scan.
pub fn queue_churn_trace(
    seed: u64,
    num_jobs: usize,
    num_nodes: usize,
    node_cpus: usize,
    load: f64,
) -> TraceConfig {
    let full = node_cpus;
    let half = (node_cpus / 2).max(1);
    let quarter = (node_cpus / 4).max(1);
    let capped = |nodes: usize| nodes.clamp(1, num_nodes.max(1));
    let classes = vec![
        // Short narrow filler: the churn generator — admitted and completed
        // at a high rate whenever the head unblocks.
        JobClass {
            weight: 0.40,
            nodes: 1,
            cpus_per_node: quarter,
            min_cpus_per_node: 1,
            malleable: true,
            duration_range_us: (10_000_000, 60_000_000),
        },
        // Two-node half-width malleable mid class.
        JobClass {
            weight: 0.25,
            nodes: capped(2),
            cpus_per_node: half,
            min_cpus_per_node: (half / 4).max(1),
            malleable: true,
            duration_range_us: (10_000_000, 120_000_000),
        },
        // Rigid single-node full-width jobs: frequent short head blockers.
        JobClass {
            weight: 0.15,
            nodes: 1,
            cpus_per_node: full,
            min_cpus_per_node: full,
            malleable: false,
            duration_range_us: (20_000_000, 120_000_000),
        },
        // Wide malleable jobs an eighth of the cluster across.
        JobClass {
            weight: 0.12,
            nodes: (num_nodes / 8).max(1),
            cpus_per_node: half,
            min_cpus_per_node: (half / 4).max(1),
            malleable: true,
            duration_range_us: (30_000_000, 180_000_000),
        },
        // Rigid cluster-quarter-wide blockers: force drain reservations, so
        // the churn exercises the masked/post-reservation probe paths too.
        JobClass {
            weight: 0.08,
            nodes: (num_nodes / 4).max(1),
            cpus_per_node: full,
            min_cpus_per_node: full,
            malleable: false,
            duration_range_us: (30_000_000, 120_000_000),
        },
    ];
    let mean_cpu_us: f64 = {
        let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
        classes
            .iter()
            .map(|c| {
                let (lo, hi) = (c.duration_range_us.0 as f64, c.duration_range_us.1 as f64);
                let mean_duration = (hi - lo) / (hi / lo).ln();
                c.weight / total_weight * mean_duration * (c.nodes * c.cpus_per_node) as f64
            })
            .sum()
    };
    let capacity = (num_nodes * node_cpus) as f64;
    let mean_interarrival_us = (mean_cpu_us / (capacity * load.max(0.01))).round() as TimeUs;
    TraceConfig {
        seed,
        num_jobs,
        arrival: ArrivalProcess::Poisson {
            mean_interarrival_us: mean_interarrival_us.max(1),
        },
        classes,
        app_mix: Vec::new(),
    }
}

/// Nodes of the scale-out sweep tier (× 16 CPUs each).
pub const SCALE_OUT_NODES: usize = 1024;

/// Jobs of the full scale-out sweep tier.
pub const SCALE_OUT_JOBS: usize = 10_000;

/// The scale-out sweep tier: the canonical mixed-HPC job stream against a
/// 1024-node × 16-CPU cluster at ~1.15× offered load — [`SCALE_OUT_JOBS`]
/// jobs at full size; `cluster_sweep --tier scale-out` drives it (CI smokes
/// a reduced `num_jobs` on the same cluster shape).
///
/// This is the tier the indexed malleable pass exists for: the pre-index
/// implementation's O(queue × nodes × running) rescans made a full replay at
/// this scale take hours (the 128-node pass alone cost ~2 ms, and this tier
/// runs ~8× the nodes, ~10× the running jobs and ~5× the passes — see
/// `docs/scheduling.md`), while the indexed pass finishes it in seconds.
pub fn scale_out_trace(seed: u64, num_jobs: usize) -> TraceConfig {
    mixed_hpc_trace(seed, num_jobs, SCALE_OUT_NODES, 16, 1.15)
}

/// Nodes of the mega sweep tier (× 16 CPUs each).
pub const MEGA_NODES: usize = 10_000;

/// Jobs of the full mega sweep tier.
pub const MEGA_JOBS: usize = 100_000;

/// The mega sweep tier: the canonical mixed-HPC job stream against a
/// 10 000-node × 16-CPU cluster at ~1.15× offered load — [`MEGA_JOBS`] jobs
/// at full size; `cluster_sweep --tier mega` drives it (CI smokes a reduced
/// `num_jobs` on the same cluster shape).
///
/// This is the tier the release-timeline index exists for: at 10k nodes a
/// single drain-reservation replay costs O(running × nodes) ≈ 10⁷ node
/// visits, and a 100k-job replay computes hundreds of thousands of them —
/// the timeline walk plus the histogram-guarded admission probes keep the
/// whole three-policy sweep in minutes (see `docs/scheduling.md`).
pub fn mega_trace(seed: u64, num_jobs: usize) -> TraceConfig {
    mixed_hpc_trace(seed, num_jobs, MEGA_NODES, 16, 1.15)
}

/// Small, fast, platform-independent PRNG (xorshift64*). Not cryptographic;
/// chosen because the repo has no `rand` dependency and traces must be
/// byte-reproducible everywhere.
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // A zero state would be a fixed point; mix the seed like splitmix64.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64 {
            state: (z ^ (z >> 31)).max(1),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let config = mixed_hpc_trace(42, 200, 128, 16, 1.1);
        let a = config.generate();
        let b = config.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        // A different seed produces a different trace.
        let c = mixed_hpc_trace(43, 200, 128, 16, 1.1).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_monotonic_and_ids_unique() {
        let jobs = mixed_hpc_trace(7, 500, 128, 16, 1.2).generate();
        for pair in jobs.windows(2) {
            assert!(pair[0].job.submit_us <= pair[1].job.submit_us);
            assert!(pair[0].job.id < pair[1].job.id);
        }
    }

    #[test]
    fn jobs_fit_the_cluster_shape() {
        let jobs = mixed_hpc_trace(7, 500, 128, 16, 1.1).generate();
        for tj in &jobs {
            assert!(tj.job.nodes <= 128);
            assert!(tj.job.cpus_per_node <= 16);
            assert!(tj.job.min_cpus_per_node >= 1);
            assert!(tj.job.min_cpus_per_node <= tj.job.cpus_per_node);
            assert!(tj.duration_us > 0);
            assert_eq!(tj.job.expected_duration_us, Some(tj.duration_us));
        }
        // The mix contains both malleable and rigid jobs.
        assert!(jobs.iter().any(|j| j.job.malleable));
        assert!(jobs.iter().any(|j| !j.job.malleable));
    }

    #[test]
    fn mixed_trace_fits_small_clusters_too() {
        // Multi-node classes clamp to the cluster: every job of a 2-node
        // trace asks for at most 2 nodes, so none is unschedulable.
        let jobs = mixed_hpc_trace(1, 200, 2, 16, 1.1).generate();
        assert!(jobs.iter().all(|j| j.job.nodes <= 2));
        let single = mixed_hpc_trace(1, 50, 1, 16, 1.1).generate();
        assert!(single.iter().all(|j| j.job.nodes == 1));
    }

    /// Attaching an app mix must not perturb the base trace: arrivals,
    /// shapes and durations are byte-identical to the linear trace of the
    /// same seed — only the speedup curves differ.
    #[test]
    fn app_mix_leaves_the_base_trace_byte_identical() {
        let linear = mixed_hpc_trace(2018, 300, 32, 16, 1.15).generate();
        let model = model_aware_trace(2018, 300, 32, 16, 1.15).generate();
        assert_eq!(linear.len(), model.len());
        for (l, m) in linear.iter().zip(model.iter()) {
            assert_eq!(l.duration_us, m.duration_us);
            let mut stripped = m.job.clone();
            assert!(
                stripped.speedup.is_some(),
                "every model job carries a curve"
            );
            stripped.speedup = None;
            assert_eq!(l.job, stripped, "base job fields must not change");
        }
        // The assignment itself is deterministic…
        assert_eq!(model, model_aware_trace(2018, 300, 32, 16, 1.15).generate());
        // …and covers more than one application kind.
        let distinct: std::collections::HashSet<_> = model
            .iter()
            .map(|t| t.job.speedup.as_ref().unwrap().clone())
            .map(|c| c.rate(1))
            .collect();
        assert!(distinct.len() > 1, "the mix must actually mix");
    }

    /// The scale-out tier composes with the app mix too (the ISSUE's
    /// "extend scale_out_trace" requirement): same base trace, curves on top.
    #[test]
    fn scale_out_trace_accepts_an_app_mix() {
        let linear = scale_out_trace(7, 50).generate();
        let model = scale_out_trace(7, 50)
            .with_app_mix(default_app_mix())
            .generate();
        for (l, m) in linear.iter().zip(model.iter()) {
            assert_eq!(l.job.id, m.job.id);
            assert_eq!(l.job.submit_us, m.job.submit_us);
            assert_eq!(l.duration_us, m.duration_us);
            assert!(m.job.speedup.is_some());
        }
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let config = TraceConfig {
            seed: 1,
            num_jobs: 5,
            arrival: ArrivalProcess::Uniform {
                interarrival_us: 10,
            },
            classes: vec![JobClass {
                weight: 1.0,
                nodes: 1,
                cpus_per_node: 4,
                min_cpus_per_node: 1,
                malleable: true,
                duration_range_us: (100, 100),
            }],
            app_mix: Vec::new(),
        };
        let jobs = config.generate();
        let submits: Vec<_> = jobs.iter().map(|j| j.job.submit_us).collect();
        assert_eq!(submits, vec![10, 20, 30, 40, 50]);
        assert!(jobs.iter().all(|j| j.duration_us == 100));
    }
}
