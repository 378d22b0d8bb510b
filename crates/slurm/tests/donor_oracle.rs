//! Property battery for curve-driven donor selection (the model-aware
//! malleable policy).
//!
//! For arbitrary slot sets carrying arbitrary monotone speedup curves on one
//! node, the donors the malleable policies shrink must match an exhaustive
//! oracle that re-derives the greedy choice straight from the raw rate
//! tables, with the documented deterministic tie-breaks:
//!
//! 1. **cheapest first** — minimise the relative marginal cost
//!    `(rate(w) − rate(w−1)) · request · FP / full_rate` (a linear CPU is
//!    exactly `FP`);
//! 2. **widest spare** on equal cost (the pre-curve PR 2 rule, which is why
//!    all-linear slot sets reproduce the old policy bit for bit);
//! 3. **lowest slot index** on a full tie (slot order is running-list
//!    order, so the choice is independent of how candidates are stored).
//!
//! Each donation takes the victim's whole equal-marginal run (capped by the
//! remaining need), and the admission stands only if the newcomer's relative
//! rate gain covers the donors' aggregate loss. The oracle predicts the
//! policies' *entire* action list from those rules, and the indexed policy
//! must agree with the scan reference on every sample.
//!
//! The generated slot sets run at full width with the queued job strictly
//! bigger than the free pool, so every emitted action is attributable to the
//! carve-out under test (no expansion sweeps, no backfill reservations).

use proptest::prelude::*;

use drom_slurm::policy::{
    AdmissionOrder, ClusterView, JobAllocation, MalleablePolicy, MalleableScanPolicy, QueuedJob,
    RunningJob, SchedIndex, SchedulerAction, SchedulerPolicy, SpeedupCurve,
};

const NODE_CPUS: usize = 64;
const FP: u64 = SpeedupCurve::FP;

/// Clamped rate-table read: beyond the request the curve is flat.
fn rate(rates: &[u64], w: usize) -> u64 {
    rates[w.min(rates.len() - 1)]
}

/// Rate carried by the CPU that took the job from `w − 1` to `w`.
fn marginal(rates: &[u64], w: usize) -> u64 {
    if w == 0 {
        0
    } else {
        rate(rates, w) - rate(rates, w - 1)
    }
}

/// Relative marginal cost of width `w`'s last CPU, in fixed-point CPUs of
/// linear throughput — `FP` exactly when the job has no curve.
fn cost(rates: Option<&Vec<u64>>, request: usize, w: usize) -> u64 {
    match rates {
        None => FP,
        Some(r) => {
            let full = *r.last().unwrap();
            ((marginal(r, w) as u128 * request as u128 * FP as u128) / full as u128) as u64
        }
    }
}

/// Length of the equal-marginal run below `w`, capped at `limit` — what one
/// donation reclaims in one piece. A curve-less job donates its whole spare.
fn run_len(rates: Option<&Vec<u64>>, w: usize, limit: usize) -> usize {
    let limit = limit.min(w);
    match rates {
        None => limit,
        Some(r) => {
            if limit == 0 {
                return 0;
            }
            let top = marginal(r, w);
            let mut g = 1;
            while g < limit && marginal(r, w - g) == top {
                g += 1;
            }
            g
        }
    }
}

/// The exhaustive-scan oracle: greedy cheapest-first donations plus the
/// admission economics, predicting the exact action list (shrinks in slot
/// order, then the start) or `[]` when the admission is impossible or
/// uneconomic.
fn oracle(
    requests: &[usize],
    floors: &[usize],
    curves: &[Option<Vec<u64>>],
    free: usize,
    need: usize,
) -> Vec<SchedulerAction> {
    let n = requests.len();
    let mut widths = requests.to_vec();
    let avail: usize = free + (0..n).map(|i| widths[i] - floors[i]).sum::<usize>();
    if avail < need {
        return Vec::new();
    }
    let mut free_now = free;
    let mut loss: u128 = 0;
    while free_now < need {
        let mut victim: Option<usize> = None;
        for i in 0..n {
            let spare_i = widths[i] - floors[i];
            if spare_i == 0 {
                continue;
            }
            let better = match victim {
                None => true,
                Some(v) => {
                    let (cv, sv) = (
                        cost(curves[v].as_ref(), requests[v], widths[v]),
                        widths[v] - floors[v],
                    );
                    let ci = cost(curves[i].as_ref(), requests[i], widths[i]);
                    // Tie-break order: cheaper cost, then wider spare, then
                    // lower index (strict — the first minimum wins, so the
                    // upward scan never replaces an equal victim).
                    ci < cv || (ci == cv && spare_i > sv)
                }
            };
            if better {
                victim = Some(i);
            }
        }
        let v = victim.expect("avail covered the need");
        let spare_v = widths[v] - floors[v];
        let give = (need - free_now).min(run_len(curves[v].as_ref(), widths[v], spare_v));
        loss += give as u128 * cost(curves[v].as_ref(), requests[v], widths[v]) as u128;
        widths[v] -= give;
        free_now += give;
    }
    // The newcomer is rigid and curve-less: it brings `need` linear CPUs.
    if (need as u128 * FP as u128) < loss {
        return Vec::new();
    }
    let mut actions: Vec<SchedulerAction> = (0..n)
        .filter(|&i| widths[i] < requests[i])
        .map(|i| SchedulerAction::Resize {
            job_id: i as u64 + 1,
            cpus_per_node: widths[i],
        })
        .collect();
    actions.push(SchedulerAction::Start {
        job_id: 100,
        node_indices: vec![0],
        cpus_per_node: need,
    });
    actions
}

/// Builds a monotone rate table of the given request width from per-step
/// increments (zeros create flat runs), `kind`-shaped:
/// 0 → no curve (linear fallback), 1 → as sampled, 2 → the top half of the
/// increments zeroed (a guaranteed saturated tail, the STREAM shape).
fn build_curve(kind: usize, request: usize, increments: &[u64]) -> Option<Vec<u64>> {
    if kind == 0 {
        return None;
    }
    let mut rates = vec![0u64];
    for w in 1..=request {
        let inc = if kind == 2 && w > request / 2 {
            0
        } else if w == 1 {
            increments[0].max(1)
        } else {
            increments[w - 1]
        };
        rates.push(rates[w - 1] + inc);
    }
    Some(rates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both malleable policies reproduce the oracle's full action list on
    /// arbitrary one-node slot sets, and agree with each other.
    #[test]
    fn donor_selection_matches_the_exhaustive_oracle(
        shapes in proptest::collection::vec(
            (2usize..=12, 1usize..=12, proptest::collection::vec(0u64..4, 12), 0usize..3),
            1..=4,
        ),
        extra in 1usize..=16,
    ) {
        let n = shapes.len();
        let mut requests = Vec::with_capacity(n);
        let mut floors = Vec::with_capacity(n);
        let mut curves: Vec<Option<Vec<u64>>> = Vec::with_capacity(n);
        let mut holders = Vec::with_capacity(n);
        for (i, (request, floor_raw, increments, kind)) in shapes.iter().enumerate() {
            let request = *request;
            // The policy's effective shrink floor: the declared minimum, but
            // never below half the request (the DROM depth bound).
            let declared = (*floor_raw).min(request);
            let floor = declared.max(request.div_ceil(2));
            let curve = build_curve(*kind, request, increments);
            let mut job = QueuedJob::new(i as u64 + 1, 1, request).malleable(declared);
            if let Some(rates) = &curve {
                job = job.with_speedup(SpeedupCurve::from_rates(rates.clone()));
            }
            holders.push(RunningJob {
                job,
                alloc: JobAllocation {
                    job_id: i as u64 + 1,
                    node_indices: vec![0],
                    cpus_per_node: request,
                },
                start_us: 0,
                expected_end_us: None,
            });
            requests.push(request);
            floors.push(floor);
            curves.push(curve);
        }
        let free = NODE_CPUS - requests.iter().sum::<usize>();
        // Strictly bigger than the free pool (so admission always requires
        // donors), capped at the node: an uncappable need is simply refused.
        let need = (free + extra).min(NODE_CPUS);
        let queue = vec![QueuedJob::new(100, 1, need)];
        let expected = oracle(&requests, &floors, &curves, free, need);

        let view = ClusterView {
            node_cpus: NODE_CPUS,
            running: &holders,
            index: &SchedIndex::rebuild(&[free], &holders),
            order: &AdmissionOrder::from_queue(&queue),
        };
        let indexed = MalleablePolicy::default().schedule(&view, &queue, 0);
        let scanned = MalleableScanPolicy::default().schedule(&view, &queue, 0);
        prop_assert_eq!(&indexed, &expected, "indexed policy diverged from the oracle");
        prop_assert_eq!(&scanned, &expected, "scan reference diverged from the oracle");
    }
}
