//! Differential battery for the incremental admission order and the
//! index's maintained count histograms.
//!
//! Three properties pin the event-maintained state to exhaustive
//! recomputation:
//!
//! 1. **Order equivalence** — over arbitrary interleavings of submissions,
//!    scheduling ticks, completions and requeues, the admission order the
//!    controller maintains incrementally (O(log queue) per event) equals a
//!    from-scratch sort of the live queue by the documented key
//!    `(priority desc, submit time asc, id asc)`. The reference sort is
//!    re-derived *here*, independently of the library's own `queue_order`,
//!    so a tie-break slip in either implementation fails the property
//!    (mutation check: flip any component of the key and this test fails
//!    within a handful of cases).
//!
//! 2. **Count equivalence** — over the same interleavings (estimate
//!    refreshes included), after every event and for every width from 0 to
//!    one past the node capacity, the number of nodes the index says offer
//!    ≥ that many free (and free + reclaimable) CPUs equals a naive
//!    `filter().count()` over its per-node columns. Every count question a
//!    pass asks is answered from those histograms, so this is what makes a
//!    count-proven "blocked" exact (mutation check: drop one
//!    `FreeHist::update` from `SchedIndex::move_width` and this fails on
//!    the first start).
//!
//! 3. **One-shot equivalence** — the state a controller reached event by
//!    event (its maintained `SchedIndex` and `AdmissionOrder`) and the same
//!    `(running, queue)` state built one-shot with `SchedIndex::rebuild` +
//!    `AdmissionOrder::from_queue` yield identical actions under all three
//!    policies. Hand-built views (tests, benches, foreign drivers) therefore
//!    decide exactly like the production driver; there is no second,
//!    index-less code path left to diverge.
//!
//! The generators force ties on purpose: tiny priority/submit ranges, so
//! the id tie-break is exercised constantly, and enough completions and
//! requeues that positions churn through the controller's swap-remove path.

use proptest::prelude::*;

use drom_slurm::policy::{AdmissionOrder, ClusterView, QueuedJob, SchedIndex, SchedulerPolicy};
use drom_slurm::{BackfillPolicy, FirstFitPolicy, MalleablePolicy, PolicyScheduler};

/// One step of the driver interleaving, decoded from raw proptest fuel.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit { fuel_a: u64, fuel_b: u64 },
    Tick { advance: u64 },
    Finish { pick: u64 },
    Requeue { pick: u64 },
}

fn decode(kind: u8, a: u64, b: u64) -> Op {
    match kind {
        0 | 1 => Op::Submit {
            fuel_a: a,
            fuel_b: b,
        },
        2 => Op::Tick {
            advance: a % 1_000 + 1,
        },
        3 => Op::Finish { pick: a },
        _ => Op::Requeue { pick: a },
    }
}

/// Builds the submission for a `Submit` op: small key ranges (3 priorities,
/// 4 submit instants) so ties on the id component are the common case, a
/// mix of malleable and rigid shapes, and a declared duration so backfill
/// has reservations to protect.
fn submission(id: u64, fuel_a: u64, fuel_b: u64) -> QueuedJob {
    let mut job = QueuedJob::new(id, (fuel_a % 2) as usize + 1, (fuel_b % 8) as usize + 1)
        .with_priority((fuel_a % 3) as u32)
        .with_submit_us(fuel_b % 4)
        .with_expected_duration_us((fuel_b % 5 + 1) * 500);
    if fuel_a % 2 == 0 {
        job = job.malleable(1);
    }
    job
}

/// The independent reference: ids of the live queue sorted from scratch by
/// the documented admission key.
fn reference_order(queue: &[QueuedJob]) -> Vec<u64> {
    let mut jobs: Vec<&QueuedJob> = queue.iter().collect();
    jobs.sort_by_key(|j| (std::cmp::Reverse(j.priority), j.submit_us, j.id));
    jobs.iter().map(|j| j.id).collect()
}

/// Ids of the live queue as the incrementally maintained order walks them.
fn incremental_order(sched: &PolicyScheduler) -> Vec<u64> {
    sched
        .admission_order()
        .positions()
        .map(|p| sched.queue()[p].id)
        .collect()
}

/// Applies one op to a scheduler; completions and requeues pick among the
/// currently running jobs so the op stream stays valid on any state.
fn apply(sched: &mut PolicyScheduler, op: Op, next_id: &mut u64, now: &mut u64) {
    match op {
        Op::Submit { fuel_a, fuel_b } => {
            sched
                .submit(submission(*next_id, fuel_a, fuel_b))
                .expect("generated submissions always fit the cluster shape");
            *next_id += 1;
        }
        Op::Tick { advance } => {
            *now += advance;
            sched
                .tick(*now)
                .expect("tick never fails on policy actions");
            // Refresh completion estimates the way the simulator driver
            // does, deterministically from the job id.
            let running: Vec<u64> = sched.running().iter().map(|r| r.job.id).collect();
            for id in running {
                sched.set_expected_end(id, Some(*now + (id % 7 + 1) * 700));
            }
        }
        Op::Finish { pick } => {
            let running: Vec<u64> = sched.running().iter().map(|r| r.job.id).collect();
            if !running.is_empty() {
                let id = running[pick as usize % running.len()];
                sched.job_finished(id).expect("picked a live job");
            }
        }
        Op::Requeue { pick } => {
            let running: Vec<u64> = sched.running().iter().map(|r| r.job.id).collect();
            if !running.is_empty() {
                let id = running[pick as usize % running.len()];
                sched.requeue(id).expect("picked a live job");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Property 1: the incremental admission order equals the from-scratch
    /// reference sort after **every** event of an arbitrary interleaving.
    #[test]
    fn incremental_order_matches_the_reference_sort(
        ops in proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..60),
    ) {
        let mut sched = PolicyScheduler::new(4, 16, Box::new(MalleablePolicy::default()));
        let (mut next_id, mut now) = (1u64, 0u64);
        for (kind, a, b) in ops {
            apply(&mut sched, decode(kind, a, b), &mut next_id, &mut now);
            prop_assert_eq!(
                incremental_order(&sched),
                reference_order(sched.queue()),
                "incremental admission order diverged from the reference sort"
            );
            prop_assert_eq!(sched.admission_order().len(), sched.queue().len());
        }
    }

    /// Property 2: after **every** event, under each policy's own event
    /// mix, the index's maintained counts equal a naive count over its
    /// per-node columns at every width, zero and one-past-capacity included.
    #[test]
    fn index_counts_match_a_naive_count_after_every_event(
        ops in proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..50),
    ) {
        let policies: [Box<dyn SchedulerPolicy>; 3] = [
            Box::new(FirstFitPolicy::default()),
            Box::new(BackfillPolicy::default()),
            Box::new(MalleablePolicy::default()),
        ];
        for policy in policies {
            let name = policy.name();
            let mut sched = PolicyScheduler::new(4, 16, policy);
            let (mut next_id, mut now) = (1u64, 0u64);
            for &(kind, a, b) in &ops {
                apply(&mut sched, decode(kind, a, b), &mut next_id, &mut now);
                let index = sched.sched_index();
                for width in 0..=sched.node_cpus() + 1 {
                    let free = index.free().iter().filter(|&&f| f >= width).count();
                    let avail = index
                        .free()
                        .iter()
                        .zip(index.reclaim())
                        .filter(|&(f, r)| f + r >= width)
                        .count();
                    prop_assert_eq!(
                        index.free_hist().count_ge(width), free,
                        "{}: free count drifted at width {}", name, width
                    );
                    prop_assert_eq!(
                        index.avail_hist().count_ge(width), avail,
                        "{}: availability count drifted at width {}", name, width
                    );
                }
            }
        }
    }

    /// Property 3: after every event, a fresh policy deciding on the
    /// controller's event-maintained view and on a one-shot rebuild of the
    /// same `(running, queue)` state emits identical actions — all three
    /// policies, on whatever state the malleable driver wandered into.
    #[test]
    fn event_built_and_one_shot_views_decide_identically(
        ops in proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..40),
    ) {
        let mut sched = PolicyScheduler::new(4, 16, Box::new(MalleablePolicy::default()));
        let (mut next_id, mut now) = (1u64, 0u64);
        for (kind, a, b) in ops {
            apply(&mut sched, decode(kind, a, b), &mut next_id, &mut now);
            let maintained = ClusterView {
                node_cpus: sched.node_cpus(),
                running: sched.running(),
                index: sched.sched_index(),
                order: sched.admission_order(),
            };
            let one_shot = ClusterView {
                index: &SchedIndex::rebuild(sched.free_cpus(), sched.running()),
                order: &AdmissionOrder::from_queue(sched.queue()),
                ..maintained
            };
            let policies: [fn() -> Box<dyn SchedulerPolicy>; 3] = [
                || Box::new(FirstFitPolicy::default()),
                || Box::new(BackfillPolicy::default()),
                || Box::new(MalleablePolicy::default()),
            ];
            for fresh in policies {
                let (mut on_maintained, mut on_one_shot) = (fresh(), fresh());
                prop_assert_eq!(
                    on_maintained.schedule(&maintained, sched.queue(), now),
                    on_one_shot.schedule(&one_shot, sched.queue(), now),
                    "{}: one-shot view diverged from the event-maintained one",
                    on_maintained.name()
                );
            }
        }
    }
}

/// The documented tie-break, pinned exactly: priority descending, then
/// submit instant ascending, then id ascending — submitted in scrambled
/// order, read back in admission order.
#[test]
fn admission_order_tie_breaks_priority_then_submit_then_id() {
    let mut sched = PolicyScheduler::new(1, 16, Box::new(FirstFitPolicy::default()));
    for job in [
        QueuedJob::new(9, 1, 16).with_priority(1).with_submit_us(10),
        QueuedJob::new(2, 1, 16).with_priority(1).with_submit_us(10),
        QueuedJob::new(7, 1, 16).with_priority(2).with_submit_us(99),
        QueuedJob::new(3, 1, 16).with_priority(1).with_submit_us(5),
        QueuedJob::new(5, 1, 16).with_priority(1).with_submit_us(10),
        QueuedJob::new(4, 1, 16), // priority 0: last despite the low id
    ] {
        sched.submit(job).unwrap();
    }
    let order: Vec<u64> = sched
        .admission_order()
        .positions()
        .map(|p| sched.queue()[p].id)
        .collect();
    assert_eq!(
        order,
        vec![7, 3, 2, 5, 9, 4],
        "priority wins, then the earlier submit, then the lower id"
    );
}
