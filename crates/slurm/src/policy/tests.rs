//! Behaviour tests of the three production policies (and their agreement
//! with the scan reference) over hand-built states.

use drom_metrics::TimeUs;

use super::curve::scaled_duration;
use super::*;

/// One pass of `policy` over a hand-built state: the index and the
/// admission order are built one-shot from `free` / `running` and `queue`.
fn pass(
    policy: &mut dyn SchedulerPolicy,
    node_cpus: usize,
    free: &[usize],
    running: &[RunningJob],
    queue: &[QueuedJob],
    now_us: TimeUs,
) -> Vec<SchedulerAction> {
    let view = ClusterView {
        node_cpus,
        running,
        index: &SchedIndex::rebuild(free, running),
        order: &AdmissionOrder::from_queue(queue),
    };
    policy.schedule(&view, queue, now_us)
}

fn running(id: u64, nodes: Vec<usize>, width: usize, request: usize, floor: usize) -> RunningJob {
    RunningJob {
        job: QueuedJob::new(id, nodes.len(), request).malleable(floor),
        alloc: JobAllocation {
            job_id: id,
            node_indices: nodes,
            cpus_per_node: width,
        },
        start_us: 0,
        expected_end_us: None,
    }
}

#[test]
fn first_fit_starts_in_order_and_blocks() {
    let free = [16, 16];
    let queue = vec![
        QueuedJob::new(1, 1, 16),
        QueuedJob::new(2, 2, 16), // does not fit once job 1 holds a node
        QueuedJob::new(3, 1, 1),  // would fit, but the head blocks it
    ];
    let actions = pass(&mut FirstFitPolicy::default(), 16, &free, &[], &queue, 0);
    assert_eq!(actions.len(), 1);
    assert!(matches!(
        &actions[0],
        SchedulerAction::Start {
            job_id: 1,
            cpus_per_node: 16,
            ..
        }
    ));
}

#[test]
fn first_fit_respects_priority() {
    let free = [16];
    let queue = vec![
        QueuedJob::new(1, 1, 16),
        QueuedJob::new(2, 1, 16).with_priority(5),
    ];
    let actions = pass(&mut FirstFitPolicy::default(), 16, &free, &[], &queue, 0);
    assert_eq!(actions.len(), 1);
    assert!(matches!(
        &actions[0],
        SchedulerAction::Start { job_id: 2, .. }
    ));
}

#[test]
fn backfill_jumps_only_safe_jobs() {
    // Node 0 busy until t=100s; head job wants both nodes.
    let holders = [running(10, vec![0], 16, 16, 16)];
    let mut holders = holders.to_vec();
    holders[0].expected_end_us = Some(100_000_000);
    let free = [0, 16];
    let queue = vec![
        QueuedJob::new(1, 2, 16), // head: blocked until t=100s
        QueuedJob::new(2, 1, 8).with_expected_duration_us(50_000_000), // safe
        QueuedJob::new(3, 1, 8).with_expected_duration_us(200_000_000), // would delay head
        QueuedJob::new(4, 1, 8),  // no estimate: never backfilled
    ];
    let actions = pass(
        &mut BackfillPolicy::default(),
        16,
        &free,
        &holders,
        &queue,
        0,
    );
    assert_eq!(actions.len(), 1, "only the safe job jumps: {actions:?}");
    assert!(matches!(
        &actions[0],
        SchedulerAction::Start { job_id: 2, .. }
    ));
}

#[test]
fn backfill_without_estimates_never_jumps() {
    let holders = vec![running(10, vec![0], 16, 16, 16)]; // no expected end
    let free = [0, 16];
    let queue = vec![
        QueuedJob::new(1, 2, 16),
        QueuedJob::new(2, 1, 4).with_expected_duration_us(1),
    ];
    let actions = pass(
        &mut BackfillPolicy::default(),
        16,
        &free,
        &holders,
        &queue,
        0,
    );
    assert!(
        actions.is_empty(),
        "no reservation, no backfill: {actions:?}"
    );
}

#[test]
fn malleable_shrinks_to_admit_and_expands_back() {
    // One malleable job owns both nodes fully; a rigid half-node job queues.
    let holders = vec![running(1, vec![0, 1], 16, 16, 4)];
    let free = [0, 0];
    let queue = vec![QueuedJob::new(2, 1, 8)];
    let actions = pass(
        &mut MalleablePolicy::default(),
        16,
        &free,
        &holders,
        &queue,
        0,
    );
    // Shrink job 1 (on both nodes), start job 2 on one node, and re-expand
    // job 1 by the slack the shrink left on the other node? The width is
    // uniform, so job 1 stays at 8 and node 1 keeps 8 CPUs free.
    assert!(actions.contains(&SchedulerAction::Resize {
        job_id: 1,
        cpus_per_node: 8
    }));
    assert!(actions.iter().any(|a| matches!(
        a,
        SchedulerAction::Start {
            job_id: 2,
            cpus_per_node: 8,
            ..
        }
    )));
    // Shrinks come before starts.
    let shrink_pos = actions
        .iter()
        .position(|a| matches!(a, SchedulerAction::Resize { job_id: 1, .. }))
        .unwrap();
    let start_pos = actions
        .iter()
        .position(|a| matches!(a, SchedulerAction::Start { .. }))
        .unwrap();
    assert!(shrink_pos < start_pos);
}

#[test]
fn malleable_expands_into_free_cpus() {
    // A shrunk malleable job and an empty queue: pure expansion.
    let holders = vec![running(1, vec![0, 1], 8, 16, 4)];
    let free = [8, 8];
    let actions = pass(&mut MalleablePolicy::default(), 16, &free, &holders, &[], 0);
    assert_eq!(
        actions,
        vec![SchedulerAction::Resize {
            job_id: 1,
            cpus_per_node: 16
        }]
    );
}

#[test]
fn malleable_respects_floors() {
    // The running job can only shrink to 12; the queued job needs 8 on
    // its node: 4 free + 4 reclaimable = admitted at its floor width.
    let holders = vec![running(1, vec![0], 16, 16, 12)];
    let free = [0];
    let queue = vec![QueuedJob::new(2, 1, 8).malleable(4)];
    let actions = pass(
        &mut MalleablePolicy::default(),
        16,
        &free,
        &holders,
        &queue,
        0,
    );
    assert!(actions.contains(&SchedulerAction::Resize {
        job_id: 1,
        cpus_per_node: 12
    }));
    assert!(actions.iter().any(|a| matches!(
        a,
        SchedulerAction::Start {
            job_id: 2,
            cpus_per_node: 4,
            ..
        }
    )));
}

#[test]
fn malleable_blocks_when_floors_exceed_capacity() {
    let holders = vec![running(1, vec![0], 16, 16, 16)]; // rigid-in-effect
    let free = [0];
    let queue = vec![QueuedJob::new(2, 1, 8)];
    let actions = pass(
        &mut MalleablePolicy::default(),
        16,
        &free,
        &holders,
        &queue,
        0,
    );
    assert!(actions.is_empty());
}

/// Regression (shrunk-duration rounding): a job admitted shrunk in this
/// pass must carry a **rounded-up** completion estimate. With the old
/// truncating scaling, J1 (101 µs at 7 CPUs, admitted at width 5) was
/// estimated to end at 141 instead of 142, so the drain reservation for
/// J2 landed at an instant J1 still occupies — and J3, whose duration
/// ends exactly when the CPUs really free up, was refused the backfill
/// it is entitled to.
#[test]
fn shrunk_admission_estimate_rounds_up_for_reservations() {
    let mut holders = vec![
        running(10, vec![0], 13, 13, 13), // rigid-in-effect, node 0
        running(11, vec![1], 11, 11, 11), // rigid-in-effect, node 1
    ];
    holders[0].expected_end_us = Some(50_000);
    holders[1].expected_end_us = Some(50_000);
    let free = [3, 5];
    let queue = vec![
        // Admitted shrunk at width 5 on node 1: ends at ⌈101·7/5⌉ = 142.
        QueuedJob::new(1, 1, 7)
            .malleable(1)
            .with_submit_us(0)
            .with_expected_duration_us(101),
        // Blocked: reservation at t = 142 over both nodes.
        QueuedJob::new(2, 2, 3)
            .with_submit_us(1)
            .with_expected_duration_us(1_000),
        // Ends exactly at the reservation instant: must backfill.
        QueuedJob::new(3, 1, 2)
            .with_submit_us(2)
            .with_expected_duration_us(142),
    ];
    let actions = pass(
        &mut MalleablePolicy::default(),
        16,
        &free,
        &holders,
        &queue,
        0,
    );
    assert!(
        actions.iter().any(|a| matches!(
            a,
            SchedulerAction::Start {
                job_id: 1,
                cpus_per_node: 5,
                ..
            }
        )),
        "job 1 admitted shrunk: {actions:?}"
    );
    assert!(
        actions.iter().any(|a| matches!(
            a,
            SchedulerAction::Start {
                job_id: 3,
                cpus_per_node: 2,
                ..
            }
        )),
        "job 3 ends exactly at the (rounded-up) reservation and must \
         backfill: {actions:?}"
    );
    assert!(
        !actions
            .iter()
            .any(|a| matches!(a, SchedulerAction::Start { job_id: 2, .. })),
        "job 2 stays reserved: {actions:?}"
    );
}

/// The indexed pass and the reference scan make identical decisions on
/// hand-built views (index and order built one-shot).
#[test]
fn indexed_and_scan_policies_agree_on_handbuilt_views() {
    fn both(free: &[usize], holders: &[RunningJob], queue: &[QueuedJob]) -> Vec<SchedulerAction> {
        let indexed = pass(
            &mut MalleablePolicy::default(),
            16,
            free,
            holders,
            queue,
            50,
        );
        let scanned = pass(
            &mut MalleableScanPolicy::default(),
            16,
            free,
            holders,
            queue,
            50,
        );
        assert_eq!(indexed, scanned);
        indexed
    }
    let start = |job_id, node_indices: &[usize], cpus_per_node| SchedulerAction::Start {
        job_id,
        node_indices: node_indices.to_vec(),
        cpus_per_node,
    };

    let mut holders = vec![
        running(1, vec![0, 1], 16, 16, 4),
        running(2, vec![2], 10, 16, 2),
        running(3, vec![1, 2], 3, 8, 1),
    ];
    holders[1].expected_end_us = Some(700);
    holders[2].expected_end_us = Some(900);
    let queue = vec![
        QueuedJob::new(10, 2, 12)
            .malleable(3)
            .with_expected_duration_us(500),
        QueuedJob::new(11, 4, 16)
            .with_submit_us(1)
            .with_expected_duration_us(400),
        QueuedJob::new(12, 1, 4)
            .with_submit_us(2)
            .with_expected_duration_us(100),
        QueuedJob::new(13, 1, 2).malleable(1).with_submit_us(3),
    ];
    both(&[0, 3, 3, 16], &holders, &queue);

    // A job admitted earlier in the pass donates to a later admission of
    // the same pass: job 1 starts into the 10 free CPUs and — 5 spare
    // against running job 5's 3 — is the donor job 2's four CPUs come from.
    // The index lists only job 5 on the node.
    let holders = vec![running(5, vec![0], 6, 6, 1)];
    let queue = vec![
        QueuedJob::new(1, 1, 10).malleable(2),
        QueuedJob::new(2, 1, 4).with_submit_us(1),
    ];
    assert_eq!(
        both(&[10], &holders, &queue),
        vec![start(1, &[0], 6), start(2, &[0], 4)],
        "the same-pass start gives up the CPUs, job 5 keeps its width"
    );

    // A same-pass start on a reserved node is never a victim. Job 10 (2×16)
    // reserves nodes 0 and 1 for t = 1000; job 11 ends before that and
    // starts across reserved node 1 and open node 2; job 12 then needs two
    // CPUs on node 2, where job 11 has the most spare (4 against job 22's
    // 2) — shrinking it would push the reservation, so job 22 donates.
    let mut holders = vec![
        running(20, vec![0], 16, 16, 16),
        running(21, vec![1], 8, 8, 8),
        running(22, vec![2], 8, 8, 6),
    ];
    holders[0].expected_end_us = Some(1_000);
    holders[1].expected_end_us = Some(1_000);
    let queue = vec![
        QueuedJob::new(10, 2, 16).with_expected_duration_us(500),
        QueuedJob::new(11, 2, 8)
            .malleable(2)
            .with_submit_us(1)
            .with_expected_duration_us(100),
        QueuedJob::new(12, 1, 2).with_submit_us(2),
    ];
    assert_eq!(
        both(&[0, 8, 8], &holders, &queue),
        vec![
            SchedulerAction::Resize {
                job_id: 22,
                cpus_per_node: 6
            },
            start(11, &[1, 2], 8),
            start(12, &[2], 2),
        ],
        "job 11 overlaps the reservation and keeps its width"
    );
}

/// A job carrying a sub-linear curve gets curve-scaled (not linear)
/// estimates from every policy path that starts it shrunk.
#[test]
fn shrunk_admission_estimate_consults_the_speedup_curve() {
    // Request 7, but shrinking costs double the linear slowdown:
    // rate(w) = w·FP/14 below the request, FP at it.
    let rates: Vec<u64> = (0..=7u64)
        .map(|w| {
            if w == 7 {
                SpeedupCurve::FP
            } else {
                w * SpeedupCurve::FP / 14
            }
        })
        .collect();
    let curve = SpeedupCurve::from_rates(rates);
    let holders = vec![running(10, vec![0], 11, 11, 11)]; // rigid-in-effect
    let free = [5];
    let queue = vec![QueuedJob::new(1, 1, 7)
        .malleable(1)
        .with_expected_duration_us(101)
        .with_speedup(curve.clone())];
    for actions in [
        pass(
            &mut MalleablePolicy::default(),
            16,
            &free,
            &holders,
            &queue,
            0,
        ),
        pass(
            &mut MalleableScanPolicy::default(),
            16,
            &free,
            &holders,
            &queue,
            0,
        ),
    ] {
        assert!(
            actions.iter().any(|a| matches!(
                a,
                SchedulerAction::Start {
                    job_id: 1,
                    cpus_per_node: 5,
                    ..
                }
            )),
            "job 1 admitted shrunk at width 5: {actions:?}"
        );
    }
    // The estimate the policy plans around: ⌈101·FP / rate(5)⌉ = 283
    // virtual µs — twice the linear ⌈101·7/5⌉ = 142 (minus rounding).
    assert_eq!(curve.scaled_duration_us(101, 5), 283);
    assert_eq!(scaled_duration(101, 7, 5), 142);
}

/// STREAM-like saturated curve for `request` CPUs per node: half rate at
/// one CPU, full (memory-bound) rate from two CPUs on.
pub(super) fn stream_curve(request: usize) -> SpeedupCurve {
    let rates = (0..=request as u64)
        .map(|w| match w {
            0 => 0,
            1 => SpeedupCurve::FP / 2,
            _ => SpeedupCurve::FP,
        })
        .collect();
    SpeedupCurve::from_rates(rates)
}

fn with_curve(mut r: RunningJob, curve: SpeedupCurve) -> RunningJob {
    r.job.speedup = Some(curve);
    r
}

/// Regression (model-blind expansion): a STREAM job saturated at its
/// current width must never be handed free CPUs while an unsaturated
/// job on the same node is below its request. Pre-fix the round-robin
/// sweep split the 8 free CPUs evenly between both.
#[test]
fn saturated_job_is_never_expanded_while_an_unsaturated_peer_wants_cpus() {
    let holders = vec![
        with_curve(running(1, vec![0], 4, 8, 4), stream_curve(8)),
        running(2, vec![0], 4, 8, 4), // linear: every CPU still helps
    ];
    let free = [8];
    for actions in [
        pass(&mut MalleablePolicy::default(), 16, &free, &holders, &[], 0),
        pass(
            &mut MalleableScanPolicy::default(),
            16,
            &free,
            &holders,
            &[],
            0,
        ),
    ] {
        assert_eq!(
            actions,
            vec![SchedulerAction::Resize {
                job_id: 2,
                cpus_per_node: 8
            }],
            "only the unsaturated job expands; the saturated STREAM job \
             gains nothing from more CPUs"
        );
    }
}

/// Regression (model-blind victim selection): a saturated STREAM job
/// donates its zero-marginal-cost tail before an uneven static-partition
/// job loses real throughput — even when the static job has the larger
/// raw spare, which is what the pre-fix widest-donor rule keyed on.
#[test]
fn saturated_stream_job_is_preferred_donor_over_uneven_static_partition() {
    // Static-partition-like curve: every width below the request costs
    // real rate (linear profile), so its marginal cost is FP per CPU.
    let static_rates: Vec<u64> = (0..=16u64).map(|w| w * (SpeedupCurve::FP / 16)).collect();
    let holders = vec![
        // STREAM at width 12 of 16, shrink floor 8: 4 CPUs of spare, all
        // on the flat tail (zero marginal cost).
        with_curve(running(1, vec![0], 12, 16, 1), stream_curve(16)),
        // Static partition at width 16 of 16, shrink floor 8: 8 CPUs of
        // spare (the pre-fix rule's pick), every one costing throughput.
        with_curve(
            running(2, vec![0], 16, 16, 1),
            SpeedupCurve::from_rates(static_rates),
        ),
    ];
    let free = [4];
    let queue = vec![QueuedJob::new(3, 1, 8)];
    for actions in [
        pass(
            &mut MalleablePolicy::default(),
            32,
            &free,
            &holders,
            &queue,
            0,
        ),
        pass(
            &mut MalleableScanPolicy::default(),
            32,
            &free,
            &holders,
            &queue,
            0,
        ),
    ] {
        assert!(
            actions.contains(&SchedulerAction::Resize {
                job_id: 1,
                cpus_per_node: 8
            }),
            "the free-to-shrink STREAM job donates: {actions:?}"
        );
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, SchedulerAction::Resize { job_id: 2, .. })),
            "the static-partition job keeps its throughput: {actions:?}"
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                SchedulerAction::Start {
                    job_id: 3,
                    cpus_per_node: 8,
                    ..
                }
            )),
            "the queued job still starts: {actions:?}"
        );
    }
}

/// Regression (shrink economics): an admission whose donors lose more
/// aggregate rate than the newcomer gains is refused. The donor's curve
/// cliffs at width 12 — the first donated CPU costs 3/4 of its full rate
/// (relative cost 12·FP) while the 8-CPU newcomer only brings 8·FP.
#[test]
fn admission_is_rejected_when_donor_loss_exceeds_newcomer_gain() {
    let cliff_rates: Vec<u64> = (0..=16u64)
        .map(|w| match w {
            0 => 0,
            1..=11 => SpeedupCurve::FP / 4,
            _ => SpeedupCurve::FP,
        })
        .collect();
    let holders = vec![with_curve(
        running(1, vec![0], 12, 16, 1),
        SpeedupCurve::from_rates(cliff_rates),
    )];
    let free = [4];
    let queue = vec![QueuedJob::new(2, 1, 8)];
    for actions in [
        pass(
            &mut MalleablePolicy::default(),
            16,
            &free,
            &holders,
            &queue,
            0,
        ),
        pass(
            &mut MalleableScanPolicy::default(),
            16,
            &free,
            &holders,
            &queue,
            0,
        ),
    ] {
        assert!(
            actions.is_empty(),
            "shrinking off the cliff loses 12·FP to gain 8·FP — the \
             admission must be refused: {actions:?}"
        );
    }
}

/// `ClusterView` has public fields, so a foreign driver can pair a queue
/// with an order built over some other queue. Entries that do not resolve
/// to their job are skipped: no out-of-bounds index, no start of a job the
/// queue does not hold — under every production policy (the scan reference
/// sorts the queue itself and never reads the order).
#[test]
fn mismatched_admission_order_is_skipped_not_indexed() {
    let other_queue = vec![
        QueuedJob::new(7, 1, 4), // position 0 holds job 1 in the real queue
        QueuedJob::new(1, 1, 4), // right id, wrong position
        QueuedJob::new(8, 1, 4), // position 2 is out of bounds
        QueuedJob::new(9, 1, 4),
    ];
    let queue = vec![QueuedJob::new(1, 1, 4), QueuedJob::new(2, 1, 4)];
    let index = SchedIndex::new(2, 16);
    let order = AdmissionOrder::from_queue(&other_queue);
    let view = ClusterView {
        node_cpus: 16,
        running: &[],
        index: &index,
        order: &order,
    };
    let policies: [Box<dyn SchedulerPolicy>; 3] = [
        Box::new(FirstFitPolicy::default()),
        Box::new(BackfillPolicy::default()),
        Box::new(MalleablePolicy::default()),
    ];
    for mut policy in policies {
        let actions = policy.schedule(&view, &queue, 0);
        assert!(
            actions.is_empty(),
            "{}: no entry resolves, nothing may start: {actions:?}",
            policy.name()
        );
    }
    // An order over the right queue plus one stale entry skips only that.
    let mut order = AdmissionOrder::from_queue(&queue);
    order.insert(&QueuedJob::new(3, 1, 4).with_priority(5), 2);
    let view = ClusterView {
        order: &order,
        ..view
    };
    let actions = FirstFitPolicy::default().schedule(&view, &queue, 0);
    assert_eq!(actions.len(), 2, "jobs 1 and 2 start: {actions:?}");
}

#[test]
fn fits_ever_diagnoses_impossible_jobs() {
    assert!(QueuedJob::new(1, 2, 16).fits_ever(2, 16).is_ok());
    assert!(QueuedJob::new(2, 3, 1).fits_ever(2, 16).is_err());
    assert!(QueuedJob::new(3, 1, 17).fits_ever(2, 16).is_err());
}

#[test]
fn view_reads_free_cpus_off_the_index() {
    let index = SchedIndex::rebuild(&[16, 4], &[]);
    let order = AdmissionOrder::new();
    let v = ClusterView {
        node_cpus: 16,
        running: &[],
        index: &index,
        order: &order,
    };
    assert_eq!(v.free(), &[16, 4]);
    assert_eq!(v.num_nodes(), 2);
    assert_eq!(v.total_free(), 20);
}

#[test]
fn from_spec_derives_widths() {
    let spec = JobSpec::new(9, "hybrid")
        .with_tasks(4)
        .with_threads_per_task(4)
        .with_nodes(2)
        .with_time_limit_us(1_000);
    let q = QueuedJob::from_spec(&spec);
    assert_eq!(q.nodes, 2);
    assert_eq!(q.cpus_per_node, 8); // 2 tasks × 4 threads per node
    assert_eq!(q.min_cpus_per_node, 2); // one CPU per task
    assert!(q.malleable);
    assert_eq!(q.expected_duration_us, Some(1_000));
    assert_eq!(q.total_cpus(), 16);

    let rigid = QueuedJob::from_spec(&JobSpec::new(1, "r").with_tasks(2).rigid());
    assert_eq!(rigid.min_cpus_per_node, rigid.cpus_per_node);
}

/// The scenarios a stale "still blocked" answer would get wrong, run
/// against the count guard: the policies keep no state between passes, so
/// what a pass knows about free CPUs is exactly what the index it is handed
/// counts — a release the index saw unblocks the job on the next pass, and
/// repeating a pass over unchanged state repeats its decision.
mod blocked_then_released {
    use super::*;

    /// A rigid holder at full width with an optional completion estimate.
    fn rigid_holder(
        id: u64,
        nodes: Vec<usize>,
        width: usize,
        end_us: Option<TimeUs>,
    ) -> RunningJob {
        RunningJob {
            job: QueuedJob::new(id, nodes.len(), width),
            alloc: JobAllocation {
                job_id: id,
                node_indices: nodes,
                cpus_per_node: width,
            },
            start_us: 0,
            expected_end_us: end_us,
        }
    }

    fn iview<'a>(
        running: &'a [RunningJob],
        index: &'a SchedIndex,
        order: &'a AdmissionOrder,
    ) -> ClusterView<'a> {
        ClusterView {
            node_cpus: 16,
            running,
            index,
            order,
        }
    }

    /// (a) A job blocked on one pass starts on the next, once the holder's
    /// completion reached the index — the same policy value both times.
    fn release_unblocks_a_blocked_job(policy: &mut dyn SchedulerPolicy) {
        let holder = [rigid_holder(10, vec![0], 16, None)];
        let mut index = SchedIndex::rebuild(&[0], &holder);
        let queue = vec![QueuedJob::new(1, 1, 16)];
        let order = AdmissionOrder::from_queue(&queue);
        assert_eq!(index.free_hist().count_ge(16), 0);
        let before = iview(&holder, &index, &order);
        assert!(
            policy.schedule(&before, &queue, 0).is_empty(),
            "the node is fully held, the job is blocked"
        );

        // The holder completes: the driver feeds the event to the index,
        // which moves the node's histogram entry from 0 to 16 free.
        index.on_complete(&holder[0]);
        assert_eq!(index.free(), &[16]);
        assert_eq!(index.free_hist().count_ge(16), 1);
        let after = iview(&[], &index, &order);
        assert_eq!(
            policy.schedule(&after, &queue, 1),
            vec![SchedulerAction::Start {
                job_id: 1,
                node_indices: vec![0],
                cpus_per_node: 16,
            }],
            "the released node admits the job on the next pass"
        );
    }

    /// (a) through the shared FCFS phase.
    #[test]
    fn release_unblocks_a_blocked_job_first_fit() {
        release_unblocks_a_blocked_job(&mut FirstFitPolicy::default());
    }

    /// (a) through the malleable pass (fit count and availability count at
    /// the shrink floor both fall short before the release).
    #[test]
    fn release_unblocks_a_blocked_job_malleable() {
        release_unblocks_a_blocked_job(&mut MalleablePolicy::default());
    }

    /// (b) Backfill: the job that blocks the FCFS phase becomes the
    /// reserved head, and a candidate that fits *now* but whose declared
    /// duration overruns the head's reservation is refused — on the first
    /// pass and on a repeated pass over unchanged state alike (the EASY
    /// guarantee: the head is never leapfrogged).
    #[test]
    fn blocked_head_is_not_leapfrogged_on_a_repeated_pass() {
        let holder = [rigid_holder(10, vec![0], 8, Some(100_000_000))];
        let index = SchedIndex::rebuild(&[8], &holder);
        // Head wants the whole node (reserved at the holder's release,
        // t = 100 s); the candidate fits now but runs 500 s — far past the
        // reservation, so EASY must refuse it.
        let queue = vec![
            QueuedJob::new(1, 1, 16).with_expected_duration_us(1_000_000_000),
            QueuedJob::new(2, 1, 8).with_expected_duration_us(500_000_000),
        ];
        let order = AdmissionOrder::from_queue(&queue);
        let view = iview(&holder, &index, &order);
        let now = 10_000_000;
        let mut policy = BackfillPolicy::default();
        for pass in 1..=2 {
            assert!(
                policy.schedule(&view, &queue, now).is_empty(),
                "pass {pass}: the blocked head stays the reserved head — \
                 the overrunning candidate must not start"
            );
        }
        // The same candidate with a duration inside the window does jump,
        // so the refusal above is the reservation's doing, not the fit's.
        let mut short = queue.clone();
        short[1] = QueuedJob::new(2, 1, 8).with_expected_duration_us(50_000_000);
        let order = AdmissionOrder::from_queue(&short);
        let view = iview(&holder, &index, &order);
        let actions = policy.schedule(&view, &short, now);
        assert!(
            matches!(
                actions.as_slice(),
                [SchedulerAction::Start { job_id: 2, .. }]
            ),
            "a candidate ending before the reservation backfills: {actions:?}"
        );
    }
}
