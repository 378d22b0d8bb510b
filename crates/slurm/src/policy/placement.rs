//! Placement machinery every policy shares: first-fit over the free vector
//! (optionally masking reserved nodes), the FCFS admission phase behind the
//! index's exact count guard, and the release-timeline forecast.

use std::borrow::Cow;

use drom_metrics::TimeUs;

use super::index::FreeHist;
use super::{QueuedJob, ReleaseTimeline, SchedulerAction};

/// One pass-local adjustment layered over a base [`ReleaseTimeline`] during
/// a forecast walk: at `end_us`, each node of `node_indices` releases
/// `delta` more (new starts of this pass, `+width`) or fewer (victims this
/// pass shrank, `width − original_width` ≤ 0) CPUs than the base promises.
pub(super) struct TimelineDelta<'a> {
    pub(super) end_us: TimeUs,
    pub(super) node_indices: &'a [usize],
    pub(super) delta: i64,
}

/// Earliest time ≥ `now_us` at which a `nodes × width` allocation fits:
/// the reference replay's forecast (kept in `reference.rs`) computed by
/// walking a maintained [`ReleaseTimeline`] (plus a sorted
/// pass-local `overlay`) with a running count of nodes at ≥ `width` free
/// CPUs, instead of sorting the holders and probing a first-fit per
/// candidate instant.
///
/// Decision equivalence with the replay, instant by instant: the candidate
/// instants are the distinct estimated ends (base entries' ends ∪ overlay
/// ends — exactly the estimated holders' ends); every release at one
/// instant — each base job's entry, then the overlay's — applies before it
/// is probed (the replay's equal-end grouping); instants ≤ `now_us` release
/// without becoming candidates (overdue estimates); and a first-fit at
/// `width` succeeds **iff** at least `nodes` nodes carry ≥ `width` free
/// CPUs — so the count crossing the threshold at a future instant is
/// exactly the replay's first successful probe, and placement is computed
/// once, there. Base entries apply before overlay deltas within an instant:
/// a shrunk victim's negative overlay correction lands on top of the base
/// release it corrects, so the running free count never underflows.
/// O(nodes + Σ nodes of the walked jobs) per forecast.
// ALLOC(pass): O(nodes) scratch free vector per timeline probe.
// PANIC: timeline deltas index nodes within the scratch vector they were
// recorded for. The eligibility count is exact before `fit_first` runs; were
// it ever not, the answer is "no provable fit" — the conservative one both
// callers already handle — not a panic.
pub(super) fn earliest_timeline_fit(
    nodes: usize,
    width: usize,
    free: &[usize],
    timeline: &ReleaseTimeline,
    overlay: &[TimelineDelta<'_>],
    now_us: TimeUs,
) -> Option<(TimeUs, Vec<usize>)> {
    if nodes == 0 {
        return None; // a zero-node fit is never satisfied, like fit_first
    }
    let mut eligible = free.iter().filter(|&&f| f >= width).count();
    if eligible >= nodes {
        let found = fit_first(free, None, nodes, width);
        debug_assert!(found.is_some(), "eligible count is exact");
        return found.map(|found| (now_us, found));
    }
    let mut free_at = free.to_vec();
    let raise = |free_at: &mut [usize], eligible: &mut usize, n: usize, delta: i64| {
        let was = free_at[n] >= width;
        free_at[n] = (free_at[n] as i64 + delta) as usize;
        match (was, free_at[n] >= width) {
            (false, true) => *eligible += 1,
            (true, false) => *eligible -= 1,
            _ => {}
        }
    };
    let mut base = timeline.by_end.iter().peekable();
    let mut over = overlay.iter().peekable();
    loop {
        let t = match (base.peek(), over.peek()) {
            (None, None) => return None,
            (Some((&(bt, _), _)), None) => bt,
            (None, Some(o)) => o.end_us,
            (Some((&(bt, _), _)), Some(o)) => bt.min(o.end_us),
        };
        while let Some((_, release)) = base.next_if(|(&(bt, _), _)| bt == t) {
            for &n in &release.node_indices {
                raise(&mut free_at, &mut eligible, n, release.width as i64);
            }
        }
        while let Some(o) = over.next_if(|o| o.end_us == t) {
            for &n in o.node_indices {
                raise(&mut free_at, &mut eligible, n, o.delta);
            }
        }
        if t > now_us && eligible >= nodes {
            let found = fit_first(&free_at, None, nodes, width);
            debug_assert!(found.is_some(), "eligible count is exact");
            return found.map(|found| (t, found));
        }
    }
}

/// First-fit placement: the first `nodes` nodes (in index order) with at
/// least `width` free CPUs, skipping the nodes `reserved` flags (the
/// shared-mask equivalent of masking the free vector to zero, without
/// materialising a masked copy per queued job). Two passes — find the last
/// needed node first, then collect — so a failed probe performs no
/// allocation at all (the malleable pass probes far more often than it
/// places).
// ALLOC(pass): the result vector, sized to the requested node count.
// PANIC: scans indices below `free.len()`; the mask is node-count sized.
pub(super) fn fit_first(
    free: &[usize],
    reserved: Option<&[bool]>,
    nodes: usize,
    width: usize,
) -> Option<Vec<usize>> {
    if nodes == 0 {
        return None;
    }
    let fits = |idx: usize, f: usize| f >= width && !reserved.is_some_and(|r| r[idx]);
    let mut seen = 0;
    let mut last = 0;
    for (idx, &f) in free.iter().enumerate() {
        if fits(idx, f) {
            seen += 1;
            if seen == nodes {
                last = idx;
                break;
            }
        }
    }
    if seen < nodes {
        return None;
    }
    let mut selected = Vec::with_capacity(nodes);
    for (idx, &f) in free[..=last].iter().enumerate() {
        if fits(idx, f) {
            selected.push(idx);
        }
    }
    Some(selected)
}

/// The FCFS admission phase [`FirstFitPolicy`](super::FirstFitPolicy) and
/// [`BackfillPolicy`](super::BackfillPolicy) share: walks `jobs` in
/// admission order, admitting each at full width on its first-fit nodes
/// (pushed onto `admitted`), until one is blocked. Returns that blocked head
/// (`None` when every job started) with `jobs` positioned right after it.
///
/// Per job: count → fit → start, or stop. `hist` counts the nodes of `free`
/// per free-CPU value, so fewer than `nodes` nodes at ≥ `width` is an exact
/// no-fit: the blocked head ends the phase without a scan. Both stay
/// borrowed from the index until the first start, so a fully blocked pass
/// (the common case under load) allocates nothing at all.
// ALLOC(pass): one candidate node vector per admitted job.
// PANIC: fit results index the free vector they were computed from.
pub(super) fn admit_fcfs<'q>(
    jobs: &mut impl Iterator<Item = &'q QueuedJob>,
    free: &mut Cow<'_, [usize]>,
    hist: &mut Cow<'_, FreeHist>,
    admitted: &mut Vec<(&'q QueuedJob, Vec<usize>)>,
) -> Option<&'q QueuedJob> {
    for job in jobs {
        if hist.count_ge(job.cpus_per_node) < job.nodes {
            return Some(job);
        }
        let Some(node_indices) = fit_first(free, None, job.nodes, job.cpus_per_node) else {
            return Some(job);
        };
        take_cpus(
            free.to_mut(),
            hist.to_mut(),
            &node_indices,
            job.cpus_per_node,
        );
        admitted.push((job, node_indices));
    }
    None
}

/// Takes `width` CPUs on each of `node_indices` out of `free`, keeping its
/// histogram current.
// PANIC: fit results index the free vector they were computed from.
pub(super) fn take_cpus(
    free: &mut [usize],
    hist: &mut FreeHist,
    node_indices: &[usize],
    width: usize,
) {
    for &idx in node_indices {
        let f = &mut free[idx];
        hist.update(*f, *f - width);
        *f -= width;
    }
}

/// The action list of a first-fit / backfill pass: every admitted job
/// starts at full width on its node set, in admission order.
// ALLOC(pass): the pass's output, proportional to the jobs it admitted.
pub(super) fn start_actions(admitted: Vec<(&QueuedJob, Vec<usize>)>) -> Vec<SchedulerAction> {
    admitted
        .into_iter()
        .map(|(job, node_indices)| SchedulerAction::Start {
            job_id: job.id,
            node_indices,
            cpus_per_node: job.cpus_per_node,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::index::Release;
    use super::super::reference::{earliest_release_fit, Holder};
    use super::*;

    /// Enters job `id` on `timeline` the way the index does for a running
    /// job: one entry under its estimate, none without one.
    fn enter(
        timeline: &mut ReleaseTimeline,
        id: u64,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        if let Some(end) = end_us {
            let release = Release {
                node_indices: node_indices.to_vec(),
                width,
            };
            timeline.by_end.insert((end, id), release);
        }
    }

    /// The whole current state expressed as a base [`ReleaseTimeline`] (the
    /// indexed forecast's input when the pass changed nothing).
    fn timeline_of(holders: &[Holder<'_>]) -> ReleaseTimeline {
        let mut timeline = ReleaseTimeline::new();
        for (id, h) in holders.iter().enumerate() {
            enter(&mut timeline, id as u64, h.node_indices, h.width, h.end_us);
        }
        timeline
    }

    /// The timeline walk and the reference replay must agree — time, node
    /// set and unprovability alike — on the same holder state.
    fn assert_timeline_matches_replay(
        nodes: usize,
        width: usize,
        free: &[usize],
        holders: &[Holder<'_>],
        now_us: TimeUs,
    ) {
        assert_eq!(
            earliest_timeline_fit(nodes, width, free, &timeline_of(holders), &[], now_us),
            earliest_release_fit(nodes, width, free, holders, now_us),
            "timeline walk diverged from the reference replay \
             (nodes={nodes}, width={width}, now={now_us})"
        );
    }

    /// A holder with no completion estimate never releases: a fit that needs
    /// its CPUs is unprovable (`None`) no matter how many estimated holders
    /// release around it — but CPUs it does not hold stay provable.
    #[test]
    fn release_fit_unestimated_holder_blocks_only_its_own_cpus() {
        // Node 0 is held half by an estimated job, half by one without an
        // estimate: a full-width fit on node 0 is never provable.
        let free = [0usize, 0];
        let holders = [
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 8,
            },
            Holder {
                end_us: None,
                node_indices: &[0],
                width: 8,
            },
            Holder {
                end_us: None,
                node_indices: &[1],
                width: 16,
            },
        ];
        assert_eq!(earliest_release_fit(1, 16, &free, &holders, 10), None);
        // The estimated half of node 0 is still provable, at its end.
        assert_eq!(
            earliest_release_fit(1, 8, &free, &holders, 10),
            Some((100, vec![0]))
        );
        assert_timeline_matches_replay(1, 16, &free, &holders, 10);
        assert_timeline_matches_replay(1, 8, &free, &holders, 10);
    }

    /// Overdue estimates (end ≤ now) release before the first future
    /// candidate, but their own end instant is never a candidate start time —
    /// and when *no* future end exists, the fit stays unprovable even though
    /// the overdue releases alone would satisfy it.
    #[test]
    fn release_fit_overdue_estimates_release_but_are_no_candidates() {
        let free = [0usize];
        let holders = [
            Holder {
                end_us: Some(50),
                node_indices: &[0],
                width: 8,
            },
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 4,
            },
            Holder {
                end_us: Some(200),
                node_indices: &[0],
                width: 4,
            },
        ];
        // now = 100: the ends at 50 and 100 are overdue — their CPUs count,
        // but the earliest candidate instant is the first future end.
        assert_eq!(
            earliest_release_fit(1, 16, &free, &holders, 100),
            Some((200, vec![0]))
        );
        // Drop the future holder: 12 CPUs would be free once the overdue
        // holders release, but with no future end there is no candidate.
        assert_eq!(earliest_release_fit(1, 12, &free, &holders[..2], 100), None);
        assert_timeline_matches_replay(1, 16, &free, &holders, 100);
        assert_timeline_matches_replay(1, 12, &free, &holders[..2], 100);
    }

    /// Holders sharing an end instant release together *before* the fit is
    /// probed at that instant — each release alone is too small here, so any
    /// probe-per-holder implementation would miss the fit or place it later.
    #[test]
    fn release_fit_groups_holders_sharing_an_end_instant() {
        let free = [0usize, 0, 16];
        let holders = [
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 16,
            },
            Holder {
                end_us: Some(100),
                node_indices: &[1],
                width: 16,
            },
        ];
        assert_eq!(
            earliest_release_fit(3, 16, &free, &holders, 10),
            Some((100, vec![0, 1, 2]))
        );
        // The shared instant is one candidate: a 2×16 fit lands there too,
        // on the first two nodes in index order.
        assert_eq!(
            earliest_release_fit(2, 16, &free, &holders, 10),
            Some((100, vec![0, 1]))
        );
        assert_timeline_matches_replay(3, 16, &free, &holders, 10);
        assert_timeline_matches_replay(2, 16, &free, &holders, 10);

        // Two holders releasing on the *same node* at the same instant: the
        // timeline keeps one entry per job, so the node's release is the sum
        // the walk accumulates entry by entry — either half alone is too
        // small.
        let free = [0usize, 16];
        let halves = [
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 8,
            },
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 8,
            },
        ];
        assert_eq!(
            earliest_release_fit(2, 16, &free, &halves, 10),
            Some((100, vec![0, 1]))
        );
        assert_eq!(
            earliest_release_fit(1, 9, &free[..1], &halves, 10),
            Some((100, vec![0]))
        );
        assert_timeline_matches_replay(2, 16, &free, &halves, 10);
        assert_timeline_matches_replay(1, 9, &free[..1], &halves, 10);
    }

    /// A base timeline at pass-start widths plus an overlay of the pass's
    /// own changes — a shrink correction and a fresh start — walks to the
    /// same forecast as replaying the current widths directly.
    #[test]
    fn timeline_overlay_corrections_match_replay_of_current_widths() {
        // Pass start: A held 16 on node 0 (end 100), B holds 8 on node 1
        // (end 200). The pass shrank A to 10 (its 6 CPUs were consumed by
        // C, started 6-wide on node 1 with estimated end 150).
        let free = [6usize, 2];
        let mut base = ReleaseTimeline::new();
        enter(&mut base, 1, &[0], 16, Some(100));
        enter(&mut base, 2, &[1], 8, Some(200));
        let overlay = [
            TimelineDelta {
                end_us: 100,
                node_indices: &[0][..],
                delta: -6,
            },
            TimelineDelta {
                end_us: 150,
                node_indices: &[1][..],
                delta: 6,
            },
        ];
        let current = [
            Holder {
                end_us: Some(100),
                node_indices: &[0],
                width: 10,
            },
            Holder {
                end_us: Some(150),
                node_indices: &[1],
                width: 6,
            },
            Holder {
                end_us: Some(200),
                node_indices: &[1],
                width: 8,
            },
        ];
        for nodes in 0..=2 {
            for width in [1usize, 4, 6, 8, 10, 16, 17] {
                for now in [0u64, 99, 100, 149, 150, 250] {
                    assert_eq!(
                        earliest_timeline_fit(nodes, width, &free, &base, &overlay, now),
                        earliest_release_fit(nodes, width, &free, &current, now),
                        "overlaid walk diverged (nodes={nodes}, width={width}, now={now})"
                    );
                }
            }
        }
    }

    mod timeline_replay_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// One running-or-started job as the property generator sees it:
        /// `original − shrink` is its current width; `fresh` marks a job the
        /// pass started itself (absent from the base timeline, its full
        /// current width rides in the overlay).
        #[derive(Debug, Clone)]
        struct PropHolder {
            nodes: Vec<usize>,
            original: usize,
            shrink: usize,
            end: Option<TimeUs>,
            fresh: bool,
        }

        fn holder(num_nodes: usize) -> impl Strategy<Value = PropHolder> {
            (
                proptest::collection::btree_set(0..num_nodes, 1..=3),
                1..=8usize,
                0..8usize,
                (any::<bool>(), 0u64..300),
                any::<bool>(),
            )
                .prop_map(|(nodes, original, shrink, (estimated, end), fresh)| {
                    PropHolder {
                        nodes: nodes.into_iter().collect(),
                        original,
                        shrink: shrink % original, // keep the current width ≥ 1
                        end: estimated.then_some(end),
                        fresh,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// On arbitrary holder sets, the timeline walk equals the
            /// reference replay under BOTH production formulations: the
            /// whole current state as the base (empty overlay), and the
            /// pass-start state as the base with the pass's own shrinks and
            /// starts as overlay corrections.
            #[test]
            fn walk_matches_replay_on_arbitrary_holders(
                holders in proptest::collection::vec(holder(6), 0..8),
                free in proptest::collection::vec(0..=8usize, 6),
                nodes in 0..=4usize,
                width in 1..=10usize,
                now in 0u64..250,
            ) {
                let current: Vec<Holder<'_>> = holders
                    .iter()
                    .map(|h| Holder {
                        end_us: h.end,
                        node_indices: &h.nodes,
                        width: h.original - h.shrink,
                    })
                    .collect();
                let replay = earliest_release_fit(nodes, width, &free, &current, now);

                // Formulation 1: current state as base, nothing overlaid.
                let mut base_all = ReleaseTimeline::new();
                for (id, h) in holders.iter().enumerate() {
                    enter(&mut base_all, id as u64, &h.nodes, h.original - h.shrink, h.end);
                }
                prop_assert_eq!(
                    earliest_timeline_fit(nodes, width, &free, &base_all, &[], now),
                    replay.clone()
                );

                // Formulation 2: pass-start widths as base, the pass's own
                // shrinks (negative) and fresh starts (positive) overlaid.
                let mut base = ReleaseTimeline::new();
                let mut overlay: Vec<TimelineDelta<'_>> = Vec::new();
                for (id, h) in holders.iter().enumerate() {
                    if h.fresh {
                        if let Some(end_us) = h.end {
                            overlay.push(TimelineDelta {
                                end_us,
                                node_indices: &h.nodes,
                                delta: (h.original - h.shrink) as i64,
                            });
                        }
                    } else {
                        enter(&mut base, id as u64, &h.nodes, h.original, h.end);
                        if h.shrink > 0 {
                            if let Some(end_us) = h.end {
                                overlay.push(TimelineDelta {
                                    end_us,
                                    node_indices: &h.nodes,
                                    delta: -(h.shrink as i64),
                                });
                            }
                        }
                    }
                }
                overlay.sort_by_key(|d| d.end_us);
                prop_assert_eq!(
                    earliest_timeline_fit(nodes, width, &free, &base, &overlay, now),
                    replay
                );
            }
        }
    }
}
