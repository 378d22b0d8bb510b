//! Reference implementations — safety code the production policies are
//! differentially tested against, kept out of the production pass: the
//! pre-index [`MalleableScanPolicy`], the holder-replay reservation
//! forecast and the from-scratch admission sort. Used by the
//! differential tests, `cluster_sweep --scan`, `sched_scale` and
//! `sched_guard`; `drom_lint` treats the `schedule` impls here as decision
//! entries (determinism and panic rules apply) but not pass entries, so the
//! allocation inventory lists production code only.

use drom_metrics::TimeUs;

use super::malleable::{admission_gain, emit_actions, expand_shrunk, Slot};
use super::placement::fit_first;
#[cfg(doc)]
use super::MalleablePolicy;
use super::{ClusterView, QueuedJob, SchedulerAction, SchedulerPolicy, SpeedupCurve};

/// Queue order shared by all built-in policies: priority (desc), submission
/// time, id.
///
/// This is the **reference sort**: it collects and sorts a fresh
/// `Vec<&QueuedJob>` on every call, O(queue log queue) per pass. The
/// production policies walk the view's maintained
/// [`AdmissionOrder`](super::AdmissionOrder) instead; the scan reference
/// keeps this one so the two stay differentially testable.
// ALLOC(pass): O(queue) admission ordering, once per reference pass.
fn queue_order(queue: &[QueuedJob]) -> Vec<&QueuedJob> {
    let mut ordered: Vec<&QueuedJob> = queue.iter().collect();
    ordered.sort_by_key(|j| (std::cmp::Reverse(j.priority), j.submit_us, j.id));
    ordered
}

/// One allocation holding CPUs until an (optionally) estimated end time —
/// the input of the reservation forecast shared by backfill and malleable.
pub(super) struct Holder<'a> {
    pub(super) end_us: Option<TimeUs>,
    pub(super) node_indices: &'a [usize],
    pub(super) width: usize,
}

/// Earliest time ≥ `now_us` at which a `nodes × width` allocation fits,
/// replaying the holders' expected releases onto a copy of `free`. Returns
/// the time and the node set; `None` when the fit is never provable (a
/// holder on needed CPUs has no completion estimate).
///
/// This is the **reference replay**: it re-sorts the holders and probes a
/// first-fit per candidate instant, O(holders log holders + candidates ×
/// nodes) per forecast. The production forecast is
/// `placement::earliest_timeline_fit`, which walks a maintained
/// [`ReleaseTimeline`](super::ReleaseTimeline) instead;
/// [`MalleableScanPolicy`] and the oracle tests keep this one so
/// the two stay differentially testable.
// ALLOC(pass): O(nodes) scratch free vector per reservation probe.
// PANIC: timeline deltas index nodes within the scratch vector they were
// recorded for; the eligibility count is exact before `fit_first` runs.
pub(super) fn earliest_release_fit(
    nodes: usize,
    width: usize,
    free: &[usize],
    holders: &[Holder<'_>],
    now_us: TimeUs,
) -> Option<(TimeUs, Vec<usize>)> {
    if let Some(found) = fit_first(free, None, nodes, width) {
        return Some((now_us, found));
    }
    // Walk the holders once in end order, releasing each exactly when the
    // replay clock passes its estimate; candidate fit instants are the
    // distinct future ends. Holders whose estimate is already overdue
    // (end ≤ now) release at the first future candidate, like the full
    // replay did.
    let mut by_end: Vec<&Holder<'_>> = holders.iter().filter(|h| h.end_us.is_some()).collect();
    by_end.sort_by_key(|h| h.end_us);
    let mut free_at = free.to_vec();
    let mut i = 0;
    while i < by_end.len() {
        let t = by_end[i].end_us.expect("filtered to estimated holders");
        while i < by_end.len() && by_end[i].end_us.is_some_and(|e| e <= t) {
            for &n in by_end[i].node_indices {
                free_at[n] += by_end[i].width;
            }
            i += 1;
        }
        if t <= now_us {
            continue; // overdue estimate: not a candidate start instant
        }
        if let Some(found) = fit_first(&free_at, None, nodes, width) {
            return Some((t, found));
        }
    }
    None
}

/// The pre-index reference implementation of the malleable policy: identical
/// decision procedure to [`MalleablePolicy`], but every availability and
/// victim scan recomputes from the slot list — O(queue × nodes × running)
/// per pass.
///
/// Kept for two reasons: the differential tests in `drom-sim` replay whole
/// traces under both implementations and require byte-identical reports, and
/// the `sched_scale` bench measures it next to the indexed pass so the
/// speedup stays visible (`BENCH_sched.json` records both).
#[derive(Debug, Clone)]
pub struct MalleableScanPolicy {
    /// Same shrink-economics tolerance as
    /// [`MalleablePolicy::with_loss_tolerance`] — the reference must apply
    /// the identical gate for the differential replays to stay meaningful
    /// at non-default tolerances.
    loss_tolerance_fp: u64,
}

impl Default for MalleableScanPolicy {
    fn default() -> Self {
        MalleableScanPolicy {
            loss_tolerance_fp: SpeedupCurve::FP,
        }
    }
}

impl MalleableScanPolicy {
    /// Reference-scan counterpart of
    /// [`MalleablePolicy::with_loss_tolerance`].
    pub fn with_loss_tolerance(tolerance_fp: u64) -> Self {
        MalleableScanPolicy {
            loss_tolerance_fp: tolerance_fp,
        }
    }
}

impl SchedulerPolicy for MalleableScanPolicy {
    fn name(&self) -> &'static str {
        "malleable-scan"
    }

    // ALLOC(pass): scan working set — slot table and donor columns are seeded
    // per pass (same O(nodes) seeding as PassState::new).
    // PANIC: indices address the pass-local node-count-sized vectors.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        let mut free = view.free().to_vec();
        let mut slots: Vec<Slot<'_>> = view.running.iter().map(Slot::running).collect();
        let mut reservation: Option<(TimeUs, Vec<bool>)> = None;

        for job in queue_order(queue) {
            let placement = Self::plan_admission(job, &free, &slots, &reservation, now_us);
            let mut admitted = false;
            if let Some((node_indices, width)) = placement {
                let reserved_mask = reservation.as_ref().map(|(_, m)| m.as_slice());
                let gain = node_indices.len() as u128 * admission_gain(job, width) as u128;
                if Self::carve_out(
                    &mut free,
                    &mut slots,
                    &node_indices,
                    width,
                    reserved_mask,
                    gain,
                    self.loss_tolerance_fp,
                ) {
                    for &node in &node_indices {
                        free[node] -= width;
                    }
                    slots.push(Slot::started(job, node_indices, width, now_us));
                    admitted = true;
                }
            }
            if admitted {
                continue;
            }
            if reservation.is_some() {
                continue;
            }
            let holders: Vec<Holder<'_>> = slots
                .iter()
                .map(|s| Holder {
                    end_us: s.expected_end_us,
                    node_indices: &s.node_indices[..],
                    width: s.width,
                })
                .collect();
            match earliest_release_fit(job.nodes, job.cpus_per_node, &free, &holders, now_us) {
                Some((at_us, nodes)) => {
                    let mut mask = vec![false; free.len()];
                    for &n in &nodes {
                        mask[n] = true;
                    }
                    reservation = Some((at_us, mask));
                }
                None => break,
            }
        }

        let reserved_mask = reservation.as_ref().map(|(_, m)| m.as_slice());
        expand_shrunk(&mut slots, &mut free, reserved_mask);
        emit_actions(&slots)
    }
}

impl MalleableScanPolicy {
    /// Reference `plan_admission`: same decisions as
    /// `MalleablePolicy::plan_admission`, recomputed from scratch.
    // ALLOC(pass): one admission plan per candidate.
    // PANIC: plan indices are pass-local.
    fn plan_admission(
        job: &QueuedJob,
        free: &[usize],
        slots: &[Slot<'_>],
        reservation: &Option<(TimeUs, Vec<bool>)>,
        now_us: TimeUs,
    ) -> Option<(Vec<usize>, usize)> {
        match reservation {
            None => fit_first(free, None, job.nodes, job.cpus_per_node)
                .map(|nodes| (nodes, job.cpus_per_node))
                .or_else(|| Self::shrink_to_admit(job, free, slots, None)),
            Some((reserved_at, mask)) => {
                let ends_first = job
                    .expected_duration_us
                    .is_some_and(|d| now_us.saturating_add(d) <= *reserved_at);
                if ends_first {
                    if let Some(nodes) = fit_first(free, None, job.nodes, job.cpus_per_node) {
                        return Some((nodes, job.cpus_per_node));
                    }
                }
                let masked: Vec<usize> = free
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| if mask[i] { 0 } else { f })
                    .collect();
                fit_first(&masked, None, job.nodes, job.cpus_per_node)
                    .map(|nodes| (nodes, job.cpus_per_node))
                    .or_else(|| Self::shrink_to_admit(job, &masked, slots, Some(mask)))
            }
        }
    }

    /// Reference victim selection: scans every slot, filtering by
    /// `node_indices.contains` — the cost the donor index removes. Same
    /// ranking key as `PassState::best_donor`: cheapest marginal cost,
    /// then most spare, then earliest start.
    fn best_donor(slots: &[Slot<'_>], node: usize, reserved: Option<&[bool]>) -> Option<usize> {
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.job.malleable
                    && s.width > s.shrink_floor()
                    && s.node_indices.contains(&node)
                    && !s.on_reserved(reserved)
            })
            .min_by_key(|&(i, s)| (s.donor_cost(), std::cmp::Reverse(s.spare()), i))
            .map(|(i, _)| i)
    }

    /// Reference carve-out + shrink economics: the same decision rule as
    /// `PassState::carve_out` — cheapest donors first, whole equal-cost
    /// runs, full rollback when the donors' aggregate loss exceeds `gain` —
    /// recomputed against the slot list.
    // ALLOC(pass): one carve vector per admission candidate.
    // PANIC: carving walks node-count-sized columns; the unreachable! arm
    // guards an eligibility count proven exact before the walk.
    fn carve_out(
        free: &mut [usize],
        slots: &mut [Slot<'_>],
        node_indices: &[usize],
        width: usize,
        reserved: Option<&[bool]>,
        gain: u128,
        tolerance_fp: u64,
    ) -> bool {
        let mut donations: Vec<(usize, usize)> = Vec::new();
        let mut loss: u128 = 0;
        for &node in node_indices {
            while free[node] < width {
                let needed = width - free[node];
                let Some(victim) = Self::best_donor(slots, node, reserved) else {
                    unreachable!("plan_admission guaranteed the capacity");
                };
                let give = needed.min(slots[victim].donor_run());
                loss += give as u128 * slots[victim].donor_cost() as u128;
                slots[victim].width -= give;
                for &n in slots[victim].node_indices.iter() {
                    free[n] += give;
                }
                donations.push((victim, give));
            }
        }
        if gain * tolerance_fp as u128 >= loss * SpeedupCurve::FP as u128 {
            return true;
        }
        for &(victim, give) in donations.iter().rev() {
            slots[victim].width += give;
            for &n in slots[victim].node_indices.iter() {
                free[n] -= give;
            }
        }
        false
    }

    /// Reference shrink-to-admit: recomputes per-node availability (and the
    /// zero-cost-reclaim tie-break) by scanning every slot for every node,
    /// then fully sorts by the same key the indexed selection uses.
    // ALLOC(pass): candidate shrink plans are collected per admission attempt.
    // PANIC: plan indices address pass-local slot and node vectors.
    fn shrink_to_admit(
        job: &QueuedJob,
        free: &[usize],
        slots: &[Slot<'_>],
        reserved: Option<&[bool]>,
    ) -> Option<(Vec<usize>, usize)> {
        let mut avail: Vec<(usize, usize, usize)> = free
            .iter()
            .enumerate()
            .filter(|&(node, _)| !reserved.is_some_and(|m| m[node]))
            .map(|(node, &f)| {
                let donors = slots.iter().filter(|s| {
                    s.job.malleable && s.node_indices.contains(&node) && !s.on_reserved(reserved)
                });
                let (reclaimable, cheap) =
                    donors.fold((0, 0), |(r, c), s| (r + s.spare(), c + s.zero_cost_spare()));
                (node, f + reclaimable, cheap)
            })
            .collect();
        avail.sort_by_key(|&(node, a, cheap)| {
            (std::cmp::Reverse(a), std::cmp::Reverse(cheap), node)
        });
        if avail.len() < job.nodes {
            return None;
        }
        let selected = &avail[..job.nodes];
        let width = selected
            .iter()
            .map(|&(_, a, _)| a)
            .min()
            .unwrap_or(0)
            .min(job.cpus_per_node);
        if width < job.shrink_floor() {
            return None;
        }
        let mut node_indices: Vec<usize> = selected.iter().map(|&(n, _, _)| n).collect();
        node_indices.sort_unstable();
        Some((node_indices, width))
    }
}
