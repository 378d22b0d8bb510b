//! The DROM-enabled malleable policy: shrink-to-admit, drain reservations
//! and re-expansion over the driver's [`SchedIndex`].

use std::borrow::Cow;
use std::collections::HashMap;

use drom_metrics::TimeUs;

use super::admission::admission_iter;
use super::index::FreeHist;
use super::placement::{earliest_timeline_fit, fit_first, TimelineDelta};
use super::{
    ClusterView, QueuedJob, RunningJob, SchedIndex, SchedulerAction, SchedulerPolicy, SpeedupCurve,
};

/// The DROM-enabled malleable policy: shrink running jobs to admit queued
/// work, drain nodes for jobs that cannot be admitted by shrinking, and
/// re-expand shrunk jobs when CPUs free up.
///
/// Admission is FCFS. A queued job starts at full width when it fits; when
/// it does not, the policy picks the nodes with the most *available* CPUs
/// (free plus what running malleable jobs could give up), shrinks victims
/// greedily — cheapest marginal rate loss per reclaimed CPU first, per the
/// donors' [`SpeedupCurve`]s, so a saturated job donates before one whose
/// CPUs still carry throughput — and starts the job at the widest per-node
/// width the selection supports. Three bounds keep this healthy:
///
/// * **Shrink depth**: no job is ever pushed below half its request (nor
///   below its declared floor). Unbounded shrink-to-admit degenerates into
///   deep time-sharing that fragments the cluster and hurts every metric —
///   the bound is the paper's two-jobs-per-node equipartition generalised
///   to a width rule (measured in `docs/scheduling.md`).
/// * **Shrink economics**: an admission that requires shrinking proceeds
///   only when the newcomer's relative rate gain covers the donors'
///   aggregate relative rate loss (both normalised so one linear CPU is
///   worth [`SpeedupCurve::FP`]); otherwise the shrinks are rolled back and
///   the job waits for a drain reservation instead. A curve-less cluster
///   never fails the check — every donated CPU costs exactly what an
///   admitted CPU gains — so linear traces replay the pre-curve policy
///   byte for byte.
/// * **Head reservation**: when even shrinking cannot admit the head job
///   (typically a rigid or cluster-wide one), the policy reserves the nodes
///   that drain soonest — no later start and no expansion may touch them
///   unless it provably completes before the reservation — and keeps
///   admitting queue followers on the rest of the cluster. Without the
///   drain, a malleable-packed cluster never again offers a fully idle
///   node and rigid jobs starve behind it.
///
/// After admissions, every unsaturated malleable job running below its
/// request is expanded into the remaining (non-reserved) free CPUs, one CPU
/// per node per sweep — steepest marginal gain first within a sweep, and
/// jobs whose curve is flat at their current width are skipped entirely
/// (free CPUs are never wasted on a saturated job). This is how jobs regain
/// their CPUs when a co-runner completes.
///
/// # Complexity
///
/// The pass runs over indexed state (`PassState`, seeded from the driver's
/// event-maintained [`SchedIndex`]): victim selection reads the per-node
/// donor list, availability reads the per-node free + reclaimable summary,
/// and the one reservation mask of the pass is shared by every admission
/// attempt. One pass is O(running + queue × nodes) instead of the reference
/// scan's O(queue × nodes × running) — see
/// [`MalleableScanPolicy`](super::MalleableScanPolicy) and
/// `docs/scheduling.md` for the measured difference.
#[derive(Debug, Clone)]
pub struct MalleablePolicy {
    /// Fixed-point tolerance on the shrink-economics gate
    /// ([`SpeedupCurve::FP`] = 1.0): a shrinking admission is kept when
    /// `gain × tolerance ≥ loss`. The default, exactly `FP`, reduces to the
    /// strict `gain ≥ loss` rule; a larger tolerance trades aggregate
    /// throughput for admitting (and thus responding to) more jobs sooner.
    pub(super) loss_tolerance_fp: u64,
}

impl Default for MalleablePolicy {
    fn default() -> Self {
        MalleablePolicy {
            loss_tolerance_fp: SpeedupCurve::FP,
        }
    }
}

impl MalleablePolicy {
    /// A policy whose shrink-economics gate accepts up to
    /// `tolerance_fp / FP` of relative-rate loss per unit of admission gain.
    /// `with_loss_tolerance(SpeedupCurve::FP)` is exactly the default gate.
    pub fn with_loss_tolerance(tolerance_fp: u64) -> Self {
        MalleablePolicy {
            loss_tolerance_fp: tolerance_fp,
        }
    }
}

/// Mutable working copy of one running (or newly started) job during a
/// [`MalleablePolicy::schedule`] pass: the width the pass may change, next
/// to a borrow of the job itself (the [`RunningJob`]'s or the queued one's)
/// — so both malleable implementations price donations and expansions
/// through the exact same helpers: decision equivalence by construction.
/// Node sets are borrowed from the view for already-running jobs (a pass
/// never moves a job between nodes, and cloning ~running Vecs per pass
/// dominated the seeding cost at 1024+ nodes) and owned only for jobs
/// started this pass.
pub(super) struct Slot<'a> {
    pub(super) job: &'a QueuedJob,
    pub(super) node_indices: Cow<'a, [usize]>,
    pub(super) width: usize,
    pub(super) original_width: Option<usize>, // None for jobs started this pass
    pub(super) expected_end_us: Option<TimeUs>,
    /// `true` once the pass reserved a node this job overlaps (cached so the
    /// indexed pass never re-scans `node_indices` per candidate victim).
    reserved_overlap: bool,
}

impl<'a> Slot<'a> {
    /// The slot of a job that was already running when the pass began.
    pub(super) fn running(r: &'a RunningJob) -> Self {
        Slot {
            job: &r.job,
            node_indices: Cow::Borrowed(r.alloc.node_indices.as_slice()),
            width: r.alloc.cpus_per_node,
            original_width: Some(r.alloc.cpus_per_node),
            expected_end_us: r.expected_end_us,
            reserved_overlap: false,
        }
    }

    /// The slot of `job` started by this pass on `node_indices` at `width`,
    /// with the width-scaled completion estimate the controller will record.
    pub(super) fn started(
        job: &'a QueuedJob,
        node_indices: Vec<usize>,
        width: usize,
        now_us: TimeUs,
    ) -> Self {
        Slot {
            job,
            node_indices: Cow::Owned(node_indices),
            width,
            original_width: None,
            expected_end_us: job.expected_end_us(now_us, width),
            reserved_overlap: false,
        }
    }

    // PANIC: reservation masks are node-count sized like every per-node vector.
    pub(super) fn on_reserved(&self, reserved: Option<&[bool]>) -> bool {
        reserved.is_some_and(|r| self.node_indices.iter().any(|&n| r[n]))
    }

    pub(super) fn shrink_floor(&self) -> usize {
        self.job.shrink_floor()
    }

    /// CPUs per node above the shrink floor.
    pub(super) fn spare(&self) -> usize {
        self.job.spare(self.width)
    }

    /// Relative marginal cost of the next CPU this slot would donate —
    /// [`SpeedupCurve::FP`] exactly for a curve-less linear job.
    pub(super) fn donor_cost(&self) -> u64 {
        match &self.job.speedup {
            Some(curve) => curve.relative_marginal_cost(self.width),
            None => SpeedupCurve::FP,
        }
    }

    /// CPUs this slot donates per carve-out step: the equal-marginal run
    /// under its shrink floor (all of its spare for a linear job, so the
    /// curve-less donation chunks are unchanged).
    pub(super) fn donor_run(&self) -> usize {
        match &self.job.speedup {
            Some(curve) => curve.equal_cost_run(self.width, self.spare()),
            None => self.spare(),
        }
    }

    /// CPUs this slot could give up without losing any throughput.
    pub(super) fn zero_cost_spare(&self) -> usize {
        self.job.cheap_spare(self.width)
    }

    /// Relative marginal gain of one more CPU per node —
    /// [`SpeedupCurve::FP`] for a curve-less linear job.
    fn expand_gain(&self) -> u64 {
        match &self.job.speedup {
            Some(curve) => curve.relative_marginal_cost(self.width + 1),
            None => SpeedupCurve::FP,
        }
    }

    /// `true` when more CPUs cannot speed this job up at all.
    fn saturated(&self) -> bool {
        matches!(&self.job.speedup, Some(c) if c.saturated_at(self.width))
    }
}

/// Relative rate (fixed-point) of `job` granted `width` CPUs per node —
/// `width × FP` for a curve-less linear job. Multiplied by the job's node
/// count, this is the gain side of the shrink-economics comparison.
pub(super) fn admission_gain(job: &QueuedJob, width: usize) -> u64 {
    match &job.speedup {
        Some(curve) => curve.relative_rate(width),
        None => width as u64 * SpeedupCurve::FP,
    }
}

/// The indexed working state of one [`MalleablePolicy::schedule`] pass:
/// per-node free and reclaimable CPUs, one [`Slot`] per running job in
/// `running` order (jobs the pass starts are appended) and the per-node
/// donor index (slot positions of the malleable jobs holding CPUs there),
/// every one maintained incrementally as the pass shrinks victims and
/// admits jobs.
///
/// Seeded from the view's [`SchedIndex`], so the pass never rescans all
/// running jobs per node — victim selection reads `donors[node]`,
/// availability reads `free[node] + reclaim[node]`.
struct PassState<'a> {
    free: Vec<usize>,
    reclaim: Vec<usize>,
    cheap: Vec<usize>,
    donors: Vec<Vec<usize>>,
    slots: Vec<Slot<'a>>,
    /// Per-value histograms of free and free+reclaimable CPUs — the exact
    /// reject guards that let admission attempts skip O(nodes) probes,
    /// cloned from the index's maintained ones. The `open_*` pair is
    /// restricted to non-reserved nodes: until
    /// [`apply_reservation`](Self::apply_reservation) takes the reserved
    /// nodes out they track all nodes. (Once reserved nodes exist,
    /// availability is only ever asked about the open ones, so it has no
    /// all-node histogram.)
    free_hist: FreeHist,
    open_free_hist: FreeHist,
    open_avail_hist: FreeHist,
    /// The view's index: the drain forecast walks its release timeline.
    index: &'a SchedIndex,
}

impl<'a> PassState<'a> {
    // ALLOC(pass): the O(nodes) pass seeding (ROADMAP's open perf item) —
    // copies the index's free / reclaim / cheap columns, its histograms and
    // its donor lists (as slot positions) and builds the slot table every
    // pass.
    // PANIC: the index lists ids of `running`, node by node.
    fn new(view: &ClusterView<'a>) -> Self {
        let index = view.index;
        // The id → slot-position map costs O(running) hashing, so it is
        // built only on the first node that actually lists donors (a
        // rigid-heavy cluster skips it entirely). Keyed by the id the index
        // lists, the allocation's.
        let mut by_id: Option<HashMap<u64, usize>> = None;
        let mut donors = vec![Vec::new(); index.free().len()];
        for (node, donors) in donors.iter_mut().enumerate() {
            let ids = index.donors(node);
            if ids.is_empty() {
                continue;
            }
            let by_id = by_id.get_or_insert_with(|| {
                view.running
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.alloc.job_id, i))
                    .collect()
            });
            // Donor ids are kept in running order, so the mapped slot
            // positions come out ascending — the tie-break order the
            // reference scan uses.
            donors.extend(ids.iter().map(|id| by_id[id]));
        }
        PassState {
            free: index.free().to_vec(),
            reclaim: index.reclaim().to_vec(),
            cheap: index.cheap().to_vec(),
            donors,
            slots: view.running.iter().map(Slot::running).collect(),
            free_hist: index.free_hist().clone(),
            open_free_hist: index.free_hist().clone(),
            open_avail_hist: index.avail_hist().clone(),
            index,
        }
    }

    /// [`fit_first`] behind the exact histogram reject guard: when fewer
    /// than `nodes` open nodes (all of them without a `reserved` mask) carry
    /// ≥ `width` free CPUs, no first-fit exists and the O(nodes) probe is
    /// skipped without changing any decision.
    fn guarded_fit_first(
        &self,
        reserved: Option<&[bool]>,
        nodes: usize,
        width: usize,
    ) -> Option<Vec<usize>> {
        let hist = match reserved {
            None => &self.free_hist,
            Some(_) => &self.open_free_hist,
        };
        if hist.count_ge(width) < nodes {
            return None;
        }
        fit_first(&self.free, reserved, nodes, width)
    }

    /// The donor on `node` whose next donated CPU costs the least relative
    /// rate (per its [`SpeedupCurve`] — a saturated tail costs nothing),
    /// excluding jobs overlapping a reserved node (slowing one down would
    /// push its completion — and the reservation — later). Ties go to the
    /// donor with the most spare above its shrink floor, then to the
    /// earliest-started job — so on a curve-less cluster, where every cost
    /// is FP, the rule reduces exactly to the pre-curve widest-donor order.
    /// The reference scan uses the same key.
    // PANIC: per-node columns are sized to the cluster's node count.
    fn best_donor(&self, node: usize) -> Option<usize> {
        self.donors[node]
            .iter()
            .copied()
            .filter(|&i| {
                let s = &self.slots[i];
                s.width > s.shrink_floor() && !s.reserved_overlap
            })
            .min_by_key(|&i| {
                let s = &self.slots[i];
                (s.donor_cost(), std::cmp::Reverse(s.spare()), i)
            })
    }

    /// Moves `victim` to `width` CPUs per node: a shrink releases the
    /// difference on every one of its nodes, and the same call with the old
    /// width is its exact rollback (the undo side of the shrink-economics
    /// check). Only ever called on unreserved donors, so the spare the
    /// victim loses is spare the reclaim summary was counting — and every
    /// node it touches is open, so both free histograms move (availability,
    /// free + reclaim, is unchanged either way).
    // PANIC: victim slot positions and node indices were recorded while
    // seeding this very pass.
    fn resize_victim(&mut self, victim: usize, width: usize) {
        let old_cheap = self.slots[victim].zero_cost_spare();
        let old_width = std::mem::replace(&mut self.slots[victim].width, width);
        let new_cheap = self.slots[victim].zero_cost_spare();
        for &n in self.slots[victim].node_indices.iter() {
            let new_free = self.free[n] + old_width - width;
            self.free_hist.update(self.free[n], new_free);
            self.open_free_hist.update(self.free[n], new_free);
            self.free[n] = new_free;
            self.reclaim[n] = self.reclaim[n] + width - old_width;
            self.cheap[n] = self.cheap[n] - old_cheap + new_cheap;
        }
    }

    /// Carves `width` free CPUs out of every selected node by shrinking
    /// donors — cheapest marginal cost first, whole equal-cost runs at a
    /// time — then checks the shrink economics: `gain` (the newcomer's
    /// relative rate × its node count, both sides FP-normalised) must cover
    /// the donors' aggregate relative rate loss. On a failed check every
    /// shrink is rolled back, the pass state is exactly as before, and the
    /// caller falls through to the drain-reservation path.
    ///
    /// The loss counts each donated width-unit once (a donor's curve prices
    /// per-node width; CPUs freed on its other nodes are reabsorbed by
    /// expansion). On a curve-less cluster every donated CPU costs FP and
    /// the gives sum to at most `nodes × width`, so at the default tolerance
    /// `gain ≥ loss` always holds — the check can only fire when curves are
    /// present (or the tolerance is set below `FP`).
    // ALLOC(pass): one carve vector per admission candidate.
    // PANIC: carving walks node-count-sized columns; the unreachable! arm
    // guards an eligibility count proven exact before the walk.
    fn carve_out(
        &mut self,
        node_indices: &[usize],
        width: usize,
        gain: u128,
        tolerance_fp: u64,
    ) -> bool {
        let mut donations: Vec<(usize, usize)> = Vec::new();
        let mut loss: u128 = 0;
        for &node in node_indices {
            while self.free[node] < width {
                let needed = width - self.free[node];
                let Some(victim) = self.best_donor(node) else {
                    unreachable!("plan_admission guaranteed the capacity");
                };
                let give = needed.min(self.slots[victim].donor_run());
                loss += give as u128 * self.slots[victim].donor_cost() as u128;
                self.resize_victim(victim, self.slots[victim].width - give);
                donations.push((victim, give));
            }
        }
        // Both sides carry one FP factor already; scaling gain by the
        // tolerance and loss by FP keeps the comparison in the same
        // fixed-point units (and exactly `gain ≥ loss` at the default).
        if gain * tolerance_fp as u128 >= loss * SpeedupCurve::FP as u128 {
            return true;
        }
        for &(victim, give) in donations.iter().rev() {
            self.resize_victim(victim, self.slots[victim].width + give);
        }
        false
    }

    /// Starts `job` on `node_indices` at `width`, entering it into the free,
    /// reclaim and donor indices (it may donate to later admissions of the
    /// same pass).
    // PANIC: start updates per-node columns at indices from the carve result.
    fn start(
        &mut self,
        job: &'a QueuedJob,
        node_indices: Vec<usize>,
        width: usize,
        now_us: TimeUs,
        reserved: Option<&[bool]>,
    ) {
        let idx = self.slots.len();
        let mut slot = Slot::started(job, node_indices, width, now_us);
        let spare = slot.spare();
        let cheap = slot.zero_cost_spare();
        slot.reserved_overlap = slot.on_reserved(reserved);
        for &n in slot.node_indices.iter() {
            let old_free = self.free[n];
            let old_avail = self.free[n] + self.reclaim[n];
            self.free[n] -= width;
            if job.malleable && !slot.reserved_overlap {
                self.donors[n].push(idx);
                self.reclaim[n] += spare;
                self.cheap[n] += cheap;
            }
            let new_avail = self.free[n] + self.reclaim[n];
            self.free_hist.update(old_free, self.free[n]);
            // An ends-before-the-reservation start may land on reserved
            // nodes; those are absent from the open histograms.
            if !reserved.is_some_and(|m| m[n]) {
                self.open_free_hist.update(old_free, self.free[n]);
                self.open_avail_hist.update(old_avail, new_avail);
            }
        }
        self.slots.push(slot);
    }

    /// Records a freshly placed reservation on `nodes` (flagged in `mask`):
    /// overlapping jobs stop donating (their reclaimable spare leaves the
    /// summary, they are filtered from victim selection) and reserved nodes
    /// stop being admission targets. Runs at most once per pass, while the
    /// open histograms still track every node: the stripped spare moves each
    /// touched node's availability entry, then the reserved nodes' entries
    /// leave both (free CPUs are untouched, the all-node free histogram
    /// stands).
    // PANIC: the reservation mask and per-node columns are node-count sized.
    fn apply_reservation(&mut self, nodes: &[usize], mask: &[bool]) {
        for slot in self.slots.iter_mut() {
            if slot.node_indices.iter().any(|&n| mask[n]) {
                slot.reserved_overlap = true;
                if slot.job.malleable {
                    let spare = slot.spare();
                    let cheap = slot.zero_cost_spare();
                    for &n in slot.node_indices.iter() {
                        let avail = self.free[n] + self.reclaim[n];
                        self.open_avail_hist.update(avail, avail - spare);
                        self.reclaim[n] -= spare;
                        self.cheap[n] -= cheap;
                    }
                }
            }
        }
        for &n in nodes {
            self.open_free_hist.remove(self.free[n]);
            self.open_avail_hist.remove(self.free[n] + self.reclaim[n]);
        }
    }
}

impl SchedulerPolicy for MalleablePolicy {
    fn name(&self) -> &'static str {
        "malleable"
    }

    // ALLOC(pass): the per-pass action list.
    // PANIC: indices address PassState's node-count-sized columns.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        let mut state = PassState::new(view);
        // Reservation for the first job that could not be admitted at all:
        // (earliest provable start time, per-node reserved flag). The flag
        // vector is shared by every later admission attempt of the pass —
        // `shrink_to_admit` and the masked fits read it directly instead of
        // rebuilding a masked free vector per queued job.
        let mut reservation: Option<(TimeUs, Vec<bool>)> = None;

        for job in admission_iter(view, queue) {
            let placement = Self::plan_admission(job, &state, &reservation, now_us);
            if let Some((node_indices, width)) = placement {
                // Carve out the CPUs: shrink victims until every selected
                // node has `width` free, then allocate — unless the donors'
                // aggregate rate loss exceeds the newcomer's gain, in which
                // case the carve rolls itself back and the job falls through
                // to the reservation path below.
                let gain = node_indices.len() as u128 * admission_gain(job, width) as u128;
                if state.carve_out(&node_indices, width, gain, self.loss_tolerance_fp) {
                    let reserved_mask = reservation.as_ref().map(|(_, m)| m.as_slice());
                    state.start(job, node_indices, width, now_us, reserved_mask);
                    continue;
                }
            }
            if reservation.is_some() {
                continue; // one reservation at a time; revisit next tick
            }
            match Self::earliest_full_fit(job, &state, now_us) {
                Some((at_us, nodes)) => {
                    let mut mask = vec![false; state.free.len()];
                    for &n in &nodes {
                        mask[n] = true;
                    }
                    state.apply_reservation(&nodes, &mask);
                    reservation = Some((at_us, mask));
                }
                // No provable drain (a holder lacks an estimate): stop
                // admitting rather than risk starving the head forever.
                None => break,
            }
        }

        let reserved_mask = reservation.as_ref().map(|(_, m)| m.as_slice());
        let PassState {
            ref mut free,
            ref mut slots,
            ..
        } = state;
        expand_shrunk(slots, free, reserved_mask);
        emit_actions(slots)
    }
}

impl MalleablePolicy {
    /// Decides whether (and how) `job` can start right now, honouring an
    /// existing reservation: a job whose declared duration provably ends
    /// before the reservation may use any free CPUs at full width; otherwise
    /// reserved nodes are off limits, for the start and for its victims.
    fn plan_admission(
        job: &QueuedJob,
        state: &PassState<'_>,
        reservation: &Option<(TimeUs, Vec<bool>)>,
        now_us: TimeUs,
    ) -> Option<(Vec<usize>, usize)> {
        let mut mask = None;
        if let Some((reserved_at, reserved)) = reservation {
            let ends_first = job
                .expected_duration_us
                .is_some_and(|d| now_us.saturating_add(d) <= *reserved_at);
            if ends_first {
                if let Some(nodes) = state.guarded_fit_first(None, job.nodes, job.cpus_per_node) {
                    return Some((nodes, job.cpus_per_node));
                }
            }
            // Reserved nodes are off limits for the start and its victims.
            mask = Some(reserved.as_slice());
        }
        state
            .guarded_fit_first(mask, job.nodes, job.cpus_per_node)
            .map(|nodes| (nodes, job.cpus_per_node))
            .or_else(|| Self::shrink_to_admit(job, state, mask))
    }

    /// Plans an admission that requires shrinking: picks the `job.nodes`
    /// nodes with the most available (free + reclaimable) CPUs and the widest
    /// feasible width. `None` if even the floors don't fit. Availability is
    /// read straight off the pass indices — no rescan of the running jobs —
    /// and the top nodes are found with a linear-time selection instead of a
    /// full sort.
    ///
    /// Among equally available nodes, the one whose reclaimable CPUs cost
    /// the least throughput wins (more zero-marginal-cost spare per the
    /// donors' curves — the `cheap` summary). On a curve-less cluster every
    /// `cheap` entry is 0 and the order reduces to the pre-curve
    /// availability-then-index rule exactly.
    // ALLOC(pass): candidate shrink plans are collected per admission attempt.
    // PANIC: plan indices address pass-local slot and node vectors.
    fn shrink_to_admit(
        job: &QueuedJob,
        state: &PassState<'_>,
        reserved: Option<&[bool]>,
    ) -> Option<(Vec<usize>, usize)> {
        // Exact histogram reject: the k-th most available open node offers
        // ≥ the shrink floor iff at least k open nodes do, so a failed
        // count means the selection below cannot reach the floor either —
        // skip the O(nodes) gather entirely (the common case on a loaded
        // cluster, where most queued jobs cannot be admitted at all).
        let floor = job.shrink_floor();
        if state.open_avail_hist.count_ge(floor) < job.nodes {
            return None;
        }
        let mut avail: Vec<(usize, usize, usize)> = (0..state.free.len())
            .filter(|&node| !reserved.is_some_and(|m| m[node]))
            .map(|node| {
                (
                    node,
                    state.free[node] + state.reclaim[node],
                    state.cheap[node],
                )
            })
            .collect();
        // Most available first, cheapest reclaim next; index order breaks
        // remaining ties deterministically. The ordering is total, so
        // selecting the top `job.nodes` yields the same node set the
        // reference scan's full sort produces.
        if avail.len() > job.nodes {
            avail.select_nth_unstable_by_key(job.nodes - 1, |&(node, a, cheap)| {
                (std::cmp::Reverse(a), std::cmp::Reverse(cheap), node)
            });
        }
        let selected = &avail[..job.nodes];
        let width = selected
            .iter()
            .map(|&(_, a, _)| a)
            .min()
            .unwrap_or(0)
            .min(job.cpus_per_node);
        // A job is admitted shrunk only down to its own shrink floor: deeper
        // admission would just move the time-sharing to the newcomer.
        if width < floor {
            return None;
        }
        let mut node_indices: Vec<usize> = selected.iter().map(|&(n, _, _)| n).collect();
        node_indices.sort_unstable();
        Some((node_indices, width))
    }

    /// Earliest time ≥ `now` at which `job` fits at full width — the
    /// drain-reservation forecast. Returns the time and the node set; `None`
    /// when a holder on a needed node has no completion estimate.
    ///
    /// Computed as a [`earliest_timeline_fit`] walk over the index's
    /// maintained release timeline plus a pass-local overlay: jobs this
    /// pass started release their full current width at their estimated
    /// end, and victims this pass shrank release `width − original_width`
    /// **less** than the base timeline promises at theirs. Base + overlay
    /// releases sum to each slot's current width at its estimated end —
    /// exactly what the scan reference's replay over the slots
    /// accumulates, so the forecast is decision-identical. A slot's
    /// estimated end never changes mid-pass (re-estimates happen in the
    /// controller after a resize is applied), so shrink corrections always
    /// land on the instant the base already keys.
    // ALLOC(pass): scratch future-free vector per estimate probe.
    // PANIC: the timeline walk indexes the scratch vector it sized.
    fn earliest_full_fit(
        job: &QueuedJob,
        state: &PassState<'_>,
        now_us: TimeUs,
    ) -> Option<(TimeUs, Vec<usize>)> {
        let mut overlay: Vec<TimelineDelta<'_>> = state
            .slots
            .iter()
            .filter_map(|s| {
                let end_us = s.expected_end_us?;
                let delta = match s.original_width {
                    None => s.width as i64,
                    Some(original) => s.width as i64 - original as i64,
                };
                (delta != 0).then_some(TimelineDelta {
                    end_us,
                    node_indices: &s.node_indices[..],
                    delta,
                })
            })
            .collect();
        overlay.sort_by_key(|d| d.end_us);
        earliest_timeline_fit(
            job.nodes,
            job.cpus_per_node,
            &state.free,
            state.index.timeline(),
            &overlay,
            now_us,
        )
    }
}

/// Expansion, shared by both malleable implementations: hands the remaining
/// free CPUs on non-reserved nodes to shrunk malleable jobs, one CPU per
/// node per sweep so concurrent victims recover evenly. Within a sweep the
/// steepest relative marginal gain goes first (stable sort — slot order, the
/// pre-curve round-robin, breaks ties) and saturated jobs are skipped
/// entirely: a curve flat from the current width through the request cannot
/// convert a CPU into progress, so the CPU goes to a job that can. A job on
/// a zero-marginal plateau *below* saturation still participates (ranked
/// last) — those stepping-stone CPUs are what reach the rising part of its
/// curve on later sweeps. Reserved nodes do not participate: consuming
/// their free CPUs could push the reserved job's start past its
/// reservation. On a curve-less cluster every gain is FP and the sweep is
/// byte-identical to the pre-curve round-robin.
// ALLOC(pass): collects expandable slot positions once per pass tail.
// PANIC: slot positions and node indices are pass-local by construction.
pub(super) fn expand_shrunk(slots: &mut [Slot<'_>], free: &mut [usize], reserved: Option<&[bool]>) {
    let expandable = |n: usize| !reserved.is_some_and(|m| m[n]);
    let mut progressed = true;
    while progressed {
        progressed = false;
        let mut order: Vec<usize> = (0..slots.len())
            .filter(|&i| {
                let s = &slots[i];
                s.job.malleable && s.width < s.job.cpus_per_node && !s.saturated()
            })
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(slots[i].expand_gain()));
        for i in order {
            let slot = &mut slots[i];
            let headroom = slot
                .node_indices
                .iter()
                .map(|&n| if expandable(n) { free[n] } else { 0 })
                .min()
                .unwrap_or(0);
            if headroom == 0 {
                continue;
            }
            slot.width += 1;
            for &n in slot.node_indices.iter() {
                free[n] -= 1;
            }
            progressed = true;
        }
    }
}

/// Emits the actions of a finished malleable pass from the FINAL slot state
/// (a job admitted mid-pass may have been shrunk or expanded again by later
/// admissions), in an order that is valid to apply sequentially: shrinks
/// release CPUs, then starts consume them, then expands absorb the leftovers.
// ALLOC(pass): the emitted action list plus per-start node vectors — the
// pass's output, proportional to the jobs it admitted.
pub(super) fn emit_actions(slots: &[Slot<'_>]) -> Vec<SchedulerAction> {
    let mut actions: Vec<SchedulerAction> = Vec::new();
    for slot in slots {
        if slot.original_width.is_some_and(|o| slot.width < o) {
            actions.push(SchedulerAction::Resize {
                job_id: slot.job.id,
                cpus_per_node: slot.width,
            });
        }
    }
    for slot in slots {
        if slot.original_width.is_none() {
            actions.push(SchedulerAction::Start {
                job_id: slot.job.id,
                node_indices: slot.node_indices.to_vec(),
                cpus_per_node: slot.width,
            });
        }
    }
    for slot in slots {
        if slot.original_width.is_some_and(|o| slot.width > o) {
            actions.push(SchedulerAction::Resize {
                job_id: slot.job.id,
                cpus_per_node: slot.width,
            });
        }
    }
    actions
}
