//! The event-maintained scheduler index: per-node free / reclaimable CPUs,
//! donor lists, dirty generations and the release timeline.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use drom_metrics::TimeUs;

use super::{QueuedJob, RunningJob};

/// The release timeline: per-node CPU release deltas keyed by estimated
/// completion instant, over the running jobs that carry an estimate.
///
/// This is the input of the drain-reservation forecast shared by
/// [`BackfillPolicy`](super::BackfillPolicy) and
/// [`MalleablePolicy`](super::MalleablePolicy): instead of re-sorting every
/// running allocation by end time and replaying the releases with a
/// first-fit probe per candidate instant (O(candidates × nodes) per
/// forecast — the reservation-heavy scaling wall at 1024+ nodes), the
/// forecast walks these pre-aggregated deltas in end order and maintains a
/// *count* of nodes satisfying the probe width, probing placement exactly
/// once (`earliest_timeline_fit`). [`SchedIndex`] keeps one up to date in
/// O(job's nodes × log running) per applied start / resize / completion /
/// estimate change, so a pass never pays the sort either.
///
/// Canonical form (what [`PartialEq`] compares, and what the debug rebuild
/// oracle re-derives from the running set): one entry per distinct estimated
/// end instant, mapping each node to the **sum** of the estimated widths
/// releasing there; zero-width node entries and empty instants are never
/// stored. Jobs without an estimate simply do not appear — the walk treats
/// their CPUs as never released, exactly like the replay it replaces.
/// Widths are positive by construction (no allocation is zero-wide).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReleaseTimeline {
    /// `by_end[t][node]` = CPUs released on `node` at estimated instant `t`.
    pub(super) by_end: BTreeMap<TimeUs, BTreeMap<usize, usize>>,
    /// The instant each estimated job is currently keyed under — what lets
    /// an estimate change re-key the job without knowing its old estimate.
    ends: HashMap<u64, TimeUs>,
}

impl ReleaseTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of estimated jobs on the timeline.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no job carries an estimate.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn add_deltas(&mut self, end_us: TimeUs, node_indices: &[usize], width: usize) {
        let at = self.by_end.entry(end_us).or_default();
        for &n in node_indices {
            *at.entry(n).or_insert(0) += width;
        }
    }

    // PANIC: callers subtract exactly what `add` inserted, so the end instant
    // and its per-node deltas are present (the SchedIndex timeline invariant).
    fn sub_deltas(&mut self, end_us: TimeUs, node_indices: &[usize], width: usize) {
        let at = self
            .by_end
            .get_mut(&end_us)
            .expect("an indexed job's end instant is on the timeline");
        for &n in node_indices {
            let d = at.get_mut(&n).expect("an indexed job's nodes carry deltas");
            *d -= width;
            if *d == 0 {
                at.remove(&n);
            }
        }
        if at.is_empty() {
            self.by_end.remove(&end_us);
        }
    }

    /// Enters a job holding `width` CPUs on each of `node_indices` until
    /// `end_us`. A job without an estimate (`None`) is not tracked — call
    /// [`set_end`](Self::set_end) when it gains one.
    pub fn add(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        if let Some(end) = end_us {
            self.ends.insert(job_id, end);
            self.add_deltas(end, node_indices, width);
        }
    }

    /// Removes a job (no-op when it carried no estimate). `node_indices` and
    /// `width` must be the allocation currently on the timeline.
    pub fn remove(&mut self, job_id: u64, node_indices: &[usize], width: usize) {
        if let Some(end) = self.ends.remove(&job_id) {
            self.sub_deltas(end, node_indices, width);
        }
    }

    /// Re-prices a tracked job's release from `old_width` to `new_width` at
    /// its current end instant — the resize hook (a resize keeps the node
    /// set; the estimate is refreshed separately via
    /// [`set_end`](Self::set_end)). No-op for unestimated jobs.
    pub fn update_width(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        old_width: usize,
        new_width: usize,
    ) {
        if let Some(&end) = self.ends.get(&job_id) {
            self.sub_deltas(end, node_indices, old_width);
            self.add_deltas(end, node_indices, new_width);
        }
    }

    /// Re-keys a job's release to a new estimate (in place: remove at the
    /// old instant, insert at the new), `None` dropping it from the
    /// timeline. `node_indices`/`width` are the job's current allocation.
    pub fn set_end(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        self.remove(job_id, node_indices, width);
        self.add(job_id, node_indices, width, end_us);
    }
}

/// Incrementally maintained, per-node indexed scheduler state: free CPUs,
/// the reclaimable-CPU summary, the donor index (which running malleable
/// jobs hold CPUs on each node) and the [`ReleaseTimeline`] over the
/// estimated completions.
///
/// [`PolicyScheduler`](crate::PolicyScheduler) owns one and updates it on
/// every start / resize / completion **event** instead of letting policies
/// recompute the same per-node sums from `running` on every pass. The
/// recomputation was the malleable policy's scaling wall: its availability
/// and victim scans were O(queue × nodes × running) per pass (~2 ms on a
/// loaded 128-node view, `BENCH_sched.json`), while the event-driven updates
/// here are O(nodes of the affected job) each.
///
/// Invariants (checked in debug builds against
/// [`rebuild_from_capacity`](SchedIndex::rebuild_from_capacity), which
/// re-derives everything — the free vector included — from the cluster
/// shape and the running jobs alone):
///
/// * `free[n]` equals the node capacity minus all allocations on `n`;
/// * `reclaim[n]` equals `Σ width − shrink_floor` (clamped at zero per job)
///   over the running malleable jobs on `n`, where the floor is the
///   malleable policy's [`shrink bound`](super::MalleablePolicy) — its
///   declared floor, but never below half its request;
/// * `cheap[n]` is the part of `reclaim[n]` the donors' speedup curves
///   price at zero — the curve-aware ordering summary
///   ([`zero_cost_run`](super::SpeedupCurve::zero_cost_run) under the same
///   shrink bound, 0 for curve-less linear jobs) that lets `shrink_to_admit` prefer nodes whose
///   reclaimable CPUs cost no throughput, without a per-pass curve scan;
/// * `donors[n]` lists exactly the running malleable jobs on `n`, in the
///   order they appear in the driver's `running` vector (start order), which
///   is what keeps indexed victim selection byte-identical to the reference
///   scan;
/// * `timeline` holds exactly `{(r.expected_end_us, r.alloc.node_indices,
///   r.alloc.cpus_per_node)}` over the running jobs whose estimate is
///   `Some`, in [`ReleaseTimeline`] canonical form — kept current by
///   [`on_estimate`](SchedIndex::on_estimate) whenever the driver refreshes
///   an estimate.
///
/// Completion consistency is the driver's job: the trace engine tags its
/// completion events with a generation counter and drops stale ones *before*
/// calling [`PolicyScheduler::job_finished`](crate::PolicyScheduler::job_finished),
/// so a completion superseded by a resize can never unwind the index twice.
///
/// On top of the per-node state the index keeps **per-width-class dirty
/// generations** for the probe memo ([`free_gen`](Self::free_gen) /
/// [`avail_gen`](Self::avail_gen)): `free_gen[w]` is bumped every time any
/// node's free-CPU count rises from below `w` to at least `w`, and
/// `avail_gen[w]` the same for free + reclaimable. An unchanged generation
/// therefore proves no node entered width class `w` since it was read —
/// the per-class count of qualifying nodes cannot have increased — which is
/// what makes skipping a re-probe sound (see `docs/scheduling.md`). The
/// generations are *not* part of the index's value ([`PartialEq`] ignores
/// them): two equal cluster states reached through different event
/// histories carry different generations by design.
#[derive(Debug, Clone)]
pub struct SchedIndex {
    free: Vec<usize>,
    reclaim: Vec<usize>,
    cheap: Vec<usize>,
    donors: Vec<Vec<u64>>,
    timeline: ReleaseTimeline,
    /// `free_gen[w]`: bumped when any node's free CPUs cross up into ≥ `w`.
    /// Grown on demand — a class never crossed is generation 0.
    free_gen: Vec<u64>,
    /// `avail_gen[w]`: same for free + reclaimable CPUs.
    avail_gen: Vec<u64>,
    /// Unique per index instance (fresh on every `new`/`rebuild`), so a
    /// probe memo recorded against one index can never validate against the
    /// zeroed generations of a freshly rebuilt one.
    epoch: u64,
}

/// Source of unique [`SchedIndex::epoch`] values. Starts at 1 so an epoch of
/// 0 can mean "no index seen yet" in a probe memo.
static INDEX_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_index_epoch() -> u64 {
    // SAFETY(ordering): epoch allocator; only uniqueness matters.
    INDEX_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Bumps the generations of every width class the value `old → new` crossed
/// up into (`old+1 ..= new`); a downward or flat move bumps nothing. The
/// generation vector grows on demand, so rebuilt indices need no capacity.
// PANIC: the vector is resized to `new + 1` right above the indexed range.
pub(super) fn bump_gens(gens: &mut Vec<u64>, old: usize, new: usize) {
    if new > old {
        if gens.len() <= new {
            gens.resize(new + 1, 0);
        }
        for g in &mut gens[old + 1..=new] {
            *g += 1;
        }
    }
}

impl PartialEq for SchedIndex {
    fn eq(&self, other: &Self) -> bool {
        self.free == other.free
            && self.reclaim == other.reclaim
            && self.cheap == other.cheap
            && self.donors == other.donors
            && self.timeline == other.timeline
    }
}

impl Eq for SchedIndex {}

impl SchedIndex {
    /// An index over `num_nodes` empty nodes of `node_cpus` CPUs.
    pub fn new(num_nodes: usize, node_cpus: usize) -> Self {
        Self::rebuild(&vec![node_cpus; num_nodes], &[])
    }

    /// Rebuilds the full index — including the free vector, derived from
    /// node capacity minus every running allocation — from nothing but the
    /// cluster shape and the running jobs. This is the debug-mode oracle the
    /// incremental updates are checked against: unlike [`rebuild`]
    /// (which trusts the free vector it is given), a drifted `free[n]`
    /// cannot escape this one.
    ///
    /// [`rebuild`]: SchedIndex::rebuild
    // PANIC: running allocations name nodes within the capacity they were
    // validated against.
    pub fn rebuild_from_capacity(
        num_nodes: usize,
        node_cpus: usize,
        running: &[RunningJob],
    ) -> Self {
        let mut free = vec![node_cpus; num_nodes];
        for r in running {
            for &n in &r.alloc.node_indices {
                free[n] -= r.alloc.cpus_per_node;
            }
        }
        Self::rebuild(&free, running)
    }

    /// Rebuilds the index from a free vector and the running jobs — how a
    /// driver without event-maintained state (tests, benches) builds the
    /// index of a [`ClusterView`](super::ClusterView) one-shot.
    // PANIC: running allocations index nodes inside the free vector.
    pub fn rebuild(free: &[usize], running: &[RunningJob]) -> Self {
        let mut index = SchedIndex {
            free: free.to_vec(),
            reclaim: vec![0; free.len()],
            cheap: vec![0; free.len()],
            donors: vec![Vec::new(); free.len()],
            timeline: ReleaseTimeline::new(),
            free_gen: Vec::new(),
            avail_gen: Vec::new(),
            epoch: next_index_epoch(),
        };
        for r in running {
            if r.job.malleable {
                let spare = Self::spare(&r.job, r.alloc.cpus_per_node);
                let cheap = Self::cheap_spare(&r.job, r.alloc.cpus_per_node);
                for &n in &r.alloc.node_indices {
                    index.donors[n].push(r.alloc.job_id);
                    index.reclaim[n] += spare;
                    index.cheap[n] += cheap;
                }
            }
            index.timeline.add(
                r.alloc.job_id,
                &r.alloc.node_indices,
                r.alloc.cpus_per_node,
                r.expected_end_us,
            );
        }
        index
    }

    /// Free CPUs on each node.
    pub fn free(&self) -> &[usize] {
        &self.free
    }

    /// Reclaimable CPUs on each node: what the running malleable jobs there
    /// could give up before hitting the malleable policy's shrink bound.
    pub fn reclaim(&self) -> &[usize] {
        &self.reclaim
    }

    /// Zero-marginal-cost reclaimable CPUs on each node: the part of
    /// [`reclaim`](Self::reclaim) the donors' speedup curves price at zero
    /// (saturated tails). 0 everywhere on a curve-less cluster.
    pub fn cheap(&self) -> &[usize] {
        &self.cheap
    }

    /// Ids of the running malleable jobs holding CPUs on `node`, in start
    /// order (none for a node outside the cluster).
    pub fn donors(&self, node: usize) -> &[u64] {
        self.donors.get(node).map_or(&[], Vec::as_slice)
    }

    /// The end-time-ordered release timeline over the estimated completions.
    pub fn timeline(&self) -> &ReleaseTimeline {
        &self.timeline
    }

    /// Dirty generation of free-CPU width class `width`: bumped whenever any
    /// node's free count crosses up into ≥ `width`. Unchanged ⟹ the number
    /// of nodes with ≥ `width` free CPUs has not increased since it was read.
    pub fn free_gen(&self, width: usize) -> u64 {
        self.free_gen.get(width).copied().unwrap_or(0)
    }

    /// Dirty generation of availability (free + reclaimable) width class
    /// `width` — same contract as [`free_gen`](Self::free_gen).
    pub fn avail_gen(&self, width: usize) -> u64 {
        self.avail_gen.get(width).copied().unwrap_or(0)
    }

    /// Unique instance epoch — what lets a probe memo detect that the index
    /// it recorded against was rebuilt (fresh generations, all zero).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-job clamped spare width under the shrink bound.
    fn spare(job: &QueuedJob, width: usize) -> usize {
        width.saturating_sub(shrink_floor(job.min_cpus_per_node, job.cpus_per_node))
    }

    /// Per-job zero-marginal-cost part of [`spare`](Self::spare): what the
    /// job's curve says it can donate for free at `width`.
    fn cheap_spare(job: &QueuedJob, width: usize) -> usize {
        match &job.speedup {
            Some(curve) => curve.zero_cost_run(width, Self::spare(job, width)),
            None => 0,
        }
    }

    /// Moves `job`'s allocation on each of `node_indices` from `old_width`
    /// to `new_width` CPUs (0 = not allocated): the free / reclaim / cheap
    /// columns and the dirty generations of every width class a node's free
    /// or available count crossed up into. A start bumps nothing: it lowers
    /// free CPUs, and lowers availability too (the malleable spare it adds,
    /// `width − floor`, never exceeds the `width` it takes).
    // PANIC: allocations name nodes inside the driver's free vector.
    fn move_width(
        &mut self,
        job: &QueuedJob,
        node_indices: &[usize],
        old_width: usize,
        new_width: usize,
    ) {
        let old_spare = Self::spare(job, old_width);
        let new_spare = Self::spare(job, new_width);
        let old_cheap = Self::cheap_spare(job, old_width);
        let new_cheap = Self::cheap_spare(job, new_width);
        for &n in node_indices {
            let old_free = self.free[n];
            let old_avail = old_free + self.reclaim[n];
            self.free[n] = self.free[n] + old_width - new_width;
            if job.malleable {
                self.reclaim[n] = self.reclaim[n] + new_spare - old_spare;
                self.cheap[n] = self.cheap[n] + new_cheap - old_cheap;
            }
            bump_gens(&mut self.free_gen, old_free, self.free[n]);
            bump_gens(
                &mut self.avail_gen,
                old_avail,
                self.free[n] + self.reclaim[n],
            );
        }
    }

    /// A job started on `node_indices` at `width` CPUs per node, with the
    /// driver's completion estimate (entered on the release timeline when
    /// `Some`).
    // PANIC: started allocations name nodes inside the driver's free vector.
    pub fn on_start(
        &mut self,
        job: &QueuedJob,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        self.move_width(job, node_indices, 0, width);
        if job.malleable {
            for &n in node_indices {
                self.donors[n].push(job.id);
            }
        }
        self.timeline.add(job.id, node_indices, width, end_us);
    }

    /// A running job resized from `old_width` to `new_width` CPUs per node.
    pub fn on_resize(
        &mut self,
        job: &QueuedJob,
        node_indices: &[usize],
        old_width: usize,
        new_width: usize,
    ) {
        self.move_width(job, node_indices, old_width, new_width);
        // The release the timeline promises at the job's (unchanged) end
        // instant is the new width; the driver refreshes the estimate itself
        // afterwards via `on_estimate`.
        self.timeline
            .update_width(job.id, node_indices, old_width, new_width);
    }

    /// The driver refreshed a running job's completion estimate:
    /// re-keys its release (current allocation) to the new instant in place.
    pub fn on_estimate(
        &mut self,
        job_id: u64,
        node_indices: &[usize],
        width: usize,
        end_us: Option<TimeUs>,
    ) {
        self.timeline.set_end(job_id, node_indices, width, end_us);
    }

    /// A running job completed, releasing `width` CPUs on each of its nodes.
    // PANIC: completed allocations name nodes inside the driver's free vector.
    pub fn on_complete(&mut self, job: &QueuedJob, node_indices: &[usize], width: usize) {
        self.move_width(job, node_indices, width, 0);
        if job.malleable {
            for &n in node_indices {
                self.donors[n].retain(|&id| id != job.id);
            }
        }
        self.timeline.remove(job.id, node_indices, width);
    }
}

/// The width below which the malleable policy will not push a job: its
/// declared floor, but never less than half its request.
pub(super) fn shrink_floor(declared_floor: usize, request: usize) -> usize {
    declared_floor.max(request.div_ceil(2)).max(1)
}

#[cfg(test)]
mod tests {
    use super::super::tests::stream_curve;
    use super::super::JobAllocation;
    use super::*;

    /// The event-maintained index equals a from-scratch rebuild after any
    /// start/resize/complete sequence, including donor-list order.
    #[test]
    fn sched_index_updates_match_rebuild() {
        let mut index = SchedIndex::new(3, 16);
        let j1 = QueuedJob::new(1, 2, 8).malleable(2);
        let j2 = QueuedJob::new(2, 1, 16).malleable(4);
        let j3 = QueuedJob::new(3, 2, 4); // rigid: never a donor
        index.on_start(&j1, &[0, 1], 8, Some(1_000));
        index.on_start(&j2, &[2], 12, Some(2_000));
        index.on_start(&j3, &[1, 2], 4, None);
        index.on_resize(&j2, &[2], 12, 9);
        index.on_resize(&j1, &[0, 1], 8, 5);
        // A resize refresh re-keys j1's releases in the timeline in place.
        index.on_estimate(1, &[0, 1], 5, Some(1_500));
        let running = vec![
            RunningJob {
                alloc: JobAllocation {
                    job_id: 1,
                    node_indices: vec![0, 1],
                    cpus_per_node: 5,
                },
                job: j1.clone(),
                start_us: 0,
                expected_end_us: Some(1_500),
            },
            RunningJob {
                alloc: JobAllocation {
                    job_id: 2,
                    node_indices: vec![2],
                    cpus_per_node: 9,
                },
                job: j2.clone(),
                start_us: 0,
                expected_end_us: Some(2_000),
            },
            RunningJob {
                alloc: JobAllocation {
                    job_id: 3,
                    node_indices: vec![1, 2],
                    cpus_per_node: 4,
                },
                job: j3.clone(),
                start_us: 0,
                expected_end_us: None,
            },
        ];
        assert_eq!(index, SchedIndex::rebuild(&[11, 7, 3], &running));
        assert_eq!(index.free(), &[11, 7, 3]);
        // j1 at width 5 with shrink floor max(2, 4) = 4 → 1 reclaimable;
        // j2 at width 9 with shrink floor max(4, 8) = 8 → 1 reclaimable.
        assert_eq!(index.reclaim(), &[1, 1, 1]);
        assert_eq!(index.donors(1), &[1]);
        assert_eq!(index.donors(2), &[2]);
        index.on_complete(&j1, &[0, 1], 5);
        index.on_complete(&j3, &[1, 2], 4);
        assert_eq!(index, SchedIndex::rebuild(&[16, 16, 7], &running[1..2]));
    }

    /// The incrementally-maintained zero-cost reclaim summary
    /// (`SchedIndex::cheap`) matches a from-scratch rebuild through starts,
    /// resizes and completions of curved and curve-less jobs alike.
    #[test]
    fn sched_index_cheap_summary_matches_rebuild() {
        let mut index = SchedIndex::new(2, 32);
        let linear = QueuedJob::new(1, 2, 8).malleable(2); // shrink floor 4
        let stream = QueuedJob::new(2, 1, 16)
            .malleable(1) // shrink floor 8
            .with_speedup(stream_curve(16));
        index.on_start(&linear, &[0, 1], 8, None);
        assert_eq!(index.cheap(), &[0, 0], "linear spare is never cheap");
        index.on_start(&stream, &[0], 12, None);
        assert_eq!(
            index.cheap(),
            &[4, 0],
            "all 4 spare CPUs sit on the flat tail"
        );
        index.on_resize(&stream, &[0], 12, 9);
        let running = vec![
            RunningJob {
                alloc: JobAllocation {
                    job_id: 1,
                    node_indices: vec![0, 1],
                    cpus_per_node: 8,
                },
                job: linear.clone(),
                start_us: 0,
                expected_end_us: None,
            },
            RunningJob {
                alloc: JobAllocation {
                    job_id: 2,
                    node_indices: vec![0],
                    cpus_per_node: 9,
                },
                job: stream.clone(),
                start_us: 0,
                expected_end_us: None,
            },
        ];
        assert_eq!(index, SchedIndex::rebuild(&[15, 24], &running));
        assert_eq!(index.cheap(), &[1, 0]);
        index.on_resize(&stream, &[0], 9, 16);
        assert_eq!(index.cheap(), &[8, 0]);
        index.on_complete(&stream, &[0], 16);
        assert_eq!(index, SchedIndex::rebuild(&[24, 24], &running[..1]));
        assert_eq!(index.cheap(), &[0, 0]);
    }
}
