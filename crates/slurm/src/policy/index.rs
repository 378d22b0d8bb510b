//! The event-maintained scheduler index: per-node free / reclaimable CPUs,
//! donor lists, the free / availability count histograms and the release
//! timeline.

use std::collections::BTreeMap;

use drom_metrics::TimeUs;

use super::{JobAllocation, RunningJob};

/// What one estimated running job gives back when it ends: `width` CPUs on
/// each of `node_indices`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Release {
    pub(super) node_indices: Vec<usize>,
    pub(super) width: usize,
}

impl Release {
    fn of(alloc: &JobAllocation) -> Self {
        Release {
            node_indices: alloc.node_indices.clone(),
            width: alloc.cpus_per_node,
        }
    }
}

/// The release timeline: the running jobs that carry a completion estimate,
/// ordered by that estimate — an end-ordered view of `running`, one entry
/// per job.
///
/// This is the input of the drain-reservation forecast shared by
/// [`BackfillPolicy`](super::BackfillPolicy) and
/// [`MalleablePolicy`](super::MalleablePolicy): instead of re-sorting every
/// running allocation by end time and replaying the releases with a
/// first-fit probe per candidate instant (O(candidates × nodes) per
/// forecast — the reservation-heavy scaling wall at 1024+ nodes), the
/// forecast walks these entries in end order and maintains a *count* of
/// nodes satisfying the probe width, probing placement exactly once
/// (`earliest_timeline_fit`). [`SchedIndex`] keeps one up to date in
/// O(log running) per applied start / completion / estimate change (a
/// resize rewrites one width in place, an unchanged estimate touches
/// nothing), so a pass never pays the sort either.
///
/// Canonical form (what [`PartialEq`] compares, and what the debug rebuild
/// oracle re-derives from the running set): exactly one entry per running
/// job whose estimate is `Some`, keyed `(estimate, job id)` and holding the
/// job's current node list and width. Jobs without an estimate simply do
/// not appear — the walk treats their CPUs as never released, exactly like
/// the replay it replaces. Only [`SchedIndex`] writes it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReleaseTimeline {
    pub(super) by_end: BTreeMap<(TimeUs, u64), Release>,
}

impl ReleaseTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of estimated jobs on the timeline.
    pub fn len(&self) -> usize {
        self.by_end.len()
    }

    /// `true` when no job carries an estimate.
    pub fn is_empty(&self) -> bool {
        self.by_end.is_empty()
    }

    /// The entry of `r` under the estimate it carries, if it has one.
    fn key(r: &RunningJob) -> Option<(TimeUs, u64)> {
        r.expected_end_us.map(|end| (end, r.alloc.job_id))
    }

    /// Enters `r` (nothing for a job without an estimate).
    fn insert(&mut self, r: &RunningJob) {
        if let Some(key) = Self::key(r) {
            self.by_end.insert(key, Release::of(&r.alloc));
        }
    }

    /// Takes `r` off (`None` for a job without an estimate).
    fn remove(&mut self, r: &RunningJob) -> Option<Release> {
        self.by_end.remove(&Self::key(r)?)
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
/// * `timeline` holds exactly one `(r.expected_end_us, r.alloc.job_id) →
///   (r.alloc.node_indices, r.alloc.cpus_per_node)` entry per running job
///   whose estimate is `Some` ([`ReleaseTimeline`] canonical form) — every
///   hook takes the [`RunningJob`] as it stands *before* the event, so the
///   old key comes from the job itself, and
///   [`on_estimate`](SchedIndex::on_estimate) moves the entry whenever the
///   driver refreshes an estimate;
/// * `free_hist` / `avail_hist` count, per CPU value, the nodes whose
///   `free[n]` / `free[n] + reclaim[n]` currently equals it
///   ([`free_hist`](SchedIndex::free_hist) /
///   [`avail_hist`](SchedIndex::avail_hist)), which a pass borrows instead
///   of counting nodes. Updated once per touched node by the same
///   `move_width` that moves the columns, and part of the index's value:
///   the rebuild oracle re-counts them from the columns, so a drifted
///   counter fails the debug check like a drifted column does.
///
/// Completion consistency is the driver's job: the trace engine tags its
/// completion events with a generation counter and drops stale ones *before*
/// calling [`PolicyScheduler::job_finished`](crate::PolicyScheduler::job_finished),
/// so a completion superseded by a resize can never unwind the index twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedIndex {
    free: Vec<usize>,
    reclaim: Vec<usize>,
    cheap: Vec<usize>,
    donors: Vec<Vec<u64>>,
    timeline: ReleaseTimeline,
    free_hist: FreeHist,
    avail_hist: FreeHist,
}

/// Exact per-value histogram over a bounded per-node CPU count (free CPUs,
/// or free + reclaimable; both are ≤ the node capacity): `counts[v]` nodes
/// currently carry value `v`. [`count_ge`](Self::count_ge) answers "how many
/// nodes offer at least `w`" in O(node capacity) — the admission guard that
/// lets a scheduling pass reject a doomed fit or shrink probe without an
/// O(nodes) scan. The guard is exact (a first-fit at `width` succeeds iff
/// ≥ `nodes` nodes qualify), so skipping the scan never changes a decision.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FreeHist {
    counts: Vec<usize>,
}

impl FreeHist {
    /// Number of tracked nodes with value ≥ `v` (0 when `v` exceeds the
    /// capacity bound).
    pub fn count_ge(&self, v: usize) -> usize {
        self.counts.get(v..).map_or(0, |tail| tail.iter().sum())
    }

    /// A tracked node's value changed from `old` to `new`.
    // PANIC: old/new widths stay within the capacity the histogram was sized with.
    pub(super) fn update(&mut self, old: usize, new: usize) {
        self.counts[old] -= 1;
        self.counts[new] += 1;
    }

    /// A node carrying value `v` stops being tracked (it was reserved).
    // PANIC: `v` is the value the node was counted under.
    pub(super) fn remove(&mut self, v: usize) {
        self.counts[v] -= 1;
    }
}

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
    /// index of a [`ClusterView`](super::ClusterView) one-shot. The count
    /// histograms are sized by the widest node (free plus everything
    /// allocated on it), which no free or available count can exceed.
    // PANIC: running allocations index nodes inside the free vector; every
    // counted value is ≤ the capacity the histograms were just sized with.
    pub fn rebuild(free: &[usize], running: &[RunningJob]) -> Self {
        let mut index = SchedIndex {
            free: free.to_vec(),
            reclaim: vec![0; free.len()],
            cheap: vec![0; free.len()],
            donors: vec![Vec::new(); free.len()],
            timeline: ReleaseTimeline::new(),
            free_hist: FreeHist::default(),
            avail_hist: FreeHist::default(),
        };
        let mut capacity = free.to_vec();
        for r in running {
            for &n in &r.alloc.node_indices {
                capacity[n] += r.alloc.cpus_per_node;
            }
            if r.job.malleable {
                let spare = r.job.spare(r.alloc.cpus_per_node);
                let cheap = r.job.cheap_spare(r.alloc.cpus_per_node);
                for &n in &r.alloc.node_indices {
                    index.donors[n].push(r.alloc.job_id);
                    index.reclaim[n] += spare;
                    index.cheap[n] += cheap;
                }
            }
            index.timeline.insert(r);
        }
        let buckets = capacity.iter().max().map_or(0, |widest| widest + 1);
        index.free_hist.counts = vec![0; buckets];
        index.avail_hist.counts = vec![0; buckets];
        for (&f, &r) in index.free.iter().zip(&index.reclaim) {
            index.free_hist.counts[f] += 1;
            index.avail_hist.counts[f + r] += 1;
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

    /// The maintained histogram over [`free`](Self::free): what a pass
    /// borrows (and clones on its first start) instead of counting nodes.
    pub fn free_hist(&self) -> &FreeHist {
        &self.free_hist
    }

    /// The maintained histogram over free + reclaimable CPUs
    /// ([`free`](Self::free) + [`reclaim`](Self::reclaim), node by node).
    pub fn avail_hist(&self) -> &FreeHist {
        &self.avail_hist
    }

    /// Moves `r`'s allocation on each of its nodes from `old_width` to
    /// `new_width` CPUs (0 = not allocated): the free / reclaim / cheap
    /// columns, and each touched node's entry in the two count histograms.
    // PANIC: allocations name nodes inside the driver's free vector.
    fn move_width(&mut self, r: &RunningJob, old_width: usize, new_width: usize) {
        let old_spare = r.job.spare(old_width);
        let new_spare = r.job.spare(new_width);
        let old_cheap = r.job.cheap_spare(old_width);
        let new_cheap = r.job.cheap_spare(new_width);
        for &n in &r.alloc.node_indices {
            let old_free = self.free[n];
            let old_avail = old_free + self.reclaim[n];
            self.free[n] = self.free[n] + old_width - new_width;
            if r.job.malleable {
                self.reclaim[n] = self.reclaim[n] + new_spare - old_spare;
                self.cheap[n] = self.cheap[n] + new_cheap - old_cheap;
            }
            self.free_hist.update(old_free, self.free[n]);
            self.avail_hist
                .update(old_avail, self.free[n] + self.reclaim[n]);
        }
    }

    /// `r` started: its allocation leaves the free columns and its estimate
    /// (when `Some`) enters the release timeline.
    // PANIC: started allocations name nodes inside the driver's free vector.
    pub fn on_start(&mut self, r: &RunningJob) {
        self.move_width(r, 0, r.alloc.cpus_per_node);
        if r.job.malleable {
            for &n in &r.alloc.node_indices {
                self.donors[n].push(r.alloc.job_id);
            }
        }
        self.timeline.insert(r);
    }

    /// `r` (still at its old width) is resized to `new_width` CPUs per node.
    /// The release its timeline entry promises becomes the new width at the
    /// unchanged end instant; the driver refreshes the estimate itself
    /// afterwards via [`on_estimate`](Self::on_estimate).
    pub fn on_resize(&mut self, r: &RunningJob, new_width: usize) {
        self.move_width(r, r.alloc.cpus_per_node, new_width);
        if let Some(release) =
            ReleaseTimeline::key(r).and_then(|k| self.timeline.by_end.get_mut(&k))
        {
            release.width = new_width;
        }
    }

    /// The driver refreshes the completion estimate of `r` (still carrying
    /// its old one) to `end_us`: its timeline entry moves to the new instant,
    /// leaves (`None`) or enters (from `None`). The estimate it already
    /// carries touches nothing.
    pub fn on_estimate(&mut self, r: &RunningJob, end_us: Option<TimeUs>) {
        if r.expected_end_us == end_us {
            return;
        }
        let moved = self.timeline.remove(r);
        if let Some(end) = end_us {
            let release = moved.unwrap_or_else(|| Release::of(&r.alloc));
            self.timeline.by_end.insert((end, r.alloc.job_id), release);
        }
    }

    /// `r` completed, releasing its CPUs on each of its nodes.
    // PANIC: completed allocations name nodes inside the driver's free vector.
    pub fn on_complete(&mut self, r: &RunningJob) {
        self.move_width(r, r.alloc.cpus_per_node, 0);
        if r.job.malleable {
            for &n in &r.alloc.node_indices {
                self.donors[n].retain(|&id| id != r.alloc.job_id);
            }
        }
        self.timeline.remove(r);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{tests::stream_curve, QueuedJob};
    use super::*;

    /// `job` running at `width` CPUs on each of `nodes`, estimated to end at
    /// `end_us` — built once, handed to the hooks and to `rebuild` alike.
    fn run(job: &QueuedJob, nodes: &[usize], width: usize, end_us: Option<TimeUs>) -> RunningJob {
        RunningJob {
            alloc: JobAllocation {
                job_id: job.id,
                node_indices: nodes.to_vec(),
                cpus_per_node: width,
            },
            job: job.clone(),
            start_us: 0,
            expected_end_us: end_us,
        }
    }

    /// The event-maintained index equals a from-scratch rebuild after any
    /// start/resize/complete sequence, including donor-list order.
    #[test]
    fn sched_index_updates_match_rebuild() {
        let mut index = SchedIndex::new(3, 16);
        let mut r1 = run(
            &QueuedJob::new(1, 2, 8).malleable(2),
            &[0, 1],
            8,
            Some(1_000),
        );
        let mut r2 = run(
            &QueuedJob::new(2, 1, 16).malleable(4),
            &[2],
            12,
            Some(2_000),
        );
        let r3 = run(&QueuedJob::new(3, 2, 4), &[1, 2], 4, None); // rigid: never a donor
        index.on_start(&r1);
        index.on_start(&r2);
        index.on_start(&r3);
        index.on_resize(&r2, 9);
        r2.alloc.cpus_per_node = 9;
        index.on_resize(&r1, 5);
        r1.alloc.cpus_per_node = 5;
        // A resize refresh moves j1's timeline entry to the new instant.
        index.on_estimate(&r1, Some(1_500));
        r1.expected_end_us = Some(1_500);
        let running = vec![r1, r2, r3];
        assert_eq!(index, SchedIndex::rebuild(&[11, 7, 3], &running));
        assert_eq!(index.timeline().len(), 2);
        assert_eq!(index.free(), &[11, 7, 3]);
        // j1 at width 5 with shrink floor max(2, 4) = 4 → 1 reclaimable;
        // j2 at width 9 with shrink floor max(4, 8) = 8 → 1 reclaimable.
        assert_eq!(index.reclaim(), &[1, 1, 1]);
        assert_eq!(index.donors(1), &[1]);
        assert_eq!(index.donors(2), &[2]);
        assert_eq!(index.free_hist().count_ge(7), 2);
        // Availability is [12, 8, 4]: free plus one reclaimable CPU each.
        assert_eq!(index.avail_hist().count_ge(8), 2);
        // The histograms are part of the index's value: one counter moved
        // by hand (node 1's 7 free counted as 8) and the oracle fails, with
        // every per-node column still equal.
        let mut drifted = index.clone();
        drifted.free_hist.update(7, 8);
        assert_ne!(drifted, SchedIndex::rebuild(&[11, 7, 3], &running));
        let mut drifted = index.clone();
        drifted.avail_hist.update(8, 9);
        assert_ne!(drifted, SchedIndex::rebuild(&[11, 7, 3], &running));
        index.on_complete(&running[0]);
        index.on_complete(&running[2]);
        assert_eq!(index, SchedIndex::rebuild(&[16, 16, 7], &running[1..2]));
        assert_eq!(index.timeline().len(), 1);
    }

    /// The incrementally-maintained zero-cost reclaim summary
    /// (`SchedIndex::cheap`) matches a from-scratch rebuild through starts,
    /// resizes and completions of curved and curve-less jobs alike.
    #[test]
    fn sched_index_cheap_summary_matches_rebuild() {
        let mut index = SchedIndex::new(2, 32);
        // Linear, shrink floor 4.
        let linear = run(&QueuedJob::new(1, 2, 8).malleable(2), &[0, 1], 8, None);
        let stream_job = QueuedJob::new(2, 1, 16)
            .malleable(1) // shrink floor 8
            .with_speedup(stream_curve(16));
        let mut stream = run(&stream_job, &[0], 12, None);
        index.on_start(&linear);
        assert_eq!(index.cheap(), &[0, 0], "linear spare is never cheap");
        index.on_start(&stream);
        assert_eq!(
            index.cheap(),
            &[4, 0],
            "all 4 spare CPUs sit on the flat tail"
        );
        index.on_resize(&stream, 9);
        stream.alloc.cpus_per_node = 9;
        let mut running = vec![linear, stream];
        assert_eq!(index, SchedIndex::rebuild(&[15, 24], &running));
        assert_eq!(index.cheap(), &[1, 0]);
        index.on_resize(&running[1], 16);
        running[1].alloc.cpus_per_node = 16;
        assert_eq!(index.cheap(), &[8, 0]);
        index.on_complete(&running[1]);
        assert_eq!(index, SchedIndex::rebuild(&[24, 24], &running[..1]));
        assert_eq!(index.cheap(), &[0, 0]);
    }
}
