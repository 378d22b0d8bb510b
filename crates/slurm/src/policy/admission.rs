//! Queue-side state shared by every policy: the incrementally maintained
//! [`AdmissionOrder`] a pass walks instead of sorting, and the probe memo
//! that skips re-probing provably still-blocked jobs.

use std::collections::{BTreeMap, HashMap};

use drom_metrics::TimeUs;

use super::index::shrink_floor;
use super::{ClusterView, QueuedJob, SchedIndex};

/// The admission key: priority (desc), submission time, id. The id
/// component makes the key total and unique per job, so the ordered map
/// below never collides.
type AdmissionKey = (std::cmp::Reverse<u32>, TimeUs, u64);

fn admission_key(job: &QueuedJob) -> AdmissionKey {
    (std::cmp::Reverse(job.priority), job.submit_us, job.id)
}

/// Incrementally maintained admission order over the waiting queue:
/// an ordered map from the admission sort key —
/// `(Reverse(priority), submit_us, id)` — to the job's position in the
/// driver's queue vector.
///
/// The key of a waiting job is invariant between submission and
/// admission/requeue (priority and submit time never change while it
/// waits), so the order is maintained in O(log queue) per queue **event**
/// (submit / admitted start / requeue) and a scheduling pass never pays the
/// O(queue log queue) re-sort: it walks [`positions`](Self::positions) —
/// exactly the sorted sequence. The mapped positions let the driver store
/// its queue as an unordered `Vec` (and remove admitted jobs with a
/// `swap_remove` + one [`set_pos`](Self::set_pos) fixup).
///
/// [`PolicyScheduler`](crate::PolicyScheduler) owns one next to its
/// [`SchedIndex`] and hands it to policies through [`ClusterView::order`];
/// a driver without event-maintained state builds one with
/// [`from_queue`](Self::from_queue). An entry whose position does not
/// resolve to its job in the queue a pass is given (an order built over
/// some other queue) is skipped, never indexed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionOrder {
    by_key: BTreeMap<AdmissionKey, usize>,
    key_by_id: HashMap<u64, AdmissionKey>,
}

impl AdmissionOrder {
    /// An empty order.
    pub fn new() -> Self {
        Self::default()
    }

    /// The order over `queue` as stored: job `i` maps to position `i`.
    pub fn from_queue(queue: &[QueuedJob]) -> Self {
        let mut order = Self::new();
        for (pos, job) in queue.iter().enumerate() {
            order.insert(job, pos);
        }
        order
    }

    /// `true` when `job_id` is tracked (O(1)).
    pub fn contains(&self, job_id: u64) -> bool {
        self.key_by_id.contains_key(&job_id)
    }

    /// Number of tracked jobs.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// `true` when no job is tracked.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Tracks `job`, stored at position `pos` of the driver's queue vector.
    /// Ids are unique among waiting jobs: re-inserting one replaces its
    /// entry, so a driver must reject duplicates first
    /// ([`contains`](Self::contains)).
    pub fn insert(&mut self, job: &QueuedJob, pos: usize) {
        let key = admission_key(job);
        if let Some(stale) = self.key_by_id.insert(job.id, key) {
            self.by_key.remove(&stale);
        }
        self.by_key.insert(key, pos);
    }

    /// Stops tracking `job_id`, returning the queue position it mapped to.
    pub fn remove(&mut self, job_id: u64) -> Option<usize> {
        let key = self.key_by_id.remove(&job_id)?;
        self.by_key.remove(&key)
    }

    /// Records that `job_id` now lives at `pos` of the queue vector (the
    /// `swap_remove` fixup for the job moved into the freed hole).
    pub fn set_pos(&mut self, job_id: u64, pos: usize) {
        if let Some(key) = self.key_by_id.get(&job_id) {
            if let Some(p) = self.by_key.get_mut(key) {
                *p = pos;
            }
        }
    }

    /// The queue position of `job_id`, when tracked.
    pub fn position_of(&self, job_id: u64) -> Option<usize> {
        self.by_key.get(self.key_by_id.get(&job_id)?).copied()
    }

    /// Queue positions in admission order — the sorted sequence without
    /// the sort.
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.by_key.values().copied()
    }
}

/// The admission-order walk of one scheduling pass: the jobs of `queue` in
/// exactly the `(Reverse(priority), submit_us, id)` sequence, off the
/// view's maintained [`AdmissionOrder`] — no allocation, no sort. Entries
/// that do not resolve to their job in `queue` are skipped.
pub(super) fn admission_iter<'a>(
    view: &ClusterView<'a>,
    queue: &'a [QueuedJob],
) -> impl Iterator<Item = &'a QueuedJob> {
    view.order
        .by_key
        .iter()
        .filter_map(move |(&(_, _, id), &pos)| queue.get(pos).filter(|job| job.id == id))
}

/// How a policy treats its probe memo — the dirty-tracked re-probe skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum Probing {
    /// Production: skip re-probing a waiting job whose recorded failure
    /// signature is provably still valid (no width class it needs gained
    /// nodes since the probe failed).
    #[default]
    DirtyTracked,
    /// Conservative mode: never consult the memo, so every probe runs. The
    /// byte-identical replay surface the differential battery compares
    /// against.
    AlwaysProbe,
    /// TEST ONLY — the "missed release" hazard: trust any recorded
    /// signature, ignoring the generations entirely.
    #[cfg(test)]
    UnsoundStaleSkip,
    /// TEST ONLY — the "widened skip" hazard (backfill): on a memo-valid
    /// blocked head, keep admitting FCFS followers instead of stopping,
    /// letting a later candidate leapfrog the head without the
    /// end-before-reservation proof.
    #[cfg(test)]
    UnsoundSkipContinues,
}

/// One recorded probe failure: the dirty generations of the width classes
/// whose node counts proved the job could not start. Valid (skippable)
/// while those generations are unchanged — no node has crossed up into a
/// class the job needs, so the counts cannot have grown and the failure
/// still holds.
#[derive(Debug, Clone, Copy)]
struct ProbeSig {
    /// [`SchedIndex::free_gen`] at the job's request width when the
    /// count-proven fit failure was recorded.
    fit_gen: u64,
    /// [`SchedIndex::avail_gen`] at the job's shrink floor when the
    /// count-proven shrink-admission failure was recorded (malleable pass
    /// only; `None` for first-fit/backfill signatures).
    avail_gen: Option<u64>,
}

/// Fibonacci-mix hasher for the probe memo's job-id keys. The memo is
/// consulted once per waiting job per pass, so on a deep queue the default
/// SipHash costs more than the histogram-guarded probe the memo exists to
/// skip; one multiply plus an xor-shift (to feed the table's low bucket
/// bits) is collision-adequate for sequential ids at a fraction of the
/// cost.
#[derive(Clone, Default)]
struct JobIdHasher(u64);

impl std::hash::Hasher for JobIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type JobIdBuildHasher = std::hash::BuildHasherDefault<JobIdHasher>;

/// Per-policy memo of the waiting jobs' last failed probes, keyed by job id.
/// Sound only against the index instance it recorded from — `sync_epoch`
/// clears it when the driver's index was rebuilt.
#[derive(Debug, Clone, Default)]
pub(super) struct ProbeMemo {
    probing: Probing,
    epoch: u64,
    sigs: HashMap<u64, ProbeSig, JobIdBuildHasher>,
}

impl ProbeMemo {
    /// An empty memo consulted as `probing` says.
    pub(super) fn with(probing: Probing) -> Self {
        ProbeMemo {
            probing,
            ..Self::default()
        }
    }

    /// TEST ONLY: whether this memo reproduces the widened-skip hazard.
    #[cfg(test)]
    pub(super) fn skip_continues(&self) -> bool {
        self.probing == Probing::UnsoundSkipContinues
    }

    /// Drops every signature when `epoch` is not the one they were recorded
    /// against (a fresh index has fresh, all-zero generations that must not
    /// validate old signatures).
    pub(super) fn sync_epoch(&mut self, epoch: u64) {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.sigs.clear();
        }
    }

    pub(super) fn record(&mut self, job_id: u64, fit_gen: u64, avail_gen: Option<u64>) {
        self.sigs.insert(job_id, ProbeSig { fit_gen, avail_gen });
    }

    pub(super) fn forget(&mut self, job_id: u64) {
        self.sigs.remove(&job_id);
    }

    /// `true` when `job`'s recorded probe failure is provably still valid:
    /// a signature exists, the free generation at its request width is
    /// unchanged, no pass-local shrink raised free CPUs into that class
    /// (`raised`, the malleable pass's in-pass counters), and — for a
    /// malleable signature — the availability generation at its shrink
    /// floor is unchanged too. Never under [`Probing::AlwaysProbe`].
    pub(super) fn still_blocked(
        &self,
        job: &QueuedJob,
        index: &SchedIndex,
        raised: Option<&[u64]>,
    ) -> bool {
        if self.probing == Probing::AlwaysProbe {
            return false;
        }
        let Some(sig) = self.sigs.get(&job.id) else {
            return false;
        };
        #[cfg(test)]
        if self.probing == Probing::UnsoundStaleSkip {
            return true; // the unsound stale-skip hazard
        }
        if index.free_gen(job.cpus_per_node) != sig.fit_gen {
            return false;
        }
        if raised.is_some_and(|r| r.get(job.cpus_per_node).copied().unwrap_or(0) != 0) {
            return false;
        }
        match sig.avail_gen {
            None => true,
            Some(gen) => {
                let floor = shrink_floor(job.min_cpus_per_node, job.cpus_per_node);
                index.avail_gen(floor) == gen
            }
        }
    }
}
