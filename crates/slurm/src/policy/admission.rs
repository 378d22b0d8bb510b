//! Queue-side state shared by every policy: the incrementally maintained
//! [`AdmissionOrder`] a pass walks instead of sorting.

use std::collections::{BTreeMap, HashMap};

use drom_metrics::TimeUs;

use super::{ClusterView, QueuedJob};

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
/// [`SchedIndex`](super::SchedIndex) and hands it to policies through [`ClusterView::order`];
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
