//! Conservative EASY-style backfill.

use std::borrow::Cow;

use drom_metrics::TimeUs;

use super::admission::{admission_iter, ProbeMemo};
use super::placement::{
    admit_fcfs, earliest_timeline_fit, fit_first, start_actions, FreeHist, TimelineDelta,
};
use super::{ClusterView, QueuedJob, SchedulerAction, SchedulerPolicy};

/// Conservative EASY-style backfill.
///
/// Jobs start in FCFS order at full width. When the head job does not fit,
/// its start is *reserved* at the earliest instant enough CPUs free up
/// (using the running jobs' expected completion times), and later queued
/// jobs may start out of order only when they declare a time limit and are
/// guaranteed to finish before that reservation — so the head job is never
/// delayed. If any running job on the needed CPUs has no completion
/// estimate, no reservation exists and nothing is backfilled.
///
/// The pass is the shared FCFS admission phase followed by reservation +
/// backfill. It walks the maintained [`AdmissionOrder`](super::AdmissionOrder)
/// (no queue sort) and keeps a probe memo over count-proven fit failures: a
/// memo-valid FCFS job ends the FCFS phase exactly like a re-probed failure
/// would (it becomes the reserved head — never leapfrogged, because the
/// reservation and the end-before-it guarantee are recomputed every pass),
/// and a memo-valid backfill candidate is passed over exactly like its
/// re-probed count failure would be.
#[derive(Debug, Default, Clone)]
pub struct BackfillPolicy {
    pub(super) memo: ProbeMemo,
}

impl SchedulerPolicy for BackfillPolicy {
    fn name(&self) -> &'static str {
        "backfill"
    }

    // ALLOC(pass): backfill working set — the reservation overlay and the
    // free-count histogram are built once per pass that reserves.
    // PANIC: fit indices stay within the shadow free vector.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        self.memo.sync_epoch(view.index.epoch());
        let mut free = Cow::Borrowed(view.free());
        let mut admitted = Vec::new();
        let mut ordered = admission_iter(view, queue);
        let Some(head) = admit_fcfs(
            &mut ordered,
            &mut self.memo,
            view.index,
            &mut free,
            &mut admitted,
        ) else {
            return start_actions(admitted);
        };
        // Reserve the head job's start at the earliest provable fit: walk
        // the maintained release timeline overlaid with this pass's own
        // starts (the running jobs' releases are already on the timeline).
        let mut overlay: Vec<TimelineDelta<'_>> = admitted
            .iter()
            .filter_map(|(job, node_indices)| {
                Some(TimelineDelta {
                    end_us: now_us.saturating_add(job.expected_duration_us?),
                    node_indices,
                    delta: job.cpus_per_node as i64,
                })
            })
            .collect();
        overlay.sort_by_key(|d| d.end_us);
        let Some((reservation_us, _)) = earliest_timeline_fit(
            head.nodes,
            head.cpus_per_node,
            &free,
            view.index.timeline(),
            &overlay,
            now_us,
        ) else {
            return start_actions(admitted); // no provable reservation: nothing may jump
        };
        // Exact reject guard for the candidates below: a fit at `width`
        // exists iff enough nodes carry ≥ `width` free CPUs, so a failed
        // count skips the O(nodes) probe without changing any decision.
        let mut hist = FreeHist::new(&free, view.node_cpus, |_| true);
        for job in ordered {
            let Some(duration) = job.expected_duration_us else {
                continue; // no limit declared: could delay the reservation
            };
            if now_us.saturating_add(duration) > reservation_us {
                continue;
            }
            // The memo check sits behind the per-pass duration/window tests
            // (those depend on the reservation, recomputed every pass, and
            // cannot be memoized) and replaces only the count/fit probe — a
            // memo-valid candidate is passed over exactly like a re-probed
            // count failure, so the outcome is identical either way.
            if self.memo.still_blocked(job, view.index, None) {
                continue;
            }
            if hist.count_ge(job.cpus_per_node) < job.nodes {
                self.memo
                    .record(job.id, view.index.free_gen(job.cpus_per_node), None);
                continue; // exact reject: no fit exists, skip the probe
            }
            if let Some(node_indices) = fit_first(&free, None, job.nodes, job.cpus_per_node) {
                self.memo.forget(job.id);
                let free = free.to_mut();
                for &idx in &node_indices {
                    hist.update(free[idx], free[idx] - job.cpus_per_node);
                    free[idx] -= job.cpus_per_node;
                }
                admitted.push((job, node_indices));
            }
        }
        start_actions(admitted)
    }
}
