//! Conservative EASY-style backfill.

use std::borrow::Cow;

use drom_metrics::TimeUs;

use super::admission::admission_iter;
use super::placement::{
    admit_fcfs, earliest_timeline_fit, fit_first, start_actions, take_cpus, TimelineDelta,
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
/// (no queue sort); the job that blocks the FCFS phase becomes the reserved
/// head, and the backfill candidates are guarded by the same pass-local
/// free-CPU histogram the FCFS phase carried forward from the index.
// Braced, not a unit struct: every driver builds it with `::default()`.
#[derive(Debug, Default, Clone)]
pub struct BackfillPolicy {}

impl SchedulerPolicy for BackfillPolicy {
    fn name(&self) -> &'static str {
        "backfill"
    }

    // ALLOC(pass): backfill working set — the reservation overlay is built
    // once per pass that reserves.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        let mut free = Cow::Borrowed(view.free());
        let mut hist = Cow::Borrowed(view.index.free_hist());
        let mut admitted = Vec::new();
        let mut ordered = admission_iter(view, queue);
        let Some(head) = admit_fcfs(&mut ordered, &mut free, &mut hist, &mut admitted) else {
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
        for job in ordered {
            let Some(duration) = job.expected_duration_us else {
                continue; // no limit declared: could delay the reservation
            };
            if now_us.saturating_add(duration) > reservation_us {
                continue;
            }
            // Exact reject guard: a fit at `width` exists iff enough nodes
            // carry ≥ `width` free CPUs, so a failed count skips the
            // O(nodes) probe without changing any decision.
            if hist.count_ge(job.cpus_per_node) < job.nodes {
                continue;
            }
            if let Some(node_indices) = fit_first(&free, None, job.nodes, job.cpus_per_node) {
                take_cpus(
                    free.to_mut(),
                    hist.to_mut(),
                    &node_indices,
                    job.cpus_per_node,
                );
                admitted.push((job, node_indices));
            }
        }
        start_actions(admitted)
    }
}
