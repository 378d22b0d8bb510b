//! The FCFS / first-fit baseline policy.

use std::borrow::Cow;

use drom_metrics::TimeUs;

use super::admission::{admission_iter, ProbeMemo};
use super::placement::{admit_fcfs, start_actions};
use super::{ClusterView, QueuedJob, SchedulerAction, SchedulerPolicy};

/// The baseline: FCFS order, first-fit placement, head-of-line blocking.
///
/// This is the unmodified-controller behaviour of the paper's Section 5
/// lifted to CPU granularity: a job starts only at its full request width,
/// and a blocked head job blocks everything behind it.
///
/// The pass is the shared FCFS admission phase alone. It walks the
/// maintained [`AdmissionOrder`](super::AdmissionOrder) (no queue sort) and
/// keeps a probe memo: when the head's fit failure was count-proven and the
/// free generation of its width class is unchanged, the pass ends without
/// re-probing — head-of-line blocking means a still-blocked head blocks
/// exactly as before, so the skip is decision-identical.
#[derive(Debug, Default, Clone)]
pub struct FirstFitPolicy {
    pub(super) memo: ProbeMemo,
}

impl SchedulerPolicy for FirstFitPolicy {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    // ALLOC(pass): the per-pass action list.
    fn schedule(
        &mut self,
        view: &ClusterView<'_>,
        queue: &[QueuedJob],
        _now_us: TimeUs,
    ) -> Vec<SchedulerAction> {
        self.memo.sync_epoch(view.index.epoch());
        let mut free = Cow::Borrowed(view.free());
        let mut admitted = Vec::new();
        admit_fcfs(
            &mut admission_iter(view, queue),
            &mut self.memo,
            view.index,
            &mut free,
            &mut admitted,
        );
        start_actions(admitted)
    }
}
