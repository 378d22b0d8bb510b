//! The FCFS / first-fit baseline policy.

use std::borrow::Cow;

use drom_metrics::TimeUs;

use super::admission::admission_iter;
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
/// asks the index's free-CPU histogram whether the head can fit at all: a
/// blocked head ends the pass without scanning or copying a node vector.
// Braced, not a unit struct: every driver builds it with `::default()`.
#[derive(Debug, Default, Clone)]
pub struct FirstFitPolicy {}

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
        let mut free = Cow::Borrowed(view.free());
        let mut hist = Cow::Borrowed(view.index.free_hist());
        let mut admitted = Vec::new();
        admit_fcfs(
            &mut admission_iter(view, queue),
            &mut free,
            &mut hist,
            &mut admitted,
        );
        start_actions(admitted)
    }
}
