//! Fixed-point speedup curves: how a job's progress rate scales with its
//! per-node width.

use drom_metrics::TimeUs;

/// Fixed-point speedup curve of one job: how fast the job progresses at each
/// per-node width, relative to its full request width.
///
/// `rates[w]` is the job's progress rate at `w` CPUs per node, in fixed-point
/// work units per microsecond; index `rates.len() - 1` is the request width.
/// A job running at full width for `duration_us` delivers exactly
/// `duration_us × full_rate()` work units, so only rate *ratios* matter —
/// the absolute scale is the curve builder's choice. The curve
/// is application-agnostic — the scheduler never sees the model that
/// produced it, only the integer rate table — which is what lets the
/// calibrated `drom-apps` performance models (static data partitions,
/// memory-bound saturation, init phases) drive scheduler estimates without a
/// `drom-slurm → drom-apps` dependency edge. `drom_sim::rate` builds curves
/// from the models; a job without a curve scales linearly
/// (`rate ∝ width`), which reproduces the PR 3/4 behaviour bit for bit.
///
/// Invariants (checked by [`from_rates`](Self::from_rates)): rates are
/// monotone non-decreasing in the width (an expand can never slow a job
/// down), every rate above width 0 is non-zero, and `rates[0]` is 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeedupCurve {
    rates: Vec<u64>,
}

impl SpeedupCurve {
    /// Fixed-point unit: the rate at the full request width. 2^20 keeps the
    /// quantization error of a rate ratio below one part per million while
    /// `duration × FP` stays far from u64/u128 overflow for any virtual
    /// duration the traces use.
    pub const FP: u64 = 1 << 20;

    /// Builds a curve from the per-width rate table (`rates[w]` = rate at
    /// `w` CPUs per node; the last index is the request width).
    ///
    /// # Panics
    ///
    /// Panics if the table has fewer than two entries (a request width of at
    /// least 1 plus the zero-width entry), if `rates[0] != 0`, if any rate
    /// above width 0 is zero, or if the table is not monotone non-decreasing.
    pub fn from_rates(rates: Vec<u64>) -> Self {
        assert!(rates.len() >= 2, "a curve needs at least width 0 and 1");
        assert_eq!(rates[0], 0, "zero CPUs deliver zero work");
        for w in 1..rates.len() {
            assert!(rates[w] > 0, "rate at width {w} must be positive");
            assert!(
                rates[w] >= rates[w - 1],
                "rates must be monotone: expanding to width {w} may not slow the job"
            );
        }
        SpeedupCurve { rates }
    }

    /// The linear curve for `request` CPUs per node: `rate(w) = w × FP`,
    /// quantization-free at every width (`⌈d·request·FP / (w·FP)⌉` equals
    /// `⌈d·request / w⌉` exactly), so a linear curve is byte-identical to no
    /// curve at all. Only used by tests and differential checks — an absent
    /// curve already means linear.
    pub fn linear(request: usize) -> Self {
        Self::from_rates((0..=request.max(1) as u64).map(|w| w * Self::FP).collect())
    }

    /// The request width the curve was built for.
    pub fn request_width(&self) -> usize {
        self.rates.len() - 1
    }

    /// Progress rate (fixed-point work units per µs) at `width` CPUs per
    /// node. Widths beyond the request clamp to the full rate: per the
    /// static-partition cap, CPUs beyond the launch width cannot speed the
    /// job up further.
    // PANIC: the width clamps to the table's last index, never out of bounds.
    pub fn rate(&self, width: usize) -> u64 {
        self.rates[width.min(self.rates.len() - 1)]
    }

    /// The rate at the full request width ([`Self::FP`] for curves built by
    /// `drom_sim::rate`, `request × FP` for [`linear`](Self::linear) ones).
    // PANIC: `from_rates` rejects empty tables.
    pub fn full_rate(&self) -> u64 {
        *self.rates.last().expect("from_rates guarantees non-empty")
    }

    /// Expected duration at `width` CPUs per node of a job declared to take
    /// `duration_us` at full width: `⌈duration × full_rate / rate(width)⌉`.
    /// Rounds **up** for the same reason the linear estimate does — a
    /// truncated estimate promises CPUs an instant before the engine's exact
    /// completion releases them.
    pub fn scaled_duration_us(&self, duration_us: TimeUs, width: usize) -> TimeUs {
        let rate = self.rate(width).max(1);
        let scaled = (duration_us as u128 * self.full_rate() as u128).div_ceil(rate as u128);
        TimeUs::try_from(scaled).unwrap_or(TimeUs::MAX)
    }

    /// Rate carried by the CPU that took the job from `width - 1` to `width`.
    /// 0 at width 0 and beyond the request width (where the table clamps
    /// flat); never negative, by the monotonicity invariant.
    pub fn marginal_rate(&self, width: usize) -> u64 {
        if width == 0 {
            0
        } else {
            self.rate(width) - self.rate(width - 1)
        }
    }

    /// Relative marginal cost (fixed-point) of the CPU that took the job
    /// from `width - 1` to `width`:
    /// `marginal_rate(width) × request_width × FP / full_rate`, normalised
    /// so one CPU of a linear job is worth exactly [`Self::FP`].
    ///
    /// This is the malleable policy's victim-ranking and expansion-targeting
    /// key: "what fraction of a linear CPU's throughput does this CPU
    /// actually carry". The division truncates toward zero on the FP grid —
    /// exact for linear curves (the numerator is a multiple of `full_rate`)
    /// and at worst one FP-grid step (< 1 ppm of a CPU) low for model
    /// curves, far below the gaps the ranking discriminates.
    pub fn relative_marginal_cost(&self, width: usize) -> u64 {
        let num =
            self.marginal_rate(width) as u128 * self.request_width() as u128 * Self::FP as u128;
        (num / self.full_rate() as u128) as u64
    }

    /// Relative rate (fixed-point) at `width`:
    /// `rate(width) × request_width × FP / full_rate`, truncating — exactly
    /// `width × FP` for a linear curve. The gain side of the malleable
    /// policy's shrink-economics comparison, in the same normalised units as
    /// [`relative_marginal_cost`](Self::relative_marginal_cost).
    pub fn relative_rate(&self, width: usize) -> u64 {
        let num = self.rate(width) as u128 * self.request_width() as u128 * Self::FP as u128;
        (num / self.full_rate() as u128) as u64
    }

    /// Length of the zero-marginal tail below `width`, capped at `limit`:
    /// the largest `g ≤ limit` with `rate(width - g) == rate(width)` — CPUs
    /// the job can give up without losing any throughput at all. 0 for a
    /// linear curve.
    pub fn zero_cost_run(&self, width: usize, limit: usize) -> usize {
        let limit = limit.min(width);
        let mut g = 0;
        while g < limit && self.rate(width - g - 1) == self.rate(width) {
            g += 1;
        }
        g
    }

    /// Length of the equal-marginal run below `width`, capped at `limit`:
    /// the largest `g ≤ limit` such that each of the `g` CPUs donated on the
    /// way from `width` down to `width - g` carries the same marginal rate
    /// as the first one. The malleable carve-out shrinks a victim by whole
    /// runs; for a linear curve the run is all of `limit`, which is exactly
    /// the pre-curve chunked-donation behaviour.
    pub fn equal_cost_run(&self, width: usize, limit: usize) -> usize {
        let limit = limit.min(width);
        if limit == 0 {
            return 0;
        }
        let top = self.marginal_rate(width);
        let mut g = 1;
        while g < limit && self.marginal_rate(width - g) == top {
            g += 1;
        }
        g
    }

    /// `true` when the curve is flat from `width` through the request: more
    /// CPUs cannot speed the job up, so expansion must skip it.
    pub fn saturated_at(&self, width: usize) -> bool {
        self.rate(width) == self.full_rate()
    }
}

/// Expected duration of a malleable job granted `width` CPUs per node
/// instead of its full `request`, under the linear-speedup model — the
/// fallback when a job carries no [`SpeedupCurve`] (all estimate sites go
/// through `QueuedJob::scaled_duration_us`, which dispatches). Rounds
/// **up**: truncating here made the estimate optimistic, and an optimistic
/// completion estimate lets the policy place a drain reservation at an
/// instant the shrunk job itself still occupies — a reservation violated by
/// the very job the policy shrank.
pub(super) fn scaled_duration(duration_us: TimeUs, request: usize, width: usize) -> TimeUs {
    duration_us
        .saturating_mul(request as u64)
        .div_ceil(width.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::super::tests::stream_curve;
    use super::*;

    #[test]
    fn speedup_curve_linear_matches_the_linear_fallback_exactly() {
        let curve = SpeedupCurve::linear(4);
        assert_eq!(curve.request_width(), 4);
        assert_eq!(curve.rate(2), 2 * SpeedupCurve::FP);
        assert_eq!(curve.rate(9), curve.full_rate(), "beyond request clamps");
        for d in [1u64, 2, 3, 100, 101, 999_999] {
            for w in 1..=4usize {
                assert_eq!(
                    curve.scaled_duration_us(d, w),
                    scaled_duration(d, 4, w),
                    "linear curve must be byte-identical to no curve (d={d}, w={w})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn speedup_curve_rejects_non_monotone_rates() {
        SpeedupCurve::from_rates(vec![0, SpeedupCurve::FP, SpeedupCurve::FP / 2]);
    }

    /// Edge cases of the marginal-rate helpers: a flat single-entry curve
    /// (request width 1), a zero-marginal STREAM tail, a zero shrink limit
    /// (width already at the floor), and linear exactness.
    #[test]
    fn marginal_rate_helpers_handle_degenerate_curves() {
        // Request width 1: the one CPU carries the whole rate, nothing below
        // it, and the table clamps flat beyond it.
        let single = SpeedupCurve::from_rates(vec![0, SpeedupCurve::FP]);
        assert_eq!(single.marginal_rate(0), 0);
        assert_eq!(single.marginal_rate(1), SpeedupCurve::FP);
        assert_eq!(
            single.marginal_rate(5),
            0,
            "beyond the request the curve is flat"
        );
        assert_eq!(single.relative_marginal_cost(1), SpeedupCurve::FP);
        assert_eq!(single.zero_cost_run(1, 1), 0);
        assert_eq!(single.equal_cost_run(1, 1), 1);
        assert!(single.saturated_at(1));
        assert!(!single.saturated_at(0));

        // Zero-marginal tail: every STREAM CPU past the second is free to
        // donate, and a zero-cost run is in particular an equal-cost run.
        let stream = stream_curve(8);
        assert_eq!(stream.marginal_rate(8), 0);
        assert_eq!(stream.relative_marginal_cost(8), 0);
        assert_eq!(stream.zero_cost_run(8, 6), 6);
        assert_eq!(
            stream.zero_cost_run(8, 3),
            3,
            "the tail is capped by the limit"
        );
        assert_eq!(stream.equal_cost_run(8, 6), 6);
        assert!(stream.saturated_at(2));
        assert!(!stream.saturated_at(1));

        // Width already at the shrink floor (`min_cpus_per_node`): the limit
        // is 0 and both runs are empty — such a slot is never a donor.
        assert_eq!(stream.zero_cost_run(2, 0), 0);
        assert_eq!(stream.equal_cost_run(2, 0), 0);

        // Linear curves are exact on the FP grid at every width: one CPU is
        // always worth exactly FP, and nothing is ever free.
        let linear = SpeedupCurve::linear(4);
        for w in 1..=4usize {
            assert_eq!(linear.relative_marginal_cost(w), SpeedupCurve::FP);
            assert_eq!(linear.relative_rate(w), w as u64 * SpeedupCurve::FP);
            assert_eq!(linear.zero_cost_run(w, w), 0);
            assert_eq!(linear.equal_cost_run(w, w), w);
            assert!(!linear.saturated_at(w) || w == 4);
        }
    }

    /// Fixed-point rounding at a saturation knee: the documented truncation
    /// of `relative_marginal_cost` / `relative_rate`, pinned on a curve
    /// whose full rate (9) does not divide the FP numerator.
    #[test]
    fn marginal_cost_truncates_on_the_fp_grid_at_the_knee() {
        // rates 0, 3, 7, 9 at request width 3: marginals 3, 4, 2.
        let knee = SpeedupCurve::from_rates(vec![0, 3, 7, 9]);
        // Cost of the knee CPU: 2 · 3 · FP / 9 = 699050.666… → 699050.
        assert_eq!(knee.relative_marginal_cost(3), 699_050);
        assert_eq!(knee.relative_marginal_cost(2), 4 * 3 * SpeedupCurve::FP / 9);
        // The request width itself is exact (rate == full_rate cancels).
        assert_eq!(knee.relative_rate(3), 3 * SpeedupCurve::FP);
        // Below it the same truncation applies: 7 · 3 · FP / 9 → 2446677.
        assert_eq!(knee.relative_rate(2), 2_446_677);
        // The knee bounds the equal-cost run: marginal(3) = 2 ≠ marginal(2).
        assert_eq!(knee.equal_cost_run(3, 3), 1);
        assert_eq!(knee.zero_cost_run(3, 3), 0);
    }
}
