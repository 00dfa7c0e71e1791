//! Statistics utilities used across experiments: sample histograms with
//! percentile queries, time-weighted averages of step functions, and time
//! series for timeline plots.

use crate::time::{Duration, Time};

/// A sample reservoir with exact percentile queries.
///
/// Stores every observation; experiments at this scale produce at most a few
/// million samples, so exactness is cheaper than the complexity of a sketch.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation. Non-finite values are ignored.
    pub fn add(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Bulk insert.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp is a total order: even if a non-finite sample ever
            // slipped past `add` (it can't today), the sort cannot panic
            // mid-experiment the way a partial_cmp unwrap would.
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linear interpolation between
    /// order statistics. Returns 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.samples[lo]
        } else {
            let frac = pos - lo as f64;
            self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
        }
    }

    /// Percentile helper: `percentile(99.0)` is the 0.99 quantile.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&mut self) -> f64 {
        self.quantile(0.0)
    }

    /// Largest observation (0 when empty).
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// Bucketizes samples into `n` equal-width bins over `[lo, hi]`,
    /// returning per-bin counts. Out-of-range samples clamp to the edge
    /// bins. Useful for printing distribution figures.
    pub fn bins(&self, lo: f64, hi: f64, n: usize) -> Vec<usize> {
        let mut out = vec![0usize; n.max(1)];
        if self.samples.is_empty() || hi <= lo {
            return out;
        }
        let width = (hi - lo) / n as f64;
        for &x in &self.samples {
            let i = (((x - lo) / width).floor() as isize).clamp(0, n as isize - 1) as usize;
            out[i] += 1;
        }
        out
    }

    /// Read-only view of the raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. KVCache
/// utilization, active-GPU count).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: Time,
    last_v: f64,
    weighted_sum: f64,
    total: Duration,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TimeWeighted {
            last_t: Time::ZERO,
            last_v: 0.0,
            weighted_sum: 0.0,
            total: Duration::ZERO,
            started: false,
        }
    }

    /// Records that the signal takes value `v` starting at instant `t`.
    /// Observations must arrive in non-decreasing time order.
    pub fn record(&mut self, t: Time, v: f64) {
        if self.started {
            let dt = t.since(self.last_t);
            self.weighted_sum += self.last_v * dt.as_secs_f64();
            self.total += dt;
        }
        self.last_t = t;
        self.last_v = v;
        self.started = true;
    }

    /// Closes the signal at instant `t` and returns the time-weighted mean
    /// over the observed span (0 when the span is empty).
    pub fn finish(&mut self, t: Time) -> f64 {
        if self.started {
            self.record(t, self.last_v);
        }
        self.mean()
    }

    /// Appends the accumulator's complete state as a fixed-order word
    /// stream — the delta-checkpoint encoding: the last observation's time
    /// and value, the weighted sum, the observed span, and whether any
    /// observation has arrived.
    pub fn state_words(&self, out: &mut Vec<u64>) {
        out.push(self.last_t.as_nanos());
        out.push(self.last_v.to_bits());
        out.push(self.weighted_sum.to_bits());
        out.push(self.total.as_nanos());
        out.push(self.started as u64);
    }

    /// Time-weighted mean over the span observed so far.
    pub fn mean(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.weighted_sum / secs
        }
    }
}

/// A `(time, value)` series for timeline figures.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point. Points should arrive in non-decreasing time order.
    pub fn push(&mut self, t: Time, v: f64) {
        self.points.push((t, v));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Read-only view of the points.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Averages the series into fixed windows of `width`, from time zero to
    /// the last point. Empty windows carry the previous window's value
    /// forward (step interpolation), starting at 0.
    pub fn window_means(&self, width: Duration) -> Vec<(Time, f64)> {
        if self.points.is_empty() || width.is_zero() {
            return Vec::new();
        }
        let end = self.points.last().expect("non-empty").0;
        let nwin = end.as_nanos() / width.as_nanos() + 1;
        let mut sums = vec![0.0f64; nwin as usize];
        let mut counts = vec![0u64; nwin as usize];
        for &(t, v) in &self.points {
            let w = (t.as_nanos() / width.as_nanos()) as usize;
            sums[w] += v;
            counts[w] += 1;
        }
        let mut out = Vec::with_capacity(nwin as usize);
        let mut last = 0.0;
        for w in 0..nwin as usize {
            if counts[w] > 0 {
                last = sums[w] / counts[w] as f64;
            }
            out.push((Time::from_nanos(w as u64 * width.as_nanos()), last));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        h.extend((1..=100).map(|i| i as f64));
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!((h.percentile(50.0) - 50.5).abs() < 1e-9);
        assert!((h.percentile(99.0) - 99.01).abs() < 0.02);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.bins(0.0, 1.0, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn histogram_single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.add(42.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42.0, "q={q}");
        }
        assert_eq!(h.percentile(99.0), 42.0);
        assert_eq!(h.mean(), 42.0);
        assert_eq!(h.min(), 42.0);
        assert_eq!(h.max(), 42.0);
    }

    #[test]
    fn histogram_p99_interpolates_between_two_samples() {
        let mut h = Histogram::new();
        h.extend([10.0, 20.0]);
        // Linear interpolation between the two order statistics: the 0.99
        // quantile sits 99% of the way from the lower to the upper sample.
        assert!((h.percentile(99.0) - 19.9).abs() < 1e-9);
        assert!((h.percentile(50.0) - 15.0).abs() < 1e-9);
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(100.0), 20.0);
    }

    #[test]
    fn histogram_quantile_clamps_out_of_range_q() {
        let mut h = Histogram::new();
        h.extend([1.0, 2.0, 3.0]);
        assert_eq!(h.quantile(-0.5), 1.0);
        assert_eq!(h.quantile(1.5), 3.0);
        assert_eq!(h.percentile(120.0), 3.0);
    }

    #[test]
    fn histogram_ignores_non_finite_samples() {
        let mut h = Histogram::new();
        h.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 7.0]);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(99.0), 7.0);
    }

    #[test]
    fn histogram_rejects_nan_at_push_time_and_never_panics() {
        // NaN must be filtered on entry: the stored sample set stays
        // NaN-free, so every percentile query is well-defined — and even a
        // hypothetical stray NaN could not panic the total_cmp sort.
        let mut h = Histogram::new();
        h.add(f64::NAN);
        assert!(h.is_empty(), "NaN rejected at push time");
        h.extend([3.0, f64::NAN, 1.0, f64::NAN, 2.0]);
        assert_eq!(h.count(), 3);
        assert!(h.samples().iter().all(|x| x.is_finite()));
        assert_eq!(h.percentile(50.0), 2.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 3.0);
    }

    #[test]
    fn histogram_bins_clamp() {
        let mut h = Histogram::new();
        h.extend([-5.0, 0.5, 1.5, 2.5, 99.0]);
        let bins = h.bins(0.0, 3.0, 3);
        assert_eq!(bins, vec![2, 1, 2]);
    }

    #[test]
    fn time_weighted_mean_of_step_function() {
        let mut tw = TimeWeighted::new();
        tw.record(Time::from_secs(0), 1.0);
        tw.record(Time::from_secs(10), 3.0); // value 1.0 held for 10s
        let mean = tw.finish(Time::from_secs(20)); // value 3.0 held for 10s
        assert!((mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_empty_span() {
        let mut tw = TimeWeighted::new();
        assert_eq!(tw.finish(Time::from_secs(5)), 0.0);
    }

    #[test]
    fn time_series_window_means() {
        let mut ts = TimeSeries::new();
        ts.push(Time::from_secs(0), 2.0);
        ts.push(Time::from_secs(1), 4.0);
        ts.push(Time::from_secs(5), 10.0);
        let w = ts.window_means(Duration::from_secs(2));
        // Window 0 covers t in [0,2): mean of 2,4 = 3. Window 1 empty -> 3.
        // Window 2 covers [4,6): 10.
        assert_eq!(w.len(), 3);
        assert!((w[0].1 - 3.0).abs() < 1e-12);
        assert!((w[1].1 - 3.0).abs() < 1e-12);
        assert!((w[2].1 - 10.0).abs() < 1e-12);
    }
}
