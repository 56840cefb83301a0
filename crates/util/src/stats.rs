//! Numeric helpers: running moments, compensated summation, quantiles.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
///
/// Numerically stable for long simulation runs; mergeable so per-thread
/// accumulators can be combined by the sweep driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Kahan compensated summation: keeps O(1) error over long accumulations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// Fresh accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a value.
    pub fn add(&mut self, x: f64) {
        let y = x - self.compensation;
        let t = self.sum + y;
        self.compensation = (t - self.sum) - y;
        self.sum = t;
    }

    /// Current sum.
    pub fn value(&self) -> f64 {
        self.sum
    }
}

/// Min/max tracker over a stream of `i64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinMax {
    min: i64,
    max: i64,
    seen: bool,
}

impl MinMax {
    /// Empty tracker.
    pub fn new() -> Self {
        Self {
            min: i64::MAX,
            max: i64::MIN,
            seen: false,
        }
    }

    /// Observe a value.
    pub fn push(&mut self, x: i64) {
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.seen = true;
    }

    /// True if at least one value was observed.
    pub fn is_seen(&self) -> bool {
        self.seen
    }

    /// Minimum observed value, if any.
    pub fn min(&self) -> Option<i64> {
        self.seen.then_some(self.min)
    }

    /// Maximum observed value, if any.
    pub fn max(&self) -> Option<i64> {
        self.seen.then_some(self.max)
    }

    /// Merge another tracker.
    pub fn merge(&mut self, other: &MinMax) {
        if other.seen {
            self.push(other.min);
            self.push(other.max);
        }
    }
}

impl Default for MinMax {
    fn default() -> Self {
        Self::new()
    }
}

/// Compute the given quantiles (each in `[0,1]`) of `values`.
///
/// Sorts a copy; uses the nearest-rank method. Returns an empty vector when
/// `values` is empty.
pub fn quantiles(values: &[f64], qs: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    qs.iter()
        .map(|&q| {
            let q = q.clamp(0.0, 1.0);
            let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
            sorted[idx]
        })
        .collect()
}

/// Relative error `|approx - exact| / |exact|`, with the convention that the
/// error is 0 when both are 0 and 1 when only `exact` is 0.
pub fn relative_error(approx: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        if approx == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (approx - exact).abs() / exact.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..400] {
            a.push(x);
        }
        for &x in &xs[400..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn kahan_beats_naive_on_adversarial_input() {
        let mut k = KahanSum::new();
        k.add(1.0);
        for _ in 0..10_000_000 {
            k.add(1e-16);
        }
        // Naive summation would lose all the tiny increments.
        assert!((k.value() - (1.0 + 1e-9)).abs() < 1e-12);
    }

    #[test]
    fn minmax_tracks() {
        let mut mm = MinMax::new();
        assert!(!mm.is_seen());
        assert_eq!(mm.min(), None);
        for x in [5, -3, 10, 0] {
            mm.push(x);
        }
        assert_eq!(mm.min(), Some(-3));
        assert_eq!(mm.max(), Some(10));
        let mut other = MinMax::new();
        other.push(-100);
        mm.merge(&other);
        assert_eq!(mm.min(), Some(-100));
    }

    #[test]
    fn quantiles_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let qs = quantiles(&values, &[0.0, 0.5, 1.0]);
        assert_eq!(qs, vec![1.0, 51.0, 100.0]);
        assert!(quantiles(&[], &[0.5]).is_empty());
    }

    #[test]
    fn relative_error_conventions() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(1.0, 0.0), 1.0);
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(9.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(-9.0, -10.0) - 0.1).abs() < 1e-12);
    }
}
