//! Order statistics for the benchmark's samples.

/// Median (mean of the two middle values for an even count). `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Samples a percentile must leave *beyond* it before it is reported: a
/// p99 of 100 samples is one sample, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `p` among `n` samples (1-based).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Do `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`?
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && p > 0.0 && p < 100.0 && n - rank(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile (`p` in `(0, 100)`): the smallest sample with at
/// least `p` % of the samples at or below it. No support check — see
/// [`percentile`].
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// [`nearest_rank`], refused (`None`) when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    supports(samples.len(), p)
        .then(|| nearest_rank(samples, p))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        // Rank rounds up: p = 89.5 of 100 samples is the 90th sample.
        assert_eq!(percentile(&v, 89.5), Some(90.0));
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None, "1 sample beyond");
        assert_eq!(percentile(&v, 91.0), None, "9 samples beyond");
        assert_eq!(percentile(&v, 90.0), Some(90.0), "10 samples beyond");
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 0.0), None);
        assert_eq!(percentile(&v, 100.0), None);
    }
}
