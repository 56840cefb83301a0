//! Equi-width histograms and distribution distances.
//!
//! The distribution-aligned amnesia policy (paper §4.4: "we attempt to
//! forget tuples that do not change the data distribution for all active
//! records") needs to compare the value distribution of the *active* set
//! against the distribution of *everything ever ingested*. Histograms with
//! total-variation / χ² / Kolmogorov–Smirnov distances provide that.

use serde::{Deserialize, Serialize};

/// Bins one [`Histogram::add_mass`] call can overlap without allocating.
const STACK_BINS: usize = 64;

/// `hi − lo` for `lo <= hi`, exact over the whole i64 domain, where the
/// i64 difference overflows.
fn gap(lo: i64, hi: i64) -> u64 {
    hi.wrapping_sub(lo) as u64
}

/// Fixed-range equi-width histogram over `[lo, hi]` with `bins` buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: i64,
    hi: i64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// New histogram over the inclusive value range `[lo, hi]`.
    ///
    /// Panics if `lo > hi` or `bins == 0`.
    pub fn new(lo: i64, hi: i64, bins: usize) -> Self {
        assert!(lo <= hi, "invalid range {lo}..={hi}");
        assert!(bins > 0, "need at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Bin index for a value (values outside the range clamp to the edges).
    pub fn bin_of(&self, v: i64) -> usize {
        let v = v.clamp(self.lo, self.hi);
        ((gap(self.lo, v) as f64 / self.bin_width()) as usize).min(self.counts.len() - 1)
    }

    /// Record one observation.
    pub fn add(&mut self, v: i64) {
        self.add_n(v, 1);
    }

    /// Record `n` observations of the same value (a sampled value
    /// standing in for the rows it represents).
    pub fn add_n(&mut self, v: i64, n: u64) {
        let b = self.bin_of(v);
        self.counts[b] += n;
        self.total += n;
    }

    /// The inclusive value range `[lo, hi]` this histogram covers.
    pub fn range(&self) -> (i64, i64) {
        (self.lo, self.hi)
    }

    /// Width of one bin in value space.
    fn bin_width(&self) -> f64 {
        // `gap + 1` overflows u64 only for the whole i64 domain: 2^64 values.
        let values = gap(self.lo, self.hi)
            .checked_add(1)
            .map_or(18_446_744_073_709_551_616.0, |n| n as f64);
        values / self.counts.len() as f64
    }

    /// Spread `mass` observations uniformly over the inclusive value
    /// range `[lo, hi]`, split across the overlapped bins proportionally
    /// to overlap width (largest-remainder rounding, so the histogram
    /// total grows by exactly `mass`). This is the pseudo-histogram
    /// primitive for block-level statistics: a frozen block's cached
    /// `BlockMeta` gives min/max and an active count but no per-value
    /// detail, so its mass is modelled as uniform over `[min, max]`.
    /// Ranges outside the histogram domain clamp to the edge bins.
    ///
    /// Allocation-free up to 64 overlapped bins (a column summary calls
    /// this once per frozen block); wider histograms, which only the
    /// policies build, fall back to the heap.
    pub fn add_mass(&mut self, lo: i64, hi: i64, mass: u64) {
        if mass == 0 || lo > hi {
            return;
        }
        let lo_c = lo.clamp(self.lo, self.hi);
        let hi_c = hi.clamp(self.lo, self.hi);
        let (b0, b1) = (self.bin_of(lo_c), self.bin_of(hi_c));
        self.total += mass;
        if b0 == b1 {
            self.counts[b0] += mass;
            return;
        }
        let span = gap(lo_c, hi_c) as f64 + 1.0;
        let width = self.bin_width();
        let n = b1 - b0 + 1;
        // The fractional remainders in bin order, and a scratch copy of
        // them for the selection below.
        let mut stack = [0.0f64; 2 * STACK_BINS];
        let mut heap;
        let buf: &mut [f64] = if n <= STACK_BINS {
            &mut stack[..2 * n]
        } else {
            heap = vec![0.0f64; 2 * n];
            &mut heap
        };
        let (fracs, scratch) = buf.split_at_mut(n);
        let mut assigned = 0u64;
        for (i, frac) in fracs.iter_mut().enumerate() {
            let bin_lo = self.lo as f64 + (b0 + i) as f64 * width;
            let ov = ((bin_lo + width).min(hi_c as f64 + 1.0) - bin_lo.max(lo_c as f64)).max(0.0);
            let share = mass as f64 * ov / span;
            let whole = share.floor() as u64;
            self.counts[b0 + i] += whole;
            assigned += whole;
            *frac = share - share.floor();
        }
        // Largest remainders soak up the rounding shortfall, the lower
        // bin winning a tie: every remainder above the `short`-th largest
        // takes one, then the first bins that equal it.
        let short = mass.saturating_sub(assigned).min(n as u64) as usize;
        if short == 0 {
            return;
        }
        scratch.copy_from_slice(fracs);
        let (_, &mut cut, _) = scratch.select_nth_unstable_by(short - 1, |a, b| b.total_cmp(a));
        let mut ties = short - fracs.iter().filter(|&&f| f > cut).count();
        for (i, &f) in fracs.iter().enumerate() {
            if f > cut {
                self.counts[b0 + i] += 1;
            } else if f == cut && ties > 0 {
                self.counts[b0 + i] += 1;
                ties -= 1;
            }
        }
    }

    /// Estimated number of observations falling in the inclusive value
    /// range `[lo, hi]`, assuming mass is uniform *within* each bin
    /// (partial bins contribute their overlap fraction). The selectivity
    /// estimator reads predicates through this.
    pub fn estimate_range(&self, lo: i64, hi: i64) -> f64 {
        if lo > hi || self.total == 0 {
            return 0.0;
        }
        let lo_c = lo.max(self.lo);
        let hi_c = hi.min(self.hi);
        if lo_c > hi_c {
            return 0.0;
        }
        let width = self.bin_width();
        let (b0, b1) = (self.bin_of(lo_c), self.bin_of(hi_c));
        let mut est = 0.0;
        for b in b0..=b1 {
            let bin_lo = self.lo as f64 + b as f64 * width;
            let ov = ((bin_lo + width).min(hi_c as f64 + 1.0) - bin_lo.max(lo_c as f64)).max(0.0);
            est += self.counts[b] as f64 * ov / width;
        }
        est
    }

    /// Remove one observation previously added (saturating at zero).
    pub fn remove(&mut self, v: i64) {
        let b = self.bin_of(v);
        if self.counts[b] > 0 {
            self.counts[b] -= 1;
            self.total -= 1;
        }
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count in a specific bin.
    pub fn count_in_bin(&self, b: usize) -> u64 {
        self.counts[b]
    }

    /// Normalized bucket probabilities (all zero if empty).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram range mismatch");
        assert_eq!(self.hi, other.hi, "histogram range mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Total-variation distance `½ Σ |p_i − q_i|` in `[0, 1]`.
    pub fn total_variation(&self, other: &Histogram) -> f64 {
        let p = self.probabilities();
        let q = other.probabilities();
        assert_eq!(p.len(), q.len(), "bin count mismatch");
        0.5 * p.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum::<f64>()
    }

    /// Pearson χ² statistic of `self` against expected frequencies from
    /// `other` (bins where `other` is empty are skipped).
    pub fn chi_squared(&self, other: &Histogram) -> f64 {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        if self.total == 0 || other.total == 0 {
            return 0.0;
        }
        let mut stat = 0.0;
        for (&o, &e_count) in self.counts.iter().zip(&other.counts) {
            if e_count == 0 {
                continue;
            }
            let expected = e_count as f64 / other.total as f64 * self.total as f64;
            let diff = o as f64 - expected;
            stat += diff * diff / expected;
        }
        stat
    }

    /// Kolmogorov–Smirnov statistic: max CDF gap, in `[0, 1]`.
    pub fn ks_statistic(&self, other: &Histogram) -> f64 {
        let p = self.probabilities();
        let q = other.probabilities();
        assert_eq!(p.len(), q.len(), "bin count mismatch");
        let mut cp = 0.0;
        let mut cq = 0.0;
        let mut max_gap: f64 = 0.0;
        for (a, b) in p.iter().zip(&q) {
            cp += a;
            cq += b;
            max_gap = max_gap.max((cp - cq).abs());
        }
        max_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[i64]) -> Histogram {
        let mut h = Histogram::new(0, 99, 10);
        for &v in values {
            h.add(v);
        }
        h
    }

    #[test]
    fn bin_assignment_covers_range() {
        let h = Histogram::new(0, 99, 10);
        assert_eq!(h.bin_of(0), 0);
        assert_eq!(h.bin_of(9), 0);
        assert_eq!(h.bin_of(10), 1);
        assert_eq!(h.bin_of(99), 9);
        // Clamped:
        assert_eq!(h.bin_of(-5), 0);
        assert_eq!(h.bin_of(1000), 9);
    }

    #[test]
    fn the_whole_i64_domain_bins_without_overflow() {
        let mut h = Histogram::new(i64::MIN, i64::MAX, 4);
        assert_eq!(h.bin_of(i64::MIN), 0);
        assert_eq!(h.bin_of(-(1 << 61)), 1);
        assert_eq!(h.bin_of(1 << 61), 2);
        assert_eq!(h.bin_of(i64::MAX), 3);
        h.add_mass(i64::MIN, i64::MAX, 8);
        assert_eq!(
            (0..4).map(|b| h.count_in_bin(b)).collect::<Vec<_>>(),
            [2; 4]
        );
        let half = h.estimate_range(0, i64::MAX);
        assert!((half - 4.0).abs() < 1e-9, "{half}");
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut h = Histogram::new(0, 99, 10);
        h.add(42);
        h.add(42);
        assert_eq!(h.total(), 2);
        h.remove(42);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count_in_bin(4), 1);
        // Removing from an empty bin saturates.
        h.remove(99);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn identical_distributions_have_zero_distance() {
        let a = filled(&[1, 11, 21, 31, 41, 51, 61, 71, 81, 91]);
        let b = filled(&[2, 12, 22, 32, 42, 52, 62, 72, 82, 92]);
        assert!(a.total_variation(&b) < 1e-12);
        assert!(a.ks_statistic(&b) < 1e-12);
        assert!(a.chi_squared(&b) < 1e-12);
    }

    #[test]
    fn disjoint_distributions_have_max_tv() {
        let a = filled(&[1, 2, 3, 4]); // all in bin 0
        let b = filled(&[95, 96, 97, 98]); // all in bin 9
        assert!((a.total_variation(&b) - 1.0).abs() < 1e-12);
        assert!((a.ks_statistic(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tv_is_symmetric_and_bounded() {
        let a = filled(&[1, 15, 30, 77]);
        let b = filled(&[5, 5, 5, 88, 99]);
        let d1 = a.total_variation(&b);
        let d2 = b.total_variation(&a);
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = filled(&[1, 2, 3]);
        let b = filled(&[95, 96]);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.count_in_bin(0), 3);
        assert_eq!(a.count_in_bin(9), 2);
    }

    #[test]
    fn empty_histograms_are_benign() {
        let a = Histogram::new(0, 9, 5);
        let b = Histogram::new(0, 9, 5);
        assert_eq!(a.total_variation(&b), 0.0);
        assert_eq!(a.chi_squared(&b), 0.0);
        assert_eq!(a.probabilities(), vec![0.0; 5]);
    }

    #[test]
    fn add_mass_conserves_total_and_spreads() {
        let mut h = Histogram::new(0, 99, 10);
        h.add_mass(0, 99, 1000);
        assert_eq!(h.total(), 1000);
        assert_eq!(h.counts().iter().sum::<u64>(), 1000);
        // Uniform over the whole domain: every bin gets 100.
        assert!(h.counts().iter().all(|&c| c == 100), "{:?}", h.counts());
        // A single-point range lands in one bin.
        let mut p = Histogram::new(0, 99, 10);
        p.add_mass(42, 42, 7);
        assert_eq!(p.count_in_bin(4), 7);
        // Partial overlap splits proportionally: [5, 14] covers half of
        // bin 0 and half of bin 1.
        let mut q = Histogram::new(0, 99, 10);
        q.add_mass(5, 14, 10);
        assert_eq!(q.count_in_bin(0), 5);
        assert_eq!(q.count_in_bin(1), 5);
        // Out-of-domain ranges clamp to the edge bins.
        let mut e = Histogram::new(0, 99, 10);
        e.add_mass(-50, -10, 3);
        assert_eq!(e.count_in_bin(0), 3);
        e.add_mass(0, -1, 9); // empty range is a no-op
        assert_eq!(e.total(), 3);
    }

    #[test]
    fn estimate_range_interpolates_within_bins() {
        let mut h = Histogram::new(0, 99, 10);
        h.add_mass(0, 99, 1000);
        // Whole domain: everything.
        assert!((h.estimate_range(0, 99) - 1000.0).abs() < 1e-6);
        // Half of one bin.
        let est = h.estimate_range(0, 4);
        assert!((est - 50.0).abs() < 1.0, "got {est}");
        // Outside the domain: nothing.
        assert_eq!(h.estimate_range(200, 300), 0.0);
        assert_eq!(h.estimate_range(10, 5), 0.0);
        assert_eq!(Histogram::new(0, 9, 2).estimate_range(0, 9), 0.0);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn mismatched_bins_panic() {
        let a = Histogram::new(0, 9, 5);
        let b = Histogram::new(0, 9, 6);
        let _ = a.total_variation(&b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `add_mass` as it was before it stopped allocating: collect every
    /// overlapped bin's remainder, stable-sort descending, hand the
    /// shortfall to the leaders. The reference the live body must match
    /// count for count.
    fn add_mass_reference(h: &mut Histogram, lo: i64, hi: i64, mass: u64) {
        if mass == 0 || lo > hi {
            return;
        }
        let lo_c = lo.clamp(h.lo, h.hi);
        let hi_c = hi.clamp(h.lo, h.hi);
        let (b0, b1) = (h.bin_of(lo_c), h.bin_of(hi_c));
        h.total += mass;
        if b0 == b1 {
            h.counts[b0] += mass;
            return;
        }
        let span = gap(lo_c, hi_c) as f64 + 1.0;
        let width = h.bin_width();
        let mut shares: Vec<(usize, f64)> = Vec::with_capacity(b1 - b0 + 1);
        let mut assigned = 0u64;
        for b in b0..=b1 {
            let bin_lo = h.lo as f64 + b as f64 * width;
            let ov = ((bin_lo + width).min(hi_c as f64 + 1.0) - bin_lo.max(lo_c as f64)).max(0.0);
            let share = mass as f64 * ov / span;
            let whole = share.floor() as u64;
            h.counts[b] += whole;
            assigned += whole;
            shares.push((b, share - share.floor()));
        }
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for &(b, _) in shares.iter().take((mass.saturating_sub(assigned)) as usize) {
            h.counts[b] += 1;
        }
    }

    proptest! {
        /// Same counts as the sorting reference over random geometries
        /// and masses: narrow and wide domains, 1..=200 bins (past the
        /// stack buffer), ranges that stick out of the domain on either
        /// side, lie wholly outside it, or fall inside one bin.
        #[test]
        fn add_mass_matches_the_sorting_reference(
            dom_lo in -1_000i64..1_000,
            dom_span in 0i64..100_000,
            bins in 1usize..200,
            masses in proptest::collection::vec((-150_000i64..150_000, 0i64..120_000, 0u64..5_000), 1..40),
        ) {
            let mut live = Histogram::new(dom_lo, dom_lo + dom_span, bins);
            let mut reference = live.clone();
            for &(lo, len, mass) in &masses {
                // A third of the ranges are single points.
                let hi = if mass % 3 == 0 { lo } else { lo + len };
                live.add_mass(lo, hi, mass);
                add_mass_reference(&mut reference, lo, hi, mass);
                prop_assert_eq!(&live, &reference, "after add_mass({}, {}, {})", lo, hi, mass);
            }
            prop_assert_eq!(live.counts().iter().sum::<u64>(), live.total());
        }

        #[test]
        fn total_matches_adds(values in proptest::collection::vec(-200i64..400, 0..300)) {
            let mut h = Histogram::new(0, 199, 16);
            for &v in &values {
                h.add(v);
            }
            prop_assert_eq!(h.total(), values.len() as u64);
            prop_assert_eq!(h.counts().iter().sum::<u64>(), values.len() as u64);
        }

        #[test]
        fn tv_triangle_inequality(
            xs in proptest::collection::vec(0i64..100, 1..100),
            ys in proptest::collection::vec(0i64..100, 1..100),
            zs in proptest::collection::vec(0i64..100, 1..100),
        ) {
            let mk = |vals: &[i64]| {
                let mut h = Histogram::new(0, 99, 10);
                for &v in vals { h.add(v); }
                h
            };
            let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));
            let ab = a.total_variation(&b);
            let bc = b.total_variation(&c);
            let ac = a.total_variation(&c);
            prop_assert!(ac <= ab + bc + 1e-9);
        }
    }
}
