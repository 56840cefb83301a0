//! Deterministic random number generation for the amnesia simulator.
//!
//! All experiments in the paper are Monte-Carlo simulations; to make every
//! figure reproducible bit-for-bit we use a fixed, well-understood generator:
//! [Xoshiro256++](https://prng.di.unimi.it/) whose 256-bit state is expanded
//! from a single `u64` seed with SplitMix64 (the initialization recommended
//! by the Xoshiro authors). The generator is *not* cryptographic and does
//! not need to be.

use serde::{Deserialize, Serialize};

use crate::Bitmap;

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seeding and for cheap stateless hashing (e.g. scrambling zipf
/// ranks into value space).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a `u64` to a well-mixed `u64` (one-shot SplitMix64).
#[inline]
pub fn hash64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// Deterministic simulator RNG: Xoshiro256++ with SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent child generator.
    ///
    /// Useful to give each policy / generator its own stream so that adding
    /// draws in one component does not perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`. Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `i64` in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi as i128 - lo as i128) as u128;
        debug_assert!(span <= u64::MAX as u128);
        lo.wrapping_add(self.below(span as u64) as i64)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (caches the spare deviate).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller: u must be in (0, 1].
        let u = 1.0 - self.f64();
        let v = self.f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Exponential deviate with rate `lambda`.
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0);
        -(1.0 - self.f64()).ln() / lambda
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniformly pick a reference from a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.index(xs.len())])
        }
    }

    /// Sample `k` distinct indices from `0..n`, uniformly at random.
    ///
    /// Uses a partial Fisher–Yates over an index vector when `k` is a large
    /// fraction of `n`, and Floyd's algorithm otherwise. The returned order
    /// is unspecified.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        if k == 0 {
            return Vec::new();
        }
        if k * 3 >= n {
            self.partial_shuffle(n, k)
        } else {
            // Floyd's algorithm: O(k) expected time and memory.
            let mut chosen = std::collections::HashSet::with_capacity(k * 2);
            let mut out = Vec::with_capacity(k);
            for j in (n - k)..n {
                let t = self.index(j + 1);
                let pick = if chosen.insert(t) { t } else { j };
                if pick != t {
                    chosen.insert(pick);
                }
                out.push(pick);
            }
            out
        }
    }

    /// The set [`Self::sample_indices`] draws, as a bitmap of length `n`:
    /// the same draws from the generator, so the same set at every state.
    ///
    /// Floyd's branch tests membership on the bitmap instead of a hash
    /// set, so it allocates an eighth of a byte per index and no list;
    /// the Fisher–Yates branch is the same partial shuffle.
    pub fn sample_set(&mut self, n: usize, k: usize) -> Bitmap {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut set = Bitmap::with_len(n, false);
        if k == 0 {
            return set;
        }
        if k * 3 >= n {
            for i in self.partial_shuffle(n, k) {
                set.set(i, true);
            }
        } else {
            for j in (n - k)..n {
                let t = self.index(j + 1);
                // `j` is new: every earlier pick is at most `j - 1`.
                let pick = if set.get(t) { j } else { t };
                set.set(pick, true);
            }
        }
        set
    }

    /// The first `k` indices of a partial Fisher–Yates shuffle of `0..n`:
    /// O(n) memory but cheap per element.
    fn partial_shuffle(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Weighted sampling of `k` distinct items *without replacement*.
    ///
    /// `weights[i]` is the relative weight of item `i`; items with
    /// non-positive weight are never selected (unless fewer than `k`
    /// positive-weight items exist, in which case only those are returned).
    ///
    /// Implements the Efraimidis–Spirakis A-Res scheme: each item draws key
    /// `u^(1/w)` and the `k` largest keys win. `O(n log k)`.
    pub fn weighted_sample(&mut self, weights: &[f64], k: usize) -> Vec<usize> {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        /// Min-heap entry ordered by key.
        struct Entry {
            key: f64,
            idx: usize,
        }
        impl PartialEq for Entry {
            fn eq(&self, other: &Self) -> bool {
                self.key == other.key
            }
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse for a min-heap on key.
                other.key.partial_cmp(&self.key).unwrap_or(Ordering::Equal)
            }
        }

        if k == 0 {
            return Vec::new();
        }
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k + 1);
        for (idx, &w) in weights.iter().enumerate() {
            // Skip NaN, infinities and non-positive weights.
            if !w.is_finite() || w <= 0.0 {
                continue;
            }
            // key = u^(1/w)  <=>  ln(key) = ln(u)/w ; compare in log space
            // for numerical stability with tiny weights.
            let u = self.f64().max(f64::MIN_POSITIVE);
            let key = u.ln() / w;
            if heap.len() < k {
                heap.push(Entry { key, idx });
            } else if let Some(min) = heap.peek() {
                if key > min.key {
                    heap.pop();
                    heap.push(Entry { key, idx });
                }
            }
        }
        heap.into_iter().map(|e| e.idx).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fork_is_independent() {
        let mut a = SimRng::new(7);
        let mut child = a.fork();
        let x = child.next_u64();
        // Advancing the parent must not change what the child produced.
        let mut a2 = SimRng::new(7);
        let mut child2 = a2.fork();
        assert_eq!(x, child2.next_u64());
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::new(1);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let v = rng.below(10);
            assert!(v < 10);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow generous 10% slack.
            assert!((9_000..=11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_i64_handles_negative_bounds() {
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let v = rng.range_i64(-50, 50);
            assert!((-50..50).contains(&v));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(4);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal(10.0, 3.0);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            sum += rng.exponential(2.0);
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(6);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SimRng::new(7);
        for &(n, k) in &[(100usize, 5usize), (100, 50), (100, 100), (10, 0), (1, 1)] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let mut set = std::collections::HashSet::new();
            for &i in &s {
                assert!(i < n);
                assert!(set.insert(i), "duplicate index {i}");
            }
        }
    }

    /// Both branches (Floyd's below `k = n / 3`, Fisher–Yates from it),
    /// `k = 0` and `k = n`: the same set, and the generator left in the
    /// same state.
    #[test]
    fn sample_set_is_the_set_sample_indices_draws() {
        let mut draws = SimRng::new(11);
        for n in [0usize, 1, 2, 3, 63, 64, 65, 200, 1_000] {
            let mut ks = vec![
                0,
                1,
                n / 3,
                n / 3 + 1,
                n / 2,
                n - n.min(1),
                n,
                n.saturating_sub(1) / 3,
            ];
            ks.retain(|&k| k <= n);
            for k in ks {
                let seed = draws.next_u64();
                let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
                let mut want = a.sample_indices(n, k);
                want.sort_unstable();
                let set = b.sample_set(n, k);
                assert_eq!(set.len(), n);
                let got: Vec<usize> = set.iter_ones().collect();
                assert_eq!(got, want, "n {n} k {k}");
                assert_eq!(a.next_u64(), b.next_u64(), "n {n} k {k}: generator state");
            }
        }
    }

    #[test]
    fn sample_indices_uniformity() {
        let mut rng = SimRng::new(8);
        let mut counts = [0usize; 20];
        for _ in 0..20_000 {
            for i in rng.sample_indices(20, 5) {
                counts[i] += 1;
            }
        }
        // Each index expected 20_000 * 5/20 = 5_000 times.
        for &c in &counts {
            assert!((4_400..=5_600).contains(&c), "count {c}");
        }
    }

    #[test]
    fn weighted_sample_respects_weights() {
        let mut rng = SimRng::new(9);
        // Item 0 has 9x the weight of item 1; sample singles repeatedly.
        let weights = [9.0, 1.0];
        let mut zero = 0usize;
        for _ in 0..20_000 {
            let s = rng.weighted_sample(&weights, 1);
            assert_eq!(s.len(), 1);
            if s[0] == 0 {
                zero += 1;
            }
        }
        let frac = zero as f64 / 20_000.0;
        assert!((frac - 0.9).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn weighted_sample_skips_nonpositive() {
        let mut rng = SimRng::new(10);
        let weights = [0.0, -1.0, 2.0, f64::NAN, 3.0];
        for _ in 0..100 {
            let s = rng.weighted_sample(&weights, 5);
            let mut got = s.clone();
            got.sort_unstable();
            assert_eq!(got, vec![2, 4], "only positive-weight items may win");
        }
    }

    #[test]
    fn weighted_sample_distinct() {
        let mut rng = SimRng::new(11);
        let weights: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let s = rng.weighted_sample(&weights, 20);
        assert_eq!(s.len(), 20);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn hash64_mixes() {
        // Adjacent inputs should produce wildly different outputs.
        let a = hash64(1);
        let b = hash64(2);
        assert_ne!(a, b);
        assert!(((a ^ b).count_ones() as i32 - 32).abs() < 24);
    }
}
