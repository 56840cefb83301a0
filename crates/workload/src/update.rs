//! Insert-batch generation.
//!
//! The paper's environment is query-dominant: "a batch of queries is
//! followed by a batch of updates, immediately followed by applying an
//! amnesia algorithm" (§2.3). Updates are inserts of fresh tuples; the
//! batch size is `upd_perc × DBSIZE` (Figures 1–3 use 0.20 and 0.80).

use amnesia_distrib::{DataDistribution, DistributionKind};
use amnesia_util::SimRng;

use crate::query::Value;

/// Draws insert batches from a data distribution.
pub struct UpdateGenerator {
    dist: Box<dyn DataDistribution>,
}

impl UpdateGenerator {
    /// Wrap a live distribution.
    pub fn new(dist: Box<dyn DataDistribution>) -> Self {
        Self { dist }
    }

    /// Build from a recipe.
    pub fn from_kind(kind: &DistributionKind, domain: i64, seed: u64) -> Self {
        Self::new(kind.build(domain, seed))
    }

    /// Inform the distribution that a new update batch begins (drifting
    /// distributions move here).
    pub fn on_epoch(&mut self, epoch: u64) {
        self.dist.on_epoch(epoch);
    }

    /// Generate one insert batch of `n` values.
    pub fn batch(&mut self, n: usize, rng: &mut SimRng) -> Vec<Value> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.dist.sample(rng));
        }
        out
    }
}

/// Batch size for an update fraction: `round(upd_perc × dbsize)`, at
/// least 1 when the fraction is positive.
pub fn batch_size(dbsize: usize, upd_perc: f64) -> usize {
    if upd_perc <= 0.0 {
        return 0;
    }
    ((dbsize as f64 * upd_perc).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_has_requested_size() {
        let mut g = UpdateGenerator::from_kind(&DistributionKind::Uniform, 100, 1);
        let mut rng = SimRng::new(40);
        assert_eq!(g.batch(0, &mut rng).len(), 0);
        assert_eq!(g.batch(17, &mut rng).len(), 17);
    }

    #[test]
    fn serial_batches_continue_across_calls() {
        let mut g = UpdateGenerator::from_kind(&DistributionKind::Serial, 100, 1);
        let mut rng = SimRng::new(41);
        let b1 = g.batch(5, &mut rng);
        let b2 = g.batch(5, &mut rng);
        assert_eq!(b1, vec![0, 1, 2, 3, 4]);
        assert_eq!(b2, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn batch_size_math() {
        assert_eq!(batch_size(1000, 0.20), 200);
        assert_eq!(batch_size(1000, 0.80), 800);
        assert_eq!(batch_size(1000, 0.0), 0);
        assert_eq!(batch_size(1000, -1.0), 0);
        assert_eq!(batch_size(3, 0.001), 1, "positive fraction floors at 1");
    }

    #[test]
    fn drift_advances_through_on_epoch() {
        let kind = DistributionKind::Drift {
            base: Box::new(DistributionKind::Uniform),
            shift_per_epoch: 1000,
        };
        let mut g = UpdateGenerator::from_kind(&kind, 10, 1);
        let mut rng = SimRng::new(42);
        let before = g.batch(10, &mut rng);
        assert!(before.iter().all(|&v| v <= 10));
        g.on_epoch(2);
        let after = g.batch(10, &mut rng);
        assert!(after.iter().all(|&v| (2000..=2010).contains(&v)));
    }
}
