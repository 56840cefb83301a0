//! Uniform amnesia (§3.1): victims drawn uniformly from the active set.
//!
//! "After each update batch we uniformly select tuples to be removed. This
//! approach is similar to the reservoir sampling technique [19]. At any
//! round of amnesia, a tuple has the same probability to be forgotten, but
//! older tuples have been a candidate to be forgotten multiple times." The
//! easy-to-understand baseline.
//!
//! The victims are drawn as *ranks* among the active rows: a set of `n`
//! of the `active_rows()` ranks, packed one bit per rank
//! (`SimRng::sample_set`, the same draws as `sample_indices`), and the
//! table turns ranks into rows in one pass over its activity words,
//! depositing each word's slice of the rank bits into its set bits
//! (`ActivityMap::select_ranks`). No list of the active rows is built, and the
//! victims come out ascending, so a batch's log record and apply path see
//! runs rather than scattered rows.

use amnesia_columnar::RowId;
use amnesia_util::SimRng;

use super::{clamp_victims, AmnesiaPolicy, PolicyContext};

/// Uniform random forgetting.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformPolicy;

impl AmnesiaPolicy for UniformPolicy {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyContext<'_>,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<RowId> {
        let n = clamp_victims(ctx, n);
        let ranks = rng.sample_set(ctx.table.active_rows(), n);
        ctx.table.activity().select_ranks(&ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::*;

    #[test]
    fn older_epochs_retain_less() {
        let mut p = UniformPolicy;
        let mut rng = SimRng::new(4);
        let t = run_loop(&mut p, 500, 100, 10, &mut rng);
        let retention = retention_by_epoch(&t, 10);
        // The newest batch had 1 exposure, epoch 1 had 10: retention must
        // increase (statistically) toward recent epochs.
        assert!(
            retention[10] > retention[1] + 0.1,
            "recent {} vs old {}",
            retention[10],
            retention[1]
        );
        // Uniform never zeroes out an epoch as fast as FIFO does.
        assert!(retention[0] > 0.0);
    }

    #[test]
    fn single_round_is_unbiased_across_positions() {
        // Forget 50% once; each half of the table should lose ~half.
        let mut rng = SimRng::new(5);
        let mut front = 0usize;
        for _ in 0..200 {
            let t = staged_table(100, 0, 0);
            let ctx = PolicyContext {
                table: &t,
                epoch: 1,
            };
            let mut p = UniformPolicy;
            let victims = p.select_victims(&ctx, 50, &mut rng);
            front += victims.iter().filter(|v| v.as_usize() < 50).count();
        }
        let frac = front as f64 / (200.0 * 50.0);
        assert!((frac - 0.5).abs() < 0.03, "front fraction {frac}");
    }
}
