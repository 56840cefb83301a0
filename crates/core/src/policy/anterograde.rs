//! Anterograde amnesia (§3.1): new memories don't stick.
//!
//! "In anterograde amnesia, one can not accumulate new memories easily. We
//! implement this kind of amnesia by choosing randomly mostly recently
//! added tuples to be forgotten. This strategy prioritizes historical
//! data, and a new piece of information is only remembered if it appears
//! too often."
//!
//! Victims are drawn *without replacement* with weight `(epoch + 1)^bias`:
//! recent tuples carry the highest weight, the initial load (epoch 0) the
//! lowest. Two forces shape the retention map of Figure 1: recent batches
//! are hit hardest *per round*, but old update batches have been exposed
//! to more rounds — so the initial data survives, the oldest updates form
//! the deepest "black hole", and the newest updates are only partially
//! forgotten ("if we were to continue the update batches, the black hole
//! would increase to include more recent updates").

use amnesia_columnar::RowId;
use amnesia_util::SimRng;

use super::{active_rows, clamp_victims, AmnesiaPolicy, PolicyContext};

/// Recency-weighted random forgetting.
#[derive(Debug, Clone, Copy)]
pub struct AnterogradePolicy {
    bias: f64,
}

impl AnterogradePolicy {
    /// `bias` ≥ 0 is the exponent on `epoch + 1`; 0 degenerates to
    /// uniform.
    pub fn new(bias: f64) -> Self {
        assert!(bias >= 0.0, "bias must be non-negative");
        Self { bias }
    }
}

impl AmnesiaPolicy for AnterogradePolicy {
    fn name(&self) -> &'static str {
        "ante"
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyContext<'_>,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<RowId> {
        let n = clamp_victims(ctx, n);
        let ids = active_rows(ctx);
        let mut epochs = ctx.table.insert_epochs().cursor();
        let weights: Vec<f64> = ids
            .iter()
            .map(|&r| ((epochs.get(r) + 1) as f64).powf(self.bias))
            .collect();
        rng.weighted_sample(&weights, n)
            .into_iter()
            .map(|i| ids[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::*;

    #[test]
    fn initial_load_is_retained() {
        let mut p = AnterogradePolicy::new(3.0);
        let mut rng = SimRng::new(6);
        let t = run_loop(&mut p, 500, 100, 10, &mut rng);
        let retention = retention_by_epoch(&t, 10);
        assert!(
            retention[0] > 0.8,
            "epoch 0 should be mostly retained, got {}",
            retention[0]
        );
        // Updates are largely forgotten.
        for (e, &r) in retention.iter().enumerate().take(10).skip(1) {
            assert!(r < 0.5, "update epoch {e} retention {r} too high");
        }
    }

    #[test]
    fn black_hole_starts_at_the_oldest_updates() {
        let mut p = AnterogradePolicy::new(3.0);
        let mut rng = SimRng::new(7);
        let t = run_loop(&mut p, 1000, 200, 10, &mut rng);
        let retention = retention_by_epoch(&t, 10);
        // More exposure rounds dominate: old updates darker than new ones.
        let old_updates = (retention[1] + retention[2] + retention[3]) / 3.0;
        let new_updates = (retention[8] + retention[9] + retention[10]) / 3.0;
        assert!(
            new_updates > old_updates,
            "new {new_updates} should exceed old {old_updates}"
        );
    }

    #[test]
    fn zero_bias_degenerates_to_uniform_like_behaviour() {
        let mut p = AnterogradePolicy::new(0.0);
        let mut rng = SimRng::new(8);
        let t = run_loop(&mut p, 500, 100, 5, &mut rng);
        let retention = retention_by_epoch(&t, 5);
        // Epoch 0 is NOT specially protected anymore.
        assert!(retention[0] < 0.9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bias_rejected() {
        AnterogradePolicy::new(-1.0);
    }
}
