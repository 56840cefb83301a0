//! Learned interest-decay amnesia (paper §5).
//!
//! "It is conceivable that modern AI learning techniques can provide
//! hooks to improve the amnesia algorithms." This policy is the smallest
//! such hook: an online learner that predicts *future* interest in a
//! tuple as an exponentially-weighted moving average of its *recent*
//! access increments.
//!
//! The distinction from [`RotPolicy`](super::RotPolicy) matters: rot
//! weighs victims by cumulative lifetime frequency, so a tuple that was
//! hot long ago is protected forever. The decay learner forgets that
//! tuple as soon as the interest stops — its score halves every
//! `ln(2)/alpha`-ish rounds without new hits.

use amnesia_columnar::RowId;
use amnesia_util::SimRng;

use super::{clamp_victims, AmnesiaPolicy, PolicyContext};

/// EWMA-of-interest policy: victims are the rows whose *learned* interest
/// score is lowest (inverse-score weighted sampling), with an
/// anterograde guard protecting rows younger than `protect_age`.
#[derive(Debug, Clone)]
pub struct DecayPolicy {
    alpha: f64,
    protect_age: u64,
    /// Learned interest per physical row.
    score: Vec<f64>,
    /// Cumulative frequency seen at the previous round (to derive the
    /// per-round increment from the table's monotone counters).
    seen_freq: Vec<f64>,
}

impl DecayPolicy {
    /// New learner. `alpha ∈ (0, 1]` is the EWMA smoothing factor (1.0 =
    /// only the latest round counts); rows younger than `protect_age`
    /// batches are exempt while older candidates exist.
    pub fn new(alpha: f64, protect_age: u64) -> Self {
        Self {
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
            protect_age,
            score: Vec::new(),
            seen_freq: Vec::new(),
        }
    }

    /// Defaults used by the RECALL experiment: half-life ≈ 1.3 rounds,
    /// newest batch protected.
    pub fn default_params() -> Self {
        Self::new(0.4, 1)
    }

    /// Learned interest score of a row (test / introspection hook).
    pub fn score(&self, row: RowId) -> f64 {
        self.score.get(row.as_usize()).copied().unwrap_or(0.0)
    }

    /// Fold the newest access increments into the learned scores. Only
    /// active rows learn: a forgotten row is never a candidate again.
    fn learn(&mut self, ctx: &PolicyContext<'_>) {
        let n = ctx.table.num_rows();
        self.score.resize(n, 0.0);
        self.seen_freq.resize(n, 0.0);
        for row in ctx.table.iter_active() {
            let (i, f) = (row.as_usize(), ctx.table.access().frequency(row));
            let delta = (f - self.seen_freq[i]).max(0.0);
            self.score[i] = self.alpha * delta + (1.0 - self.alpha) * self.score[i];
            self.seen_freq[i] = f;
        }
    }
}

impl AmnesiaPolicy for DecayPolicy {
    fn name(&self) -> &'static str {
        "decay"
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyContext<'_>,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<RowId> {
        let n = clamp_victims(ctx, n);
        self.learn(ctx);
        let table = ctx.table;
        let mut epochs = table.insert_epochs().cursor();
        let mut ids: Vec<RowId> = table
            .iter_active()
            .filter(|&r| ctx.epoch.saturating_sub(epochs.get(r)) >= self.protect_age)
            .collect();
        if ids.len() < n {
            // The guard must yield when the budget demands victims.
            ids = table.active_row_ids();
        }
        let weights: Vec<f64> = ids
            .iter()
            .map(|&r| 1.0 / (1.0 + self.score[r.as_usize()]))
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

    /// Touch rows `[lo, hi)` `hits` times at `epoch`.
    fn touch_range(t: &mut amnesia_columnar::Table, lo: u64, hi: u64, hits: usize, epoch: u64) {
        for r in lo..hi {
            for _ in 0..hits {
                t.access_mut().touch(RowId(r), epoch);
            }
        }
    }

    #[test]
    fn recent_interest_protects() {
        let mut t = staged_table(200, 0, 0);
        touch_range(&mut t, 0, 100, 10, 4);
        let ctx = PolicyContext {
            table: &t,
            epoch: 5,
        };
        let mut p = DecayPolicy::new(0.5, 0);
        let mut rng = SimRng::new(51);
        let victims = p.select_victims(&ctx, 80, &mut rng);
        assert_victims_valid(&t, &victims, 80);
        let hot_victims = victims.iter().filter(|v| v.as_usize() < 100).count();
        assert!(hot_victims < 25, "recently-hot victims {hot_victims}");
    }

    #[test]
    fn interest_that_stopped_fades_where_rot_would_protect_forever() {
        let mut t = staged_table(200, 0, 0);
        let mut p = DecayPolicy::new(0.9, 0);
        let mut rng = SimRng::new(52);
        // Round 1: rows 0..100 are hot. The learner sees the spike.
        touch_range(&mut t, 0, 100, 10, 1);
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let _ = p.select_victims(&ctx, 1, &mut rng);
        assert!(p.score(RowId(0)) > 5.0, "spike learned");
        // Rounds 2..6: interest moves to rows 100..200.
        for e in 2..=6u64 {
            touch_range(&mut t, 100, 200, 10, e);
            let ctx = PolicyContext {
                table: &t,
                epoch: e,
            };
            let _ = p.select_victims(&ctx, 1, &mut rng);
        }
        // The stale cohort's score decayed away; the fresh cohort's holds.
        assert!(p.score(RowId(0)) < 0.1, "stale score {}", p.score(RowId(0)));
        assert!(
            p.score(RowId(150)) > 5.0,
            "fresh score {}",
            p.score(RowId(150))
        );
        // Victims now lean clearly toward the formerly-hot cohort —
        // cumulative frequency (what rot uses) is identical for both, so
        // rot could not tell them apart at all.
        let ctx = PolicyContext {
            table: &t,
            epoch: 7,
        };
        let victims = p.select_victims(&ctx, 80, &mut rng);
        let stale_victims = victims.iter().filter(|v| v.as_usize() < 100).count();
        let fresh_victims = victims.len() - stale_victims;
        assert!(
            stale_victims as f64 > 1.2 * fresh_victims as f64,
            "stale {stale_victims} vs fresh {fresh_victims}"
        );
    }

    #[test]
    fn protect_age_guards_the_young() {
        let t = staged_table(100, 100, 1);
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = DecayPolicy::new(0.5, 1);
        let mut rng = SimRng::new(53);
        let victims = p.select_victims(&ctx, 50, &mut rng);
        assert_victims_valid(&t, &victims, 50);
        assert!(
            victims.iter().all(|v| t.insert_epoch(*v) == 0),
            "epoch-1 rows are protected at epoch 1"
        );
    }

    #[test]
    fn guard_relaxes_when_budget_demands() {
        let t = staged_table(10, 100, 1);
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = DecayPolicy::new(0.5, 5);
        let mut rng = SimRng::new(54);
        let victims = p.select_victims(&ctx, 60, &mut rng);
        assert_victims_valid(&t, &victims, 60);
    }

    #[test]
    fn budget_loop_holds() {
        let mut p = DecayPolicy::default_params();
        let mut rng = SimRng::new(55);
        let _ = run_loop(&mut p, 100, 20, 8, &mut rng);
    }

    #[test]
    fn alpha_is_clamped_to_a_sane_range() {
        let p = DecayPolicy::new(7.0, 0);
        assert!(p.alpha <= 1.0);
        let p = DecayPolicy::new(-3.0, 0);
        assert!(p.alpha > 0.0);
    }
}
