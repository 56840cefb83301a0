//! Query-based rot (§3.2): rarely-used data rots first.
//!
//! "A tuple that appears often in a query result might be considered more
//! important and should not be forgotten easily … tuples are forgotten
//! with probability analogous to their frequency. Care should be taken not
//! to drop most recently added tuples … we use a high water mark approach,
//! where tuples are forgotten when they are not frequently accessed but
//! also been part of the database long enough."

use amnesia_columnar::RowId;
use amnesia_util::SimRng;

use super::{clamp_victims, AmnesiaPolicy, PolicyContext};

/// Inverse-frequency forgetting with a minimum-age high-water mark.
#[derive(Debug, Clone, Copy)]
pub struct RotPolicy {
    high_water_age: u64,
}

impl RotPolicy {
    /// Rows younger than `high_water_age` batches are protected.
    pub fn new(high_water_age: u64) -> Self {
        Self { high_water_age }
    }
}

impl AmnesiaPolicy for RotPolicy {
    fn name(&self) -> &'static str {
        "rot"
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyContext<'_>,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<RowId> {
        let n = clamp_victims(ctx, n);
        let table = ctx.table;
        // Candidates: active rows old enough to rot.
        let mut epochs = table.insert_epochs().cursor();
        let mut ids: Vec<RowId> = table
            .iter_active()
            .filter(|&r| ctx.epoch.saturating_sub(epochs.get(r)) >= self.high_water_age)
            .collect();
        if ids.len() < n {
            // Not enough aged rows: the budget still must hold, so the
            // high-water mark relaxes to the whole active set.
            ids = table.active_row_ids();
        }
        let weights: Vec<f64> = ids
            .iter()
            .map(|&r| 1.0 / (1.0 + table.access().frequency(r)))
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
    fn hot_rows_survive_cold_rows_rot() {
        let mut t = staged_table(200, 0, 0);
        // Rows 0..100 are "hot": heavily accessed.
        for r in 0..100u64 {
            for _ in 0..50 {
                t.access_mut().touch(RowId(r), 1);
            }
        }
        let ctx = PolicyContext {
            table: &t,
            epoch: 5,
        };
        let mut p = RotPolicy::new(1);
        let mut rng = SimRng::new(9);
        let victims = p.select_victims(&ctx, 100, &mut rng);
        assert_victims_valid(&t, &victims, 100);
        let hot_victims = victims.iter().filter(|v| v.as_usize() < 100).count();
        // Hot rows have weight 1/51 vs 1 for cold: nearly all victims cold.
        assert!(hot_victims < 15, "hot victims {hot_victims}");
    }

    #[test]
    fn high_water_mark_protects_the_young() {
        let t = staged_table(100, 100, 1); // epoch 0 old, epoch 1 fresh
                                           // At epoch 2, epoch-0 rows have age 2 (rot-eligible) while
                                           // epoch-1 rows have age 1 < 2: protected.
        let ctx = PolicyContext {
            table: &t,
            epoch: 2,
        };
        let mut p = RotPolicy::new(2);
        let mut rng = SimRng::new(10);
        let victims = p.select_victims(&ctx, 50, &mut rng);
        assert_victims_valid(&t, &victims, 50);
        assert!(
            victims.iter().all(|v| t.insert_epoch(*v) == 0),
            "only aged rows may rot"
        );
    }

    #[test]
    fn high_water_mark_relaxes_when_budget_demands() {
        let t = staged_table(10, 100, 1);
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = RotPolicy::new(5); // nothing is old enough
        let mut rng = SimRng::new(11);
        let victims = p.select_victims(&ctx, 50, &mut rng);
        // Must still deliver the budget.
        assert_victims_valid(&t, &victims, 50);
    }

    #[test]
    fn budget_loop_holds() {
        let mut p = RotPolicy::new(1);
        let mut rng = SimRng::new(12);
        let _ = run_loop(&mut p, 100, 20, 8, &mut rng);
    }
}
