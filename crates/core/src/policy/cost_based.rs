//! Cost-based amnesia (paper §4.4).
//!
//! "After a query has been executed we know both its interest in the
//! database portion and the cost of the relational algebra components. An
//! alternative is giving preference to ditching tuples that cause an
//! explosion in either processing time or intermediate storage
//! requirements."
//!
//! In the simulator's range-query workload, the tuples that blow up
//! intermediate results are those in *over-dense, frequently-hit* value
//! regions: every range query that crosses such a region drags the whole
//! clump into its result set. The policy therefore weighs victims by the
//! local value-space density of their region (raised to `gamma`), scaled
//! by their access frequency — so the store sheds redundant mass from hot
//! dense clumps while rare values, which carry the most information per
//! byte, survive.

use amnesia_columnar::{RowId, Value};
use amnesia_util::SimRng;

use super::{clamp_victims, AmnesiaPolicy, PolicyContext};

/// Density × frequency weighted forgetting.
#[derive(Debug, Clone, Copy)]
pub struct CostBasedPolicy {
    bins: usize,
    gamma: f64,
}

impl CostBasedPolicy {
    /// New policy with `bins` histogram buckets over the active value
    /// range and density exponent `gamma ≥ 0` (0 disables the density
    /// term, leaving pure frequency weighting).
    pub fn new(bins: usize, gamma: f64) -> Self {
        Self {
            bins: bins.max(1),
            gamma: gamma.max(0.0),
        }
    }

    /// Defaults used by the RECALL experiment.
    pub fn default_params() -> Self {
        Self::new(64, 1.0)
    }
}

/// Equi-width histogram over the active values; returns per-row bin
/// counts normalized by the mean bin occupancy.
fn relative_density(values: &[Value], bins: usize) -> Vec<f64> {
    let (lo, hi) = values
        .iter()
        .fold((Value::MAX, Value::MIN), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if values.is_empty() || lo == hi {
        return vec![1.0; values.len()];
    }
    // `v − lo` for `lo <= v`, exact where the i64 difference overflows.
    let above_lo = |v: Value| v.wrapping_sub(lo) as u64 as f64;
    let span = above_lo(hi);
    let bin_of = |v: Value| -> usize {
        ((above_lo(v) / span) * bins as f64)
            .floor()
            .min(bins as f64 - 1.0) as usize
    };
    let mut counts = vec![0usize; bins];
    for &v in values {
        counts[bin_of(v)] += 1;
    }
    let occupied = counts.iter().filter(|&&c| c > 0).count().max(1);
    let mean = values.len() as f64 / occupied as f64;
    values
        .iter()
        .map(|&v| counts[bin_of(v)] as f64 / mean)
        .collect()
}

impl AmnesiaPolicy for CostBasedPolicy {
    fn name(&self) -> &'static str {
        "cost"
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyContext<'_>,
        n: usize,
        rng: &mut SimRng,
    ) -> Vec<RowId> {
        let n = clamp_victims(ctx, n);
        let table = ctx.table;
        let ids: Vec<RowId> = table.active_row_ids();
        let values: Vec<Value> = ids.iter().map(|&r| table.value(0, r)).collect();
        let density = relative_density(&values, self.bins);
        let weights: Vec<f64> = ids
            .iter()
            .zip(&density)
            .map(|(&r, &d)| {
                let freq = table.access().frequency(r);
                d.powf(self.gamma) * (1.0 + freq)
            })
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
    use amnesia_columnar::{Schema, Table};

    /// Table with `clump` rows at one value and `spread` rows fanned out.
    fn clumped_table(clump: usize, spread: usize) -> Table {
        let mut t = Table::new(Schema::single("a"));
        let mut vals = vec![500i64; clump];
        vals.extend((0..spread as i64).map(|i| i * 97));
        t.insert_batch(&vals, 0).unwrap();
        t
    }

    #[test]
    fn dense_clumps_are_shed_first() {
        let t = clumped_table(900, 100);
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = CostBasedPolicy::new(64, 1.5);
        let mut rng = SimRng::new(61);
        let victims = p.select_victims(&ctx, 200, &mut rng);
        assert_victims_valid(&t, &victims, 200);
        let clump_victims = victims.iter().filter(|v| v.as_usize() < 900).count();
        // Clump density ≫ spread density: nearly all victims from the clump.
        assert!(clump_victims > 180, "clump victims {clump_victims}");
    }

    #[test]
    fn rare_values_survive() {
        let t = clumped_table(990, 10);
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = CostBasedPolicy::default_params();
        let mut rng = SimRng::new(62);
        // Forget half the table; the 10 rare values should mostly remain.
        let victims = p.select_victims(&ctx, 500, &mut rng);
        let rare_victims = victims.iter().filter(|v| v.as_usize() >= 990).count();
        assert!(rare_victims <= 3, "rare victims {rare_victims}");
    }

    #[test]
    fn gamma_zero_reduces_to_frequency_weighting() {
        let mut t = clumped_table(500, 500);
        // Make the *spread* rows hot: with gamma=0 density is ignored, so
        // the hot spread rows become the likelier victims.
        for r in 500..1000u64 {
            for _ in 0..20 {
                t.access_mut().touch(RowId(r), 1);
            }
        }
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = CostBasedPolicy::new(64, 0.0);
        let mut rng = SimRng::new(63);
        let victims = p.select_victims(&ctx, 200, &mut rng);
        let hot_victims = victims.iter().filter(|v| v.as_usize() >= 500).count();
        assert!(hot_victims > 150, "hot victims {hot_victims}");
    }

    #[test]
    fn constant_column_degenerates_to_uniform() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&vec![7i64; 300], 0).unwrap();
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = CostBasedPolicy::default_params();
        let mut rng = SimRng::new(64);
        let victims = p.select_victims(&ctx, 100, &mut rng);
        assert_victims_valid(&t, &victims, 100);
    }

    #[test]
    fn budget_loop_holds() {
        let mut p = CostBasedPolicy::default_params();
        let mut rng = SimRng::new(65);
        let _ = run_loop(&mut p, 100, 20, 8, &mut rng);
    }

    #[test]
    fn the_i64_edges_bin_without_overflow() {
        let d = relative_density(&[i64::MIN, 0, 0, i64::MAX], 2);
        assert_eq!(d, [0.5, 1.5, 1.5, 1.5]);
    }

    #[test]
    fn relative_density_flags_the_clump() {
        let mut values = vec![10i64; 90];
        values.extend([1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 9999]);
        let d = relative_density(&values, 10);
        assert!(d[0] > d[95], "clump {} vs spread {}", d[0], d[95]);
        // Uniform data: all densities near 1.
        let uniform: Vec<i64> = (0..1000).collect();
        let du = relative_density(&uniform, 10);
        assert!(du.iter().all(|&x| (x - 1.0).abs() < 0.2));
    }
}
