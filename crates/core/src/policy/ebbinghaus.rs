//! Human-forgetting-curve amnesia (paper §5).
//!
//! "Recent studies [6, 2] use neurological inspired models of the human
//! short term memory system to assess the recall precision in the context
//! of forgetting data. The results show that amnesia algorithms based on
//! 'human forgetting inspired heuristics' can be an effective tool for
//! shrinking and managing the database."
//!
//! This policy realizes the classic Ebbinghaus model: memory retention
//! decays as `R = exp(−t / S)` where `t` is the time since the last
//! rehearsal and `S` is the memory strength. Every rehearsal — here, a
//! tuple appearing in a query result — raises `S`, flattening the curve.
//! A tuple's probability of being chosen as a victim is its *lapse*
//! probability `1 − R`.

use amnesia_columnar::RowId;
use amnesia_util::SimRng;

use super::{clamp_victims, AmnesiaPolicy, PolicyContext};

/// Forgetting-curve policy: victims are drawn with probability
/// proportional to their memory-lapse probability `1 − exp(−t/S)`.
#[derive(Debug, Clone, Copy)]
pub struct EbbinghausPolicy {
    base_strength: f64,
    rehearsal_boost: f64,
}

impl EbbinghausPolicy {
    /// New policy.
    ///
    /// `base_strength` is the strength `S₀` (in batches) of a never-
    /// rehearsed memory: after `S₀` batches without access, retention has
    /// dropped to `1/e ≈ 37 %`. `rehearsal_boost` is the per-access
    /// strength increment: `S = S₀ · (1 + boost · frequency)`.
    pub fn new(base_strength: f64, rehearsal_boost: f64) -> Self {
        Self {
            base_strength: base_strength.max(f64::MIN_POSITIVE),
            rehearsal_boost: rehearsal_boost.max(0.0),
        }
    }

    /// The paper-era defaults used by the RECALL experiment: strength one
    /// batch, each rehearsal adds one batch-equivalent of strength.
    pub fn default_params() -> Self {
        Self::new(1.0, 1.0)
    }

    /// Retention `R = exp(−age / S)` for a tuple `age` batches past its
    /// last rehearsal with cumulative access `frequency`.
    pub fn retention(&self, age: f64, frequency: f64) -> f64 {
        let strength = self.base_strength * (1.0 + self.rehearsal_boost * frequency);
        (-age.max(0.0) / strength).exp()
    }

    /// Lapse probability `1 − R`, floored so fresh tables still produce a
    /// valid weighting.
    pub fn lapse(&self, age: f64, frequency: f64) -> f64 {
        (1.0 - self.retention(age, frequency)).max(1e-12)
    }
}

impl AmnesiaPolicy for EbbinghausPolicy {
    fn name(&self) -> &'static str {
        "ebbinghaus"
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
        let mut epochs = table.insert_epochs().cursor();
        let weights: Vec<f64> = ids
            .iter()
            .map(|&r| {
                // A rehearsal resets the clock; an untouched tuple's clock
                // starts at insertion.
                let last = table.access().last_access(r).max(epochs.get(r));
                let age = ctx.epoch.saturating_sub(last) as f64;
                self.lapse(age, table.access().frequency(r))
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

    #[test]
    fn retention_decays_with_age_and_grows_with_rehearsal() {
        let p = EbbinghausPolicy::new(2.0, 1.0);
        // Monotone decreasing in age.
        assert!(p.retention(0.0, 0.0) > p.retention(1.0, 0.0));
        assert!(p.retention(1.0, 0.0) > p.retention(5.0, 0.0));
        // Monotone increasing in rehearsal count at fixed age.
        assert!(p.retention(3.0, 10.0) > p.retention(3.0, 1.0));
        assert!(p.retention(3.0, 1.0) > p.retention(3.0, 0.0));
        // R(0) = 1 regardless of strength.
        assert!((p.retention(0.0, 7.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rehearsed_rows_survive() {
        let mut t = staged_table(200, 0, 0);
        // Rows 0..100 rehearsed heavily at epoch 4; the rest untouched.
        for r in 0..100u64 {
            for _ in 0..20 {
                t.access_mut().touch(RowId(r), 4);
            }
        }
        let ctx = PolicyContext {
            table: &t,
            epoch: 5,
        };
        let mut p = EbbinghausPolicy::default_params();
        let mut rng = SimRng::new(41);
        let victims = p.select_victims(&ctx, 80, &mut rng);
        assert_victims_valid(&t, &victims, 80);
        let rehearsed = victims.iter().filter(|v| v.as_usize() < 100).count();
        // Rehearsed rows: age 1, strength 21 → lapse ≈ 0.047.
        // Untouched rows: age 5, strength 1 → lapse ≈ 0.993.
        assert!(rehearsed < 20, "rehearsed victims {rehearsed}");
    }

    #[test]
    fn stale_memories_lapse_before_fresh_ones() {
        // Two cohorts, no accesses at all: age alone drives the curve.
        let t = staged_table(100, 100, 1); // epoch 0 and epoch 1
        let ctx = PolicyContext {
            table: &t,
            epoch: 6,
        };
        let mut p = EbbinghausPolicy::default_params();
        let mut rng = SimRng::new(42);
        let mut old_victims = 0;
        let rounds = 50;
        for _ in 0..rounds {
            let victims = p.select_victims(&ctx, 40, &mut rng);
            old_victims += victims.iter().filter(|v| t.insert_epoch(**v) == 0).count();
        }
        let frac = old_victims as f64 / (rounds * 40) as f64;
        // lapse(6) ≈ 0.9975 vs lapse(5) ≈ 0.9933: a slight bias only —
        // deep ages saturate, like human memory.
        assert!(frac > 0.5, "older cohort fraction {frac}");
    }

    #[test]
    fn saturation_means_old_cohorts_look_alike() {
        let p = EbbinghausPolicy::new(1.0, 1.0);
        let a = p.lapse(20.0, 0.0);
        let b = p.lapse(40.0, 0.0);
        assert!((a - b).abs() < 1e-6, "deep past is uniformly foggy");
    }

    #[test]
    fn budget_loop_holds() {
        let mut p = EbbinghausPolicy::default_params();
        let mut rng = SimRng::new(43);
        let _ = run_loop(&mut p, 100, 20, 8, &mut rng);
    }

    #[test]
    fn over_request_returns_all_active() {
        let t = staged_table(10, 0, 0);
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = EbbinghausPolicy::default_params();
        let mut rng = SimRng::new(44);
        let victims = p.select_victims(&ctx, 50, &mut rng);
        assert_victims_valid(&t, &victims, 10);
    }
}
