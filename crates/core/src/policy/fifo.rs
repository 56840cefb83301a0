//! FIFO amnesia (§3.1): the oldest active tuples are forgotten first.
//!
//! "This creates a time-line over which a sliding buffer of size DBSIZE
//! defines the active tuples … Streaming database applications are good
//! examples for this kind of amnesia." The canonical *retrograde* policy.

use amnesia_columnar::RowId;
use amnesia_util::SimRng;

use super::{clamp_victims, AmnesiaPolicy, PolicyContext};

/// Sliding-window forgetting: victims are the oldest active rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPolicy;

impl AmnesiaPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyContext<'_>,
        n: usize,
        _rng: &mut SimRng,
    ) -> Vec<RowId> {
        let n = clamp_victims(ctx, n);
        // Row ids are insertion-ordered, so the first n active rows are
        // exactly the n oldest.
        let mut victims = Vec::with_capacity(n);
        victims.extend(ctx.table.iter_active().take(n));
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::*;

    #[test]
    fn takes_oldest_active() {
        let mut t = staged_table(5, 5, 1); // rows 0-4 epoch 0, rows 5-9 epoch 1
        t.forget(RowId(0), 1).unwrap(); // row 0 already gone
        let ctx = PolicyContext {
            table: &t,
            epoch: 1,
        };
        let mut p = FifoPolicy;
        let mut rng = SimRng::new(1);
        let victims = p.select_victims(&ctx, 3, &mut rng);
        assert_eq!(victims, vec![RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn window_survivors_are_the_most_recent() {
        let mut p = FifoPolicy;
        let mut rng = SimRng::new(2);
        // 100 initial, 20 per batch, 10 batches: window should hold the
        // last 100 inserted rows.
        let t = run_loop(&mut p, 100, 20, 10, &mut rng);
        let total = t.num_rows();
        let survivors: Vec<usize> = t.iter_active().map(|r| r.as_usize()).collect();
        let expected: Vec<usize> = (total - 100..total).collect();
        assert_eq!(survivors, expected);
    }

    #[test]
    fn retention_is_a_step_function() {
        let mut p = FifoPolicy;
        let mut rng = SimRng::new(3);
        let t = run_loop(&mut p, 100, 20, 10, &mut rng);
        let retention = retention_by_epoch(&t, 10);
        // 100 survivors = epochs 7..=10 fully active (20 each = 80) plus
        // 20 from epoch 6; everything older fully forgotten.
        assert!(retention[0] < 1e-9);
        assert!(retention[3] < 1e-9);
        assert!((retention[10] - 1.0).abs() < 1e-9);
        assert!((retention[8] - 1.0).abs() < 1e-9);
    }
}
