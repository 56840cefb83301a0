//! LRU amnesia: least-recently-*used* tuples are forgotten first.
//!
//! Paper §3.1 introduces FIFO through the buffer-management analogy
//! ("much like a FIFO strategy works for buffer management"); LRU is the
//! canonical next step on that axis and separates *recency of use* from
//! rot's *frequency of use* (§3.2). A tuple's recency is the later of its
//! insertion epoch and its last access epoch, so fresh data is not
//! instantly evicted just because no query touched it yet.

use amnesia_columnar::RowId;
use amnesia_util::SimRng;

use super::{clamp_victims, AmnesiaPolicy, PolicyContext};

/// Least-recently-used forgetting (deterministic: oldest recency first,
/// ties broken by insertion order).
#[derive(Debug, Clone, Copy, Default)]
pub struct LruPolicy;

impl AmnesiaPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyContext<'_>,
        n: usize,
        _rng: &mut SimRng,
    ) -> Vec<RowId> {
        let n = clamp_victims(ctx, n);
        let table = ctx.table;
        let mut epochs = table.insert_epochs().cursor();
        let mut by_recency: Vec<(u64, RowId)> = table
            .iter_active()
            .map(|r| {
                let recency = epochs.get(r).max(table.access().last_access(r));
                (recency, r)
            })
            .collect();
        // Stable ordering: recency ascending, then insertion order (RowId).
        by_recency.sort_unstable();
        by_recency.truncate(n);
        by_recency.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testkit::*;

    #[test]
    fn recently_used_rows_survive() {
        let mut t = staged_table(100, 0, 0);
        // Touch rows 50..100 recently (epoch 5).
        for r in 50..100u64 {
            t.access_mut().touch(RowId(r), 5);
        }
        let ctx = PolicyContext {
            table: &t,
            epoch: 6,
        };
        let mut p = LruPolicy;
        let mut rng = SimRng::new(60);
        let victims = p.select_victims(&ctx, 50, &mut rng);
        assert_victims_valid(&t, &victims, 50);
        assert!(
            victims.iter().all(|v| v.as_usize() < 50),
            "only untouched rows may be evicted"
        );
    }

    #[test]
    fn insertion_counts_as_use() {
        // Epoch-2 rows were never queried but are newer than epoch-0 rows
        // that were queried at epoch 1: the epoch-0 rows are still more
        // recent (accessed at 1 < inserted at 2 — wait, 1 < 2), so the
        // *old queried* rows go first.
        let mut t = staged_table(10, 10, 2); // epochs 0,1,2
        for r in 0..10u64 {
            t.access_mut().touch(RowId(r), 1); // old rows used at epoch 1
        }
        let ctx = PolicyContext {
            table: &t,
            epoch: 3,
        };
        let mut p = LruPolicy;
        let mut rng = SimRng::new(61);
        let victims = p.select_victims(&ctx, 10, &mut rng);
        assert_victims_valid(&t, &victims, 10);
        // recency: epoch0 rows = 1, epoch1 rows = 1, epoch2 rows = 2.
        // Ties broken by insertion order → epoch0 rows evicted first.
        assert!(victims.iter().all(|v| t.insert_epoch(*v) == 0));
    }

    #[test]
    fn degenerates_to_fifo_without_accesses() {
        let t = staged_table(30, 10, 2);
        let ctx = PolicyContext {
            table: &t,
            epoch: 3,
        };
        let mut p = LruPolicy;
        let mut rng = SimRng::new(62);
        let victims = p.select_victims(&ctx, 5, &mut rng);
        let expected: Vec<RowId> = (0..5).map(RowId).collect();
        assert_eq!(victims, expected, "no accesses ⇒ insertion order");
    }

    #[test]
    fn budget_loop_holds() {
        let mut p = LruPolicy;
        let mut rng = SimRng::new(63);
        let _ = run_loop(&mut p, 80, 20, 6, &mut rng);
    }
}
