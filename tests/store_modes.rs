//! Forget-mode semantics of [`AmnesiacStore`] under a shared randomized
//! workload: each mode's storage/answer trade-off must hold for any
//! insert/forget interleaving.

use std::sync::{Arc, Mutex};

use amnesia::columnar::{ColdStore, MemoryColdStore};
use amnesia::core::store::TierConfig;
use amnesia::prelude::*;
use proptest::prelude::*;

/// Drive a store through a fixed-budget amnesia loop under uniform
/// forgetting; returns the ledger of everything inserted.
fn drive(
    store: &mut AmnesiacStore,
    dbsize: usize,
    per_batch: usize,
    batches: u64,
    seed: u64,
) -> Vec<i64> {
    drive_with(
        store,
        &PolicyKind::Uniform,
        dbsize,
        per_batch,
        batches,
        seed,
        0,
    )
}

/// [`drive`] under any policy, naming up to `repeats` of each batch's
/// victims twice inside the batch and one of them once more in a call of
/// its own: forgetting a forgotten row is a no-op, whatever the mode
/// emits.
fn drive_with(
    store: &mut AmnesiacStore,
    policy: &PolicyKind,
    dbsize: usize,
    per_batch: usize,
    batches: u64,
    seed: u64,
    repeats: usize,
) -> Vec<i64> {
    let mut rng = SimRng::new(seed);
    let mut policy = policy.build();
    let mut ledger = Vec::new();

    let initial: Vec<i64> = (0..dbsize as i64).map(|i| i * 3).collect();
    ledger.extend_from_slice(&initial);
    store.insert_batch(&initial, 0).unwrap();

    let mut next = dbsize as i64;
    for b in 1..=batches {
        let fresh: Vec<i64> = (0..per_batch as i64).map(|i| (next + i) * 3).collect();
        next += per_batch as i64;
        ledger.extend_from_slice(&fresh);
        store.insert_batch(&fresh, b).unwrap();
        let need = store.table().active_rows().saturating_sub(dbsize);
        let mut victims = {
            let ctx = PolicyContext {
                table: store.table(),
                epoch: b,
            };
            policy.select_victims(&ctx, need, &mut rng)
        };
        victims.extend_from_within(..repeats.min(victims.len()));
        store.forget_batch(&victims, b).unwrap();
        if let Some(&again) = victims.first().filter(|_| repeats > 0) {
            store.forget(again, b).unwrap();
        }
        store.end_batch().unwrap();
    }
    ledger
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delete_mode_leaves_no_forgotten_payloads(
        dbsize in 20usize..80,
        per_batch in 5usize..40,
        batches in 1u64..6,
        seed in any::<u64>(),
    ) {
        let mut store = AmnesiacStore::new(ForgetMode::Delete);
        drive(&mut store, dbsize, per_batch, batches, seed);
        let fp = store.footprint();
        prop_assert_eq!(fp.hot_rows, fp.active_rows, "vacuum must be complete");
        prop_assert_eq!(fp.active_rows, dbsize);
    }

    #[test]
    fn tier_mode_archives_every_forgotten_tuple(
        dbsize in 20usize..80,
        per_batch in 5usize..40,
        batches in 1u64..6,
        seed in any::<u64>(),
        repeats in 0usize..4,
    ) {
        let mut store = AmnesiacStore::new(ForgetMode::Tier)
            .with_cold_store(Box::new(MemoryColdStore::new()));
        drive_with(&mut store, &PolicyKind::Uniform, dbsize, per_batch, batches, seed, repeats);
        let fp = store.footprint();
        prop_assert_eq!(fp.cold_rows as u64, store.total_forgotten());
        prop_assert_eq!(fp.cold_bytes, 8 * fp.cold_rows as u64, "one value archived per row, once");
        // Every archived tuple is recoverable with its exact payload.
        let table = store.table();
        let forgotten: Vec<RowId> = (0..table.num_rows())
            .map(RowId::from)
            .filter(|&r| !table.activity().is_active(r))
            .collect();
        let expected: Vec<i64> = forgotten.iter().map(|&r| table.value(0, r)).collect();
        for (r, expect) in forgotten.into_iter().zip(expected) {
            let got = store.recover_from_cold(r).unwrap();
            prop_assert_eq!(got, Some(vec![expect]));
        }
    }

    #[test]
    fn summarize_mode_keeps_whole_table_aggregates_exact(
        dbsize in 20usize..80,
        per_batch in 5usize..40,
        batches in 1u64..6,
        seed in any::<u64>(),
        repeats in 0usize..4,
    ) {
        // Model totals are exact too; its histogram only adds ranged estimates.
        for mode in [ForgetMode::Summarize, ForgetMode::Model { bins: 16 }] {
            let mut store = AmnesiacStore::new(mode);
            let ledger =
                drive_with(&mut store, &PolicyKind::Uniform, dbsize, per_batch, batches, seed, repeats);
            let exact_avg = ledger.iter().map(|&v| v as f64).sum::<f64>() / ledger.len() as f64;
            let got = store
                .query(&Query::Aggregate { kind: AggKind::Avg, predicate: None })
                .output
                .agg()
                .unwrap()
                .unwrap();
            prop_assert!((got - exact_avg).abs() < 1e-6, "{mode:?}: avg {got} vs {exact_avg}");
            let count = store
                .query(&Query::Aggregate { kind: AggKind::Count, predicate: None })
                .output
                .agg()
                .unwrap()
                .unwrap();
            prop_assert_eq!(count as usize, ledger.len(), "{:?}", mode);
        }
    }

    #[test]
    fn deindex_mode_keeps_range_scans_complete(
        dbsize in 20usize..80,
        per_batch in 5usize..40,
        batches in 1u64..6,
        seed in any::<u64>(),
        lo_frac in 0.0f64..0.9,
    ) {
        let mut store = AmnesiacStore::new(ForgetMode::Deindex);
        let ledger = drive(&mut store, dbsize, per_batch, batches, seed);
        let max = *ledger.iter().max().unwrap();
        let lo = (lo_frac * max as f64) as i64;
        let pred = RangePredicate::new(lo, lo + max / 5 + 1);
        let truth = ledger.iter().filter(|&&v| pred.matches(v)).count();
        let got = store.query(&Query::Range(pred)).output.cardinality();
        prop_assert_eq!(got, truth, "complete scan must fetch all data");
    }

    #[test]
    fn mark_only_mode_returns_active_subset(
        dbsize in 20usize..80,
        per_batch in 5usize..40,
        batches in 1u64..6,
        seed in any::<u64>(),
    ) {
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly);
        let ledger = drive(&mut store, dbsize, per_batch, batches, seed);
        let max = *ledger.iter().max().unwrap();
        let pred = RangePredicate::new(0, max + 1);
        let got = store.query(&Query::Range(pred)).output.cardinality();
        prop_assert_eq!(got, dbsize, "active-only answer is exactly the budget");
    }
}

/// A durable, tiered store held at `dbsize` rows and driven until
/// `history` rows have been inserted; returns resident bytes per active
/// row.
fn resident_bytes_per_row(policy: &PolicyKind, dbsize: usize, history: usize, tag: &str) -> f64 {
    let dir = std::env::temp_dir().join(format!("amn-flat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (table, log) = PersistentTable::create(&dir, Schema::single("a"))
        .unwrap()
        .into_parts();
    let mut store = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
        .with_durability(Box::new(log))
        .with_tiering(TierConfig::default());
    let per_batch = dbsize / 20;
    let batches = ((history - dbsize) / per_batch) as u64;
    drive_with(&mut store, policy, dbsize, per_batch, batches, 7, 0);
    let snap = store.metrics_snapshot();
    assert_eq!((snap.total_rows, snap.active_rows), (history, dbsize));
    std::fs::remove_dir_all(&dir).ok();
    snap.resident_bytes as f64 / snap.active_rows as f64
}

/// The paper holds storage at `DBSIZE`; so must the store, however long
/// it has been running. Under FIFO every block older than the window is
/// dropped, and what a dropped block leaves behind — its bits of the
/// active bitmap, a block header, a death run — is under half a byte per
/// row of the window for every further `DBSIZE` of history.
#[test]
fn fifo_resident_bytes_per_row_are_flat_in_history() {
    let dbsize = 50_000;
    let at = |history: usize, tag| resident_bytes_per_row(&PolicyKind::Fifo, dbsize, history, tag);
    let (short, long) = (
        at(dbsize * 3 / 2, "fifo-short"),
        at(dbsize * 3, "fifo-long"),
    );
    let per_dbsize_of_history = (long - short) / 1.5;
    assert!(
        per_dbsize_of_history < 0.5,
        "{short:.3} B/row at 1.5x DBSIZE of history, {long:.3} at 3x: \
         +{per_dbsize_of_history:.3} B/row per DBSIZE"
    );
    assert!(long < 4.0, "{long:.3} B/row for one compressible column");
}

/// Uniform forgetting is the other extreme: no block ever dies, so every
/// block keeps its payload and a page of death epochs (8 B per row ever
/// inserted) — and nothing else per row.
#[test]
fn uniform_forgetting_keeps_one_death_page_per_block_and_nothing_else() {
    let dbsize = 50_000;
    let per_row = resident_bytes_per_row(&PolicyKind::Uniform, dbsize, dbsize * 37 / 20, "uniform");
    assert!(
        per_row <= 24.0,
        "{per_row:.3} B/row at 1.85x DBSIZE of history"
    );
}

/// A cold store that records the order rows reach it.
#[derive(Default)]
struct ArchiveOrder {
    rows: Arc<Mutex<Vec<RowId>>>,
    values: MemoryColdStore,
}

impl ColdStore for ArchiveOrder {
    fn archive(&mut self, row: RowId, values: &[i64]) -> Result<()> {
        self.rows.lock().unwrap().push(row);
        self.values.archive(row, values)
    }
    fn fetch(&mut self, row: RowId) -> Result<Option<Vec<i64>>> {
        self.values.fetch(row)
    }
    fn contains(&self, row: RowId) -> bool {
        self.values.contains(row)
    }
    fn len(&self) -> usize {
        self.values.len()
    }
    fn bytes_used(&self) -> u64 {
        self.values.bytes_used()
    }
    fn name(&self) -> &'static str {
        "archive-order"
    }
}

/// `forget_batch` applies a batch as runs and emits each row it takes
/// from active to forgotten once, in batch order: a repeat inside the
/// batch, or a row an earlier batch forgot, emits nothing. Tier mode shows
/// the order (its cold store records it), MarkOnly the count, Summarize
/// the count and the values (whole-table aggregates stay exact). Durable,
/// the live table equals the table recovered from its directory.
#[test]
fn forget_batch_emits_once_per_newly_forgotten_row_in_batch_order() {
    let rows = |ids: &[u64]| ids.iter().map(|&r| RowId(r)).collect::<Vec<_>>();
    let earlier = rows(&[5, 3, 2_500]);
    // Unsorted, adjacent, repeated, across the frozen block 0 | block 1
    // boundary and into the open hot block.
    let batch = rows(&[
        70, 4, 5, 6, 4, 1_023, 1_024, 1_025, 3, 2_050, 2_049, 2_999, 2_500, 1_023, 7,
    ]);
    let mut want = earlier.clone();
    for &r in &batch {
        if !want.contains(&r) {
            want.push(r);
        }
    }
    let values: Vec<i64> = (0..3_000).map(|v| v * 3).collect();
    for mode in [
        ForgetMode::MarkOnly,
        ForgetMode::Tier,
        ForgetMode::Summarize,
    ] {
        for durable in [false, true] {
            let ctx = format!("{mode:?}, durable {durable}");
            let dir = std::env::temp_dir().join(format!(
                "amn-emit-order-{}-{}-{durable}",
                std::process::id(),
                mode.name()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = if durable {
                let (table, log) = PersistentTable::create(&dir, Schema::single("a"))
                    .unwrap()
                    .into_parts();
                AmnesiacStore::from_table(table, mode).with_durability(Box::new(log))
            } else {
                AmnesiacStore::new(mode)
            };
            let order = ArchiveOrder::default();
            let archived = Arc::clone(&order.rows);
            if mode == ForgetMode::Tier {
                store = store.with_cold_store(Box::new(order));
            }
            store.insert_batch(&values, 0).unwrap();
            if mode != ForgetMode::Summarize {
                // Freeze block 0 (Summarize would compact instead).
                store = store.with_tiering(TierConfig {
                    hot_rows: 1_500,
                    recompress_below: 0.0,
                });
                store.end_batch().unwrap();
                assert_eq!(store.table().frozen_blocks(), 1, "{ctx}");
            }
            store.forget_batch(&earlier, 1).unwrap();
            store.forget_batch(&batch, 2).unwrap();
            assert_eq!(store.total_forgotten(), want.len() as u64, "{ctx}");
            assert_eq!(store.table().forgotten_rows(), want.len(), "{ctx}");
            match mode {
                ForgetMode::Tier => assert_eq!(*archived.lock().unwrap(), want, "{ctx}"),
                ForgetMode::Summarize => {
                    let whole = |kind| {
                        let q = Query::Aggregate {
                            kind,
                            predicate: None,
                        };
                        store.query(&q).output.agg().unwrap().unwrap()
                    };
                    assert_eq!(whole(AggKind::Count), 3_000.0, "{ctx}");
                    assert_eq!(whole(AggKind::Sum), 3.0 * 2_999.0 * 1_500.0, "{ctx}");
                }
                _ => {}
            }
            if durable {
                let live = store.table().clone();
                drop(store);
                let recovered = PersistentTable::open(&dir).unwrap();
                let back = recovered.table();
                assert_eq!(back.activity_words(), live.activity_words(), "{ctx}");
                assert_eq!(back.frozen_blocks(), live.frozen_blocks(), "{ctx}");
                for r in 0..live.num_rows() {
                    let r = RowId::from(r);
                    let died = back.activity().died_at(r);
                    assert_eq!(died, live.activity().died_at(r), "{ctx} row {r}");
                }
                let tier = live.col_tier(0);
                for b in 0..tier.full_blocks() {
                    let got = back.col_tier(0).meta(b).active;
                    assert_eq!(got, tier.meta(b).active, "{ctx} block {b}");
                }
                drop(recovered);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}
