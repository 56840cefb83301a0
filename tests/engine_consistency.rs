//! Engine consistency: every physical layout must return the same answer,
//! and the executor must agree with a naive reference evaluation.

use amnesia::engine::{kernels, Aux, CostModel, Executor, ForgetVisibility};
use amnesia::prelude::*;
use proptest::prelude::*;

/// Small tier blocks, so a few hundred rows span several of them.
const BLOCK_ROWS: usize = 64;

fn build(values: &[i64], forget: &[usize]) -> Table {
    let mut t = Table::with_block_rows(Schema::single("a"), BLOCK_ROWS);
    t.insert_batch(values, 0).unwrap();
    for &f in forget {
        if !values.is_empty() {
            let _ = t.forget(RowId((f % values.len()) as u64), 1);
        }
    }
    t
}

/// Reference implementation: naive loop over all rows.
fn reference_range(t: &Table, pred: RangePredicate, include_forgotten: bool) -> Vec<RowId> {
    (0..t.num_rows())
        .map(RowId::from)
        .filter(|&r| include_forgotten || t.activity().is_active(r))
        .filter(|&r| pred.matches(t.value(0, r)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_plans_agree_on_active_results(
        values in proptest::collection::vec(0i64..2000, 1..400),
        forget in proptest::collection::vec(0usize..1000, 0..100),
        lo in 0i64..2000,
        width in 1i64..500,
    ) {
        let t = build(&values, &forget);
        let pred = RangePredicate::new(lo, lo + width);

        let reference = reference_range(&t, pred, false);

        // Kernel: full active scan.
        let scan = kernels::range_scan_active(&t, 0, pred);
        prop_assert_eq!(&scan, &reference);

        // Same table frozen: block-meta pruned, codec-fused scan.
        let mut frozen = t.clone();
        frozen.freeze_upto(values.len());
        let (pruned, _) = kernels::range_scan_tiered(&frozen, 0, pred);
        prop_assert_eq!(&pruned, &reference);

        // Count-only kernel agrees on both layouts.
        prop_assert_eq!(kernels::count_active_matches(&t, 0, pred), reference.len());
        prop_assert_eq!(kernels::count_active_matches(&frozen, 0, pred), reference.len());
    }

    #[test]
    fn executor_matches_reference_under_both_visibilities(
        values in proptest::collection::vec(0i64..500, 1..200),
        forget in proptest::collection::vec(0usize..500, 0..80),
        lo in 0i64..500,
        width in 1i64..200,
    ) {
        let t = build(&values, &forget);
        let pred = RangePredicate::new(lo, lo + width);
        let aux = Aux::default();

        let active_only = Executor::new(ForgetVisibility::ActiveOnly, CostModel::default());
        let got = active_only
            .execute(&t, 0, &Query::Range(pred), &aux)
            .output
            .rows()
            .unwrap()
            .to_vec();
        prop_assert_eq!(got, reference_range(&t, pred, false));

        let sees_forgotten =
            Executor::new(ForgetVisibility::ScanSeesForgotten, CostModel::default());
        let got_all = sees_forgotten
            .execute(&t, 0, &Query::Range(pred), &aux)
            .output
            .rows()
            .unwrap()
            .to_vec();
        prop_assert_eq!(got_all, reference_range(&t, pred, true));
    }

    #[test]
    fn aggregates_match_reference(
        values in proptest::collection::vec(-1000i64..1000, 1..300),
        forget in proptest::collection::vec(0usize..600, 0..100),
    ) {
        let t = build(&values, &forget);
        let actives: Vec<i64> = t.iter_active().map(|r| t.value(0, r)).collect();

        let (count, _) = kernels::aggregate_active(&t, 0, None, AggKind::Count);
        prop_assert_eq!(count, Some(actives.len() as f64));

        let (sum, _) = kernels::aggregate_active(&t, 0, None, AggKind::Sum);
        if actives.is_empty() {
            prop_assert_eq!(sum, None);
        } else {
            prop_assert_eq!(sum, Some(actives.iter().sum::<i64>() as f64));
            let (avg, _) = kernels::aggregate_active(&t, 0, None, AggKind::Avg);
            let expect = actives.iter().sum::<i64>() as f64 / actives.len() as f64;
            prop_assert!((avg.unwrap() - expect).abs() < 1e-9);
            let (min, _) = kernels::aggregate_active(&t, 0, None, AggKind::Min);
            prop_assert_eq!(min, Some(*actives.iter().min().unwrap() as f64));
            let (max, _) = kernels::aggregate_active(&t, 0, None, AggKind::Max);
            prop_assert_eq!(max, Some(*actives.iter().max().unwrap() as f64));
        }
    }

    #[test]
    fn zonemap_pruning_is_safe_under_staleness(
        values in proptest::collection::vec(0i64..5000, 32..300),
        forget in proptest::collection::vec(0usize..300, 1..60),
        lo in 0i64..5000,
        width in 1i64..1000,
    ) {
        // The zone map is the tier's cached block meta. Freeze FIRST,
        // then forget: the bounds are not re-tightened, and stale bounds
        // may be loose but must never lose matches.
        let mut t = build(&values, &[]);
        t.freeze_upto(values.len());
        for &f in &forget {
            let row = RowId((f % values.len()) as u64);
            if t.activity().is_active(row) {
                t.forget(row, 1).unwrap();
            }
        }
        let pred = RangePredicate::new(lo, lo + width);
        let (pruned, _) = kernels::range_scan_tiered(&t, 0, pred);
        let reference = reference_range(&t, pred, false);
        prop_assert_eq!(pruned, reference, "stale block meta lost matches");
    }
}

#[test]
fn summaries_make_whole_table_aggregates_exact() {
    // Deterministic cross-check of the Summarize path through the store.
    let mut store = AmnesiacStore::new(ForgetMode::Summarize);
    let values: Vec<i64> = (0..500).collect();
    store.insert_batch(&values, 0).unwrap();
    let victims: Vec<RowId> = (0..250).map(RowId).collect();
    store.forget_batch(&victims, 1).unwrap();
    store.end_batch().unwrap();

    for (kind, expect) in [
        (AggKind::Count, 500.0),
        (AggKind::Sum, (0..500).sum::<i64>() as f64),
        (AggKind::Avg, 249.5),
        (AggKind::Min, 0.0),
        (AggKind::Max, 499.0),
    ] {
        let got = store
            .query(&Query::Aggregate {
                kind,
                predicate: None,
            })
            .output
            .agg()
            .unwrap()
            .unwrap();
        assert!(
            (got - expect).abs() < 1e-9,
            "{:?}: got {got}, expected {expect}",
            kind
        );
    }
}
