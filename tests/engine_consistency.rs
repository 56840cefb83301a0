//! Engine consistency: every physical layout returns the model's answer,
//! through the tiered kernels and through the executor under both
//! visibilities.

mod common;

use amnesia::columnar::compress::Encoding;
use amnesia::engine::batch::count_tiered_active;
use amnesia::engine::{Aux, ColPred, CostModel, Executor, ForgetVisibility};
use amnesia::prelude::*;
use amnesia_model::{eval_plan, Case, Model, Op};
use common::{col, plan, scan};
use proptest::prelude::*;

/// Small tier blocks, so a few hundred rows span several of them.
const BLOCK_ROWS: usize = 64;

/// `values` (at least one) in 64-row blocks, then a forget of every row
/// `forget` names (modulo the row count).
fn build(values: &[i64], forget: &[usize]) -> Case {
    let victims = forget.iter().map(|f| f % values.len()).collect();
    Case::replay(
        Schema::single("a"),
        BLOCK_ROWS,
        [Op::column(values), Op::Forget(victims)],
    )
}

/// The model's active rows in `pred`.
fn want_rows(m: &Model, pred: RangePredicate) -> Vec<RowId> {
    let out = m.query(0, &Query::Range(pred), ForgetVisibility::ActiveOnly);
    out.rows().expect("a range answers rows").to_vec()
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
        let hot = build(&values, &forget);
        let pred = RangePredicate::new(lo, lo + width);
        let want = want_rows(&hot.model, pred);
        // Hot, and frozen: block-meta pruned, codec-fused.
        let mut frozen = hot.clone();
        frozen.apply(Op::FreezeUpto(values.len()));
        for t in [&hot.table, &frozen.table] {
            prop_assert_eq!(&scan(t, pred).0, &want);
            prop_assert_eq!(count_tiered_active(t.col_tier(0), t.activity_words(), pred).0, want.len());
        }
    }

    #[test]
    fn executor_matches_reference_under_both_visibilities(
        values in proptest::collection::vec(0i64..500, 1..200),
        forget in proptest::collection::vec(0usize..500, 0..80),
        lo in 0i64..500,
        width in 1i64..200,
    ) {
        let case = build(&values, &forget);
        for vis in [ForgetVisibility::ActiveOnly, ForgetVisibility::ScanSeesForgotten] {
            let ex = Executor::new(vis, CostModel::default());
            for q in [Query::Range(RangePredicate::new(lo, lo + width)), Query::Point(lo)] {
                let got = ex.execute(&case.table, 0, &q, &Aux::default()).output;
                prop_assert_eq!(got, case.model.query(0, &q, vis), "{:?} {:?}", vis, q);
            }
        }
    }

    #[test]
    fn aggregates_match_reference(
        values in proptest::collection::vec(-1000i64..1000, 1..300),
        forget in proptest::collection::vec(0usize..600, 0..100),
    ) {
        let case = build(&values, &forget);
        for kind in AggKind::ALL {
            let q = Query::Aggregate { kind, predicate: None };
            let got = Executor::default().execute(&case.table, 0, &q, &Aux::default()).output;
            prop_assert_eq!(got, case.model.query(0, &q, ForgetVisibility::ActiveOnly), "{:?}", kind);
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
        let mut case = build(&values, &[]);
        case.apply(Op::FreezeUpto(values.len()));
        case.apply(Op::Forget(forget.iter().map(|f| f % values.len()).collect()));
        let pred = RangePredicate::new(lo, lo + width);
        prop_assert_eq!(scan(&case.table, pred).0, want_rows(&case.model, pred), "stale block meta lost matches");
    }
}

/// The `i64` domain edges as values, on a hot table and frozen in the
/// automatic codec and in plain, with each edge row forgotten in turn:
/// every point query finds its rows under both visibilities (the
/// half-open `[MAX, MAX + 1)` does not exist), so does the whole-domain
/// range, and a plan's inclusive `col >= v` keeps `i64::MAX`. One full
/// 64-row block holds them all, so block meta with `max == i64::MAX`
/// decides each of them, hot and frozen.
#[test]
fn domain_edges_agree_with_the_model_on_every_layout_and_mode() {
    let edges = [i64::MIN, -1, 0, i64::MAX];
    let values: Vec<i64> = edges.into_iter().chain((0..60).map(|i| i * 7)).collect();
    let queries: Vec<Query> = edges
        .map(Query::Point)
        .into_iter()
        .chain([Query::Range(RangePredicate::new(i64::MIN, i64::MAX))])
        .collect();
    for encoding in [None, Some(Encoding::Plain)] {
        for forgotten in 0..edges.len() {
            let hot = Case::replay(
                Schema::single("a"),
                BLOCK_ROWS,
                [
                    Op::Pin(0, encoding),
                    Op::column(&values),
                    Op::Forget(vec![forgotten]),
                ],
            );
            let mut frozen = hot.clone();
            frozen.apply(Op::FreezeUpto(BLOCK_ROWS));
            assert_eq!(frozen.table.frozen_blocks(), 1);
            for (layout, case) in [("hot", &hot), ("frozen", &frozen)] {
                let ctx = format!("{encoding:?} forgot #{forgotten} {layout}");
                for vis in [
                    ForgetVisibility::ActiveOnly,
                    ForgetVisibility::ScanSeesForgotten,
                ] {
                    let ex = Executor::new(vis, CostModel::default());
                    for q in &queries {
                        let got = ex.execute(&case.table, 0, q, &Aux::default()).output;
                        assert_eq!(got, case.model.query(0, q, vis), "{q:?} {vis:?} {ctx}");
                    }
                }
                for lo in edges {
                    let plan = plan(
                        vec![vec![ColPred::range(0, lo, i64::MAX)]],
                        None,
                        vec![col(0, 0)],
                    );
                    let got = Executor::default().execute_plan(&[&case.table], &[], &plan);
                    assert_eq!(
                        got.rows,
                        eval_plan(&[&case.model], &plan),
                        "a >= {lo} {ctx}"
                    );
                }
            }
        }
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
