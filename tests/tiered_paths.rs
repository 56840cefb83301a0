//! Regression suite for the tier boundary.
//!
//! Every engine entry point runs on a `TieredColumn`, so what can go
//! wrong is the seam itself: a kernel that mis-aligns the frozen prefix
//! and the hot tail, or clips the wrong word. This suite drives **every public
//! kernel, executor and SQL path** over a half-frozen table (frozen
//! prefix + hot tail, forgets on both sides of the boundary) and checks
//! the answers against a never-frozen twin.
//!
//! The second half is the recompression-safety property test: frozen
//! blocks squash *forgotten* rows' values onto active neighbours when
//! they re-encode, so every reader of the recompressed payloads — scans,
//! join hash tables — must keep answering exactly. They do, because all
//! of them consult the activity map before trusting a value; the
//! interleaved property test pins that contract.

use amnesia::columnar::compress::Encoding;
use amnesia::columnar::vacuum::vacuum;
use amnesia::columnar::Database;
use amnesia::engine::exec::PlanTag;
use amnesia::engine::join::{hash_join, hash_join_count, join_precision};
use amnesia::engine::physical::{JoinSpec, PhysScan};
use amnesia::engine::{
    kernels, Aux, ColPred, CostModel, ExecMode, Executor, ForgetVisibility, PhysItem, PhysicalPlan,
    PlanHint,
};
use amnesia::prelude::*;
use amnesia::sql;
use amnesia::workload::query::RangePredicate;
use amnesia::workload::Query as EngineQuery;

/// A plan over single-column tables: one scan per entry of `preds`
/// (joined on column 0 when there are two), emitting `items`.
fn plan(preds: Vec<Vec<ColPred>>, items: Vec<PhysItem>) -> PhysicalPlan {
    let join = (preds.len() == 2).then(|| JoinSpec {
        left_col: 0,
        right_col: 0,
        display: "l.a = r.a".into(),
    });
    PhysicalPlan {
        scans: preds
            .into_iter()
            .map(|preds| PhysScan {
                preds,
                label: "Scan t".into(),
            })
            .collect(),
        join,
        items,
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::default(),
    }
}

fn column(slot: usize) -> PhysItem {
    PhysItem::Column {
        slot,
        col: 0,
        display: "a".into(),
    }
}

/// The codecs the half-frozen tables freeze in: the automatic choice,
/// and the run bitmap pinned (its kernels rank rows into runs, so a
/// frozen prefix that ends mid-table is a seam of its own).
const CODECS: [Option<Encoding>; 2] = [None, Some(Encoding::RunBits)];

/// A half-frozen table (4 frozen blocks + hot tail) in `encoding` and its
/// never-frozen twin, with forgets scattered across both tiers.
fn half_frozen_pair(encoding: Option<Encoding>) -> (Table, Table) {
    let mut rng = SimRng::new(97);
    let values: Vec<i64> = (0..6_000).map(|_| rng.range_i64(0, 900)).collect();
    let mut flat = Table::new(Schema::single("a"));
    flat.insert_batch(&values, 0).unwrap();
    let mut tiered = flat.clone();
    tiered.pin_encoding(0, encoding);
    for r in (0..6_000u64).step_by(7) {
        flat.forget(RowId(r), 1).unwrap();
        tiered.forget(RowId(r), 1).unwrap();
    }
    tiered.freeze_upto(4_100); // rounds down to 4 blocks of 1024
    assert_eq!(tiered.frozen_blocks(), 4);
    assert!(!tiered.col_tier(0).hot_values().is_empty());
    (tiered, flat)
}

#[test]
fn every_kernel_path_survives_a_half_frozen_table() {
    for encoding in CODECS {
        let (tiered, flat) = half_frozen_pair(encoding);
        let pred = RangePredicate::new(200, 500);
        let want_rows = kernels::range_scan_active(&flat, 0, pred);

        // Serial kernels.
        assert_eq!(kernels::range_scan_active(&tiered, 0, pred), want_rows);
        assert_eq!(kernels::range_scan_tiered(&tiered, 0, pred).0, want_rows);
        assert_eq!(
            kernels::range_scan_all(&tiered, 0, pred),
            kernels::range_scan_all(&flat, 0, pred)
        );
        assert_eq!(
            kernels::count_active_matches(&tiered, 0, pred),
            want_rows.len()
        );
        for predicate in [None, Some(pred)] {
            for kind in AggKind::ALL {
                let (want, _) = kernels::aggregate_active(&flat, 0, predicate, kind);
                let (got, _) = kernels::aggregate_active(&tiered, 0, predicate, kind);
                assert_eq!(got, want, "{kind:?} {predicate:?}");
            }
            let (state, _) = kernels::aggregate_state_tiered(&tiered, 0, predicate);
            let (want_state, _) = kernels::aggregate_state_tiered(&flat, 0, predicate);
            assert_eq!(state.count(), want_state.count());
            assert_eq!(state.sum(), want_state.sum());
        }

        // The morsel scheduler chunks at tier boundaries: a one-predicate
        // plan answers the same rows, and the same aggregates, at any width.
        let pushed = ColPred::from_range(0, pred);
        let project = plan(vec![vec![pushed.clone()]], vec![column(0)]);
        let aggregate = plan(
            vec![vec![pushed]],
            AggKind::ALL
                .iter()
                .map(|&kind| PhysItem::Aggregate {
                    kind,
                    arg: Some((0, 0)),
                    display: kind.name().into(),
                })
                .collect(),
        );
        let serial = Executor::default().with_exec_mode(ExecMode::Serial);
        let want_values = serial.execute_plan(&[&flat], &[], &project).rows;
        assert_eq!(want_values.len(), want_rows.len());
        let want_aggs = serial.execute_plan(&[&flat], &[], &aggregate).rows;
        for threads in [1usize, 3, 8] {
            let ex = Executor::default()
                .with_exec_mode(ExecMode::Parallel(threads))
                .with_morsel_rows(256);
            let got = ex.execute_plan(&[&tiered], &[], &project);
            assert_eq!(got.rows, want_values, "{threads} threads");
            assert_eq!(got.stats.plan, PlanTag::TieredScan);
            let got = ex.execute_plan(&[&tiered], &[], &aggregate);
            assert_eq!(got.rows, want_aggs, "{threads} threads");
        }
    }
}

#[test]
fn every_executor_path_survives_a_half_frozen_table() {
    for encoding in CODECS {
        let (tiered, flat) = half_frozen_pair(encoding);
        let queries = [
            EngineQuery::Range(RangePredicate::new(100, 260)),
            EngineQuery::Point(333),
            EngineQuery::Aggregate {
                kind: AggKind::Avg,
                predicate: Some(RangePredicate::new(50, 700)),
            },
            EngineQuery::Aggregate {
                kind: AggKind::Sum,
                predicate: None,
            },
        ];
        for mode in [
            ForgetVisibility::ActiveOnly,
            ForgetVisibility::ScanSeesForgotten,
        ] {
            let ex = Executor::new(mode, CostModel::default());
            for q in &queries {
                let want = ex.execute(&flat, 0, q, &Aux::default());
                let got = ex.execute(&tiered, 0, q, &Aux::default());
                assert_eq!(got.output, want.output, "{mode:?} {q:?}");
            }
        }

        // The join surface: executor-level stats and the raw kernels.
        let ex = Executor::default();
        let join = plan(vec![vec![], vec![]], vec![column(0), column(1)]);
        let want = hash_join(&flat, 0, &flat, 0, ForgetVisibility::ActiveOnly);
        let hot = ex.execute_plan(&[&flat, &flat], &[], &join);
        assert_eq!(hot.stats.plan, PlanTag::FullScan, "hot join is not tiered");
        assert_eq!(hot.stats.join_pairs, want.stats.output_pairs);
        let r = ex.execute_plan(&[&tiered, &flat], &[], &join);
        assert_eq!(r.rows, hot.rows, "frozen build side");
        assert_eq!(r.stats.plan, PlanTag::TieredJoin);
        assert_eq!(r.stats.result_rows, want.stats.output_pairs);
        let r2 = ex.execute_plan(&[&flat, &tiered], &[], &join);
        assert_eq!(r2.rows, hot.rows, "frozen probe side");
        assert_eq!(r2.stats.plan, PlanTag::TieredJoin);
        assert_eq!(
            hash_join(&tiered, 0, &flat, 0, ForgetVisibility::ActiveOnly).pairs,
            want.pairs
        );
        assert_eq!(
            hash_join_count(&tiered, 0, &tiered, 0, ForgetVisibility::ActiveOnly),
            want.stats.output_pairs
        );
        assert_eq!(
            join_precision(&tiered, 0, &flat, 0),
            join_precision(&flat, 0, &flat, 0),
            "precision mixes both visibility regimes over frozen blocks"
        );

        // Vacuum compacts through the codec point-read paths.
        let kept = vacuum(&tiered);
        assert_eq!(kept.table.num_rows(), flat.active_rows());
    }
}

#[test]
fn sql_paths_survive_half_frozen_tables() {
    // Two-table SQL join + filters + aggregates over frozen storage: the
    // SQL executor reads through `Table::value`, which must hit the codec
    // point-access paths.
    let mut db = Database::new();
    let parent = db.add_table("parent", Schema::new(vec!["key", "grp"]));
    let child = db.add_table("child", Schema::new(vec!["fk", "amount"]));
    for i in 0..3_000i64 {
        db.table_mut(parent).insert(&[i, i % 10], 0).unwrap();
    }
    for i in 0..3_000i64 {
        db.table_mut(child).insert(&[i % 500, i], 0).unwrap();
    }
    for r in (0..3_000u64).step_by(9) {
        db.table_mut(parent).forget(RowId(r), 1).unwrap();
    }
    let q = "SELECT p.grp, COUNT(*) AS n, SUM(c.amount) AS total \
             FROM parent p JOIN child c ON p.key = c.fk \
             WHERE c.amount BETWEEN 100 AND 2500 \
             GROUP BY p.grp ORDER BY total DESC LIMIT 5";
    let hot = match sql::run(&db, q).unwrap() {
        sql::QueryOutcome::Rows(rs) => rs,
        _ => unreachable!(),
    };
    db.table_mut(parent).freeze_upto(3_000);
    db.table_mut(child).freeze_upto(2_048);
    assert!(db.table(parent).has_frozen());
    let frozen = match sql::run(&db, q).unwrap() {
        sql::QueryOutcome::Rows(rs) => rs,
        _ => unreachable!(),
    };
    assert_eq!(frozen.rows, hot.rows, "SQL answers survive freezing");
}

/// Satellite: `recompress_frozen` mutates stored values at *forgotten*
/// positions (squashing them onto active neighbours). Every reader of
/// the recompressed payloads — scans behind block meta that is only ever
/// stale-wide, join hash tables (rebuilt per call but probing
/// recompressed blocks) — must keep answering exactly, because each of
/// them filters through the activity map before trusting a value.
/// Interleave recompression with scans and joins against a never-frozen
/// twin to prove it.
#[test]
fn recompress_keeps_scans_and_joins_correct() {
    for (seed, encoding) in [5u64, 6, 7]
        .into_iter()
        .flat_map(|s| CODECS.map(|e| (s, e)))
    {
        let mut rng = SimRng::new(seed);
        let mut flat = Table::new(Schema::single("a"));
        let mut tiered = Table::with_block_rows(Schema::single("a"), 256);
        tiered.pin_encoding(0, encoding);
        let ctx = format!("seed={seed} {encoding:?}");
        let values: Vec<i64> = (0..4_096).map(|_| rng.range_i64(0, 300)).collect();
        flat.insert_batch(&values, 0).unwrap();
        tiered.insert_batch(&values, 0).unwrap();
        tiered.freeze_upto(4_096);
        for step in 0..8 {
            // Forget a burst on both twins.
            for _ in 0..300 {
                if let Some(r) = flat.random_active(&mut rng) {
                    flat.forget(r, step).unwrap();
                    tiered.forget(r, step).unwrap();
                }
            }
            // Recompress rotten blocks: forgotten positions' values are
            // physically rewritten.
            let (reencoded, _) = tiered.recompress_frozen(0.9);
            if step > 2 {
                assert!(
                    reencoded == 0 || tiered.bytes_frozen() > 0,
                    "recompression keeps payloads live {ctx}"
                );
            }
            for pred in [
                RangePredicate::new(0, 300),
                RangePredicate::new(rng.range_i64(0, 250), rng.range_i64(100, 300)),
            ] {
                let want = kernels::range_scan_active(&flat, 0, pred);
                // Block meta bounds are stale-wide, never stale-narrow.
                let (got, _) = kernels::range_scan_tiered(&tiered, 0, pred);
                assert_eq!(got, want, "scan {ctx} step {step} {pred:?}");
                assert_eq!(
                    kernels::count_active_matches(&tiered, 0, pred),
                    want.len(),
                    "count {ctx} step {step}"
                );
            }
            // Joins rebuild their hash table per call, but build and
            // probe both stream the *recompressed* payloads.
            let want = hash_join(&flat, 0, &flat, 0, ForgetVisibility::ActiveOnly);
            let got = hash_join(&tiered, 0, &tiered, 0, ForgetVisibility::ActiveOnly);
            assert_eq!(got.pairs, want.pairs, "join {ctx} step {step}");
            assert_eq!(
                hash_join_count(&tiered, 0, &tiered, 0, ForgetVisibility::ActiveOnly),
                want.stats.output_pairs,
                "join count {ctx} step {step}"
            );
        }
    }
}
