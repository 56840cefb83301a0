//! Regression suite for the tier boundary.
//!
//! Every engine entry point runs on a `TieredColumn`, so what can go
//! wrong is the seam itself: a kernel that mis-aligns the frozen prefix
//! and the hot tail, or clips the wrong word. This suite drives **every public
//! kernel, executor and SQL path** over a half-frozen table (frozen
//! prefix + hot tail, forgets on both sides of the boundary) and checks
//! the answers against the model.
//!
//! The second half is the recompression-safety property test: frozen
//! blocks squash *forgotten* rows' values onto active neighbours when
//! they re-encode, so every reader of the recompressed payloads — scans,
//! join hash tables — must keep answering exactly. They do, because all
//! of them consult the activity map before trusting a value; the
//! interleaved property test pins that contract.

mod common;

use amnesia::columnar::compress::Encoding;
use amnesia::columnar::{BlockState, DEFAULT_BLOCK_ROWS};
use amnesia::engine::batch::{aggregate_tiered_active, count_tiered_active};
use amnesia::engine::exec::PlanTag;
use amnesia::engine::join::{hash_join, hash_join_count, join_precision};
use amnesia::engine::{Aux, ColPred, CostModel, ExecMode, Executor, ForgetVisibility, QueryOutput};
use amnesia::prelude::*;
use amnesia_model::{eval_plan, gen, join_pairs, Case, Op};
use common::{agg, col, plan, scan};

const ACTIVE: ForgetVisibility = ForgetVisibility::ActiveOnly;
const COMPLETE: ForgetVisibility = ForgetVisibility::ScanSeesForgotten;

/// The codecs the half-frozen tables freeze in: the automatic choice,
/// and the run bitmap pinned (its kernels rank rows into runs, so a
/// frozen prefix that ends mid-table is a seam of its own).
const CODECS: [Option<Encoding>; 2] = [None, Some(Encoding::RunBits)];

/// 6 000 values in `encoding` with every 7th row forgotten; `frozen`
/// freezes 4 blocks of 1 024 and leaves a hot tail.
fn half_frozen(encoding: Option<Encoding>, frozen: bool) -> Case {
    let mut rng = SimRng::new(97);
    let values: Vec<i64> = (0..6_000).map(|_| rng.range_i64(0, 900)).collect();
    let mut case = Case::replay(
        Schema::single("a"),
        DEFAULT_BLOCK_ROWS,
        [
            Op::Pin(0, encoding),
            Op::column(&values),
            Op::Forget((0..6_000).step_by(7).collect()),
        ],
    );
    if frozen {
        case.apply(Op::FreezeUpto(4_100)); // rounds down to 4 blocks
        assert_eq!(case.table.frozen_blocks(), 4);
        assert!(!case.table.col_tier(0).hot_values().is_empty());
    }
    case
}

#[test]
fn every_kernel_path_survives_a_half_frozen_table() {
    for encoding in CODECS {
        let case = half_frozen(encoding, true);
        let (t, m) = (&case.table, &case.model);
        let (tier, words) = (t.col_tier(0), t.activity_words());
        let pred = RangePredicate::new(200, 500);
        let want = m.query(0, &Query::Range(pred), ACTIVE);
        let want_rows = want.rows().unwrap();

        // Serial kernels.
        assert_eq!(scan(t, pred).0, want_rows);
        assert_eq!(count_tiered_active(tier, words, pred).0, want_rows.len());
        for predicate in [None, Some(pred)] {
            let (state, _) = aggregate_tiered_active(tier, words, predicate);
            for kind in AggKind::ALL {
                let q = Query::Aggregate { kind, predicate };
                let got = QueryOutput::Agg(state.finalize(kind));
                assert_eq!(got, m.query(0, &q, ACTIVE), "{kind:?} {predicate:?}");
            }
        }
        let complete = Executor::new(COMPLETE, CostModel::default());
        let got = complete.execute(t, 0, &Query::Range(pred), &Aux::default());
        assert_eq!(got.output, m.query(0, &Query::Range(pred), COMPLETE));

        // The morsel scheduler chunks at tier boundaries: a one-predicate
        // plan answers the model's rows, and its aggregates, at any width.
        let scans = || vec![vec![ColPred::from_range(0, pred)]];
        let project = plan(scans(), None, vec![col(0, 0)]);
        let aggregates = AggKind::ALL.map(|kind| agg(kind, Some((0, 0))));
        let aggregate = plan(scans(), None, aggregates.to_vec());
        let want_values = eval_plan(&[m], &project);
        assert_eq!(want_values.len(), want_rows.len());
        for threads in [1usize, 3, 8] {
            let ex = Executor::default()
                .with_exec_mode(ExecMode::Parallel(threads))
                .with_morsel_rows(256);
            let got = ex.execute_plan(&[t], &[], &project);
            assert_eq!(got.rows, want_values, "{threads} threads");
            assert_eq!(got.stats.plan, PlanTag::TieredScan);
            let got = ex.execute_plan(&[t], &[], &aggregate);
            assert_eq!(got.rows, eval_plan(&[m], &aggregate), "{threads} threads");
        }
    }
}

#[test]
fn every_executor_path_survives_a_half_frozen_table() {
    for encoding in CODECS {
        let tiered = half_frozen(encoding, true);
        let hot = half_frozen(encoding, false);
        let m = &tiered.model;
        let queries = [
            Query::Range(RangePredicate::new(100, 260)),
            Query::Point(333),
            Query::Aggregate {
                kind: AggKind::Avg,
                predicate: Some(RangePredicate::new(50, 700)),
            },
            Query::Aggregate {
                kind: AggKind::Sum,
                predicate: None,
            },
        ];
        let assert_queries = |case: &Case, ctx: &str| {
            for mode in [ACTIVE, COMPLETE] {
                let ex = Executor::new(mode, CostModel::default());
                for q in &queries {
                    let got = ex.execute(&case.table, 0, q, &Aux::default());
                    let want = case.model.query(0, q, mode);
                    assert_eq!(got.output, want, "{ctx} {mode:?} {q:?}");
                }
            }
        };
        assert_queries(&tiered, "half-frozen");

        // The join surface: every side frozen or hot, the plan tag it
        // reports, and the raw kernels.
        let ex = Executor::default();
        let join = plan(
            vec![vec![], vec![]],
            Some((0, 0)),
            vec![col(0, 0), col(1, 0)],
        );
        let want = eval_plan(&[m, m], &join);
        let pairs = join_pairs(m, 0, m, 0, ACTIVE);
        for (left, right, tag) in [
            (&hot, &hot, PlanTag::FullScan),
            (&tiered, &hot, PlanTag::TieredJoin),
            (&hot, &tiered, PlanTag::TieredJoin),
        ] {
            let r = ex.execute_plan(&[&left.table, &right.table], &[], &join);
            assert_eq!(r.rows, want, "{tag:?}");
            assert_eq!(r.stats.plan, tag);
            assert_eq!(r.stats.join_pairs, pairs.len());
        }
        assert_eq!(
            hash_join(&tiered.table, 0, &hot.table, 0, ACTIVE).pairs,
            pairs
        );
        assert_eq!(
            hash_join_count(&tiered.table, 0, &tiered.table, 0, ACTIVE),
            pairs.len()
        );
        let truth = join_pairs(m, 0, m, 0, COMPLETE);
        assert_eq!(
            join_precision(&tiered.table, 0, &hot.table, 0),
            Some(pairs.len() as f64 / truth.len() as f64),
            "precision mixes both visibility regimes over frozen blocks"
        );

        // Vacuum compacts through the codec point-read paths and renumbers
        // the survivors.
        let mut vacuumed = tiered.clone();
        vacuumed.apply(Op::Vacuum);
        assert_eq!(vacuumed.table.num_rows(), m.active_len());
        assert_queries(&vacuumed, "vacuumed");
    }
}

#[test]
fn sql_paths_survive_half_frozen_tables() {
    // Two-table SQL join + filters + aggregates over frozen storage: the
    // plan's readers must hit the codec point-access paths.
    let parent_rows = (0..3_000i64).map(|i| vec![i, i % 10]).collect();
    let child_rows = (0..3_000i64).map(|i| vec![i % 500, i]).collect();
    let mut catalog = common::Catalog(vec![
        (
            "parent",
            Case::replay(
                Schema::new(vec!["key", "grp"]),
                DEFAULT_BLOCK_ROWS,
                [
                    Op::Insert(parent_rows),
                    Op::Forget((0..3_000).step_by(9).collect()),
                ],
            ),
        ),
        (
            "child",
            Case::replay(
                Schema::new(vec!["fk", "amount"]),
                DEFAULT_BLOCK_ROWS,
                [Op::Insert(child_rows)],
            ),
        ),
    ]);
    let q = "SELECT p.grp, COUNT(*) AS n, SUM(c.amount) AS total \
             FROM parent p JOIN child c ON p.key = c.fk \
             WHERE c.amount BETWEEN 100 AND 2500 \
             GROUP BY p.grp ORDER BY total DESC LIMIT 5";
    let ex = Executor::default();
    let want = catalog.want(q);
    assert_eq!(want.len(), 5);
    assert_eq!(catalog.run(q, &ex), want, "hot");
    catalog.0[0].1.apply(Op::FreezeUpto(3_000));
    catalog.0[1].1.apply(Op::FreezeUpto(2_048));
    assert!(catalog.0[0].1.table.has_frozen());
    assert_eq!(catalog.run(q, &ex), want, "SQL answers survive freezing");
}

/// `recompress_frozen` mutates stored values at *forgotten* positions
/// (squashing them onto active neighbours). Every reader of the
/// recompressed payloads — scans behind block meta that is only ever
/// stale-wide, join hash tables (rebuilt per call but probing
/// recompressed blocks) — must keep answering exactly, because each of
/// them filters through the activity map before trusting a value. Hold
/// scans and joins to the model after every op of generated histories
/// of forgets and recompressions among the other transitions to prove it.
#[test]
fn recompress_keeps_scans_and_joins_correct() {
    let mut seen = gen::Coverage::default();
    for (seed, codec) in [5u64, 6, 7]
        .into_iter()
        .flat_map(|s| CODECS.map(|e| (s, e)))
    {
        let config = gen::Config {
            codec,
            max_batch: 1_024,
            ..gen::Config::new(1, 256, 40)
        };
        seen |= gen::check(seed, &config, |case, op| {
            let (t, m) = (&case.table, &case.model);
            // Some frozen block is not dropped.
            let live = t.frozen_blocks() * t.block_rows() > t.dropped_rows();
            if matches!(op, Op::Recompress(_)) && live {
                assert!(t.bytes_frozen() > 0, "recompression keeps payloads live");
            }
            let mut rng = SimRng::new(seed ^ m.len() as u64);
            for pred in [
                RangePredicate::new(-500, 500),
                RangePredicate::new(rng.range_i64(-500, 250), rng.range_i64(-200, 500)),
            ] {
                let want = m.query(0, &Query::Range(pred), ACTIVE);
                let want = want.rows().unwrap();
                // Block meta bounds are stale-wide, never stale-narrow.
                assert_eq!(scan(t, pred).0, want, "scan {pred:?}");
                assert_eq!(
                    count_tiered_active(t.col_tier(0), t.activity_words(), pred).0,
                    want.len(),
                    "count {pred:?}"
                );
            }
            // Joins rebuild their hash table per call, but build and
            // probe both stream the *recompressed* payloads.
            let want = join_pairs(m, 0, m, 0, ACTIVE);
            assert_eq!(hash_join(t, 0, t, 0, ACTIVE).pairs, want, "join");
            assert_eq!(
                hash_join_count(t, 0, t, 0, ACTIVE),
                want.len(),
                "join count"
            );
        });
    }
    assert!(
        seen.reached(BlockState::Recompressed),
        "no block recompressed"
    );
}

/// A forget batch applies as runs (`Table::forget_batch`, the path replay
/// shares); the model's history forgets row by row (`Case::apply` →
/// `Table::forget`). Batches unsorted, duplicated, adjacent, across block
/// boundaries and into the open hot block must leave the same activity,
/// death epochs and block-meta active counts, frozen prefix or not.
#[test]
fn forget_batches_as_runs_equal_the_per_row_forget() {
    const BR: usize = 64;
    let batches: Vec<Vec<usize>> = vec![
        vec![70, 3, 5, 4, 200],     // unsorted, adjacent
        vec![9, 9, 10, 9, 3, 4, 8], // duplicated, some dead already
        (60..70).collect(),         // across the frozen 63 | 64 boundary
        (120..135).rev().collect(), // descending across 127 | 128
        vec![250, 251, 252, 255, 256, 257, 258, 311],
        (300..345).chain([2, 1, 0]).collect(), // 319 | 320, the open block
    ];
    for frozen in [false, true] {
        let mut case = Case::new(Schema::single("a"), BR);
        let mut batched = case.table.clone();
        let mut next = 0;
        let mut insert = |case: &mut Case, batched: &mut Table, epoch: u64, n: i64| {
            let values: Vec<i64> = (next..next + n).map(|v| v * 7 % 1_000).collect();
            next += n;
            case.table.insert_batch(&values, epoch).unwrap();
            case.model.apply(&Op::column(&values));
            batched.insert_batch(&values, epoch).unwrap();
        };
        insert(&mut case, &mut batched, 0, 300);
        if frozen {
            case.apply(Op::FreezeUpto(256));
            batched.freeze_upto(256);
            assert_eq!(batched.frozen_blocks(), 4);
        }
        for (epoch, ids) in (1..).zip(&batches) {
            insert(&mut case, &mut batched, epoch, 10);
            let rows: Vec<RowId> = ids.iter().map(|&r| RowId::from(r)).collect();
            let want = case.table.active_rows();
            case.apply(Op::Forget(ids.clone()));
            let forgotten = batched.forget_batch(&rows, epoch, |_, _| Ok(())).unwrap();
            let ctx = format!("frozen {frozen}, batch {epoch}");
            assert_eq!(forgotten, want - case.table.active_rows(), "{ctx}");
            assert_eq!(
                batched.activity_words(),
                case.table.activity_words(),
                "{ctx}"
            );
            assert_eq!(batched.active_rows(), case.model.active_len(), "{ctx}");
            for r in 0..batched.num_rows() {
                let r = RowId::from(r);
                let died = batched.activity().died_at(r);
                assert_eq!(died, case.table.activity().died_at(r), "{ctx} row {r}");
            }
            let tier = batched.col_tier(0);
            for b in 0..tier.full_blocks() {
                let want = case.table.col_tier(0).meta(b).active;
                assert_eq!(tier.meta(b).active, want, "{ctx} block {b}");
            }
            batched.check_invariants().unwrap();
        }
        assert_eq!(batched.num_rows(), 360);
        let everything = Query::Range(RangePredicate::new(i64::MIN, i64::MAX));
        let want = case.model.query(0, &everything, ACTIVE);
        assert_eq!(
            scan(&batched, RangePredicate::new(i64::MIN, i64::MAX)).0,
            want.rows().unwrap()
        );
    }
}
