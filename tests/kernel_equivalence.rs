//! Property tests: the word-at-a-time tiered kernels, the executor,
//! morsel-parallel plan execution, and the fused compressed-block paths
//! (every codec, frozen at every block-prefix boundary) all compute the
//! model's answers — across randomized tables, forget patterns (none /
//! periodic / a quarter / everything), and the word-boundary sizes where
//! masking bugs live (0, 1, 63, 64, 65, 1023, 1024, 1025). The packed
//! codecs' group kernels answer to a per-value bit-walk oracle.

mod common;

use amnesia::columnar::compress::{block_decodes, Encoding};
use amnesia::columnar::{BlockState, DEFAULT_BLOCK_ROWS};
use amnesia::engine::batch::{aggregate_tiered_active, count_tiered_active};
use amnesia::engine::join::{hash_join, hash_join_count, JoinStats};
use amnesia::engine::{
    kernels, Aux, ColPred, CostModel, ExecMode, Executor, ForgetVisibility, PhysicalPlan,
    QueryOutput, SortDir,
};
use amnesia::prelude::*;
use amnesia::workload::query::RangePredicate;
use amnesia_model::{eval_plan, gen, join_pairs, Case, Model, Op};
use common::{agg, col, plan, scan};
use proptest::prelude::*;

const ACTIVE: ForgetVisibility = ForgetVisibility::ActiveOnly;
const COMPLETE: ForgetVisibility = ForgetVisibility::ScanSeesForgotten;

/// Which rows a history forgets.
#[derive(Debug, Clone, Copy)]
enum ForgetPattern {
    None,
    /// Every k-th row, from row 0 (`Every(1)` forgets everything).
    Every(usize),
    /// A quarter of the row count in random picks.
    Quarter,
}

fn forget_pattern() -> impl Strategy<Value = ForgetPattern> {
    prop_oneof![
        Just(ForgetPattern::None),
        Just(ForgetPattern::Quarter),
        Just(ForgetPattern::Every(1)),
    ]
}

/// Insert `values`, then forget by `pattern`.
fn history(values: &[i64], pattern: ForgetPattern, seed: u64) -> Vec<Op> {
    let n = values.len();
    let victims = match pattern {
        ForgetPattern::None => Vec::new(),
        ForgetPattern::Every(k) => (0..n).step_by(k).collect(),
        ForgetPattern::Quarter => {
            let mut rng = SimRng::new(seed);
            (0..n / 4).map(|_| rng.index(n)).collect()
        }
    };
    vec![Op::column(values), Op::Forget(victims)]
}

/// `history` on a single-column table in blocks of `block_rows`, frozen
/// in `encoding` (`None` = the automatic chooser).
fn case(block_rows: usize, encoding: Option<Encoding>, history: &[Op]) -> Case {
    let pin = Op::Pin(0, encoding);
    Case::replay(
        Schema::single("a"),
        block_rows,
        std::iter::once(pin).chain(history.iter().cloned()),
    )
}

/// Every serial single-column path over `case` against the model: the
/// tiered scan and count kernels, and the executor's queries — range,
/// point and every aggregate kind with and without the predicate — and
/// the range, point and count again under the complete scan while the
/// model defines it (aggregates stay amnesiac there).
/// `exact_work` pins the aggregates' `rows_scanned` on a hot table to
/// [`hot_rows_examined`]; otherwise block meta may only shrink it below
/// the active row count.
fn assert_serial_kernels_agree(case: &Case, pred: RangePredicate, exact_work: bool, ctx: &str) {
    let (t, m) = (&case.table, &case.model);
    let (tier, words) = (t.col_tier(0), t.activity_words());
    let want = m.query(0, &Query::Range(pred), ACTIVE);
    assert_eq!(QueryOutput::Rows(scan(t, pred).0), want, "scan {ctx}");
    let (count, _) = count_tiered_active(tier, words, pred);
    assert_eq!(count, want.cardinality(), "count {ctx}");
    let check = |vis: ForgetVisibility, q: &Query| {
        let got = Executor::new(vis, CostModel::default()).execute(t, 0, q, &Aux::default());
        assert_eq!(got.output, m.query(0, q, vis), "{vis:?} {q:?} {ctx}");
        got.stats.rows_scanned
    };
    let count = Query::Aggregate {
        kind: AggKind::Count,
        predicate: Some(pred),
    };
    for q in [Query::Range(pred), Query::Point(pred.lo), count] {
        check(ACTIVE, &q);
        if m.complete_scan_is_defined() {
            check(COMPLETE, &q);
        }
    }
    for predicate in [None, Some(pred)] {
        let work = exact_work.then(|| hot_rows_examined(t, predicate));
        for kind in AggKind::ALL {
            let scanned = check(ACTIVE, &Query::Aggregate { kind, predicate });
            match work {
                Some(want) => assert_eq!(scanned, want, "agg scanned {kind:?} {ctx}"),
                None => assert!(
                    scanned <= t.active_rows(),
                    "meta may only shrink work {ctx}"
                ),
            }
        }
    }
}

/// The active rows an active-only kernel examines on hot table `t`,
/// worked out row by row from the values and the activity map: every
/// active row of the open last block, plus the active rows of each full
/// block whose value range (over all its values, forgotten ones too)
/// meets `pred`. An empty predicate examines every active row.
fn hot_rows_examined(t: &Table, pred: Option<RangePredicate>) -> usize {
    let (n, br) = (t.num_rows(), t.block_rows());
    let active = |rows: std::ops::Range<usize>| {
        rows.filter(|&r| t.activity().is_active(RowId::from(r)))
            .count()
    };
    if pred.is_some_and(|p| p.is_empty()) {
        return active(0..n);
    }
    (0..n)
        .step_by(br)
        .map(|lo| {
            let rows = lo..(lo + br).min(n);
            let values = || rows.clone().map(|r| t.value(0, RowId::from(r)));
            let (min, max) = (values().min().unwrap(), values().max().unwrap());
            let meets = pred.is_none_or(|p| min < p.hi && max >= p.lo);
            if rows.len() < br || meets {
                active(rows)
            } else {
                0
            }
        })
        .sum()
}

/// A one-predicate [`PhysicalPlan`] over `case` — once projecting the
/// column, once folding every aggregate kind — returns the model's rows
/// at every pool width.
fn assert_one_predicate_plans_agree(case: &Case, pred: RangePredicate, ctx: &str) {
    let scans = || vec![vec![ColPred::from_range(0, pred)]];
    let project = plan(scans(), None, vec![col(0, 0)]);
    let aggregates = AggKind::ALL.map(|kind| agg(kind, Some((0, 0))));
    let aggregate = plan(scans(), None, aggregates.to_vec());
    assert_plan_matches_model(&[case], &project, &format!("projection {ctx}"));
    assert_plan_matches_model(&[case], &aggregate, &format!("aggregate {ctx}"));
}

/// `values` forgotten by `pattern`: fully hot (with exact work), then
/// frozen in every codec at every block-prefix boundary, in blocks of
/// each of `block_sizes`.
fn assert_all_kernels_agree(
    values: &[i64],
    pattern: ForgetPattern,
    seed: u64,
    pred: RangePredicate,
    block_sizes: &[usize],
    ctx: &str,
) {
    let history = history(values, pattern, seed);
    let hot = case(DEFAULT_BLOCK_ROWS, None, &history);
    assert_serial_kernels_agree(&hot, pred, true, ctx);
    assert_one_predicate_plans_agree(&hot, pred, ctx);
    assert_compressed_kernels_agree(&history, pred, block_sizes, ctx);
}

/// Fused compressed scans answer the model for every codec (pinned per
/// block) and the automatic chooser, at word-aligned block sizes that
/// land frozen/tail boundaries on and off batch edges, with the table
/// frozen at *every* block-prefix boundary in turn — then with the hot
/// tail grown past the frozen prefix.
fn assert_compressed_kernels_agree(
    history: &[Op],
    pred: RangePredicate,
    block_sizes: &[usize],
    ctx: &str,
) {
    for &block_rows in block_sizes {
        let codecs = Encoding::ALL.into_iter().map(Some).chain([None]);
        for encoding in codecs {
            let tag = format!("{encoding:?}@{block_rows} {ctx}");
            let mut frozen = case(block_rows, encoding, history);
            let n = frozen.model.len();
            for prefix in (block_rows..=n).step_by(block_rows) {
                frozen.apply(Op::FreezeUpto(prefix));
                assert_eq!(frozen.table.frozen_blocks(), prefix / block_rows, "{tag}");
                let before = block_decodes();
                assert_serial_kernels_agree(
                    &frozen,
                    pred,
                    false,
                    &format!("frozen<{prefix} {tag}"),
                );
                assert_eq!(block_decodes(), before, "a fused scan decoded: {tag}");
            }
            if encoding.is_none() {
                assert_one_predicate_plans_agree(&frozen, pred, &format!("frozen {tag}"));
            }
            // The hot tail grows past the frozen prefix: new rows land
            // behind it and the activity words lengthen with them.
            let tail: Vec<i64> = (0..70)
                .map(|i| pred.lo.saturating_add(i * 3 - 30))
                .collect();
            frozen.apply(Op::column(&tail));
            assert_serial_kernels_agree(&frozen, pred, false, &format!("grown tail {tag}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectorized_equals_scalar_equals_parallel(
        values in proptest::collection::vec(-5_000i64..5_000, 0..700),
        pattern in forget_pattern(),
        lo in -6_000i64..6_000,
        width in 0i64..8_000,
        seed in any::<u64>(),
    ) {
        let pred = RangePredicate::new(lo, lo.saturating_add(width));
        let ctx = format!("n={} {pattern:?}", values.len());
        assert_all_kernels_agree(&values, pattern, seed, pred, &[64, 1024], &ctx);
    }
}

#[test]
fn boundary_sizes_and_forget_patterns() {
    // Deterministic sweep of the sizes where word masking goes wrong.
    for n in [0usize, 1, 63, 64, 65, 1023, 1024, 1025] {
        let mut rng = SimRng::new(n as u64 + 1);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 1_000)).collect();
        for pattern in [
            ForgetPattern::None,
            ForgetPattern::Every(3),
            ForgetPattern::Quarter,
            ForgetPattern::Every(1),
        ] {
            for pred in [
                RangePredicate::new(0, 1_000), // everything
                RangePredicate::new(250, 500), // selective
                RangePredicate::new(900, 100), // empty (inverted)
            ] {
                let ctx = format!("n={n} {pattern:?}");
                assert_all_kernels_agree(&values, pattern, 99, pred, &[64, 1024], &ctx);
            }
        }
    }
    // Several blocks with periodic forgets and a partial tail: 4 097,
    // 5 000 and 6 000 rows over domains of 1 000, 500 and 700, frozen a
    // batch-sized block at a time.
    for (n, domain, every, seed) in [
        (4_097, 1_000, 5, 42),
        (5_000, 500, 4, 9),
        (6_000, 700, 3, 13),
    ] {
        let mut rng = SimRng::new(seed);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, domain)).collect();
        let pred = RangePredicate::new(domain / 5, domain * 4 / 5);
        let pattern = ForgetPattern::Every(every);
        let ctx = format!("n={n} every {every}");
        assert_all_kernels_agree(&values, pattern, seed, pred, &[1024], &ctx);
    }
}

/// The plan-level checks of one self-join: the hash join's pairs, count
/// and join plan over `case` are the model's.
fn assert_self_join_matches_model(case: &Case, ctx: &str) {
    let t = &case.table;
    let want = join_pairs(&case.model, 0, &case.model, 0, ACTIVE);
    let got = hash_join(t, 0, t, 0, ACTIVE);
    assert_eq!(got.pairs, want, "tiered join pairs {ctx}");
    assert_eq!(got.stats.output_pairs, want.len(), "{ctx}");
    assert_eq!(
        build_side(&got.stats),
        model_build_side(&case.model),
        "build {ctx}"
    );
    assert_eq!(
        hash_join_count(t, 0, t, 0, ACTIVE),
        want.len(),
        "count {ctx}"
    );
    assert_join_plan_matches_model(case, case, ctx);
}

/// A join's build accounting: the rows it hashed and their distinct keys.
fn build_side(stats: &JoinStats) -> (usize, usize) {
    (stats.build_rows, stats.build_distinct_keys)
}

/// The build accounting of an active-only join building on column 0 of
/// `m`: its active rows, and as many distinct keys as they form groups.
fn model_build_side(m: &Model) -> (usize, usize) {
    let mut keys = plan(vec![vec![]], None, vec![agg(AggKind::Count, None)]);
    keys.group_by = Some((0, 0, "k".into()));
    (m.active_len(), eval_plan(&[m], &keys).len())
}

/// The join `left.a = right.a` as a [`PhysicalPlan`] emitting both key
/// columns returns the model's rows at every width, whatever build side
/// or join strategy the cost model picked.
fn assert_join_plan_matches_model(left: &Case, right: &Case, ctx: &str) {
    let join = plan(
        vec![vec![], vec![]],
        Some((0, 0)),
        vec![col(0, 0), col(1, 0)],
    );
    assert_plan_matches_model(&[left, right], &join, &format!("join {ctx}"));
}

/// Generated histories of inserts, forgets, freezes, recompressions,
/// drops and vacuums: after every tier transition the tiered table
/// answers every kernel, plan and join as the model does, across block
/// sizes, one and two columns, and every pinned codec plus the automatic
/// chooser. The complete scan is checked whenever the model defines it:
/// up to the first recompression, and again after a vacuum. Some history
/// must leave a recompressed block and some a dropped one, so the
/// generator cannot quietly stop reaching them.
#[test]
fn tiered_interleavings_match_the_model() {
    let mut seen = gen::Coverage::default();
    for (arity, block_rows, codec, seed) in [
        (1, 64usize, None, 1u64),
        (1, 64, Some(Encoding::Rle), 2),
        (2, 64, Some(Encoding::Dict), 3),
        (1, 128, Some(Encoding::Delta), 4),
        (2, 128, Some(Encoding::ForPack), 5),
        (1, 1024, Some(Encoding::Plain), 6),
        (1, 1024, None, 7),
        (1, 64, Some(Encoding::RunBits), 8),
        (1, 1024, Some(Encoding::RunBits), 9),
    ] {
        let config = gen::Config {
            codec,
            max_batch: block_rows.max(500),
            ..gen::Config::new(arity, block_rows, 30)
        };
        seen |= gen::check(seed, &config, |case, op| {
            case.table.check_invariants().unwrap();
            if matches!(op, Op::Insert(_) | Op::Forget(_)) {
                return;
            }
            assert_eq!(case.table.num_rows(), case.model.len());
            // A selective, a covering, and an empty predicate; the first
            // follows from the table's length, so a replay draws it again.
            let mut rng = SimRng::new(seed ^ case.model.len() as u64);
            for pred in [
                RangePredicate::new(rng.range_i64(-500, 400), rng.range_i64(-400, 500)),
                RangePredicate::new(-500, 500),
                RangePredicate::new(400, -400),
            ] {
                assert_serial_kernels_agree(case, pred, false, "");
                assert_one_predicate_plans_agree(case, pred, "");
            }
            // Joins ride the same histories: build and probe must read
            // the exact tier layout this op produced.
            assert_self_join_matches_model(case, "");
        });
    }
    assert!(
        seen.reached(BlockState::Recompressed),
        "no history left a recompressed block"
    );
    assert!(
        seen.reached(BlockState::Dropped),
        "no history left a dropped block"
    );
}

/// The tiered join's pairs are the model's across every codec × block
/// size × freeze/forget/recompress/drop interleaving, on a two-table
/// (parent/child) shape where the build and probe sides freeze
/// *independently* — left frozen/right hot, left hot/right frozen, both
/// frozen, recompressed, partially dropped. Pair order must match
/// bit-for-bit.
#[test]
fn tiered_join_equals_dense_join_across_codecs() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 41u64),
        (64, Some(Encoding::Rle), 42),
        (64, Some(Encoding::Dict), 43),
        (128, Some(Encoding::Delta), 44),
        (128, Some(Encoding::ForPack), 45),
        (1024, Some(Encoding::Plain), 46),
        (1024, None, 47),
        (64, Some(Encoding::RunBits), 48),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?} seed={seed}");
        let mut rng = SimRng::new(seed);
        // Parent: distinct-ish keys; child: skewed fks — a handful of hot
        // keys so dict/rle structure actually appears in frozen blocks.
        let parent_vals: Vec<i64> = (0..700).map(|i| i % 400).collect();
        let child_vals: Vec<i64> = (0..1_500)
            .map(|_| {
                let r = rng.f64();
                (r * r * 400.0) as i64
            })
            .collect();
        let parent_victims = (0..300).map(|_| rng.index(700)).collect();
        let child_victims = (0..300).map(|_| rng.index(1_500)).collect();
        let mut parent = case(
            block_rows,
            encoding,
            &[Op::column(&parent_vals), Op::Forget(parent_victims)],
        );
        let mut child = case(
            block_rows,
            encoding,
            &[Op::column(&child_vals), Op::Forget(child_victims)],
        );

        let check = |parent: &Case, child: &Case, stage: &str| {
            let want = join_pairs(&parent.model, 0, &child.model, 0, ACTIVE);
            let (p, c) = (&parent.table, &child.table);
            let got = hash_join(p, 0, c, 0, ACTIVE);
            assert_eq!(got.pairs, want, "{ctx} {stage}");
            assert_eq!(
                build_side(&got.stats),
                model_build_side(&parent.model),
                "{ctx} {stage} build"
            );
            assert_eq!(
                hash_join_count(p, 0, c, 0, ACTIVE),
                want.len(),
                "{ctx} {stage} count"
            );
            assert_join_plan_matches_model(parent, child, &format!("{ctx} {stage}"));
        };

        // Hot × hot, then every frozen combination.
        check(&parent, &child, "hot/hot");
        parent.apply(Op::FreezeUpto(700));
        check(&parent, &child, "frozen/hot");
        child.apply(Op::FreezeUpto(750));
        check(&parent, &child, "frozen/mixed");
        child.apply(Op::FreezeUpto(1_500));
        check(&parent, &child, "frozen/frozen");
        // Ground truth (forgotten rows included) holds while no lossy
        // transition has run.
        let truth = hash_join(&parent.table, 0, &child.table, 0, COMPLETE);
        let want = join_pairs(&parent.model, 0, &child.model, 0, COMPLETE);
        assert_eq!(truth.pairs, want, "{ctx} ground truth");
        // Recompress squashes forgotten values; active answers must hold.
        parent.apply(Op::Recompress(0.95));
        child.apply(Op::Recompress(0.95));
        check(&parent, &child, "recompressed");
        // Forget a whole child block and drop it: its pairs vanish.
        child.apply(Op::Forget((0..block_rows).collect()));
        child.apply(Op::Drop);
        check(&parent, &child, "dropped");
    }
}

/// The acceptance gate for "zero dense materialization": a tiered join
/// over fully frozen RLE/dict tables must not decode a single block —
/// build streams runs/codes, probe stays in compressed space. The
/// per-thread decode counter pins it.
#[test]
fn tiered_join_never_decodes_frozen_blocks() {
    for encoding in [
        Encoding::Rle,
        Encoding::Dict,
        Encoding::ForPack,
        Encoding::Delta,
        Encoding::RunBits,
    ] {
        let side = |values: Vec<i64>| {
            case(
                256,
                Some(encoding),
                &[
                    Op::column(&values),
                    Op::Forget((0..2_048).step_by(5).collect()),
                    Op::FreezeUpto(2_048),
                ],
            )
        };
        let left = side((0..2_048).map(|i| i / 8).collect());
        let right = side((0..2_048).map(|i| i % 300).collect());
        let (l, r) = (&left.table, &right.table);
        let before = block_decodes();
        let got = hash_join(l, 0, r, 0, ACTIVE);
        let count = hash_join_count(l, 0, r, 0, ACTIVE);
        assert_eq!(
            block_decodes() - before,
            0,
            "{encoding:?}: tiered join must not decode any frozen block"
        );
        let want = join_pairs(&left.model, 0, &right.model, 0, ACTIVE);
        assert_eq!(got.pairs, want, "{encoding:?}");
        assert_eq!(count, want.len(), "{encoding:?}");
    }
}

#[test]
fn join_kernels_agree_with_row_at_a_time_reference() {
    let mut rng = SimRng::new(77);
    let mut side = |n: usize| {
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 50)).collect();
        let victims = (0..150).map(|_| rng.index(n)).collect();
        case(
            DEFAULT_BLOCK_ROWS,
            None,
            &[Op::column(&values), Op::Forget(victims)],
        )
    };
    let (left, right) = (side(500), side(800));
    for vis in [ACTIVE, COMPLETE] {
        let want = join_pairs(&left.model, 0, &right.model, 0, vis);
        let (l, r) = (&left.table, &right.table);
        assert_eq!(hash_join(l, 0, r, 0, vis).pairs, want, "{vis:?}");
        assert_eq!(
            hash_join_count(l, 0, r, 0, vis),
            want.len(),
            "{vis:?} count"
        );
    }
}

// ===================================================================
// Morsel scheduler: PhysicalPlan execution at every pool width
// ===================================================================

/// Non-power-of-two worker counts included on purpose: uneven morsel
/// partitions are where merge-order bugs live. `Parallel(1)` is one
/// worker by another name.
const PLAN_THREADS: [usize; 4] = [1, 2, 7, 8];

/// Small morsels so even the few-thousand-row test tables split into
/// many morsels per stage (the default 16K-row morsel cuts them into one
/// or two).
const SMALL_MORSEL: usize = 128;

/// Run `plan` over `cases` on one worker and at every pool width, at the
/// small and at the default morsel size. The rows must be the model's,
/// and every work counter must be the one worker's — pruning,
/// per-predicate attribution, estimates, join and group cardinalities,
/// the plan tag: only the scheduler's own accounting (`planned` masks
/// it) may depend on how the table was cut. No width may decode a block
/// of fully-frozen tables.
fn assert_plan_matches_model(cases: &[&Case], plan: &PhysicalPlan, ctx: &str) {
    let tables: Vec<&Table> = cases.iter().map(|c| &c.table).collect();
    let models: Vec<&Model> = cases.iter().map(|c| &c.model).collect();
    let want = eval_plan(&models, plan);
    let serial = Executor::default()
        .with_exec_mode(ExecMode::Serial)
        .execute_plan(&tables, &[], plan);
    assert_eq!(serial.rows, want, "serial: {ctx}");
    let fully_frozen = tables
        .iter()
        .all(|t| t.frozen_blocks() * t.block_rows() >= t.num_rows());
    for threads in PLAN_THREADS {
        for morsel_rows in [Some(SMALL_MORSEL), None] {
            let ctx = format!("{threads} threads, morsel {morsel_rows:?}: {ctx}");
            let pool = Executor::default().with_exec_mode(ExecMode::Parallel(threads));
            let pool = match morsel_rows {
                Some(rows) => pool.with_morsel_rows(rows),
                None => pool,
            };
            let before = block_decodes();
            let par = pool.execute_plan(&tables, &[], plan);
            let decoded = block_decodes() - before;
            assert_eq!(par.rows, want, "plan output diverged at {ctx}");
            assert_eq!(
                common::planned(&par.stats),
                common::planned(&serial.stats),
                "work accounting diverged at {ctx}"
            );
            if fully_frozen {
                assert_eq!(
                    decoded, 0,
                    "plan over fully-frozen tables decoded {decoded} blocks at {ctx}"
                );
            }
        }
    }
}

/// The grouped-aggregate plan shape (scan → group → sort → limit).
fn grouped_plan() -> PhysicalPlan {
    let preds = vec![ColPred::range(1, 100, 700), ColPred::range(2, 10, 80)];
    let items = vec![
        col(0, 0),
        agg(AggKind::Count, None),
        agg(AggKind::Sum, Some((0, 1))),
        agg(AggKind::Avg, Some((0, 2))),
        agg(AggKind::Min, Some((0, 1))),
        agg(AggKind::Max, Some((0, 1))),
    ];
    PhysicalPlan {
        group_by: Some((0, 0, "g".into())),
        order_by: Some((2, SortDir::Desc)),
        limit: Some(16),
        ..plan(vec![preds], None, items)
    }
}

/// Selective projection with an ORDER BY (exercises the parallel sort
/// merge) and no LIMIT (every surviving row must come back, in order).
fn projection_plan() -> PhysicalPlan {
    PhysicalPlan {
        order_by: Some((1, SortDir::Asc)),
        ..plan(
            vec![vec![ColPred::range(1, 0, 500)]],
            None,
            vec![col(0, 0), col(0, 2)],
        )
    }
}

/// Global (ungrouped) aggregate — the per-chunk AggState merge path.
fn global_agg_plan() -> PhysicalPlan {
    let items = vec![
        agg(AggKind::Count, None),
        agg(AggKind::Sum, Some((0, 2))),
        agg(AggKind::Avg, Some((0, 1))),
    ];
    plan(vec![vec![ColPred::range(1, 50, 900)]], None, items)
}

/// A three-column table (`g`, `a`, `b`) under a pinned codec.
fn plan_table(block_rows: usize, encoding: Option<Encoding>, n: usize, seed: u64) -> Case {
    let mut rng = SimRng::new(seed);
    // `g` cycles (dict/rle-friendly), `a` trends (delta-friendly), `b` is
    // noise (forpack-friendly).
    let rows = (0..n as i64)
        .map(|i| vec![i % 23, (i / 4) % 1_000, rng.range_i64(0, 100)])
        .collect();
    Case::replay(
        Schema::new(vec!["g", "a", "b"]),
        block_rows,
        (0..3)
            .map(|c| Op::Pin(c, encoding))
            .chain([Op::Insert(rows)]),
    )
}

/// `count` random picks among the rows of `case` to forget.
fn random_forgets(case: &Case, rng: &mut SimRng, count: usize) -> Op {
    let n = case.model.len();
    Op::Forget((0..count).map(|_| rng.index(n)).collect())
}

/// `execute_plan` returns the model's rows at every pool width across
/// codecs × block sizes × freeze/forget/recompress interleavings, without
/// block decodes once the table is fully frozen.
#[test]
fn physical_plans_parallel_equals_serial_across_tiers() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 11u64),
        (64, Some(Encoding::Rle), 12),
        (64, Some(Encoding::Dict), 13),
        (128, Some(Encoding::Delta), 14),
        (128, Some(Encoding::ForPack), 15),
        (256, Some(Encoding::Plain), 16),
        (1024, None, 17),
        (64, Some(Encoding::RunBits), 18),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?}");
        let mut rng = SimRng::new(seed);
        let mut t = plan_table(block_rows, encoding, 3_000, seed);
        let plans = [grouped_plan(), projection_plan(), global_agg_plan()];
        let check = |t: &Case, stage: &str| {
            for (i, plan) in plans.iter().enumerate() {
                assert_plan_matches_model(&[t], plan, &format!("{ctx} plan#{i} {stage}"));
            }
        };
        check(&t, "hot");
        let forgets = random_forgets(&t, &mut rng, 700);
        t.apply(forgets);
        check(&t, "hot+forgets");
        t.apply(Op::FreezeUpto(1_500));
        check(&t, "half-frozen");
        t.apply(Op::FreezeUpto(3_000));
        check(&t, "frozen");
        let forgets = random_forgets(&t, &mut rng, 400);
        t.apply(forgets);
        check(&t, "frozen+forgets");
        t.apply(Op::Recompress(0.9));
        check(&t, "recompressed");
        let tail = (0..900)
            .map(|i| vec![i % 23, 400 + (i % 300), rng.range_i64(0, 100)])
            .collect();
        t.apply(Op::Insert(tail));
        check(&t, "regrown-tail");
    }
}

/// A hot table and its frozen copy on a correlated column: the hot
/// blocks' metas prune exactly the blocks the frozen metas prune, so the
/// two count identical work, and both return the model's rows — through
/// the single-column kernels, a one-predicate plan under `Serial` and
/// `Parallel(2)` (at a morsel size that cuts blocks in two), and a join
/// probe against a narrow build side. The forgets spare each block's
/// first and last rows (the column ascends), so the hot bounds over all
/// values and the frozen bounds over active ones coincide. One predicate
/// starts at a block's maximum: that block must survive the pruning.
#[test]
fn hot_and_frozen_twins_prune_the_same_blocks() {
    let br = 256;
    let n = 16 * br + 100;
    let mut rng = SimRng::new(34);
    let victims = (0..n)
        .filter(|&r| {
            let edge = r % br == 0 || r % br == br - 1;
            (3 * br..4 * br).contains(&r) || (!edge && rng.chance(0.25))
        })
        .collect();
    let hot = Case::replay(
        Schema::new(vec!["a", "b"]),
        br,
        [
            Op::Insert((0..n as i64).map(|i| vec![i, i % 7]).collect()),
            Op::Forget(victims),
        ],
    );
    let mut frozen = hot.clone();
    frozen.apply(Op::FreezeUpto(n));
    assert_eq!(frozen.table.frozen_blocks(), 16);
    assert_eq!(hot.table.col_tier(0).full_blocks(), 16);
    let keys = case(
        DEFAULT_BLOCK_ROWS,
        None,
        &[Op::column(&(1_000..1_100).collect::<Vec<i64>>())],
    );
    let span = n as i64;
    for (lo, hi, pruned) in [
        (700, 1_300, 13),
        (3 * 256 + 10, 5 * 256, 15),
        (2 * 256 - 1, 2 * 256 + 1, 14),
        (0, span, 1),
        (span - 50, span, 16),
        (-10, 0, 16),
    ] {
        let pred = RangePredicate::new(lo, hi);
        let ctx = format!("[{lo}, {hi})");
        let want = hot.model.query(0, &Query::Range(pred), ACTIVE);
        let (h, f) = (scan(&hot.table, pred), scan(&frozen.table, pred));
        assert_eq!(h, f, "{ctx}");
        assert_eq!(QueryOutput::Rows(h.0), want, "{ctx}");
        assert_eq!(h.1.blocks_pruned, pruned, "{ctx}");
        let agg =
            |t: &Table| aggregate_tiered_active(t.col_tier(0), t.activity_words(), Some(pred)).1;
        assert_eq!(agg(&hot.table), agg(&frozen.table), "aggregate {ctx}");
        assert_serial_kernels_agree(&hot, pred, true, &ctx);
        assert_serial_kernels_agree(&frozen, pred, false, &ctx);
        // A two-predicate scan attributes each pruned block to the first
        // predicate that killed it; the forgotten block 3 goes to none.
        let preds = [ColPred::range(1, 0, 6), ColPred::from_range(0, pred)];
        let scan = |t: &Table| {
            let mut per_pred = vec![kernels::PredScanStats::default(); 2];
            let (sel, stats) = kernels::selection_scan_ordered(t, &preds, &[0, 1], &mut per_pred);
            let pruned: Vec<usize> = per_pred.iter().map(|p| p.blocks_pruned).collect();
            (kernels::selection_rows(&sel), stats, pruned)
        };
        let (h, f) = (scan(&hot.table), scan(&frozen.table));
        assert_eq!(h, f, "{ctx}");
        assert_eq!(QueryOutput::Rows(h.0), want, "{ctx}");
        assert_eq!(h.2, [0, pruned - 1], "{ctx}");
        let plan = plan(
            vec![vec![ColPred::from_range(0, pred)]],
            None,
            vec![col(0, 1)],
        );
        let want = eval_plan(&[&hot.model], &plan);
        for mode in [ExecMode::Serial, ExecMode::Parallel(2)] {
            let exec = Executor::default()
                .with_exec_mode(mode)
                .with_morsel_rows(br + br / 2);
            let (h, f) = (
                exec.execute_plan(&[&hot.table], &[], &plan),
                exec.execute_plan(&[&frozen.table], &[], &plan),
            );
            assert_eq!(h.rows, want, "{mode:?} {ctx}");
            assert_eq!(f.rows, want, "{mode:?} {ctx}");
            assert_eq!(h.stats.blocks_pruned, pruned, "{mode:?} {ctx}");
            assert_eq!(f.stats.blocks_pruned, pruned, "{mode:?} {ctx}");
            assert_eq!(h.stats.rows_scanned, f.stats.rows_scanned, "{mode:?} {ctx}");
        }
    }
    let want = join_pairs(&keys.model, 0, &hot.model, 0, ACTIVE);
    let (h, f) = (
        hash_join(&keys.table, 0, &hot.table, 0, ACTIVE),
        hash_join(&keys.table, 0, &frozen.table, 0, ACTIVE),
    );
    assert_eq!(h, f);
    assert_eq!(h.pairs, want);
    assert_eq!(
        h.stats.blocks_pruned, 15,
        "block 4 meets the keys, block 3 is forgotten"
    );
}

/// The two-table join plan: parallel build/probe/gather returns the
/// model's rows across independent freeze states of the two sides.
#[test]
fn join_plans_parallel_equals_serial_across_tiers() {
    let scans = || vec![vec![], vec![ColPred::range(1, 0, 600)]];
    let join_plan = plan(scans(), Some((0, 0)), vec![col(0, 1), col(1, 2)]);
    let items = vec![
        col(0, 0),
        agg(AggKind::Count, None),
        agg(AggKind::Sum, Some((1, 2))),
    ];
    let grouped_join_plan = PhysicalPlan {
        group_by: Some((0, 0, "k".into())),
        order_by: Some((2, SortDir::Desc)),
        limit: Some(8),
        ..plan(scans(), Some((0, 0)), items)
    };
    for (block_rows, encoding) in [
        (64usize, Some(Encoding::Dict)),
        (64, Some(Encoding::Rle)),
        (64, Some(Encoding::RunBits)),
        (128, None),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?}");
        let mut rng = SimRng::new(31);
        let mut parent = plan_table(block_rows, encoding, 1_200, 32);
        let mut child = plan_table(block_rows, encoding, 2_400, 33);
        let forgets = random_forgets(&parent, &mut rng, 500);
        parent.apply(forgets);
        let forgets = random_forgets(&child, &mut rng, 500);
        child.apply(forgets);
        let check = |p: &Case, c: &Case, stage: &str| {
            assert_plan_matches_model(&[p, c], &join_plan, &format!("{ctx} {stage}"));
            assert_plan_matches_model(
                &[p, c],
                &grouped_join_plan,
                &format!("{ctx} grouped {stage}"),
            );
        };
        check(&parent, &child, "hot/hot");
        parent.apply(Op::FreezeUpto(1_200));
        check(&parent, &child, "frozen/hot");
        child.apply(Op::FreezeUpto(1_200));
        check(&parent, &child, "frozen/mixed");
        child.apply(Op::FreezeUpto(2_400));
        check(&parent, &child, "frozen/frozen");
        parent.apply(Op::Recompress(0.95));
        child.apply(Op::Recompress(0.95));
        check(&parent, &child, "recompressed");
    }
}

// ---- packed codecs: the 64-row group kernels against a per-value oracle

mod packed_codecs {
    use amnesia::columnar::compress::varint::{read_signed, read_varint, zigzag_encode};
    use amnesia::columnar::compress::{
        block_decodes, dict, forpack, runbits, BlockAgg, EncodedBlock, Encoding,
    };
    use amnesia::prelude::SimRng;

    const LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 1_000, 1_024, 4_103];

    fn low_ones(n: u32) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    fn write_signed(buf: &mut Vec<u8>, v: i64) {
        write_varint(buf, zigzag_encode(v));
    }

    /// The encoders' bit packer: `width` bits per field, LSB-first across
    /// little-endian words, the last word zero-padded.
    fn pack(buf: &mut Vec<u8>, width: u32, fields: &[u64]) {
        let (mut word, mut filled) = (0u64, 0u32);
        for &field in fields {
            let (mut remaining, mut chunk) = (width, field);
            while remaining > 0 {
                let take = remaining.min(64 - filled);
                word |= (chunk & low_ones(take)) << filled;
                filled += take;
                chunk = chunk.checked_shr(take).unwrap_or(0);
                remaining -= take;
                if filled == 64 {
                    buf.extend_from_slice(&word.to_le_bytes());
                    (word, filled) = (0, 0);
                }
            }
        }
        if filled > 0 {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// THE ORACLE: the per-value bit walk every packed read path used
    /// before the group kernels — copy the region into words, then unpack
    /// one field at a time through a `while got < width` loop.
    fn oracle_unpack(region: &[u8], width: u32, count: usize) -> Vec<u64> {
        let words: Vec<u64> = region
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut bit_pos = 0usize;
        (0..count)
            .map(|_| {
                let (mut field, mut got) = (0u64, 0u32);
                while got < width {
                    let in_word = (bit_pos % 64) as u32;
                    let take = (width - got).min(64 - in_word);
                    field |= ((words[bit_pos / 64] >> in_word) & low_ones(take)) << got;
                    got += take;
                    bit_pos += take as usize;
                }
                field
            })
            .collect()
    }

    fn oracle_decode(encoding: Encoding, data: &[u8]) -> Vec<i64> {
        let mut pos = 0;
        let count = read_varint(data, &mut pos) as usize;
        if count == 0 {
            return Vec::new();
        }
        match encoding {
            Encoding::ForPack => {
                let min = read_signed(data, &mut pos) as i128;
                oracle_unpack(&data[pos + 1..], data[pos].into(), count)
                    .into_iter()
                    .map(|off| (min + off as i128) as i64)
                    .collect()
            }
            Encoding::Dict => {
                let mut prev = 0i64;
                let dictionary: Vec<i64> = (0..read_varint(data, &mut pos))
                    .map(|_| {
                        prev = prev.wrapping_add(read_signed(data, &mut pos));
                        prev
                    })
                    .collect();
                oracle_unpack(&data[pos + 1..], data[pos].into(), count)
                    .into_iter()
                    .map(|code| dictionary[code as usize])
                    .collect()
            }
            other => panic!("{other:?} is not a packed codec"),
        }
    }

    /// A forpack payload at exactly `width` bits (wider than the span
    /// needs is legal for the decoder, and the only way to pair every
    /// width with every length).
    fn forpack_payload(min: i64, width: u32, offsets: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, offsets.len() as u64);
        if !offsets.is_empty() {
            write_signed(&mut buf, min);
            buf.push(width as u8);
            pack(&mut buf, width, offsets);
        }
        buf
    }

    fn dict_payload(dictionary: &[i64], width: u32, codes: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, codes.len() as u64);
        if !codes.is_empty() {
            write_varint(&mut buf, dictionary.len() as u64);
            let mut prev = 0i64;
            for &v in dictionary {
                write_signed(&mut buf, v.wrapping_sub(prev));
                prev = v;
            }
            buf.push(width as u8);
            pack(&mut buf, width, codes);
        }
        buf
    }

    /// Frame minimum for a `width`-bit forpack block: the extremes of
    /// `i64` wherever the band still fits.
    fn frame_min(rng: &mut SimRng, width: u32) -> i64 {
        let top = (i64::MAX as i128 - low_ones(width) as i128).max(i64::MIN as i128) as i64;
        match rng.index(4) {
            0 => i64::MIN,
            1 => top,
            2 => 0i64.min(top),
            _ => rng.range_i64(i64::MIN / 2, 0).min(top),
        }
    }

    fn random_fields(rng: &mut SimRng, len: usize, max: u64) -> Vec<u64> {
        let mut fields: Vec<u64> = (0..len)
            .map(|_| match max {
                u64::MAX => rng.next_u64(),
                max => rng.below(max + 1),
            })
            .collect();
        // Both ends of the band are present whenever there is room.
        if len >= 2 {
            let at = rng.index(len);
            fields[at] = 0;
            fields[(at + 1 + rng.index(len - 1)) % len] = max;
        }
        fields
    }

    /// Sorted, distinct dictionary of `n` entries, extremes included now
    /// and then.
    fn random_dictionary(rng: &mut SimRng, n: usize) -> Vec<i64> {
        let mut d: Vec<i64> = (0..n)
            .map(|i| match (i, rng.index(3)) {
                (0, 0) => i64::MIN,
                (1, 0) => i64::MAX,
                (_, 1) => rng.range_i64(-1_000, 1_000),
                _ => rng.next_u64() as i64,
            })
            .collect();
        d.sort_unstable();
        d.dedup();
        d
    }

    /// `[lo, hi)` bounds around a block whose codec frame is
    /// `[frame_lo, frame_hi]`: empty, the whole domain, the `i64`
    /// extremes, entirely below / above the frame, single values, the
    /// frame edges, and random interiors.
    fn bounds(rng: &mut SimRng, values: &[i64], frame_lo: i64, frame_hi: i64) -> Vec<(i64, i64)> {
        let pick = |rng: &mut SimRng| match values.len() {
            0 => 0,
            n => values[rng.index(n)],
        };
        let (a, b) = (pick(rng), pick(rng));
        vec![
            (a, a),
            (a.max(b), a.min(b)),
            (i64::MIN, i64::MAX),
            (i64::MIN, a),
            (a, i64::MAX),
            (i64::MIN, i64::MIN + 1),
            (i64::MAX - 1, i64::MAX),
            (frame_lo.saturating_sub(100), frame_lo),
            (frame_hi.saturating_add(1), frame_hi.saturating_add(100)),
            (a, a.saturating_add(1)),
            (frame_lo, frame_lo.saturating_add(1)),
            (frame_hi, frame_hi.saturating_add(1)),
            (frame_lo, frame_hi),
            (frame_lo.saturating_add(1), frame_hi.saturating_add(1)),
            (a.min(b), a.max(b)),
        ]
    }

    /// Activity words: none, sparse, dense, all — "all" with the bits
    /// past `len` set too, which the kernels must ignore.
    fn activities(rng: &mut SimRng, len: usize) -> [Vec<u64>; 4] {
        let words = len.div_ceil(64);
        let draw = |rng: &mut SimRng, keep: f64| -> Vec<u64> {
            (0..words)
                .map(|_| (0..64).fold(0u64, |w, b| w | u64::from(rng.chance(keep)) << b))
                .collect()
        };
        [
            vec![0; words],
            draw(rng, 0.03),
            draw(rng, 0.9),
            vec![u64::MAX; words],
        ]
    }

    fn is_active(active: &[u64], row: usize) -> bool {
        active[row / 64] >> (row % 64) & 1 == 1
    }

    /// Every read path of one payload against the oracle's decode.
    fn assert_block_agrees(encoding: Encoding, data: Vec<u8>, frame: (i64, i64), ctx: &str) {
        let want = oracle_decode(encoding, &data);
        assert_rows_agree(encoding, data, want, frame, ctx);
    }

    /// Every read path of one payload against the rows it holds.
    fn assert_rows_agree(
        encoding: Encoding,
        data: Vec<u8>,
        want: Vec<i64>,
        frame: (i64, i64),
        ctx: &str,
    ) {
        let n = want.len();
        let block = EncodedBlock::try_from_parts(encoding, n, data.clone().into())
            .unwrap_or_else(|e| panic!("{ctx}: well-formed payload refused: {e}"));
        let mut rng = SimRng::new(n as u64 ^ 0xB10C);
        let before = block_decodes();

        for row in (0..n).step_by(1 + n / 37).chain(n.checked_sub(1)) {
            assert_eq!(block.value_at(row), want[row], "{ctx} value_at({row})");
        }

        let activities = activities(&mut rng, n);
        for active in &activities {
            let mut got = Vec::new();
            block.for_each_active(active, |row, v| got.push((row, v)));
            let expect: Vec<(usize, i64)> = (0..n)
                .filter(|&r| is_active(active, r))
                .map(|r| (r, want[r]))
                .collect();
            assert_eq!(got, expect, "{ctx} for_each_active");
        }

        let mut masks = vec![0xDEAD_BEEF]; // stale content must be replaced
        for (lo, hi) in bounds(&mut rng, &want, frame.0, frame.1) {
            block.filter_range_masks(lo, hi, &mut masks);
            assert_eq!(masks.len(), n.div_ceil(64), "{ctx} [{lo},{hi}) mask words");
            let expect: Vec<u64> = want
                .chunks(64)
                .map(|rows| {
                    rows.iter()
                        .enumerate()
                        .fold(0u64, |w, (i, &v)| w | u64::from(v >= lo && v < hi) << i)
                })
                .collect();
            // Word equality also pins the tail bits of the last word clear.
            assert_eq!(masks, expect, "{ctx} filter [{lo},{hi})");

            for active in &activities {
                for filter in [Some((lo, hi)), None] {
                    let mut got = BlockAgg::new();
                    block.fold_range_masked(filter, active, &mut got);
                    let mut expect = BlockAgg::new();
                    for (r, &v) in want.iter().enumerate() {
                        if is_active(active, r) && filter.is_none_or(|(lo, hi)| v >= lo && v < hi) {
                            expect.push(v);
                        }
                    }
                    assert_eq!(got, expect, "{ctx} fold {filter:?}");
                }
            }
        }
        assert_eq!(block_decodes(), before, "{ctx}: a fused path decoded");

        assert_eq!(block.decode(), want, "{ctx} decode");
        match encoding {
            Encoding::ForPack => {
                let mut got = Vec::with_capacity(n);
                forpack::decode_into(&data, &mut got);
                assert_eq!(got, want, "{ctx} codec decode");
            }
            Encoding::RunBits => {
                let mut got = Vec::with_capacity(n);
                runbits::decode_into(&data, n, &mut got);
                assert_eq!(got, want, "{ctx} codec decode");
                let mut rows = 0;
                runbits::for_each_run(&data, n, |v, start, len| {
                    assert_eq!(start, rows, "{ctx} runs ascend");
                    assert!(
                        want[start..start + len].iter().all(|&w| w == v),
                        "{ctx} run"
                    );
                    rows += len;
                });
                assert_eq!(rows, n, "{ctx} runs cover the block");
            }
            Encoding::Dict => {
                let dictionary = dict::read_dictionary(&data);
                let mut got = Vec::with_capacity(n);
                dict::decode_into(&data, &dictionary, &mut got);
                assert_eq!(got, want, "{ctx} codec decode");
                let mut got = Vec::new();
                dict::for_each_active_code(&data, &activities[2], |row, code| {
                    got.push((row, dictionary[code as usize]));
                });
                let expect: Vec<(usize, i64)> = (0..n)
                    .filter(|&r| is_active(&activities[2], r))
                    .map(|r| (r, want[r]))
                    .collect();
                assert_eq!(got, expect, "{ctx} for_each_active_code");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn forpack_group_kernels_equal_the_per_value_oracle_at_every_width() {
        let mut rng = SimRng::new(0xF0_4B);
        for width in 1..=64u32 {
            for len in LENGTHS {
                let min = frame_min(&mut rng, width);
                let offsets = random_fields(&mut rng, len, low_ones(width));
                let frame_hi = (min as i128 + low_ones(width) as i128) as i64;
                let payload = forpack_payload(min, width, &offsets);
                // The assembler is the real format: where the offsets
                // pin the canonical width, `encode` emits the same bytes.
                if len >= 2 {
                    let values: Vec<i64> = offsets
                        .iter()
                        .map(|&off| (min as i128 + off as i128) as i64)
                        .collect();
                    assert_eq!(forpack::encode(&values)[..], payload[..], "w{width} n{len}");
                }
                assert_block_agrees(
                    Encoding::ForPack,
                    payload,
                    (min, frame_hi),
                    &format!("forpack w{width} n{len}"),
                );
            }
        }
    }

    #[test]
    fn dict_group_kernels_equal_the_per_value_oracle_at_every_width() {
        let mut rng = SimRng::new(0xD1C7);
        for width in 1..=64u32 {
            for len in LENGTHS {
                let room = low_ones(width.min(6)) as usize + 1;
                let entries = 1 + rng.index(room.min(len.max(1)));
                let dictionary = random_dictionary(&mut rng, entries);
                let codes = random_fields(&mut rng, len, dictionary.len() as u64 - 1);
                let frame = (dictionary[0], *dictionary.last().unwrap());
                let payload = dict_payload(&dictionary, width, &codes);
                // Canonical width + every entry used = what `encode` emits.
                let canonical = (64 - (dictionary.len() as u64 - 1).leading_zeros()).max(1);
                let mut used: Vec<u64> = codes.clone();
                used.sort_unstable();
                used.dedup();
                if width == canonical && used.len() == dictionary.len() {
                    let values: Vec<i64> = codes.iter().map(|&c| dictionary[c as usize]).collect();
                    assert_eq!(dict::encode(&values)[..], payload[..], "w{width} n{len}");
                }
                assert_block_agrees(
                    Encoding::Dict,
                    payload,
                    frame,
                    &format!("dict w{width} n{len}"),
                );
            }
        }
    }

    /// Runbits at every width of its embedded run values: start words with
    /// row 0 and a random share of the other rows set (runs of about one,
    /// two and fifty rows), then a forpack payload of one offset per start
    /// at exactly `width` bits. The oracle gives each row the value of the
    /// last start at or before it.
    #[test]
    fn runbits_kernels_equal_the_per_value_oracle_at_every_width() {
        let mut rng = SimRng::new(0x5B17);
        for width in 1..=64u32 {
            for len in LENGTHS {
                let keep = [0.98, 0.5, 0.02][rng.index(3)];
                let starts: Vec<usize> = (0..len).filter(|&r| r == 0 || rng.chance(keep)).collect();
                let min = frame_min(&mut rng, width);
                let offsets = random_fields(&mut rng, starts.len(), low_ones(width));
                let mut payload = vec![0u8; 8 * len.div_ceil(64)];
                for &r in &starts {
                    payload[r / 8] |= 1 << (r % 8);
                }
                payload.extend(forpack_payload(min, width, &offsets));
                let mut run = 0;
                let want: Vec<i64> = (0..len)
                    .map(|r| {
                        if starts.get(run + 1) == Some(&r) {
                            run += 1;
                        }
                        (min as i128 + offsets[run] as i128) as i64
                    })
                    .collect();
                let frame_hi = (min as i128 + low_ones(width) as i128) as i64;
                assert_rows_agree(
                    Encoding::RunBits,
                    payload,
                    want,
                    (min, frame_hi),
                    &format!("runbits w{width} n{len}"),
                );
            }
        }
    }
}
