//! Cost-based planning suites: estimation quality (bounded q-error
//! across value distributions, codecs and block sizes), plan
//! equivalence (the cost-driven executor and the syntactic order both
//! return the model's rows, serial and parallel, with zero extra block
//! decodes), and coherence of the column summary every statement
//! plans from (what a live table holds equals what a fresh decode of its
//! snapshot builds, after every kind of mutation; a statement rebuilds
//! only what a mutation made stale).

mod common;

use amnesia::columnar::compress::{block_decodes, summary_builds, Encoding};
use amnesia::columnar::persist::snapshot;
use amnesia::columnar::{BlockState, Schema, Table};
use amnesia::engine::exec::PlanTag;
use amnesia::engine::{
    order_predicates, q_error, ColPred, ColumnStats, CostModel, ExecMode, Executor,
    ForgetVisibility, PhysicalPlan, PlanHint, SortDir,
};
use amnesia::prelude::SimRng;
use amnesia_model::{eval_plan, gen, join_pairs, Case, Op};
use common::{col, plan};

/// Build a single-column table, freeze every full block.
fn frozen_column(values: &[i64], block_rows: usize, enc: Option<Encoding>) -> Table {
    let mut t = Table::with_block_rows(Schema::single("v"), block_rows);
    if enc.is_some() {
        t.pin_encoding(0, enc);
    }
    t.insert_batch(values, 0).unwrap();
    t.freeze_upto((values.len() / block_rows) * block_rows);
    t
}

/// The value distributions of the estimation suite.
fn distributions(n: usize) -> Vec<(&'static str, Vec<i64>)> {
    let mut rng = SimRng::new(42);
    let uniform: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 10_000)).collect();
    // Zipf-like skew: an inverse-power transform of a uniform variate
    // piles most of the mass on small values with a long tail.
    let zipf: Vec<i64> = (0..n)
        .map(|_| {
            let u = rng.f64();
            (10_000.0 * u * u * u) as i64
        })
        .collect();
    let sorted: Vec<i64> = (0..n as i64).collect();
    let constant: Vec<i64> = vec![7; n];
    vec![
        ("uniform", uniform),
        ("zipf", zipf),
        ("sorted", sorted),
        ("constant", constant),
    ]
}

#[test]
fn estimation_quality_bounded_q_error_across_shapes() {
    let n = 8192;
    let model = CostModel::default();
    let codecs = [
        None,
        Some(Encoding::ForPack),
        Some(Encoding::Dict),
        Some(Encoding::RunBits),
    ];
    let mut worst: (f64, String) = (1.0, String::new());
    for (dist, values) in distributions(n) {
        for block_rows in [256usize, 1024] {
            for enc in codecs {
                // Rle only for the shape it can encode well.
                let enc = if dist == "constant" {
                    Some(Encoding::Rle)
                } else {
                    enc
                };
                let t = frozen_column(&values, block_rows, enc);
                let stats = ColumnStats::of(&t, 0, &model);
                for (lo, hi) in [(0i64, 999), (0, 4999), (2500, 7499), (7, 7)] {
                    let p = ColPred::range(0, lo, hi);
                    let actual = values.iter().filter(|&&v| lo <= v && v <= hi).count();
                    let q = q_error(stats.estimate_pred(&p), actual as f64);
                    let ctx = format!(
                        "dist={dist} block_rows={block_rows} enc={enc:?} range=[{lo},{hi}]"
                    );
                    if q > worst.0 {
                        worst = (q, ctx.clone());
                    }
                    // Per-shape bounds: exact shapes must be near-exact,
                    // skewed shapes merely bounded. A *point* predicate
                    // on skewed data is the block-mass histogram's known
                    // blind spot (per-block mass spreads uniformly over
                    // `[min, max]`, so a heavy value inside a wide block
                    // dilutes) — bounded, but loosely.
                    let bound = match (dist, lo == hi) {
                        ("sorted" | "constant", _) => 2.0,
                        ("uniform", _) => 3.0,
                        ("zipf", true) => 64.0,
                        _ => 12.0,
                    };
                    assert!(q <= bound, "q-error {q:.2} over bound {bound}: {ctx}");
                }
            }
        }
    }
    eprintln!("worst q-error {:.2} at {}", worst.0, worst.1);
}

/// Three-column table (`g`, `a`, `b`): `g` cycles, `a` trends with the
/// row id (tight block metas), `b` is uniform noise (useless metas).
/// Every full block frozen, then an eighth of the rows forgotten.
fn plan_table(n: usize, block_rows: usize, enc: Option<Encoding>) -> Case {
    let mut rng = SimRng::new(7);
    let rows = (0..n as i64)
        .map(|i| {
            vec![
                i % 23,
                (i / 4) + rng.range_i64(0, 32),
                rng.range_i64(0, 1000),
            ]
        })
        .collect();
    let mut forget = SimRng::new(99);
    let victims = (0..n / 8).map(|_| forget.index(n)).collect();
    Case::replay(
        Schema::new(vec!["g", "a", "b"]),
        block_rows,
        [
            Op::Pin(0, enc),
            Op::Pin(1, enc),
            Op::Pin(2, enc),
            Op::Insert(rows),
            Op::FreezeUpto(n / block_rows * block_rows),
            Op::Forget(victims),
        ],
    )
}

fn multi_pred_plan(hint: PlanHint) -> PhysicalPlan {
    // Written worst-first: the wide noise predicate leads, the selective
    // trending predicate trails.
    let preds = vec![
        ColPred::range(2, 0, 899),
        ColPred::range(1, 100, 400),
        ColPred::range(0, 0, 20),
    ];
    PhysicalPlan {
        order_by: Some((1, SortDir::Asc)),
        hint,
        ..plan(vec![preds], None, vec![col(0, 0), col(0, 1)])
    }
}

#[test]
fn cost_based_scan_equals_syntactic_oracle() {
    for enc in [
        None,
        Some(Encoding::ForPack),
        Some(Encoding::Dict),
        Some(Encoding::Delta),
        Some(Encoding::RunBits),
    ] {
        for block_rows in [256usize, 1024] {
            let t = plan_table(4096, block_rows, enc);
            let want = eval_plan(&[&t.model], &multi_pred_plan(PlanHint::CostBased));
            for hint in [PlanHint::SyntacticOrder, PlanHint::CostBased] {
                for mode in [ExecMode::Serial, ExecMode::Parallel(8)] {
                    let ctx = format!("enc={enc:?} block_rows={block_rows} {hint:?} {mode:?}");
                    let before = block_decodes();
                    let got = Executor::default().with_exec_mode(mode).execute_plan(
                        &[&t.table],
                        &[],
                        &multi_pred_plan(hint),
                    );
                    assert_eq!(got.rows, want, "{ctx}");
                    assert_eq!(
                        block_decodes() - before,
                        0,
                        "the scan decoded blocks: {ctx}"
                    );
                    // The cost path records its estimates; the syntactic
                    // order records none.
                    let cost = hint == PlanHint::CostBased;
                    assert_eq!(!got.stats.stage_estimates.is_empty(), cost, "{ctx}");
                    assert_eq!(
                        got.stats.pred_stats.len(),
                        if cost { 3 } else { 0 },
                        "{ctx}"
                    );
                }
            }
        }
    }
}

fn join_plan(hint: PlanHint, right_pred: bool) -> PhysicalPlan {
    let child = if right_pred {
        vec![ColPred::range(1, 0, 600)]
    } else {
        vec![]
    };
    PhysicalPlan {
        hint,
        ..plan(
            vec![vec![], child],
            Some((0, 0)),
            vec![col(0, 1), col(1, 1)],
        )
    }
}

/// parent(k, v) large, child(fk, v) small and filtered — the syntactic
/// build side (slot 0) is the *larger* side, so the cost model should
/// swap the build to slot 1 and still return the model's pairs.
#[test]
fn join_build_side_swap_preserves_rows() {
    let mut rng = SimRng::new(5);
    let parent_rows = (0..4096i64)
        .map(|i| vec![i % 997, rng.range_i64(0, 1000)])
        .collect();
    let child_rows = (0..512)
        .map(|_| vec![rng.range_i64(0, 997), rng.range_i64(0, 1000)])
        .collect();
    let parent = Case::replay(
        Schema::new(vec!["k", "v"]),
        256,
        [Op::Insert(parent_rows), Op::FreezeUpto(4096)],
    );
    let child = Case::replay(
        Schema::new(vec!["fk", "v"]),
        256,
        [Op::Insert(child_rows), Op::FreezeUpto(512)],
    );
    let tables = [&parent.table, &child.table];
    let want = eval_plan(
        &[&parent.model, &child.model],
        &join_plan(PlanHint::CostBased, true),
    );
    for hint in [PlanHint::SyntacticOrder, PlanHint::CostBased] {
        for mode in [ExecMode::Serial, ExecMode::Parallel(8)] {
            let got = Executor::default().with_exec_mode(mode).execute_plan(
                &tables,
                &[],
                &join_plan(hint, true),
            );
            assert_eq!(got.rows, want, "{hint:?} {mode:?}");
            let build = (hint == PlanHint::CostBased).then_some(1);
            assert_eq!(
                got.stats.build_side, build,
                "the smaller filtered child is the build side under the cost hint ({mode:?})"
            );
        }
    }
}

/// Both join keys frozen-sorted: the cost-based executor takes the merge
/// path (no hash table), and it and the hash join both return the model's
/// pairs, in serial and parallel modes alike.
#[test]
fn merge_join_on_sorted_keys_matches_hash_oracle() {
    let mut rng = SimRng::new(11);
    let parent_rows = (0..2048i64)
        .map(|i| vec![i, rng.range_i64(0, 1000)])
        .collect();
    // Sorted foreign keys (each parent key 0..=1023 twice).
    let child_rows = (0..2048i64)
        .map(|i| vec![i / 2, rng.range_i64(0, 1000)])
        .collect();
    let [parent, child] =
        [(vec!["k", "v"], parent_rows), (vec!["fk", "v"], child_rows)].map(|(names, rows)| {
            Case::replay(
                Schema::new(names),
                256,
                [Op::Insert(rows), Op::FreezeUpto(2048)],
            )
        });
    let (p, c) = (&parent.table, &child.table);
    assert!(p.col_summary(0).sorted_hint() && c.col_summary(0).sorted_hint());
    let want = eval_plan(
        &[&parent.model, &child.model],
        &join_plan(PlanHint::CostBased, false),
    );
    let pairs = join_pairs(
        &parent.model,
        0,
        &child.model,
        0,
        ForgetVisibility::ActiveOnly,
    );
    for (hint, tag) in [
        (PlanHint::SyntacticOrder, PlanTag::TieredJoin),
        (PlanHint::CostBased, PlanTag::MergeJoin),
    ] {
        for mode in [ExecMode::Serial, ExecMode::Parallel(8)] {
            let got = Executor::default().with_exec_mode(mode).execute_plan(
                &[p, c],
                &[],
                &join_plan(hint, false),
            );
            assert_eq!(got.rows, want, "{hint:?} {mode:?}");
            assert_eq!(got.stats.plan, tag, "{hint:?} {mode:?}");
            assert_eq!(got.stats.join_pairs, pairs.len());
        }
    }
}

/// The executed-EXPLAIN renderer surfaces estimates, actuals, the
/// chosen predicate order and per-predicate pruning.
#[test]
fn explain_executed_prints_estimates_and_cost_order() {
    let t = plan_table(4096, 256, None).table;
    let tables = [&t];
    let plan = multi_pred_plan(PlanHint::CostBased);
    let result = Executor::default()
        .with_exec_mode(ExecMode::Serial)
        .execute_plan(&tables, &[], &plan);
    let text = plan.explain_executed(Some(&tables), &result.stats);
    assert!(text.contains("est≈"), "{text}");
    assert!(text.contains("act="), "{text}");
    assert!(text.contains("cost-order:"), "{text}");
    assert!(text.contains("pruned"), "{text}");
    // Estimates track actuals on this table.
    for e in &result.stats.stage_estimates {
        assert!(
            q_error(e.est_rows, e.actual_rows as f64) < 8.0,
            "stage {} est {} vs act {}",
            e.label,
            e.est_rows,
            e.actual_rows
        );
    }
}

/// What a planner reads of `t`, through the cell each column holds.
fn planner_view(t: &Table, preds: &[ColPred]) -> (amnesia::engine::PredOrder, Vec<bool>) {
    let hints = (0..t.schema().arity())
        .map(|c| t.col_summary(c).sorted_hint())
        .collect();
    (order_predicates(t, preds, &CostModel::default()), hints)
}

/// The summary of every column describes exactly the data that is still
/// there: its mass is the active row count, and its domain is the span of
/// the surviving block metas and the active hot rows — nothing of a
/// dropped block or a forgotten hot row.
fn assert_summary_describes_live_data(t: &Table, ctx: &str) {
    let words = t.activity_words();
    for c in 0..t.schema().arity() {
        let tier = t.col_tier(c);
        let summary = t.col_summary(c);
        assert_eq!(summary.active_rows(), t.active_rows() as u64, "{ctx}");
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for b in 0..tier.frozen_blocks() {
            let meta = tier.meta(b);
            if meta.active > 0 {
                lo = lo.min(meta.min);
                hi = hi.max(meta.max);
            }
        }
        for (i, &v) in tier.hot_values().iter().enumerate() {
            let row = tier.hot_start() + i;
            if words[row / 64] >> (row % 64) & 1 == 1 {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        match summary.histogram() {
            None => assert_eq!(t.active_rows(), 0, "{ctx}"),
            Some(h) => {
                assert_eq!(h.total(), t.active_rows() as u64, "{ctx} col {c}");
                assert_eq!(h.range(), (lo, hi), "{ctx} col {c}");
            }
        }
    }
}

/// A generated history over every kind of mutation. After every op the
/// live table, whose cells were filled by earlier ops and emptied (or
/// outgrown) by this one, plans exactly as a table decoded from its own
/// snapshot, whose cells were never filled. After each recompression
/// the table is replaced by its clone, which carries the filled cells on.
/// Column 0 trends upward (sorted until the noise bites), column 1 is
/// noise, and a far outlier lands now and then, so a drop or a forget
/// has a domain edge to take away.
fn summary_coherence_history(arity: usize, seed: u64) {
    let preds: Vec<ColPred> = (0..arity)
        .flat_map(|c| [ColPred::range(c, 10, 120), ColPred::range(c, 0, 400)])
        .collect();
    let coherent = |t: &Table, ctx: &str| {
        let fresh = snapshot::decode(&snapshot::encode(t)).expect("snapshot roundtrip");
        assert_eq!(
            planner_view(t, &preds),
            planner_view(&fresh, &preds),
            "{ctx}"
        );
        assert_summary_describes_live_data(t, ctx);
    };
    let config = gen::Config {
        shape: gen::Shape::Trend,
        ..gen::Config::new(arity, 64, 260)
    };
    let (mut hot, mut frozen, mut clones) = (false, false, 0);
    let seen = gen::check(seed, &config, |case, op| {
        coherent(&case.table, "after the op");
        if let Op::Forget(ids) = op {
            let hot_start = case.table.col_tier(0).hot_start();
            hot |= ids.iter().any(|&r| r >= hot_start);
            frozen |= ids.iter().any(|&r| r < hot_start);
        }
        if matches!(op, Op::Recompress(_)) {
            case.table = case.table.clone();
            clones += 1;
            coherent(&case.table, "after a clone");
        }
    });
    for kind in gen::Kind::DRAWN {
        assert!(seen.ran(kind), "arity {arity} seed {seed}: no {kind:?}");
    }
    assert!(
        hot && frozen && clones > 0,
        "hot and frozen forgets and a clone"
    );
    let states = [BlockState::Recompressed, BlockState::Dropped];
    assert!(
        states.iter().all(|&s| seen.reached(s)),
        "the history recompressed and dropped a block"
    );
}

#[test]
fn summary_is_coherent_with_a_fresh_decode_after_every_mutation() {
    summary_coherence_history(1, 3);
    summary_coherence_history(2, 17);
}

/// A statement pays for a summary only when a mutation since the last
/// statement made the held one stale: nothing the second time, one per
/// referenced column after a forget — and what it planned from a summary
/// it just built is what it plans from one it found, in either mode.
#[test]
fn statements_rebuild_summaries_only_after_a_mutation() {
    // 16 frozen blocks and a hot tail of 104 rows.
    let mut t = plan_table(4200, 256, None);
    let plan = multi_pred_plan(PlanHint::CostBased);
    let run = |t: &Case, mode: ExecMode| {
        let before = summary_builds();
        let result = Executor::default()
            .with_exec_mode(mode)
            .execute_plan(&[&t.table], &[], &plan);
        assert_eq!(result.rows, eval_plan(&[&t.model], &plan), "{mode:?}");
        (result, summary_builds() - before)
    };
    // `plan_table` forgot rows last, so every cell starts empty.
    let (first, built) = run(&t, ExecMode::Serial);
    assert_eq!(built, 3, "one summary per referenced column");
    let (second, built) = run(&t, ExecMode::Serial);
    assert_eq!(built, 0, "no mutation between the statements");
    assert_eq!(
        common::planned(&first.stats),
        common::planned(&second.stats)
    );

    // A forget — of a hot row here — and the next statement rebuilds.
    let victim = t.table.iter_active().last().unwrap();
    assert!(victim.as_usize() >= t.table.col_tier(0).hot_start());
    t.apply(Op::Forget(vec![victim.as_usize()]));
    let (cold, built) = run(&t, ExecMode::Parallel(4));
    assert_eq!(built, 3, "a forget empties every column's cell");
    let (warm, built) = run(&t, ExecMode::Parallel(4));
    assert_eq!(built, 0);
    let (serial, built) = run(&t, ExecMode::Serial);
    assert_eq!(built, 0);
    assert_eq!(common::planned(&cold.stats), common::planned(&warm.stats));
    assert_eq!(common::planned(&cold.stats), common::planned(&serial.stats));

    // An append is seen too, without anything having emptied the cell.
    t.apply(Op::Insert(vec![vec![1, 2, 3]]));
    assert_eq!(run(&t, ExecMode::Serial).1, 3);
    assert_eq!(run(&t, ExecMode::Serial).1, 0);

    // The join path reads the sortedness hint from the same cells.
    let before = summary_builds();
    let plan = join_plan(PlanHint::CostBased, true);
    for _ in 0..2 {
        Executor::default()
            .with_exec_mode(ExecMode::Serial)
            .execute_plan(&[&t.table, &t.table], &[], &plan);
    }
    assert_eq!(summary_builds(), before, "cells already current");
}
