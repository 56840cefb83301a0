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
use amnesia::columnar::{BlockState, RowId, Schema, Table};
use amnesia::engine::exec::PlanTag;
use amnesia::engine::{
    order_predicates, q_error, ColPred, ColumnStats, CostModel, ExecMode, Executor,
    ForgetVisibility, PhysicalPlan, PlanHint, SortDir,
};
use amnesia_model::{eval_plan, join_pairs, Case, Op};
use common::{col, has_block_in, plan};

/// Deterministic LCG so the suites never depend on an external RNG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

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
    let mut rng = Lcg(42);
    let uniform: Vec<i64> = (0..n).map(|_| rng.below(10_000)).collect();
    // Zipf-like skew: an inverse-power transform of a uniform variate
    // piles most of the mass on small values with a long tail.
    let zipf: Vec<i64> = (0..n)
        .map(|_| {
            let u = (rng.next() % 1_000_000) as f64 / 1_000_000.0;
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
    let mut rng = Lcg(7);
    let rows = (0..n as i64)
        .map(|i| vec![i % 23, (i / 4) + rng.below(32), rng.below(1000)])
        .collect();
    let mut forget = Lcg(99);
    let victims = (0..n / 8)
        .map(|_| forget.below(n as u64) as usize)
        .collect();
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
    let mut rng = Lcg(5);
    let parent_rows = (0..4096i64)
        .map(|i| vec![i % 997, rng.below(1000)])
        .collect();
    let child_rows = (0..512)
        .map(|_| vec![rng.below(997), rng.below(1000)])
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
    let mut rng = Lcg(11);
    let parent_rows = (0..2048i64).map(|i| vec![i, rng.below(1000)]).collect();
    // Sorted foreign keys (each parent key 0..=1023 twice).
    let child_rows = (0..2048i64).map(|i| vec![i / 2, rng.below(1000)]).collect();
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

/// A seeded history over every kind of mutation. After every step the
/// live table — whose cells were filled by earlier steps and emptied (or
/// outgrown) by this one — plans exactly as a table decoded from its own
/// snapshot, whose cells were never filled.
fn summary_coherence_history(arity: usize, seed: u64) {
    const BLOCK: usize = 64;
    let names: Vec<&str> = ["a", "b"][..arity].to_vec();
    let mut t = Table::with_block_rows(Schema::new(names), BLOCK);
    let mut rng = Lcg(seed);
    // Column 0 trends upward (sorted until the noise bites), column 1 is
    // noise; a far outlier lands now and then so a drop or a forget has a
    // domain edge to take away.
    let row = |rng: &mut Lcg, n: usize| -> Vec<i64> {
        let outlier = if rng.below(40) == 0 { 1_000_000 } else { 0 };
        [n as i64 / 2 + rng.below(3) + outlier, rng.below(500)][..arity].to_vec()
    };
    let preds: Vec<ColPred> = (0..arity)
        .flat_map(|c| [ColPred::range(c, 10, 120), ColPred::range(c, 0, 400)])
        .collect();
    let mut seen = [0usize; 8];
    let (mut recompressed, mut dropped) = (false, false);
    for step in 0..260 {
        let op = if step < 8 {
            step
        } else {
            rng.below(8) as usize
        };
        seen[op] += 1;
        let n = t.num_rows();
        let hot_start = t.col_tier(0).hot_start();
        let what = match op {
            0 => {
                let values = row(&mut rng, n);
                t.insert(&values, step as u64).unwrap();
                "insert"
            }
            1 => {
                let k = 1 + rng.below(150) as usize;
                if arity == 1 {
                    let batch: Vec<i64> = (0..k).map(|i| row(&mut rng, n + i)[0]).collect();
                    t.insert_batch(&batch, step as u64).unwrap();
                } else {
                    for i in 0..k {
                        let values = row(&mut rng, n + i);
                        t.insert(&values, step as u64).unwrap();
                    }
                }
                "insert_batch"
            }
            2 if n > hot_start => {
                let r = hot_start + rng.below((n - hot_start) as u64) as usize;
                t.forget(RowId::from(r), step as u64).unwrap();
                "forget a hot row"
            }
            3 if hot_start > 0 => {
                // Now and then a whole block, so a later drop has a victim.
                let r = rng.below(hot_start as u64) as usize;
                let rows = if rng.below(3) == 0 {
                    r / BLOCK * BLOCK..(r / BLOCK + 1) * BLOCK
                } else {
                    r..r + 1
                };
                for r in rows {
                    t.forget(RowId::from(r), step as u64).unwrap();
                }
                "forget frozen rows"
            }
            4 => {
                t.freeze_upto(n - rng.below(BLOCK as u64 + 1).min(n as i64) as usize);
                "freeze_upto"
            }
            5 => {
                t.recompress_frozen(0.95);
                "recompress_frozen"
            }
            6 => {
                t.drop_forgotten_blocks();
                "drop_forgotten_blocks"
            }
            7 => {
                t = t.clone();
                "clone"
            }
            _ => continue,
        };
        let ctx = format!("arity {arity} seed {seed} step {step} ({what})");
        let fresh = snapshot::decode(&snapshot::encode(&t)).expect("snapshot roundtrip");
        assert_eq!(
            planner_view(&t, &preds),
            planner_view(&fresh, &preds),
            "{ctx}"
        );
        assert_summary_describes_live_data(&t, &ctx);
        recompressed |= has_block_in(&t, BlockState::Recompressed);
        dropped |= has_block_in(&t, BlockState::Dropped);
    }
    assert!(seen.iter().all(|&k| k > 0), "every operation ran: {seen:?}");
    assert!(recompressed, "the history recompressed a block");
    assert!(dropped, "the history dropped a block");
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
