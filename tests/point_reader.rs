//! `TieredColumn::reader` is `value_at`, read by read: every codec, block
//! sizes 128 and 1024, ascending, descending, random and repeated access,
//! reads that cross the hot/frozen boundary and land in dropped blocks,
//! and again after recompression — with zero block decodes. The join
//! aggregates and projections that read through readers (grouped and
//! global, the build side swapped so its reads arrive out of row order)
//! answer the model's rows on hot, half-frozen and frozen tables, on one
//! worker and on two, again with zero block decodes.

mod common;

use amnesia::columnar::compress::{block_decodes, Encoding};
use amnesia::columnar::{RowId, Schema, Table};
use amnesia::engine::{ColPred, ExecMode, Executor, PhysItem, PhysicalPlan, PlanHint, Scalar};
use amnesia::util::SimRng;
use amnesia::workload::AggKind;
use amnesia_model::{eval_plan, Case, Model, Op};
use common::{agg, col, plan};

/// Every pinned codec, and the automatic choice.
const CODECS: [Option<Encoding>; 7] = [
    None,
    Some(Encoding::Plain),
    Some(Encoding::Rle),
    Some(Encoding::Delta),
    Some(Encoding::ForPack),
    Some(Encoding::Dict),
    Some(Encoding::RunBits),
];

/// Four columns, each a shape some codec is built for: runs over a small
/// domain, an ascending sequence, full-range 64-bit noise with the `i64`
/// edges, and five far-apart distinct values. 6½ blocks: blocks 0–4
/// frozen in `codec`, block 1 wholly forgotten and dropped, every third
/// row of blocks 3–4 forgotten, the rest hot.
fn table(block_rows: usize, codec: Option<Encoding>) -> Table {
    let n = 6 * block_rows + block_rows / 2;
    let mut rng = SimRng::new(block_rows as u64);
    let mut t = Table::with_block_rows(
        Schema::new(vec!["runs", "sorted", "noise", "few"]),
        block_rows,
    );
    let (mut run_value, mut run_left, mut acc) = (0i64, 0usize, -1_000i64);
    for i in 0..n {
        if run_left == 0 {
            run_value = rng.range_i64(0, 40);
            run_left = 1 + rng.index(9);
        }
        run_left -= 1;
        acc += rng.range_i64(0, 5);
        let noise = match i % 101 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.next_u64() as i64,
        };
        let few = [i64::MIN, -7, 0, 1 << 40, i64::MAX][rng.index(5)];
        t.insert(&[run_value, acc, noise, few], 0).unwrap();
    }
    for c in 0..4 {
        t.pin_encoding(c, codec);
    }
    let dead = (block_rows..2 * block_rows).chain((3 * block_rows..5 * block_rows).step_by(3));
    for r in dead {
        t.forget(RowId(r as u64), 1).unwrap();
    }
    t.freeze_upto(5 * block_rows);
    assert_eq!(t.frozen_blocks(), 5);
    assert_eq!(t.drop_forgotten_blocks().0, 1, "block 1 drops");
    t
}

/// The access orders under test, over `n` rows of blocks of `block_rows`
/// whose hot tail starts at `hot`.
fn orders(n: usize, block_rows: usize, hot: usize) -> Vec<(&'static str, Vec<usize>)> {
    let mut rng = SimRng::new(n as u64);
    let random = (0..n).map(|_| rng.index(n)).collect();
    let repeated = (0..n)
        .flat_map(|r| [r, r, r.saturating_sub(1), r])
        .collect();
    // Back and forth over the hot/frozen boundary, in and out of the
    // dropped block, and between the first and last rows of blocks.
    let crossing = (0..n / block_rows + 1)
        .flat_map(|b| {
            let first = (b * block_rows).min(n - 1);
            let last = ((b + 1) * block_rows - 1).min(n - 1);
            [hot - 1, hot, first, block_rows + 5, last, hot + 1, 0]
        })
        .collect();
    vec![
        ("ascending", (0..n).collect()),
        ("descending", (0..n).rev().collect()),
        ("random", random),
        ("repeated", repeated),
        ("crossing", crossing),
    ]
}

/// Every column's reader over every order equals `Table::value` and the
/// dense column, without decoding a block.
fn assert_readers_equal_value_at(t: &Table, ctx: &str) {
    let n = t.num_rows();
    let hot = t.col_tier(0).hot_start();
    for c in 0..4 {
        let want = t.col_values_dense(c).into_owned();
        // One-shot rle/delta reads walk from the block start: a stride.
        for r in (0..n).step_by(3) {
            let got = t.value(c, RowId(r as u64));
            assert_eq!(got, want[r], "{ctx} col {c}: value_at({r})");
        }
        for (name, order) in orders(n, t.block_rows(), hot) {
            let before = block_decodes();
            let mut reader = t.col_tier(c).reader();
            let got: Vec<i64> = order.iter().map(|&r| reader.get(r)).collect();
            assert_eq!(block_decodes(), before, "{ctx} col {c} {name}: a decode");
            for (&row, &v) in order.iter().zip(&got) {
                assert_eq!(v, want[row], "{ctx} col {c} {name}: row {row}");
            }
        }
    }
}

#[test]
fn the_reader_equals_value_at_in_every_codec_and_order() {
    for block_rows in [128, 1024] {
        for codec in CODECS {
            let mut t = table(block_rows, codec);
            let ctx = format!("block_rows {block_rows}, {codec:?}");
            for r in block_rows..2 * block_rows {
                assert_eq!(t.col_tier(0).reader().get(r), 0, "{ctx}: dropped row {r}");
            }
            assert_readers_equal_value_at(&t, &ctx);
            // Squash block 4 hard (every third row already forgotten):
            // its runs lengthen and it re-encodes — except in plain and
            // forpack, whose squashed frames keep their widths and sizes.
            for r in (4 * block_rows..5 * block_rows).filter(|r| r % 3 != 0 && r % 11 != 0) {
                t.forget(RowId(r as u64), 2).unwrap();
            }
            let (recompressed, _) = t.recompress_frozen(0.5);
            let fixed = matches!(codec, Some(Encoding::Plain | Encoding::ForPack));
            assert!(fixed || recompressed >= 1, "{ctx}: block 4 recompressed");
            assert_readers_equal_value_at(&t, &format!("{ctx}, recompressed"));
        }
    }
}

const BLOCK_ROWS: usize = 128;

/// f(k, v, w) with 3 000 rows: `k` a 23-value key in pseudo-random order
/// (so no merge join), `v` small with ±2^40 outliers (wide frames; SUM
/// stays an exact `Int`), `w` distinct; every fifth row forgotten.
/// `frozen_blocks` of its blocks are compressed.
fn fact(frozen_blocks: usize) -> Case {
    let mut rng = SimRng::new(29);
    let rows = (0..3_000i64)
        .map(|i| {
            let v = match i % 211 {
                0 => 1 << 40,
                1 => -(1 << 40),
                _ => rng.range_i64(-50, 50),
            };
            vec![rng.range_i64(0, 23), v, i]
        })
        .collect();
    Case::replay(
        Schema::new(vec!["k", "v", "w"]),
        BLOCK_ROWS,
        [
            Op::Insert(rows),
            Op::Forget((0..3_000).step_by(5).collect()),
            Op::FreezeUpto(frozen_blocks * BLOCK_ROWS),
        ],
    )
}

/// d(id, region): keys 0..40 (some unmatched) in shuffled order, then a
/// padding block of unmatched ids; `frozen_blocks` of its blocks frozen.
fn dim(frozen_blocks: usize) -> Case {
    let keys = (0..40).map(|i| (i * 17) % 40).map(|id| vec![id, id % 6]);
    let padding = (1_000..(1_000 + BLOCK_ROWS as i64)).map(|id| vec![id, 9]);
    Case::replay(
        Schema::new(vec!["id", "region"]),
        BLOCK_ROWS,
        [
            Op::Insert(keys.chain(padding).collect()),
            Op::FreezeUpto(frozen_blocks * BLOCK_ROWS),
        ],
    )
}

/// `f ⋈ d on f.k = d.id` with `f.w` in `[100, 2 800]`, under `hint`.
fn join_plan(
    items: Vec<PhysItem>,
    group_by: Option<(usize, usize)>,
    hint: PlanHint,
) -> PhysicalPlan {
    let scans = vec![vec![ColPred::range(2, 100, 2_800)], vec![]];
    PhysicalPlan {
        group_by: group_by.map(|(s, c)| (s, c, "g".into())),
        hint,
        ..plan(scans, Some((0, 0)), items)
    }
}

/// The join aggregates under test: grouped by a build-side and a
/// probe-side column, and global, each reading both sides.
fn join_plans(hint: PlanHint) -> Vec<(&'static str, PhysicalPlan)> {
    let aggs = || {
        vec![
            agg(AggKind::Count, None),
            agg(AggKind::Sum, Some((0, 1))),
            agg(AggKind::Min, Some((0, 2))),
            agg(AggKind::Max, Some((1, 1))),
            agg(AggKind::Avg, Some((0, 1))),
        ]
    };
    let grouped = |slot, c| {
        let mut items = vec![col(slot, c)];
        items.extend(aggs());
        join_plan(items, Some((slot, c)), hint)
    };
    vec![
        ("grouped by d.region", grouped(1, 1)),
        ("grouped by f.k", grouped(0, 0)),
        ("global", join_plan(aggs(), None, hint)),
    ]
}

/// `plan` over f and d with `f_blocks` and `d_blocks` of theirs frozen
/// returns the model's rows at one worker and at two, without a decode.
fn assert_plan_matches_model(
    plan: &PhysicalPlan,
    want: &[Vec<Scalar>],
    f_blocks: usize,
    d_blocks: usize,
    ctx: &str,
) {
    let (f, d) = (fact(f_blocks), dim(d_blocks));
    assert_eq!(f.table.frozen_blocks(), f_blocks, "{ctx}");
    for exec_mode in [ExecMode::Serial, ExecMode::Parallel(2)] {
        let ex = Executor::default()
            .with_exec_mode(exec_mode)
            .with_morsel_rows(256);
        let before = block_decodes();
        let got = ex.execute_plan(&[&f.table, &d.table], &[], plan);
        assert_eq!(
            block_decodes(),
            before,
            "{ctx}, {f_blocks} frozen: a decode"
        );
        assert_eq!(
            got.rows, want,
            "{ctx}, {f_blocks} frozen blocks, {exec_mode:?}"
        );
        if plan.hint == PlanHint::CostBased {
            assert_eq!(got.stats.build_side, Some(1), "{ctx}: d is built");
        }
    }
}

/// The models of f and d: the layout changes no row of them.
fn models() -> (Model, Model) {
    (fact(0).model, dim(0).model)
}

#[test]
fn join_aggregates_read_through_readers_agree_on_every_layout() {
    let (f, d) = models();
    for hint in [PlanHint::SyntacticOrder, PlanHint::CostBased] {
        for (name, plan) in join_plans(hint) {
            let want = eval_plan(&[&f, &d], &plan);
            let ctx = format!("{name}, {hint:?}");
            for (layout, f_blocks, d_blocks) in
                [("hot", 0, 0), ("half-frozen", 12, 0), ("frozen", 23, 1)]
            {
                assert_plan_matches_model(
                    &plan,
                    &want,
                    f_blocks,
                    d_blocks,
                    &format!("{ctx}, {layout}"),
                );
            }
        }
    }
}

#[test]
fn join_projection_reads_through_readers_agree_on_every_layout() {
    let plan = join_plan(
        vec![col(0, 2), col(1, 1), col(0, 1), col(1, 0)],
        None,
        PlanHint::CostBased,
    );
    let (f, d) = models();
    let want = eval_plan(&[&f, &d], &plan);
    assert!(want.len() > 1_000, "a join with many pairs");
    for (f_blocks, d_blocks) in [(0, 0), (12, 0), (23, 1)] {
        assert_plan_matches_model(&plan, &want, f_blocks, d_blocks, "projection");
    }
}
