//! Cross-crate checks: the SQL surface must agree exactly with the model
//! on the amnesiac visibility semantics.
//!
//! The second half is the physical-plan equivalence suite: every SQL
//! query shape, executed over a half-frozen (and recompressed) table
//! through the lowered `PhysicalPlan`, must return exactly what the model
//! computes for that plan — across codecs × block sizes × pool widths —
//! and frozen-only queries must finish with **zero** block decodes.

mod common;

use amnesia::columnar::compress::{block_decodes, Encoding};
use amnesia::columnar::DEFAULT_BLOCK_ROWS;
use amnesia::engine::batch::{aggregate_tiered_active, count_tiered_active};
use amnesia::engine::{ExecMode, Executor, ForgetVisibility, QueryOutput};
use amnesia::prelude::*;
use amnesia::sql::{run, Datum, QueryOutcome};
use amnesia_model::{Case, Op};
use common::Catalog;
use proptest::prelude::*;

/// One-table catalog `t(a)`: `values`, then a forget of every row
/// `forget` names (modulo the row count).
fn build(values: &[i64], forget: &[usize]) -> Catalog {
    let victims = forget.iter().map(|f| f % values.len()).collect();
    Catalog(vec![(
        "t",
        Case::replay(
            Schema::single("a"),
            DEFAULT_BLOCK_ROWS,
            [Op::column(values), Op::Forget(victims)],
        ),
    )])
}

fn sql_rows(db: &Database, sql: &str) -> Vec<Vec<Datum>> {
    match run(db, sql).unwrap() {
        QueryOutcome::Rows(rs) => rs.rows,
        QueryOutcome::Plan(p) => panic!("unexpected plan {p}"),
    }
}

/// The single value `sql` returns over `catalog`.
fn sql_scalar(catalog: &Catalog, sql: &str) -> Datum {
    let rows = catalog.run(sql, &Executor::default());
    assert_eq!(rows.len(), 1, "{sql}");
    rows[0][0]
}

/// The model's answer to a query over `t.a`.
fn model_answer(catalog: &Catalog, q: Query) -> QueryOutput {
    catalog.0[0]
        .1
        .model
        .query(0, &q, ForgetVisibility::ActiveOnly)
}

#[test]
fn sql_count_matches_engine_kernel() {
    let values: Vec<i64> = (0..500).map(|i| (i * 37) % 1000).collect();
    let catalog = build(&values, &[1, 5, 9, 13, 200, 201, 499]);
    let table = &catalog.0[0].1.table;
    for (lo, hi) in [(0i64, 100i64), (250, 750), (990, 1000), (500, 500)] {
        let pred = RangePredicate::new(lo, hi);
        let want = model_answer(&catalog, Query::Range(pred)).cardinality();
        let (kernel, _) = count_tiered_active(table.col_tier(0), table.activity_words(), pred);
        assert_eq!(kernel, want, "kernel [{lo}, {hi})");
        // SQL BETWEEN is inclusive: [lo, hi-1] == [lo, hi).
        let sql = format!("SELECT COUNT(*) FROM t WHERE a BETWEEN {lo} AND {}", hi - 1);
        assert_eq!(
            sql_scalar(&catalog, &sql),
            Datum::Int(want as i64),
            "SQL [{lo}, {hi})"
        );
    }
}

#[test]
fn sql_avg_matches_engine_kernel() {
    let values: Vec<i64> = (0..300).map(|i| (i * 13) % 777).collect();
    let catalog = build(&values, &[2, 4, 8, 16, 32, 64, 128, 256]);
    let table = &catalog.0[0].1.table;
    let predicate = Some(RangePredicate::new(100, 600));
    let want = model_answer(
        &catalog,
        Query::Aggregate {
            kind: AggKind::Avg,
            predicate,
        },
    );
    let (state, _) = aggregate_tiered_active(table.col_tier(0), table.activity_words(), predicate);
    assert_eq!(
        QueryOutput::Agg(state.finalize(AggKind::Avg)),
        want,
        "kernel"
    );
    let sql = sql_scalar(&catalog, "SELECT AVG(a) FROM t WHERE a BETWEEN 100 AND 599");
    assert_eq!(QueryOutput::Agg(sql.as_f64()), want, "SQL");
}

#[test]
fn forgotten_tuples_never_appear_in_sql_results() {
    let values: Vec<i64> = (0..100).collect();
    let catalog = build(&values, &[10, 20, 30, 40]);
    let sql = "SELECT a FROM t ORDER BY a";
    let got = catalog.run(sql, &Executor::default());
    assert_eq!(got, catalog.want(sql));
    assert_eq!(got.len(), 96);
}

#[test]
fn sql_sees_the_simulator_store() {
    // The simulator's table is a plain columnar table: wire it into a
    // database and query it through SQL mid-simulation.
    let cfg = SimConfig::builder()
        .dbsize(200)
        .domain(10_000)
        .update_fraction(0.2)
        .batches(4)
        .queries_per_batch(20)
        .distribution(DistributionKind::Uniform)
        .policy(PolicyKind::Uniform)
        .seed(7)
        .build()
        .unwrap();
    let mut sim = Simulator::new(cfg).unwrap();
    for _ in 0..4 {
        sim.step().unwrap();
    }
    assert_eq!(sim.table().active_rows(), 200);

    let mut db = Database::new();
    let t = db.add_table("t", Schema::single("a"));
    // Rebuild from the simulator table's physical rows.
    let table = sim.table();
    for r in 0..table.num_rows() {
        let id = RowId::from(r);
        db.table_mut(t).insert(&[table.value(0, id)], 0).unwrap();
        if !table.activity().is_active(id) {
            db.table_mut(t).forget(id, 1).unwrap();
        }
    }
    let n = sql_rows(&db, "SELECT COUNT(*) FROM t");
    assert_eq!(n, [[Datum::Int(200)]], "SQL sees exactly the active budget");
}

// ---------------------------------------------------------------------
// Physical-plan equivalence: every layout and width == the model.
// ---------------------------------------------------------------------

/// The query shapes the suite sweeps: projections, conjunctions,
/// negation, grouped and global aggregates, join, order, limit.
fn query_shapes(lo: i64, hi: i64, ne: i64) -> Vec<String> {
    vec![
        "SELECT g, a, b FROM t".to_string(),
        format!("SELECT a FROM t WHERE a BETWEEN {lo} AND {hi} AND b > 40 AND g <> {ne}"),
        format!(
            "SELECT g, COUNT(*) AS n, SUM(a) AS s, MIN(b) AS lo, MAX(a) AS hi, AVG(a) AS m \
             FROM t WHERE a >= {lo} AND b <> 13 GROUP BY g ORDER BY g"
        ),
        format!("SELECT COUNT(*), SUM(b), AVG(b) FROM t WHERE a BETWEEN {lo} AND {hi}"),
        format!("SELECT a, b FROM t WHERE g = {ne} ORDER BY a DESC LIMIT 7"),
        format!(
            "SELECT t.g, SUM(u.w) AS tw FROM t JOIN u ON t.a = u.k \
             WHERE u.w BETWEEN 5 AND 90 AND t.b <= 50 GROUP BY t.g ORDER BY tw DESC LIMIT 9"
        ),
        "SELECT t.a, u.w FROM t JOIN u ON t.a = u.k WHERE u.w > 50".to_string(),
    ]
}

/// `t(g, a, b)` for one codec/block-size configuration: `rows`, forgets
/// on both sides of the freeze boundary, the first `freeze_frac` frozen,
/// and an optional recompression pass.
fn tiered(
    rows: &[(i64, i64, i64)],
    forget: &[usize],
    block_rows: usize,
    encoding: Option<Encoding>,
    freeze_frac: f64,
    recompress: bool,
) -> Case {
    let mut case = Case::new(Schema::new(vec!["g", "a", "b"]), block_rows);
    case.apply(Op::Insert(
        rows.iter().map(|&(g, a, b)| vec![g, a, b]).collect(),
    ));
    for c in 0..3 {
        case.apply(Op::Pin(c, encoding));
    }
    case.apply(Op::Forget(forget.iter().map(|f| f % rows.len()).collect()));
    case.apply(Op::FreezeUpto((rows.len() as f64 * freeze_frac) as usize));
    if recompress {
        case.apply(Op::Recompress(1.0));
    }
    case
}

/// The frozen `u(k, w)` join partner, every sixth row forgotten.
fn partner(n: usize) -> Case {
    let rows = (0..n as i64)
        .map(|i| vec![i % 97, (i * 31) % 100])
        .collect();
    Case::replay(
        Schema::new(vec!["k", "w"]),
        DEFAULT_BLOCK_ROWS,
        [
            Op::Insert(rows),
            Op::Forget((0..n).step_by(6).collect()),
            Op::FreezeUpto(n),
        ],
    )
}

/// An executor on `threads` workers with small morsels, so the
/// few-thousand-row suite tables split into many morsels per stage.
fn executor(threads: usize) -> Executor {
    let mode = if threads <= 1 {
        ExecMode::Serial
    } else {
        ExecMode::Parallel(threads)
    };
    Executor::default()
        .with_exec_mode(mode)
        .with_morsel_rows(128)
}

/// Every SQL query shape over every codec × block size × recompress
/// configuration of the rows `seed` draws: `check(catalog, query, the
/// model's rows, context)`.
fn for_each_tiered_query(seed: u64, mut check: impl FnMut(&Catalog, &str, &[Vec<Datum>], &str)) {
    let mut rng = SimRng::new(seed);
    let rows: Vec<(i64, i64, i64)> = (0..3_000)
        .map(|i| ((i / 100) % 7, rng.range_i64(0, 120), rng.range_i64(0, 100)))
        .collect();
    let forget: Vec<usize> = (0..400).map(|_| rng.range_i64(0, 3_000) as usize).collect();
    for encoding in [
        None,
        Some(Encoding::Rle),
        Some(Encoding::Dict),
        Some(Encoding::ForPack),
        Some(Encoding::Delta),
        Some(Encoding::RunBits),
    ] {
        for block_rows in [128usize, 1024] {
            for recompress in [false, true] {
                let t = tiered(&rows, &forget, block_rows, encoding, 0.7, recompress);
                assert!(t.table.has_frozen(), "suite must cover frozen blocks");
                let catalog = Catalog(vec![("t", t), ("u", partner(1_500))]);
                for q in query_shapes(20, 90, 3) {
                    let ctx = format!(
                        "{encoding:?} block_rows={block_rows} recompress={recompress} q={q}"
                    );
                    check(&catalog, &q, &catalog.want(&q), &ctx);
                }
            }
        }
    }
}

#[test]
fn sql_over_tiered_tables_matches_the_model() {
    for_each_tiered_query(0x5EED, |catalog, q, want, ctx| {
        assert_eq!(catalog.run(q, &Executor::default()), want, "{ctx}");
    });
}

/// The same sweep over other rows at 1/2/7/8 worker threads
/// (non-power-of-two on purpose: uneven morsel partitions are where
/// merge-order bugs live).
#[test]
fn sql_parallel_equals_serial_across_tiers() {
    for_each_tiered_query(0xC0FFEE, |catalog, q, want, ctx| {
        for threads in [1usize, 2, 7, 8] {
            assert_eq!(
                catalog.run(q, &executor(threads)),
                want,
                "{threads} threads: {ctx}"
            );
        }
    });
}

/// Frozen-only queries answer the model's rows at `threads` workers
/// without decoding a block.
fn assert_frozen_queries_decode_zero_blocks(threads: usize) {
    let mut rng = SimRng::new(7);
    let rows: Vec<(i64, i64, i64)> = (0..4_096)
        .map(|i| ((i / 512) % 8, rng.range_i64(0, 200), rng.range_i64(0, 50)))
        .collect();
    for encoding in [
        None,
        Some(Encoding::Rle),
        Some(Encoding::Dict),
        Some(Encoding::RunBits),
    ] {
        let t = tiered(&rows, &[1, 65, 1030, 2049], 1024, encoding, 1.0, false);
        assert_eq!(t.table.col_tier(0).hot_values().len(), 0, "fully frozen");
        let catalog = Catalog(vec![("t", t)]);
        let queries = [
            "SELECT g, COUNT(*) AS n, SUM(a) AS s FROM t \
             WHERE a BETWEEN 20 AND 150 AND b > 5 GROUP BY g ORDER BY s DESC",
            "SELECT COUNT(*), SUM(a), MIN(a), MAX(b), AVG(b) FROM t WHERE a >= 10 AND b <> 7",
            "SELECT a FROM t WHERE a BETWEEN 40 AND 45 AND b <= 20",
        ];
        for q in queries {
            let want = catalog.want(q);
            let before = block_decodes();
            let got = catalog.run(q, &executor(threads));
            assert_eq!(
                block_decodes(),
                before,
                "{encoding:?} {q}: frozen SQL at {threads} threads must not decode blocks"
            );
            assert_eq!(got, want, "{encoding:?} {q} at {threads} threads");
        }
    }
}

#[test]
fn frozen_only_queries_decode_zero_blocks() {
    assert_frozen_queries_decode_zero_blocks(1);
}

#[test]
fn parallel_frozen_queries_decode_zero_blocks() {
    for threads in [2, 8] {
        assert_frozen_queries_decode_zero_blocks(threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Randomized freeze/forget/recompress interleavings: SQL answers
    // over the mutating tiered table always equal the model's, serially
    // and at 7 workers (deliberately non-power-of-two).
    #[test]
    fn sql_equivalence_under_random_tiering(
        seed in 0u64..1_000,
        n in 300usize..1_200,
        freeze_frac in 0.0f64..1.0,
        forget in proptest::collection::vec(0usize..4_096, 0..120),
        lo in 0i64..60,
        width in 1i64..80,
    ) {
        let recompress = seed % 2 == 0;
        let mut rng = SimRng::new(seed);
        let rows: Vec<(i64, i64, i64)> = (0..n)
            .map(|i| ((i as i64 / 50) % 5, rng.range_i64(0, 120), rng.range_i64(0, 100)))
            .collect();
        let t = tiered(&rows, &forget, 128, None, freeze_frac, recompress);
        let catalog = Catalog(vec![("t", t), ("u", partner(400))]);
        for q in query_shapes(lo, lo + width, 2) {
            let want = catalog.want(&q);
            prop_assert_eq!(&catalog.run(&q, &Executor::default()), &want, "{}", &q);
            prop_assert_eq!(&catalog.run(&q, &executor(7)), &want, "7 threads: {}", &q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sql_range_count_agrees_with_model(
        values in proptest::collection::vec(-1000i64..1000, 1..120),
        forget in proptest::collection::vec(0usize..1000, 0..40),
        lo in -1100i64..1100,
        width in 0i64..800,
    ) {
        let catalog = build(&values, &forget);
        let hi = lo + width;
        let want = model_answer(&catalog, Query::Range(RangePredicate::new(lo, hi + 1)));
        let sql = format!("SELECT COUNT(*) FROM t WHERE a BETWEEN {lo} AND {hi}");
        prop_assert_eq!(sql_scalar(&catalog, &sql), Datum::Int(want.cardinality() as i64));
    }

    #[test]
    fn sql_sum_agrees_with_model(
        values in proptest::collection::vec(-500i64..500, 1..100),
        forget in proptest::collection::vec(0usize..500, 0..30),
    ) {
        let catalog = build(&values, &forget);
        let sql = "SELECT SUM(a) FROM t";
        prop_assert_eq!(catalog.run(sql, &Executor::default()), catalog.want(sql));
    }
}
