//! SQL-over-physical-plan benchmarks: the unified execution API at
//! 1M rows.
//!
//! The acceptance setting for the physical-plan redesign: a
//! multi-predicate `SELECT … WHERE a BETWEEN x AND y AND b > z GROUP BY g`
//! over a **fully-frozen** table must (a) execute with zero block
//! decodes — the scan's selection masks and the grouped fold both work
//! in compressed space — and (b) beat the row-at-a-time reference
//! executor (`iter_active()` + per-row `Table::value` + a scalar
//! group `HashMap`, exactly what `amnesia-sql` ran before the redesign)
//! by at least 5x. Both are asserted below before anything is timed.
//!
//! Legs: the grouped-aggregate query over hot / mixed / frozen tables,
//! the row-at-a-time reference on the same frozen table, a top-10 of
//! ~10 000 groups (the sort breaker keeps ten positions and builds ten
//! rows, the group table hashes every selected row), a global
//! (ungrouped) multi-predicate aggregate, a selective projection, and
//! what planning costs: `order_predicates` in the steady state (every
//! column's summary held) and one cold summary build over 2 000 blocks.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use amnesia_columnar::compress::block_decodes;
use amnesia_columnar::{ColumnSummary, RowId, Schema, Table, Value};
use amnesia_engine::{
    order_predicates, q_error, ColPred, ColumnStats, CostModel, ExecMode, Executor, PhysItem,
    PhysScan, PhysicalPlan, PlanHint,
};
use amnesia_sql::{run, run_with, Catalog, Datum, QueryOutcome};
use amnesia_util::SimRng;
use amnesia_workload::AggKind;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const N: usize = 1_000_000;

/// WHERE a BETWEEN A_LO AND A_HI AND b > B_GT (~4 % selectivity, so the
/// vectorized scan's mask passes dominate and the reference pays the
/// full row-at-a-time toll).
const A_LO: i64 = 2_000;
const A_HI: i64 = 2_399;
const B_GT: i64 = 30;

const GROUPED_SQL: &str = "SELECT g, COUNT(*) AS n, SUM(a) AS s, AVG(a) AS m FROM t \
     WHERE a BETWEEN 2000 AND 2399 AND b > 30 GROUP BY g ORDER BY s DESC LIMIT 10";

/// `GROUP BY` over `a` (~10 000 distinct values, ~80 per group) keeping
/// the top 10 by sum: the group-table probes and the top-k sort breaker
/// carry it.
const HIGH_CARD_SQL: &str =
    "SELECT a, COUNT(*) AS n, SUM(b) AS s FROM t GROUP BY a ORDER BY s DESC LIMIT 10";

/// A catalog over one explicitly-built table.
struct BenchCatalog {
    table: Table,
}

impl Catalog for BenchCatalog {
    fn resolve(&self, name: &str) -> Option<&Table> {
        (name == "t").then_some(&self.table)
    }

    fn table_names(&self) -> Vec<String> {
        vec!["t".to_string()]
    }
}

/// t(g, a, b): g in long runs (RLE-friendly, ~500 groups), a
/// insertion-correlated with jitter — the paper's sensor-style shape,
/// where values arrive in time order, so frozen block meta is tight and
/// a narrow predicate prunes almost every block — b cyclic
/// small-domain; 20 % forgotten.
fn table() -> Table {
    let mut rng = SimRng::new(0xC1D8);
    let mut t = Table::new(Schema::new(vec!["g", "a", "b"]));
    for i in 0..N {
        let g = (i / 2_000) as i64;
        let a = (i / 100) as i64 + rng.range_i64(0, 50);
        let b = (i as i64 * 31) % 100;
        t.insert(&[g, a, b], 0).unwrap();
    }
    for _ in 0..N / 5 {
        if let Some(r) = t.random_active(&mut rng) {
            t.forget(r, 1).unwrap();
        }
    }
    t
}

fn sql_rows(cat: &BenchCatalog, sql: &str) -> Vec<Vec<Datum>> {
    match run(cat, sql).unwrap() {
        QueryOutcome::Rows(rs) => rs.rows,
        QueryOutcome::Plan(p) => panic!("unexpected plan {p}"),
    }
}

/// [`sql_rows`] on an explicit worker count (`1` = the serial oracle).
fn sql_rows_at(cat: &BenchCatalog, sql: &str, threads: usize) -> Vec<Vec<Datum>> {
    let ex = Executor::default().with_exec_mode(if threads > 1 {
        ExecMode::Parallel(threads)
    } else {
        ExecMode::Serial
    });
    match run_with(cat, sql, &ex).unwrap() {
        QueryOutcome::Rows(rs) => rs.rows,
        QueryOutcome::Plan(p) => panic!("unexpected plan {p}"),
    }
}

/// The morsel-scheduler scaling gate (CI: the `scaling-gate` job).
///
/// `AMNESIA_SCALE_GATE` semantics: a number (e.g. `3.5`) enforces that
/// 8-thread speedup over serial; `0` disables; unset auto-detects —
/// enforce 3.5x only when the host actually has ≥ 8 cores, otherwise
/// print the sweep and skip (laptops and 1-core CI runners can't
/// demonstrate 8-way scaling).
fn required_scale_gate() -> Option<f64> {
    match std::env::var("AMNESIA_SCALE_GATE") {
        Ok(v) => {
            let x: f64 = v.trim().parse().unwrap_or(0.0);
            (x > 0.0).then_some(x)
        }
        Err(_) => {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            (cores >= 8).then_some(3.5)
        }
    }
}

/// The predicate-ordering gate (CI: part of the `scaling-gate` job).
///
/// `AMNESIA_ORDER_GATE` semantics: a number (e.g. `2.0`) enforces that
/// cost-driven speedup over the syntactic order on the worst-order
/// query; `0` disables; unset defaults to the 2x acceptance bar.
fn required_order_gate() -> Option<f64> {
    match std::env::var("AMNESIA_ORDER_GATE") {
        Ok(v) => {
            let x: f64 = v.trim().parse().unwrap_or(0.0);
            (x > 0.0).then_some(x)
        }
        Err(_) => Some(2.0),
    }
}

/// The estimation-quality gate: max q-error allowed on the uniform and
/// zipf columns. `AMNESIA_QERROR_GATE` overrides (0 disables); unset
/// defaults to 8.0.
fn required_qerror_gate() -> Option<f64> {
    match std::env::var("AMNESIA_QERROR_GATE") {
        Ok(v) => {
            let x: f64 = v.trim().parse().unwrap_or(0.0);
            (x > 0.0).then_some(x)
        }
        Err(_) => Some(8.0),
    }
}

/// Worst-order table: three wide noise columns (`w1..w3`, uniform over
/// `[0, 1000)`, so every frozen block's meta spans the domain and prunes
/// nothing) plus one selective column `s` whose 1 % predicate also can't
/// prune blocks — the speedup must come purely from *evaluation order*.
fn worst_order_table() -> Table {
    let mut rng = SimRng::new(0xBEEF);
    let mut t = Table::new(Schema::new(vec!["w1", "w2", "w3", "s"]));
    for i in 0..N {
        t.insert(
            &[
                rng.range_i64(0, 1000),
                rng.range_i64(0, 1000),
                rng.range_i64(0, 1000),
                (i as i64).wrapping_mul(7919) % 1000,
            ],
            0,
        )
        .unwrap();
    }
    t.freeze_upto(N);
    t
}

/// COUNT(*) under the conjunction written worst-first: three ~90 % noise
/// predicates lead, the ~1 % selective predicate trails. Syntactic order
/// pays three dense passes per block before the selective one;
/// cost-based order runs the selective predicate first and refines the
/// noise predicates over its sparse survivors.
fn worst_order_plan(hint: PlanHint) -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan {
            preds: vec![
                ColPred::range(0, 0, 899),
                ColPred::range(1, 0, 899),
                ColPred::range(2, 0, 899),
                ColPred::range(3, 0, 9),
            ],
            label: "Scan w [active-only]".into(),
        }],
        join: None,
        items: vec![PhysItem::Aggregate {
            kind: AggKind::Count,
            arg: None,
            display: "count(*)".into(),
        }],
        group_by: None,
        order_by: None,
        limit: None,
        hint,
    }
}

/// The row-at-a-time reference: what `amnesia-sql` executed before the
/// physical-plan redesign — `iter_active()` per slot, one `Table::value`
/// per predicate per row, a `HashMap` group probe per surviving row.
fn reference_grouped(t: &Table) -> Vec<Vec<Datum>> {
    let mut index: HashMap<Value, usize> = HashMap::new();
    let mut groups: Vec<(Value, u64, i128)> = Vec::new();
    for r in t.iter_active() {
        let a = t.value(1, r);
        if !(A_LO..=A_HI).contains(&a) {
            continue;
        }
        if t.value(2, r) <= B_GT {
            continue;
        }
        let g = t.value(0, r);
        let slot = match index.get(&g) {
            Some(&s) => s,
            None => {
                index.insert(g, groups.len());
                groups.push((g, 0, 0));
                groups.len() - 1
            }
        };
        groups[slot].1 += 1;
        groups[slot].2 += a as i128;
    }
    let mut rows: Vec<Vec<Datum>> = groups
        .into_iter()
        .map(|(g, n, s)| {
            vec![
                Datum::Int(g),
                Datum::Int(n as i64),
                Datum::Int(s as i64),
                Datum::Float(s as f64 / n as f64),
            ]
        })
        .collect();
    rows.sort_by(|x, y| y[2].total_cmp(&x[2]));
    rows.truncate(10);
    rows
}

/// Median-of-runs wall time for a closure.
fn time_it<R>(iters: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn sql(c: &mut Criterion) {
    let hot = BenchCatalog { table: table() };
    let mut mixed_t = hot.table.clone();
    mixed_t.freeze_upto(N / 2);
    let mixed = BenchCatalog { table: mixed_t };
    let mut frozen_t = hot.table.clone();
    frozen_t.freeze_upto(N);
    // 1M rows = 976 frozen blocks + a sub-block hot tail of 576 rows.
    assert!(frozen_t.col_tier(0).hot_values().len() < frozen_t.block_rows());
    let frozen = BenchCatalog { table: frozen_t };

    // Answers agree across tiers and with the reference, and the frozen
    // run decodes ZERO blocks.
    let want = reference_grouped(&hot.table);
    assert_eq!(sql_rows(&hot, GROUPED_SQL), want, "hot == reference");
    let before = block_decodes();
    let got = sql_rows(&frozen, GROUPED_SQL);
    assert_eq!(
        block_decodes() - before,
        0,
        "frozen grouped SQL must not decode a single block"
    );
    assert_eq!(got, want, "frozen == reference");
    assert_eq!(sql_rows(&mixed, GROUPED_SQL), want, "mixed == reference");
    let top = sql_rows(&hot, HIGH_CARD_SQL);
    assert_eq!(top.len(), 10);
    let before = block_decodes();
    assert_eq!(
        sql_rows(&frozen, HIGH_CARD_SQL),
        top,
        "high-card frozen == hot"
    );
    assert_eq!(block_decodes() - before, 0, "high-card frozen decodes");

    // The ≥ 5x acceptance gate: vectorized SQL vs the row-at-a-time
    // reference over the same frozen table.
    let vectorized = time_it(7, || sql_rows(&frozen, GROUPED_SQL));
    let reference = time_it(3, || reference_grouped(&frozen.table));
    let speedup = reference.as_secs_f64() / vectorized.as_secs_f64().max(1e-9);
    println!(
        "sql/grouped_agg 1M frozen: vectorized {vectorized:?}, \
         row-at-a-time {reference:?} ({speedup:.1}x)"
    );
    assert!(
        speedup >= 5.0,
        "physical-plan SQL must beat the row-at-a-time reference 5x, got {speedup:.1}x"
    );

    // Morsel-parallel execution is byte-identical to serial at every
    // worker count, and still decodes zero frozen blocks.
    for threads in [2, 4, 8] {
        let before = block_decodes();
        let par = sql_rows_at(&frozen, GROUPED_SQL, threads);
        assert_eq!(
            block_decodes() - before,
            0,
            "parallel ({threads} threads) must not add a single block decode"
        );
        assert_eq!(par, want, "parallel ({threads} threads) == serial oracle");
    }

    // Thread-scaling sweep + the scaling gate (see `required_scale_gate`).
    let serial = time_it(7, || sql_rows_at(&frozen, GROUPED_SQL, 1));
    let mut at8 = serial;
    for threads in [2usize, 4, 8] {
        let t = time_it(7, || sql_rows_at(&frozen, GROUPED_SQL, threads));
        let scale = serial.as_secs_f64() / t.as_secs_f64().max(1e-9);
        println!("sql/grouped_agg 1M frozen x{threads} threads: {t:?} ({scale:.2}x vs serial)");
        if threads == 8 {
            at8 = t;
        }
    }
    let scale8 = serial.as_secs_f64() / at8.as_secs_f64().max(1e-9);
    match required_scale_gate() {
        Some(required) => {
            assert!(
                scale8 >= required,
                "8-thread frozen grouped query must scale >= {required:.1}x over serial, \
                 got {scale8:.2}x (tune with AMNESIA_SCALE_GATE)"
            );
            println!("scaling gate: {scale8:.2}x >= {required:.1}x — pass");
        }
        None => {
            println!("scaling gate: skipped (got {scale8:.2}x; <8 cores or AMNESIA_SCALE_GATE=0)")
        }
    }

    // Worst-order leg: the cost-driven predicate order must beat the
    // syntactic (worst-written) order on a frozen table where block
    // pruning can't help — identical rows, zero extra decodes, and at
    // least the gated speedup.
    let wt = worst_order_table();
    let wtables = [&wt];
    let ex = Executor::default().with_exec_mode(ExecMode::Serial);
    let before = block_decodes();
    let syn = ex.execute_plan(&wtables, &[], &worst_order_plan(PlanHint::SyntacticOrder));
    let syn_decodes = block_decodes() - before;
    let before = block_decodes();
    let cost = ex.execute_plan(&wtables, &[], &worst_order_plan(PlanHint::CostBased));
    let cost_decodes = block_decodes() - before;
    assert_eq!(cost.rows, syn.rows, "cost-driven order changed the answer");
    assert_eq!(
        cost_decodes, 0,
        "cost-ordered worst-order scan must not decode a block"
    );
    assert!(
        cost_decodes <= syn_decodes,
        "cost order added decodes: {cost_decodes} > {syn_decodes}"
    );
    let t_syn = time_it(7, || {
        ex.execute_plan(&wtables, &[], &worst_order_plan(PlanHint::SyntacticOrder))
    });
    let t_cost = time_it(7, || {
        ex.execute_plan(&wtables, &[], &worst_order_plan(PlanHint::CostBased))
    });
    let order_speedup = t_syn.as_secs_f64() / t_cost.as_secs_f64().max(1e-9);
    println!(
        "sql/worst_order 1M frozen: syntactic {t_syn:?}, cost-driven {t_cost:?} \
         ({order_speedup:.1}x)"
    );
    match required_order_gate() {
        Some(required) => {
            assert!(
                order_speedup >= required,
                "cost-driven predicate order must beat the syntactic worst order \
                 >= {required:.1}x, got {order_speedup:.1}x (tune with AMNESIA_ORDER_GATE)"
            );
            println!("order gate: {order_speedup:.1}x >= {required:.1}x — pass");
        }
        None => println!("order gate: skipped (got {order_speedup:.1}x; AMNESIA_ORDER_GATE=0)"),
    }

    // Estimation-quality gate: max q-error of the block-stats estimator
    // on uniform and zipf-skewed frozen columns, over a sweep of range
    // predicates.
    let model = CostModel::default();
    let mut qmax = 1.0f64;
    for (dist, values) in [
        (
            "uniform",
            (0..65_536)
                .map(|i| (i as i64).wrapping_mul(2654435761) % 10_000)
                .map(|v| v.rem_euclid(10_000))
                .collect::<Vec<i64>>(),
        ),
        (
            "zipf",
            (0..65_536)
                .map(|i| {
                    let u = ((i as i64).wrapping_mul(40_503).rem_euclid(65_536)) as f64 / 65_536.0;
                    (10_000.0 * u * u * u) as i64
                })
                .collect::<Vec<i64>>(),
        ),
    ] {
        let mut qt = Table::new(Schema::single("v"));
        qt.insert_batch(&values, 0).unwrap();
        qt.freeze_upto((values.len() / qt.block_rows()) * qt.block_rows());
        let stats = ColumnStats::of(&qt, 0, &model);
        for (lo, hi) in [(0i64, 999), (0, 4_999), (2_500, 7_499), (5_000, 9_999)] {
            let p = ColPred::range(0, lo, hi);
            let actual = values.iter().filter(|&&v| lo <= v && v <= hi).count() as f64;
            let q = q_error(stats.estimate_pred(&p), actual);
            if q > qmax {
                qmax = q;
            }
            println!(
                "qerror/{dist} [{lo},{hi}]: est {:.0} actual {actual:.0} (q {q:.2})",
                stats.estimate_pred(&p)
            );
        }
    }
    match required_qerror_gate() {
        Some(bound) => {
            assert!(
                qmax <= bound,
                "max q-error {qmax:.2} exceeds the {bound:.1} gate \
                 (tune with AMNESIA_QERROR_GATE)"
            );
            println!("q-error gate: {qmax:.2} <= {bound:.1} — pass");
        }
        None => println!("q-error gate: skipped (got {qmax:.2}; AMNESIA_QERROR_GATE=0)"),
    }

    let mut group = c.benchmark_group("sql/grouped_agg");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("hot", |b| b.iter(|| black_box(sql_rows(&hot, GROUPED_SQL))));
    group.bench_function("mixed", |b| {
        b.iter(|| black_box(sql_rows(&mixed, GROUPED_SQL)))
    });
    group.bench_function("frozen", |b| {
        b.iter(|| black_box(sql_rows(&frozen, GROUPED_SQL)))
    });
    group.bench_function("row_at_a_time_frozen", |b| {
        b.iter(|| black_box(reference_grouped(&frozen.table)))
    });
    group.bench_function("high_card_frozen", |b| {
        b.iter(|| black_box(sql_rows(&frozen, HIGH_CARD_SQL)))
    });
    group.finish();

    // The same frozen grouped query through the morsel scheduler, per
    // worker count — the scaling trajectory the CI gate guards.
    let mut par = c.benchmark_group("sql/grouped_agg_parallel");
    par.throughput(Throughput::Elements(N as u64));
    for threads in [2usize, 4, 8] {
        par.bench_function(threads.to_string(), |b| {
            b.iter(|| black_box(sql_rows_at(&frozen, GROUPED_SQL, threads)))
        });
    }
    par.finish();

    let mut global = c.benchmark_group("sql/global_agg");
    global.throughput(Throughput::Elements(N as u64));
    const GLOBAL_SQL: &str = "SELECT COUNT(*), SUM(a), MIN(a), MAX(a), AVG(b) FROM t \
         WHERE a BETWEEN 2000 AND 2399 AND b > 30";
    global.bench_function("hot", |b| b.iter(|| black_box(sql_rows(&hot, GLOBAL_SQL))));
    global.bench_function("frozen", |b| {
        b.iter(|| black_box(sql_rows(&frozen, GLOBAL_SQL)))
    });
    global.finish();

    let mut proj = c.benchmark_group("sql/projection");
    proj.throughput(Throughput::Elements(N as u64));
    const PROJ_SQL: &str =
        "SELECT g, a FROM t WHERE a BETWEEN 2000 AND 2099 AND b > 60 ORDER BY a LIMIT 100";
    proj.bench_function("hot", |b| b.iter(|| black_box(sql_rows(&hot, PROJ_SQL))));
    proj.bench_function("frozen", |b| {
        b.iter(|| black_box(sql_rows(&frozen, PROJ_SQL)))
    });
    proj.finish();

    // The worst-order legs as tracked benchmarks.
    let mut wo = c.benchmark_group("sql/worst_order");
    wo.throughput(Throughput::Elements(N as u64));
    wo.bench_function("syntactic", |b| {
        b.iter(|| {
            black_box(ex.execute_plan(&wtables, &[], &worst_order_plan(PlanHint::SyntacticOrder)))
        })
    });
    wo.bench_function("cost_driven", |b| {
        b.iter(|| black_box(ex.execute_plan(&wtables, &[], &worst_order_plan(PlanHint::CostBased))))
    });
    wo.finish();

    // Planning in the steady state: every referenced column holds a
    // current summary, so ordering three conjuncts reads three histograms
    // and walks no block meta and no hot value — the same on a table of
    // 976 frozen blocks and on a million hot rows.
    let preds = [
        ColPred::range(0, 100, 140),
        ColPred::range(1, A_LO, A_HI),
        ColPred::range(2, B_GT + 1, i64::MAX),
    ];
    let mut planning = c.benchmark_group("stats/order_predicates");
    for (name, t) in [("frozen", &frozen.table), ("hot", &hot.table)] {
        planning.bench_function(name, |b| {
            b.iter(|| black_box(order_predicates(t, black_box(&preds), &model)))
        });
    }
    planning.finish();

    // What the first statement after a forget pays, once per referenced
    // column: a cold build over 2 000 frozen blocks whose metas all span
    // the domain (uniform values, the `stream_scatter` shape) and a
    // partly forgotten hot tail.
    let mut rng = SimRng::new(0x5CA7);
    let mut wide = Table::with_block_rows(Schema::single("v"), 64);
    let values: Vec<Value> = (0..2_000 * 64 + 40)
        .map(|_| rng.range_i64(0, 1_000_000))
        .collect();
    wide.insert_batch(&values, 0).unwrap();
    for r in (0..values.len()).step_by(8) {
        wide.forget(RowId::from(r), 1).unwrap();
    }
    wide.freeze_upto(values.len());
    assert_eq!(wide.frozen_blocks(), 2_000);
    let mut rebuild = c.benchmark_group("stats/summary_rebuild");
    rebuild.bench_function("frozen_2000_blocks", |b| {
        b.iter(|| {
            black_box(ColumnSummary::from_tier(
                wide.col_tier(0),
                wide.activity_words(),
            ))
        })
    });
    rebuild.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = sql
}
criterion_main!(benches);
