//! The per-layer ladder of the traced run: the same table and the same
//! seeded predicates, climbed one public function at a time — codec kernel
//! → `batch` mask kernel → selection scan → `execute_plan` → `sql::run_with`
//! — so each rung's overhead is a subtraction, not a guess.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use amnesia_columnar::compress::{BlockAgg, EncodedBlock};
use amnesia_columnar::persist::snapshot;
use amnesia_columnar::{RowId, Table};
use amnesia_core::store::AmnesiacStore;
use amnesia_engine::kernels::{gather_column, selection_count, selection_scan_ordered};
use amnesia_engine::{
    batch, order_predicates, Aux, ColPred, CostModel, ExecMode, Executor, PhysicalPlan,
};
use amnesia_sql::{bind, parse, run_with, Statement};
use amnesia_sync::thread::available_parallelism;
use amnesia_util::SimRng;
use amnesia_workload::query::RangePredicate;

use crate::gen::{Class, Inputs, ReadOp, Scale, Stmt};
use crate::session::{serial_executor, Cat, SQL_SPAN};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};

/// Statements per class on the `execute_plan` and SQL rungs; their
/// constants are also the predicates of the rungs below.
const STMTS: usize = 12;
/// Input chunks re-encoded per column for `compress.encode_ns_per_row`.
const ENCODE_CHUNKS: usize = 64;
/// Point reads for `compress.value_at_ns`.
const POINT_READS: usize = 100_000;

/// Per-layer values keyed by metric name.
pub type Layer = BTreeMap<String, f64>;

fn put(out: &mut Layer, name: &str, v: f64) {
    out.insert(name.to_string(), v);
}

/// Hardware references recorded with every traced run.
pub fn machine(scale: Scale, out: &mut Layer) {
    let cores = available_parallelism().map_or(1, usize::from);
    put(out, "machine.cores", cores as f64);
    #[cfg(target_arch = "x86_64")]
    let simd = if std::arch::is_x86_feature_detected!("avx512f") {
        512.0
    } else if std::arch::is_x86_feature_detected!("avx2") {
        256.0
    } else {
        64.0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let simd = 64.0;
    put(out, "machine.simd_bits", simd);

    let bytes: usize = match scale {
        Scale::Full => 256 << 20,
        Scale::Smoke => 16 << 20,
    };
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut best = f64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    put(out, "machine.memcpy_gbps", bytes as f64 / best / 1e9);
}

/// The statements of `class` in the workload's last read batch.
fn stmts_of(inputs: &Inputs, class: Class) -> Vec<Stmt> {
    inputs
        .reads
        .last()
        .into_iter()
        .flatten()
        .filter_map(|op| match op {
            ReadOp::Sql(s) if s.class() == class => Some(*s),
            _ => None,
        })
        .take(STMTS)
        .collect()
}

/// Climb the ladder on the store's table. `out` receives every
/// `compress.*`, `batch.*`, `kernels.*`, `stats.order_us`, `exec.plan_ms.*`,
/// `morsel.*` and `sql.*` value.
pub fn walk(
    store: &AmnesiacStore,
    d: &Table,
    inputs: &Inputs,
    tracer: &mut Tracer,
    out: &mut Layer,
) {
    let t = store.table();
    let roles = inputs.workload.roles();
    let cols = inputs.workload.columns();
    let words = t.activity_words();
    let mut op = 1_000_000u32;
    let mut next_op = || {
        op += 1;
        op
    };

    // The scattered ranges (unprunable: every block is evaluated) and the
    // correlated ranges (block meta prunes most blocks) the statements
    // themselves use.
    let scatter: Vec<(i64, i64, i64)> = stmts_of(inputs, Class::Scatter)
        .iter()
        .filter_map(|s| match *s {
            Stmt::Scatter { u_lo, u_hi, b_gt } => Some((u_lo, u_hi, b_gt)),
            _ => None,
        })
        .collect();
    let correlated: Vec<RangePredicate> = stmts_of(inputs, Class::Grouped)
        .iter()
        .filter_map(|s| match *s {
            Stmt::Grouped { a_lo, a_hi, .. } => Some(RangePredicate::new(a_lo, a_hi + 1)),
            _ => None,
        })
        .collect();

    // ---- persist: what a checkpoint of this table costs to encode (the
    // SQL workloads checkpoint themselves and time it in every repetition).
    if inputs.workload.is_stream() {
        let (bytes, secs) = tracer.time("persist.snapshot_encode", ROOT, next_op(), || {
            snapshot::encode(t)
        });
        black_box(bytes);
        put(out, "persist.snapshot_encode_s", secs);
    }

    // ---- compress: per frozen block, no pruning, no activity.
    let tier = t.col_tier(roles.u);
    let blocks: Vec<&EncodedBlock> = (0..tier.frozen_blocks())
        .filter_map(|b| tier.frozen(b))
        .filter(|f| !f.is_dropped())
        .map(|f| f.encoded())
        .collect();
    let block_rows: usize = blocks.iter().map(|b| b.len()).sum();
    let block_bytes: usize = blocks.iter().map(|b| b.compressed_bytes()).sum();
    let evaluated = (block_rows * scatter.len()).max(1) as f64;
    if blocks.is_empty() {
        for m in [
            "filter_ns_per_row",
            "fold_ns_per_row",
            "value_at_ns",
            "filter_frac_membw",
        ] {
            put(out, &format!("compress.{m}"), 0.0);
        }
    } else {
        let mut masks = Vec::new();
        let (hits, secs) = tracer.time("compress.filter_range_masks", ROOT, next_op(), || {
            let mut hits = 0u64;
            for &(lo, hi, _) in &scatter {
                for b in &blocks {
                    b.filter_range_masks(lo, hi + 1, &mut masks);
                    hits += masks.iter().map(|m| m.count_ones() as u64).sum::<u64>();
                }
            }
            hits
        });
        black_box(hits);
        put(out, "compress.filter_ns_per_row", secs * 1e9 / evaluated);
        let gbps = (block_bytes * scatter.len()) as f64 / secs / 1e9;
        let membw = out.get("machine.memcpy_gbps").copied().unwrap_or(1.0);
        put(out, "compress.filter_frac_membw", gbps / membw);

        let all_rows = vec![u64::MAX; t.block_rows().div_ceil(64)];
        let (agg, secs) = tracer.time("compress.fold_range_masked", ROOT, next_op(), || {
            let mut agg = BlockAgg::new();
            for &(lo, hi, _) in &scatter {
                for b in &blocks {
                    b.fold_range_masked(Some((lo, hi + 1)), &all_rows, &mut agg);
                }
            }
            agg
        });
        black_box(agg);
        put(out, "compress.fold_ns_per_row", secs * 1e9 / evaluated);

        let mut rng = SimRng::new(0x1adde5);
        let picks: Vec<(usize, usize)> = (0..POINT_READS)
            .map(|_| {
                let b = rng.index(blocks.len());
                (b, rng.index(blocks[b].len()))
            })
            .collect();
        let (sum, secs) = tracer.time("compress.value_at", ROOT, next_op(), || {
            picks
                .iter()
                .fold(0i64, |s, &(b, i)| s.wrapping_add(blocks[b].value_at(i)))
        });
        black_box(sum);
        put(out, "compress.value_at_ns", secs * 1e9 / POINT_READS as f64);
    }

    // Encode cost comes from the inputs (frozen blocks are never decoded
    // here): the first chunks of every column of the initial load.
    let br = t.block_rows();
    let mut encoded_rows = 0usize;
    let (bytes, secs) = tracer.time("compress.encode_auto", ROOT, next_op(), || {
        let mut bytes = 0usize;
        for col in &inputs.initial {
            for chunk in col.chunks_exact(br).take(ENCODE_CHUNKS) {
                bytes += EncodedBlock::encode_auto(chunk).compressed_bytes();
                encoded_rows += chunk.len();
            }
        }
        bytes
    });
    black_box(bytes);
    put(
        out,
        "compress.encode_ns_per_row",
        secs * 1e9 / encoded_rows.max(1) as f64,
    );

    // ---- batch: the tiered column kernels, activity and pruning included.
    let live_rows = (t.num_rows() - t.dropped_rows()).max(1);
    let per_row = |secs: f64, preds: usize| secs * 1e9 / (live_rows * preds.max(1)) as f64;
    let ranges: Vec<RangePredicate> = scatter
        .iter()
        .map(|&(lo, hi, _)| RangePredicate::new(lo, hi + 1))
        .collect();
    let (n, secs) = tracer.time("batch.count_tiered_active", ROOT, next_op(), || {
        ranges
            .iter()
            .map(|&p| batch::count_tiered_active(tier, words, p).0)
            .sum::<usize>()
    });
    black_box(n);
    put(out, "batch.count_ns_per_row", per_row(secs, ranges.len()));
    let mut rows: Vec<RowId> = Vec::new();
    let (_, secs) = tracer.time("batch.scan_tiered_active_into", ROOT, next_op(), || {
        for &p in &ranges {
            rows.clear();
            batch::scan_tiered_active_into(tier, words, p, &mut rows);
        }
    });
    black_box(&rows);
    put(out, "batch.scan_ns_per_row", per_row(secs, ranges.len()));
    let (st, secs) = tracer.time("batch.aggregate_tiered_active", ROOT, next_op(), || {
        ranges
            .iter()
            .map(|&p| {
                batch::aggregate_tiered_active(tier, words, Some(p))
                    .0
                    .count()
            })
            .sum::<u64>()
    });
    black_box(st);
    put(out, "batch.agg_ns_per_row", per_row(secs, ranges.len()));
    let a_tier = t.col_tier(roles.a);
    let (pruned, seen) = correlated.iter().fold((0usize, 0usize), |(p, s), &pred| {
        let stats = batch::count_tiered_active(a_tier, words, pred).1;
        (p + stats.blocks_pruned, s + a_tier.frozen_blocks())
    });
    put(
        out,
        "batch.blocks_pruned_frac",
        pruned as f64 / seen.max(1) as f64,
    );

    // ---- stats + kernels: the scatter conjunction, cost-ordered.
    let conj: Vec<Vec<ColPred>> = scatter
        .iter()
        .map(|&(lo, hi, b_gt)| {
            vec![
                ColPred::range(roles.u, lo, hi),
                ColPred::range(roles.b, b_gt + 1, i64::MAX),
            ]
        })
        .collect();
    let model = CostModel::default();
    let (orders, secs) = tracer.time("stats.order_predicates", ROOT, next_op(), || {
        conj.iter()
            .map(|preds| order_predicates(t, preds, &model))
            .collect::<Vec<_>>()
    });
    put(out, "stats.order_us", secs * 1e6 / conj.len().max(1) as f64);
    let (sels, secs) = tracer.time("kernels.selection_scan_ordered", ROOT, next_op(), || {
        conj.iter()
            .zip(&orders)
            .map(|(preds, po)| {
                let mut per_pred = vec![Default::default(); preds.len()];
                selection_scan_ordered(t, preds, &po.order, &mut per_pred).0
            })
            .collect::<Vec<_>>()
    });
    put(
        out,
        "kernels.selection_ns_per_row",
        per_row(secs, conj.len()),
    );
    let selected: usize = sels.iter().map(|s| selection_count(s)).sum();
    let mut gathered = Vec::new();
    let (_, secs) = tracer.time("kernels.gather_column", ROOT, next_op(), || {
        for sel in &sels {
            gathered.clear();
            gather_column(t, sel, roles.a, &mut gathered);
        }
    });
    black_box(&gathered);
    put(
        out,
        "kernels.gather_ns_per_row",
        secs * 1e9 / selected.max(1) as f64,
    );

    // ---- exec and sql: pre-lowered plans, then the same statements as text.
    let cat = Cat { t, d };
    let serial = serial_executor();
    let mut frontend_us = Vec::new();
    for class in Class::ALL {
        let stmts = stmts_of(inputs, class);
        let mut plan_ms = Vec::new();
        let mut sql_ms = Vec::new();
        for stmt in &stmts {
            let text = stmt.sql(cols, roles);
            let op_id = next_op();
            let (lowered, secs) = tracer.time("sql.frontend", ROOT, op_id, || lower(&cat, &text));
            frontend_us.push(secs * 1e6);
            let Some((tables, plan)) = lowered else {
                continue;
            };
            let auxes: Vec<Aux<'_>> = tables.iter().map(|_| Aux::default()).collect();
            // Alternate the two rungs and keep each one's better time, so
            // neither pays for the other's cold caches.
            let (mut plan_best, mut sql_best) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..2 {
                let (r, secs) = tracer.time(EXEC_SPAN[class.index()], ROOT, op_id, || {
                    serial.execute_plan(&tables, &auxes, &plan)
                });
                black_box(r);
                plan_best = plan_best.min(secs * 1e3);
                let (r, secs) = tracer.time(SQL_SPAN[class.index()], ROOT, op_id, || {
                    run_with(&cat, &text, &serial)
                });
                black_box(r.is_ok());
                sql_best = sql_best.min(secs * 1e3);
            }
            plan_ms.push(plan_best);
            sql_ms.push(sql_best);
        }
        let plan = median(&plan_ms).unwrap_or(0.0);
        let sql = median(&sql_ms).unwrap_or(0.0);
        put(out, &format!("exec.plan_ms.{}", class.name()), plan);
        put(out, &format!("sql.run_ms.{}", class.name()), sql);
        put(
            out,
            &format!("sql.overhead_us.{}", class.name()),
            (sql - plan) * 1e3,
        );
    }
    put(out, "sql.frontend_us", median(&frontend_us).unwrap_or(0.0));

    // ---- morsel: the unprunable global class, serial against all cores.
    let threads = available_parallelism().map_or(1, usize::from);
    let parallel = Executor::default().with_exec_mode(ExecMode::Parallel(threads));
    let (mut ser_ms, mut par_ms) = (Vec::new(), Vec::new());
    let (mut morsels, mut steals, mut merge_ns) = (0usize, 0usize, 0u64);
    for stmt in &stmts_of(inputs, Class::Global) {
        let Some((tables, plan)) = lower(&cat, &stmt.sql(cols, roles)) else {
            continue;
        };
        let auxes: Vec<Aux<'_>> = tables.iter().map(|_| Aux::default()).collect();
        let op_id = next_op();
        let (r, secs) = tracer.time("morsel.serial", ROOT, op_id, || {
            serial.execute_plan(&tables, &auxes, &plan)
        });
        black_box(r);
        ser_ms.push(secs * 1e3);
        let (r, secs) = tracer.time("morsel.parallel", ROOT, op_id, || {
            parallel.execute_plan(&tables, &auxes, &plan)
        });
        par_ms.push(secs * 1e3);
        morsels += r.stats.morsels;
        steals += r.stats.morsel_steals;
        merge_ns += r.stats.merge_ns;
    }
    let speedup = match (median(&ser_ms), median(&par_ms)) {
        (Some(s), Some(p)) if p > 0.0 => s / p,
        _ => 0.0,
    };
    put(out, "morsel.speedup_nproc", speedup);
    put(out, "morsel.morsels", morsels as f64);
    put(out, "morsel.steals", steals as f64);
    put(out, "morsel.merge_ns", merge_ns as f64);
}

/// Span names of the `execute_plan` rung, in [`Class::ALL`] order.
pub const EXEC_SPAN: [&str; 5] = [
    "exec.execute_plan.grouped",
    "exec.execute_plan.global",
    "exec.execute_plan.scatter",
    "exec.execute_plan.project",
    "exec.execute_plan.join",
];

/// Parse, bind and lower `text`; resolve its tables.
fn lower<'a>(cat: &'a Cat<'a>, text: &str) -> Option<(Vec<&'a Table>, PhysicalPlan)> {
    use amnesia_sql::Catalog;
    let Ok(Statement::Select(select)) = parse(text) else {
        return None;
    };
    let bound = bind(cat, &select).ok()?;
    let tables: Option<Vec<&Table>> = bound
        .tables
        .iter()
        .map(|(name, _)| cat.resolve(name))
        .collect();
    Some((tables?, bound.lower()))
}
