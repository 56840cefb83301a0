//! The metric registry (names, units, directions, bounds — mirrored by
//! `BENCHMARK.json`, and held equal to it by `tests/smoke.rs`) and the
//! arithmetic that turns repetitions into reported values.

use std::collections::BTreeMap;

use crate::gen::{Class, Workload};
use crate::ladder::Layer;
use crate::session::{RepResult, Samples, CODECS};
use crate::stats::{median, nearest_rank, supports};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_rows_per_s", "rows/s", Higher, 0.25),
    e2e("cycle_p50_ms", "ms", Lower, 0.25),
    e2e("cycle_p90_ms", "ms", Lower, 0.25),
    e2e("range_p50_us", "us", Lower, 0.25),
    e2e("agg_p50_us", "us", Lower, 0.25),
    e2e("resident_bytes_per_row", "B", Lower, 0.02),
    e2e("write_amp", "ratio", Lower, 0.02),
    e2e("recover_ms", "ms", Lower, 0.25),
    e2e("sql_qps", "stmt/s", Higher, 0.25),
    e2e("grouped_p50_ms", "ms", Lower, 0.25),
    e2e("global_p50_ms", "ms", Lower, 0.25),
    e2e("scatter_p50_ms", "ms", Lower, 0.25),
    e2e("project_p50_ms", "ms", Lower, 0.25),
    e2e("join_p50_ms", "ms", Lower, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric: `(name, unit, direction)`. The prefix before the
/// first `.` is the layer (the repo's module).
pub type PerLayer = (&'static str, &'static str, Better);

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[PerLayer] = &[
    ("store.insert_batch_s", "s", Lower),
    ("store.forget_batch_s", "s", Lower),
    ("store.forget_us_per_row", "us", Lower),
    ("store.end_batch_s", "s", Lower),
    ("store.end_batch_share", "frac", Lower),
    ("store.query_s", "s", Lower),
    ("store.query_p99_us", "us", Lower),
    ("table.insert_s", "s", Lower),
    ("table.forget_s", "s", Lower),
    ("policy.select_victims_s", "s", Lower),
    ("policy.select_us_per_victim", "us", Lower),
    ("tier.blocks_frozen", "count", Lower),
    ("tier.blocks_dropped", "count", Higher),
    ("tier.blocks_recompressed", "count", Lower),
    ("tier.recompress_ratio", "ratio", Lower),
    ("tier.bytes_frozen", "B", Lower),
    ("tier.compression_ratio", "ratio", Higher),
    ("tier.freeze_s", "s", Lower),
    ("tier.drop_s", "s", Lower),
    ("tier.recompress_s", "s", Lower),
    ("persist.wal_records", "count", Lower),
    ("persist.wal_bytes_per_row", "B", Lower),
    ("persist.fsyncs", "count", Lower),
    ("persist.dir_fsyncs", "count", Lower),
    ("persist.segments_rotated", "count", Lower),
    ("persist.segments_shredded", "count", Lower),
    ("persist.bytes_shredded", "B", Lower),
    ("persist.checkpoints", "count", Lower),
    ("persist.snapshot_bytes", "B", Lower),
    ("persist.snapshot_encode_s", "s", Lower),
    ("persist.replay_records", "count", Lower),
    ("persist.recover_ms", "ms", Lower),
    ("vfs.bytes_written", "B", Lower),
    ("vfs.write_calls", "count", Lower),
    ("vfs.fsync_calls", "count", Lower),
    ("vfs.busy_s", "s", Lower),
    ("compress.filter_ns_per_row", "ns/row", Lower),
    ("compress.fold_ns_per_row", "ns/row", Lower),
    ("compress.encode_ns_per_row", "ns/row", Lower),
    ("compress.value_at_ns", "ns", Lower),
    ("compress.filter_frac_membw", "frac", Higher),
    ("compress.block_decodes", "count", Lower),
    ("compress.blocks_rle", "count", Higher),
    ("compress.blocks_dict", "count", Higher),
    ("compress.blocks_forpack", "count", Higher),
    ("compress.blocks_delta", "count", Higher),
    ("compress.blocks_plain", "count", Lower),
    ("batch.count_ns_per_row", "ns/row", Lower),
    ("batch.scan_ns_per_row", "ns/row", Lower),
    ("batch.agg_ns_per_row", "ns/row", Lower),
    ("batch.blocks_pruned_frac", "frac", Higher),
    ("kernels.selection_ns_per_row", "ns/row", Lower),
    ("kernels.gather_ns_per_row", "ns/row", Lower),
    ("stats.order_us", "us", Lower),
    ("stats.qerror_p50", "ratio", Lower),
    ("stats.qerror_max", "ratio", Lower),
    ("exec.plan_ms.grouped", "ms", Lower),
    ("exec.plan_ms.global", "ms", Lower),
    ("exec.plan_ms.scatter", "ms", Lower),
    ("exec.plan_ms.project", "ms", Lower),
    ("exec.plan_ms.join", "ms", Lower),
    ("exec.rows_scanned_per_result", "ratio", Lower),
    ("exec.blocks_pruned_frac", "frac", Higher),
    ("morsel.speedup_nproc", "x", Higher),
    ("morsel.morsels", "count", Lower),
    ("morsel.steals", "count", Lower),
    ("morsel.merge_ns", "ns", Lower),
    ("sql.frontend_us", "us", Lower),
    ("sql.run_ms.grouped", "ms", Lower),
    ("sql.run_ms.global", "ms", Lower),
    ("sql.run_ms.scatter", "ms", Lower),
    ("sql.run_ms.project", "ms", Lower),
    ("sql.run_ms.join", "ms", Lower),
    ("sql.overhead_us.grouped", "us", Lower),
    ("sql.overhead_us.global", "us", Lower),
    ("sql.overhead_us.scatter", "us", Lower),
    ("sql.overhead_us.project", "us", Lower),
    ("sql.overhead_us.join", "us", Lower),
    ("machine.cores", "count", Higher),
    ("machine.simd_bits", "bits", Higher),
    ("machine.memcpy_gbps", "GB/s", Higher),
    ("trace.spans", "count", Lower),
];

/// Is this per-layer metric a count that one seed must reproduce exactly
/// (a `persist.*`, `tier.*` or `vfs.*` value that is not a time)?
pub fn is_count(name: &str) -> bool {
    let timed = ["_s", "_ms", "_us_per_victim"]
        .iter()
        .any(|t| name.ends_with(t));
    !timed
        && ["persist.", "tier.", "vfs."]
            .iter()
            .any(|layer| name.starts_with(layer))
}

/// What one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs came from.
    pub seed: u64,
    /// Repetitions measured.
    pub reps: usize,
    /// Operations attempted, summed over repetitions.
    pub attempted: u64,
    /// Operations failed, summed over repetitions.
    pub failed: u64,
    /// Checksum over every read result of one repetition.
    pub result_checksum: u64,
    /// End-to-end values, in [`END_TO_END`] order.
    pub end_to_end: Vec<f64>,
    /// Per-layer values by name. Counts are always present; times and the
    /// ladder only after a traced run.
    pub per_layer: Layer,
    /// The percentile actually reported for `cycle_p90_ms` and
    /// `store.query_p99_us`, with the executions behind each: fewer support
    /// only a lower percentile.
    pub tails: [(f64, usize); 2],
}

impl Report {
    /// Value of an end-to-end metric by name.
    pub fn e2e(&self, name: &str) -> Option<f64> {
        END_TO_END
            .iter()
            .position(|m| m.name == name)
            .map(|i| self.end_to_end[i])
    }
}

/// The highest percentile at or below `want` that `executions` raw samples
/// support (at least ten beyond it), evaluated on the noise-filtered
/// `series`. Each element of the series is the least of the executions of
/// one operation, so the support is counted in executions.
fn tail(series: &[f64], executions: usize, want: f64) -> (f64, f64) {
    let p = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| *p <= want && supports(executions, *p))
        .unwrap_or(50.0);
    (p, nearest_rank(series, p).unwrap_or(0.0))
}

/// Fold the repetitions of one run into a [`Report`]. `layer` carries what
/// the traced run added (span self-times, the ladder); it is merged under
/// the counts.
pub fn summarize(workload: Workload, seed: u64, reps: &[RepResult], layer: Layer) -> Report {
    let ncols = workload.columns().len();
    let first = &reps[0].counts;
    let mut failed: u64 = reps.iter().map(|r| r.counts.failed).sum();
    // Every repetition does identical work on identical inputs, so every
    // count must repeat exactly.
    for r in &reps[1..] {
        let mut c = r.counts.clone();
        c.failed = first.failed;
        if c != *first {
            eprintln!("FAILED: counts differ between repetitions of one run");
            failed += 1;
        }
    }

    // Every timing comes from the noise-filtered series (`Samples::quietest`).
    let q = Samples::quietest(reps);
    let cycles = q.cycle_ms();
    let (cycle_p, cycle_tail) = tail(&cycles, cycles.len() * reps.len(), 90.0);
    let queries: Vec<f64> = q.range_us.iter().chain(&q.avg_us).copied().collect();
    let (query_p, query_tail) = tail(&queries, queries.len() * reps.len(), 99.0);
    let executions = [cycles.len() * reps.len(), queries.len() * reps.len()];
    let p50 = |series: &[f64]| median(series).unwrap_or(0.0);
    let (sql_s, stmts) = q.sql_total();

    let end_to_end = vec![
        q.setup_s,
        first.rows_ingested as f64 / q.write_s(),
        p50(&q.cycle_ms()),
        cycle_tail,
        p50(&q.range_us),
        p50(&q.avg_us),
        first.resident_bytes_per_row(),
        first.write_amp(ncols),
        q.recover_ms[0],
        stmts as f64 / sql_s,
        p50(&q.sql_ms[Class::Grouped.index()]),
        p50(&q.sql_ms[Class::Global.index()]),
        p50(&q.sql_ms[Class::Scatter.index()]),
        p50(&q.sql_ms[Class::Project.index()]),
        p50(&q.sql_ms[Class::Join.index()]),
    ];

    let mut per_layer = counts_layer(workload, reps, &q);
    per_layer.insert("store.query_p99_us".to_string(), query_tail);
    per_layer.extend(layer);

    Report {
        workload,
        seed,
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.counts.attempted).sum(),
        failed,
        result_checksum: first.result_checksum,
        end_to_end,
        per_layer,
        tails: [(cycle_p, executions[0]), (query_p, executions[1])],
    }
}

/// The per-layer values every run can report: counts, and the times the
/// harness takes anyway.
fn counts_layer(workload: Workload, reps: &[RepResult], q: &Samples) -> Layer {
    let c = &reps[0].counts;
    let mut out = Layer::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let (insert_s, forget_s) = (sum(&q.insert_s), sum(&q.forget_s));
    let (end_s, select_s) = (sum(&q.end_s), sum(&q.select_s));
    let write_s = q.write_s();
    let victims = c.victims.max(1) as f64;
    if workload.is_stream() {
        put("store.insert_batch_s", insert_s);
        put("store.forget_batch_s", forget_s);
        put("store.forget_us_per_row", forget_s * 1e6 / victims);
        put("store.end_batch_s", end_s);
        put("store.end_batch_share", end_s / write_s);
        put("table.insert_s", 0.0);
        put("table.forget_s", 0.0);
        for (i, name) in ["tier.freeze_s", "tier.drop_s", "tier.recompress_s"]
            .iter()
            .enumerate()
        {
            put(name, q.tier_replay_s[i]);
        }
    } else {
        for name in [
            "store.insert_batch_s",
            "store.forget_batch_s",
            "store.forget_us_per_row",
            "store.end_batch_s",
            "store.end_batch_share",
            "tier.drop_s",
            "tier.recompress_s",
        ] {
            put(name, 0.0);
        }
        put("table.insert_s", insert_s);
        put("table.forget_s", forget_s);
        put("tier.freeze_s", end_s);
    }
    put("store.query_s", (sum(&q.range_us) + sum(&q.avg_us)) / 1e6);
    put("policy.select_victims_s", select_s);
    put("policy.select_us_per_victim", select_s * 1e6 / victims);
    put("tier.blocks_frozen", c.frozen_blocks as f64);
    put("tier.blocks_dropped", c.blocks_dropped as f64);
    put("tier.blocks_recompressed", c.blocks_recompressed as f64);
    put(
        "tier.recompress_ratio",
        c.blocks_recompressed as f64 / c.frozen_blocks.max(1) as f64,
    );
    put("tier.bytes_frozen", c.bytes_frozen as f64);
    put("tier.compression_ratio", c.compression_ratio);
    put("persist.wal_records", c.wal.records_appended as f64);
    put(
        "persist.wal_bytes_per_row",
        c.wal.bytes_appended as f64 / c.rows_inserted.max(1) as f64,
    );
    put("persist.fsyncs", c.wal.fsyncs as f64);
    put("persist.dir_fsyncs", c.wal.dir_fsyncs as f64);
    put("persist.segments_rotated", c.wal.segments_rotated as f64);
    put("persist.segments_shredded", c.wal.segments_shredded as f64);
    put("persist.bytes_shredded", c.wal.bytes_shredded as f64);
    put("persist.checkpoints", c.wal.checkpoints as f64);
    put("persist.snapshot_bytes", c.snapshot_bytes as f64);
    put("persist.snapshot_encode_s", q.snapshot_encode_s);
    put("persist.replay_records", c.replay_records as f64);
    put("persist.recover_ms", q.recover_ms[0]);
    put("vfs.bytes_written", c.vfs.bytes_written as f64);
    put("vfs.write_calls", c.vfs.write_calls as f64);
    put("vfs.fsync_calls", c.vfs.fsync_calls as f64);
    put("vfs.busy_s", q.vfs_busy_s);
    put("compress.block_decodes", c.block_decodes as f64);
    for (i, codec) in CODECS.iter().enumerate() {
        put(
            &format!("compress.blocks_{codec}"),
            c.blocks_by_codec[i] as f64,
        );
    }
    let mut q: Vec<f64> = reps[0].qerrors.clone();
    q.sort_by(f64::total_cmp);
    put("stats.qerror_p50", median(&q).unwrap_or(0.0));
    put("stats.qerror_max", q.last().copied().unwrap_or(0.0));
    put(
        "exec.rows_scanned_per_result",
        c.sql_rows_scanned as f64 / c.sql_result_rows.max(1) as f64,
    );
    put(
        "exec.blocks_pruned_frac",
        c.sql_blocks_pruned as f64 / c.sql_blocks_seen.max(1) as f64,
    );
    out
}

/// The driver's result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
/// per-layer metrics traced).
pub fn result_json(report: &Report, traced: bool) -> String {
    let mut metrics: Vec<String> = Vec::new();
    if traced {
        for (name, unit, _) in PER_LAYER {
            let v = report.per_layer.get(*name).copied().unwrap_or(0.0);
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            ));
        }
    } else {
        for (m, v) in END_TO_END.iter().zip(&report.end_to_end) {
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(*v),
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A JSON number with all the digits measured (`NaN`/`inf` become 0: JSON
/// has no spelling for them).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Human-readable lines: `workload name value unit`, end-to-end first.
pub fn lines(report: &Report) -> Vec<String> {
    let w = report.workload.name();
    let mut out = Vec::new();
    for (m, v) in END_TO_END.iter().zip(&report.end_to_end) {
        let note = if m.name == "cycle_p90_ms" {
            format!(
                "  (p{}, {} cycle executions)",
                report.tails[0].0, report.tails[0].1
            )
        } else {
            String::new()
        };
        out.push(format!("{w} {} {} {}{note}", m.name, number(*v), m.unit));
    }
    out.push(format!("{w} ops_attempted {} count", report.attempted));
    out.push(format!("{w} ops_failed {} count", report.failed));
    for (name, unit, _) in PER_LAYER {
        if let Some(v) = report.per_layer.get(*name) {
            let note = if *name == "store.query_p99_us" {
                format!(
                    "  (p{}, {} query executions)",
                    report.tails[1].0, report.tails[1].1
                )
            } else {
                String::new()
            };
            out.push(format!("{w} {name} {} {unit}{note}", number(*v)));
        }
    }
    out
}

/// `{"name": value, …}` on one line.
fn json_object<'a>(pairs: impl Iterator<Item = (&'a str, f64)>) -> String {
    let fields: Vec<String> = pairs
        .map(|(k, v)| format!("\"{k}\": {}", number(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// All reports as one JSON document (`benchmark/out/results.json`).
pub fn results_json(reports: &[Report], extra: &BTreeMap<String, f64>) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"seed\": {}, \"reps\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"end_to_end\": {}, \"per_layer\": {}}}",
                r.workload.name(),
                r.seed,
                r.reps,
                r.attempted,
                r.failed,
                json_object(
                    END_TO_END
                        .iter()
                        .map(|m| m.name)
                        .zip(r.end_to_end.iter().copied())
                ),
                json_object(r.per_layer.iter().map(|(k, v)| (k.as_str(), *v))),
            )
        })
        .collect();
    format!(
        "{{\n  \"workloads\": {{\n{}\n  }},\n  \"extra\": {}\n}}\n",
        workloads.join(",\n"),
        json_object(extra.iter().map(|(k, v)| (k.as_str(), *v)))
    )
}
