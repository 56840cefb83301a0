//! The paper's evaluation as data: [`EXPERIMENTS`] holds one row per
//! figure, table and ablation, and [`run`] turns a row into its report.
//!
//! A row is a name, a title, a [`Sweep`] and a [`Metric`]. The sweep says
//! what runs: labelled [`Knob`] overrides of the simulator's [`SimConfig`]
//! (one run per line, or per line × column for a table), or one of the
//! four loops that are not simulator runs (module `loops`): the
//! store-plus-ledger loop over forget modes, the parent/child join loop,
//! the partitioned adaptive loop and the codec grid. The metric says what
//! is read from each run, and so the shape of the [`Report`]: a retention
//! map, a per-batch series or a table of end-of-run cells.
//!
//! `repro` prints every row and writes all answers to one
//! `PAPER_RESULTS.json` ([`results_json`]). The six runners the shape
//! tests call ([`fig1_amnesia_map`] …) are lookups into the table.
//! [`Scale`] runs the same rows at reduced size.

mod loops;

use std::sync::LazyLock;

use amnesia_columnar::{ReferentialAction, Table, Value};
use amnesia_distrib::{DistributionKind, Histogram};
use amnesia_engine::{kernels, ColPred};
use amnesia_util::{config_err, Result};
use amnesia_workload::QueryGenKind;
use serde::{Deserialize, Serialize};

use crate::budget::BudgetMode;
use crate::config::SimConfig;
use crate::policy::PolicyKind;
use crate::sim::{select, Simulator};
use crate::store::ForgetMode;

/// Experiment size knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Storage budget (`DBSIZE`).
    pub dbsize: usize,
    /// Queries per batch.
    pub queries_per_batch: usize,
    /// Update batches.
    pub batches: u64,
    /// Value domain.
    pub domain: i64,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's parameters (Figures 1–3): dbsize 1000, 1000 queries per
    /// batch, 10 batches.
    pub fn paper() -> Self {
        Self {
            dbsize: 1000,
            queries_per_batch: 1000,
            batches: 10,
            domain: 100_000,
            seed: 0xC1D8_2017,
        }
    }

    /// Reduced size for fast CI tests (same code paths).
    pub fn test() -> Self {
        Self {
            dbsize: 200,
            queries_per_batch: 60,
            batches: 6,
            domain: 10_000,
            seed: 0xC1D8_2017,
        }
    }

    /// The simulator configuration at this scale with `knobs` applied in
    /// order, so a later knob overrides an earlier one.
    fn config<'a>(&self, knobs: impl IntoIterator<Item = &'a Knob>) -> SimConfig {
        let mut cfg = SimConfig {
            dbsize: self.dbsize,
            domain: self.domain,
            queries_per_batch: self.queries_per_batch,
            batches: self.batches,
            seed: self.seed,
            ..SimConfig::default()
        };
        for knob in knobs {
            match knob {
                Knob::Policy(kind) => cfg.policy = kind.clone(),
                Knob::Dist(dist) => cfg.distribution = dist.clone(),
                Knob::Drift => {
                    let base = Box::new(cfg.distribution);
                    let shift_per_epoch = self.drift_shift();
                    cfg.distribution = DistributionKind::Drift {
                        base,
                        shift_per_epoch,
                    };
                }
                Knob::Upd(fraction) => cfg.update_fraction = *fraction,
                Knob::Queries(gen) => cfg.query_gen = gen.clone(),
                Knob::Budget(budget) => cfg.budget = *budget,
                Knob::Batches(times) => cfg.batches = self.batches * times,
            }
        }
        cfg
    }

    /// What [`Knob::Drift`] adds to inserted values per batch.
    fn drift_shift(&self) -> i64 {
        self.domain / 4
    }

    /// Values per distribution in the codec grid.
    fn codec_rows(&self) -> usize {
        (self.dbsize * 8).max(4096)
    }
}

/// Named series over batches (Figure 3 and friends).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesReport {
    /// Experiment title.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: String,
    /// Meaning of the y axis.
    pub y_label: String,
    /// `(name, y-values)` per line.
    pub series: Vec<(String, Vec<f64>)>,
}

/// Named retention maps (Figures 1–2): one row per strategy/distribution,
/// active fraction per insertion epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapReport {
    /// Experiment title.
    pub title: String,
    /// `(name, active fraction per epoch 0..=batches)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Generic result table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableReport {
    /// Experiment title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

/// What [`run`] returns: one of the three report shapes.
#[derive(Debug, Clone)]
pub enum Report {
    /// Per-batch series.
    Series(SeriesReport),
    /// Retention map.
    Map(MapReport),
    /// Table of end-of-run cells.
    Table(TableReport),
}

impl Report {
    /// Render as ASCII: a line chart, a heatmap mirroring the paper's
    /// color maps, or an aligned table.
    pub fn render_ascii(&self) -> String {
        use amnesia_util::ascii;
        match self {
            Report::Series(r) => {
                let values = r.series.iter().flat_map(|(_, v)| v.iter().copied());
                let y_max = values.fold(0.0f64, f64::max).max(1.0);
                let chart = ascii::line_chart(&r.series, 0.0, y_max, 12);
                format!("{} ({} vs {})\n{chart}", r.title, r.y_label, r.x_label)
            }
            Report::Map(r) => format!("{}\n{}", r.title, ascii::heatmap(&r.rows, None)),
            Report::Table(r) => {
                let mut t = ascii::TextTable::new(r.header.clone());
                for row in &r.rows {
                    t.row(row.clone());
                }
                format!("{}\n{}", r.title, t.render())
            }
        }
    }

    /// One JSON object holding every value of the report, one series, map
    /// row or table row per line: floats in full precision (non-finite as
    /// `null`), table cells as printed.
    pub fn to_json(&self) -> String {
        let number = |v: &f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        };
        let named = |lines: &[(String, Vec<f64>)]| {
            json_block('{', lines, |(name, v)| {
                format!("{}: {}", json_str(name), json_list(v, number))
            })
        };
        let strings = |cells: &[String]| json_list(cells, |c| json_str(c));
        let (title, body) = match self {
            Report::Series(r) => {
                let (x, y) = (json_str(&r.x_label), json_str(&r.y_label));
                let series = named(&r.series);
                let body =
                    format!("\"x_label\": {x},\n    \"y_label\": {y},\n    \"series\": {series}");
                (&r.title, body)
            }
            Report::Map(r) => (&r.title, format!("\"rows\": {}", named(&r.rows))),
            Report::Table(r) => {
                let rows = json_block('[', &r.rows, |row| strings(row));
                let body = format!("\"header\": {},\n    \"rows\": {rows}", strings(&r.header));
                (&r.title, body)
            }
        };
        format!("{{\n    \"title\": {},\n    {body}\n  }}", json_str(title))
    }
}

/// `PAPER_RESULTS.json`: one object keyed by experiment name, in the
/// order given.
pub fn results_json(results: &[(&str, Report)]) -> String {
    let entries: Vec<String> = results
        .iter()
        .map(|(name, report)| format!("  {}: {}", json_str(name), report.to_json()))
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(item).collect();
    format!("[{}]", items.join(", "))
}

/// `items` one per line between `open` and its closing bracket, indented
/// as a report field's value.
fn json_block<T>(open: char, items: &[T], item: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(|i| format!("      {}", item(i))).collect();
    let close = if open == '{' { '}' } else { ']' };
    format!("{open}\n{}\n    {close}", items.join(",\n"))
}

/// One override of the simulator's configuration.
#[derive(Debug, Clone)]
pub enum Knob {
    /// Amnesia policy.
    Policy(PolicyKind),
    /// Data distribution.
    Dist(DistributionKind),
    /// Shift the distribution set so far up by a quarter of the domain
    /// per batch (concept drift).
    Drift,
    /// `upd-perc`: insert batch size as a fraction of dbsize.
    Upd(f64),
    /// Query generator.
    Queries(QueryGenKind),
    /// Storage budget mode.
    Budget(BudgetMode),
    /// Run this many times the scale's batches.
    Batches(u64),
}

/// Labelled lines (or table columns) of a sweep.
pub type Lines<T> = Vec<(&'static str, T)>;

/// What an experiment runs.
#[derive(Debug, Clone)]
pub enum Sweep {
    /// Simulator runs.
    Sim {
        /// Knobs of every run.
        base: Vec<Knob>,
        /// One series, map row or table row each.
        lines: Lines<Vec<Knob>>,
        /// One table column each ([`Metric::Final`] only).
        columns: Lines<Vec<Knob>>,
    },
    /// The store-plus-ledger loop once per forget mode (uniform data and
    /// policy, upd-perc 0.40), then a probe set.
    Store {
        /// One table row each.
        modes: Lines<ForgetMode>,
        /// What is read after the last batch.
        probes: Probes,
    },
    /// The parent/child join loop once per policy and referential action
    /// (`None` forgets parents raw, bypassing referential semantics).
    Join(Lines<(PolicyKind, Option<ReferentialAction>)>),
    /// The partitioned adaptive loop: the bandit against each of its arms
    /// applied globally.
    Adaptive,
    /// Every codec on every paper distribution.
    Compression,
}

/// What is read from each run, and so the shape of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Active fraction per insertion epoch: a [`MapReport`].
    Retention,
    /// Per-batch precision `E` (join precision for the join loop).
    Precision,
    /// Per-batch relative error of AVG.
    AggError,
    /// Per-batch total-variation distance between the active and the
    /// all-history value histograms (`TV_BINS` bins).
    TvDistance,
    /// Per-batch active tuples.
    ActiveRows,
    /// A [`TableReport`] of end-of-run cells: the final precision, or the
    /// readings of the store, join and codec loops.
    Final,
}

/// The two probe sets of the store-plus-ledger loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probes {
    /// §1's forget modes: footprint, completeness of 100 range probes,
    /// whole-table AVG error and mean query cost.
    Footprint,
    /// Micro-models: relative error of 200 ranged COUNT and AVG probes,
    /// and the bytes that represent forgotten rows.
    RangedAggregates,
}

impl Probes {
    /// The table's columns, `|`-separated.
    fn header(self) -> &'static str {
        match self {
            Probes::Footprint => "mode|hot rows|hot KiB|cold rows|summary B|range completeness|avg rel-err|mean query cost",
            Probes::RangedAggregates => "store|ranged COUNT rel-err|ranged AVG rel-err|hot rows|aux bytes",
        }
    }
}

/// One figure, table or ablation of the evaluation.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The `repro` argument that selects this row; rows sharing it (such
    /// as Figure 3's two panels) run together.
    pub group: &'static str,
    /// Unique key: the heading `repro` prints and the `PAPER_RESULTS.json`
    /// key.
    pub name: &'static str,
    /// Report title. `{batches}`, `{dbsize}`, `{dist}` (the base
    /// distribution), `{shift}` (the drift per batch) and `{n}` (values
    /// per distribution in the codec grid) are filled in from the scale.
    pub title: &'static str,
    /// What runs.
    pub sweep: Sweep,
    /// What is read.
    pub metric: Metric,
}

impl Experiment {
    /// The same experiment on another data distribution (Figure 3's
    /// panels, the §4.2 and §4.3 sweeps).
    fn on(&self, dist: DistributionKind) -> Experiment {
        let mut exp = self.clone();
        if let Sweep::Sim { base, .. } = &mut exp.sweep {
            base.push(Knob::Dist(dist));
        }
        exp
    }

    fn title(&self, scale: &Scale) -> String {
        let dist = match &self.sweep {
            Sweep::Sim { base, .. } => scale.config(base).distribution.name(),
            _ => "",
        };
        self.title
            .replace("{batches}", &scale.batches.to_string())
            .replace("{dbsize}", &scale.dbsize.to_string())
            .replace("{dist}", dist)
            .replace("{shift}", &scale.drift_shift().to_string())
            .replace("{n}", &scale.codec_rows().to_string())
    }
}

/// The evaluation, in `repro`'s output order.
pub static EXPERIMENTS: LazyLock<Vec<Experiment>> = LazyLock::new(table);

fn policies(kinds: Vec<PolicyKind>) -> Lines<Vec<Knob>> {
    let line = |kind: PolicyKind| (kind.name(), vec![Knob::Policy(kind)]);
    kinds.into_iter().map(line).collect()
}

fn sim(base: Vec<Knob>, lines: Lines<Vec<Knob>>) -> Sweep {
    let columns = Vec::new();
    Sweep::Sim {
        base,
        lines,
        columns,
    }
}

/// The rows of [`EXPERIMENTS`], laid out one field group per line.
#[rustfmt::skip]
fn table() -> Vec<Experiment> {
    use DistributionKind::{Serial, Uniform};
    use Knob::*;
    use Metric::*;
    let (normal, zipfian) = (DistributionKind::normal_default, DistributionKind::zipfian_default);
    let paper = || policies(PolicyKind::paper_set());
    let fig3 = |dist| sim(vec![Upd(0.80), Dist(dist)], paper());
    let agg = |gen| sim(vec![Queries(gen), Batches(3)], paper());
    let budgets = || sim(vec![Upd(0.40), Policy(PolicyKind::Uniform)], vec![
        ("fixed", vec![Budget(BudgetMode::FixedSize)]),
        ("watermark(1.8/1.0)", vec![Budget(BudgetMode::Watermark { high: 1.8, low: 1.0 })]),
        ("unbounded", vec![Budget(BudgetMode::Unbounded)]),
    ]);
    let selectivities = [("S=0.001", 0.001), ("S=0.01", 0.01), ("S=0.05", 0.05), ("S=0.20", 0.20)]
        .map(|(label, selectivity)| (label, vec![Queries(QueryGenKind::UniformRange { selectivity })]));
    let mut drift = paper();
    drift.extend(policies(vec![PolicyKind::Aligned { bins: 32 }]));
    let forget_modes = [ForgetMode::MarkOnly, ForgetMode::Delete, ForgetMode::Deindex, ForgetMode::Tier,
        ForgetMode::Summarize, ForgetMode::Model { bins: 64 }].map(|mode| (mode.name(), mode));
    let micromodels = vec![("mark-only", ForgetMode::MarkOnly), ("summarize", ForgetMode::Summarize),
        ("model-16", ForgetMode::Model { bins: 16 }), ("model-128", ForgetMode::Model { bins: 128 })];
    let cascade = Some(ReferentialAction::Cascade);
    let uniform = PolicyKind::Uniform;
    vec![
        Experiment { group: "fig1", name: "fig1", metric: Retention,
            title: "Figure 1: database amnesia map after {batches} batches (dbsize={dbsize}, upd-perc=0.20)",
            sweep: sim(vec![Dist(Serial)], policies(PolicyKind::fig1_set())) },
        Experiment { group: "fig2", name: "fig2", metric: Retention,
            title: "Figure 2: database rot map after {batches} batches (dbsize={dbsize}, upd-perc=0.20)",
            sweep: sim(vec![Policy(PolicyKind::Rot { high_water_age: 2 })], vec![
                ("Serial", vec![Dist(Serial)]), ("Uniform", vec![Dist(Uniform)]),
                ("Normal", vec![Dist(normal())]), ("Zipfian", vec![Dist(zipfian())]),
            ]) },
        Experiment { group: "fig3", name: "fig3_uniform", metric: Precision,
            title: "Figure 3: {dist} range experiment (dbsize={dbsize}, upd-perc=0.80)",
            sweep: fig3(Uniform) },
        Experiment { group: "fig3", name: "fig3_zipfian", metric: Precision,
            title: "Figure 3: {dist} range experiment (dbsize={dbsize}, upd-perc=0.80)",
            sweep: fig3(zipfian()) },
        Experiment { group: "agg", name: "agg_whole_table", metric: AggError,
            title: "Section 4.3: AVG precision, {dist} data (dbsize={dbsize}, upd-perc=0.20)",
            sweep: agg(QueryGenKind::paper_avg()) },
        Experiment { group: "agg", name: "agg_with_predicate", metric: AggError,
            title: "Section 4.3: AVG precision, {dist} data, range predicate (dbsize={dbsize}, upd-perc=0.20)",
            sweep: agg(QueryGenKind::paper_avg_over_range()) },
        Experiment { group: "volatility", name: "volatility", metric: Final,
            title: "Volatility: precision at batch {batches} under low/high volatility ({dist} data)",
            sweep: Sweep::Sim { base: vec![], lines: paper(),
                columns: vec![("E (upd 10%)", vec![Upd(0.10)]), ("E (upd 80%)", vec![Upd(0.80)])] } },
        Experiment { group: "selectivity", name: "selectivity", metric: Final,
            title: "Selectivity sweep: precision at batch {batches} ({dist} data, upd-perc=0.80)",
            sweep: Sweep::Sim { base: vec![Upd(0.80)], lines: paper(), columns: selectivities.into() } },
        Experiment { group: "ablation-pair", name: "ablation_pair", metric: AggError,
            title: "Ablation: pair forgetting preserves AVG (normal data)",
            sweep: sim(vec![Dist(normal()), Queries(QueryGenKind::paper_avg()), Batches(2)],
                policies(vec![PolicyKind::Pair, PolicyKind::Uniform, PolicyKind::Fifo])) },
        Experiment { group: "ablation-aligned", name: "ablation_aligned", metric: TvDistance,
            title: "Ablation: distribution alignment (TV distance to history, zipfian data)",
            sweep: sim(vec![Upd(0.40), Dist(zipfian())],
                policies(vec![PolicyKind::Aligned { bins: TV_BINS }, PolicyKind::Uniform, PolicyKind::Fifo])) },
        Experiment { group: "ablation-budget", name: "ablation_budget_precision", metric: Precision,
            title: "Ablation: storage budget modes — precision",
            sweep: budgets() },
        Experiment { group: "ablation-budget", name: "ablation_budget_footprint", metric: ActiveRows,
            title: "Ablation: storage budget modes — active rows",
            sweep: budgets() },
        Experiment { group: "ablation-forget", name: "ablation_forget_modes", metric: Final,
            title: "Forget modes after {batches} batches (dbsize={dbsize}, upd-perc=0.40, uniform policy)",
            sweep: Sweep::Store { modes: forget_modes.into(), probes: Probes::Footprint } },
        Experiment { group: "ablation-compression", name: "ablation_compression", metric: Final,
            title: "Compression: bytes/tuple by codec and distribution (n={n})",
            sweep: Sweep::Compression },
        Experiment { group: "ablation-drift", name: "ablation_drift", metric: Precision,
            title: "Ablation: concept drift (+{shift} per epoch, upd-perc=0.40)",
            sweep: sim(vec![Upd(0.40), Drift], drift) },
        Experiment { group: "ablation-model", name: "ablation_micromodels", metric: Final,
            title: "Micro-models: ranged-aggregate error after {batches} batches (dbsize={dbsize}, upd-perc=0.40)",
            sweep: Sweep::Store { modes: micromodels, probes: Probes::RangedAggregates } },
        Experiment { group: "ablation-adaptive", name: "ablation_adaptive", metric: Precision,
            title: "Adaptive partitioning: split recency/history workload (dbsize={dbsize}, 2 partitions)",
            sweep: Sweep::Adaptive },
        Experiment { group: "recall", name: "recall", metric: Precision,
            title: "Recall: learning policies vs paper baselines (zipfian, dbsize={dbsize}, upd-perc=0.20)",
            sweep: sim(vec![Dist(zipfian()), Batches(2)], policies(PolicyKind::learning_set())) },
        Experiment { group: "join", name: "join_precision", metric: Precision,
            title: "Join precision under cascade amnesia (dbsize={dbsize}, upd-perc=0.20)",
            sweep: Sweep::Join(PolicyKind::paper_set().into_iter()
                .map(|kind| (kind.name(), (kind, cascade))).collect()) },
        Experiment { group: "join", name: "referential_actions", metric: Final,
            title: "Referential actions: integrity vs budget (dbsize={dbsize}, uniform policy)",
            sweep: Sweep::Join(vec![
                ("cascade", (uniform.clone(), cascade)),
                ("restrict", (uniform.clone(), Some(ReferentialAction::Restrict))),
                ("raw", (uniform, None)),
            ]) },
    ]
}

/// The row named `name`.
fn find(name: &str) -> Result<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| config_err!("unknown experiment `{name}`"))
}

/// Run one experiment at `scale`.
pub fn run(exp: &Experiment, scale: &Scale) -> Result<Report> {
    Ok(match exp.metric {
        Metric::Retention => Report::Map(map_report(exp, scale)?),
        Metric::Final => Report::Table(table_report(exp, scale)?),
        _ => Report::Series(series_report(exp, scale)?),
    })
}

fn map_report(exp: &Experiment, scale: &Scale) -> Result<MapReport> {
    let rows = lines(exp, scale)?;
    Ok(MapReport {
        title: exp.title(scale),
        rows,
    })
}

fn series_report(exp: &Experiment, scale: &Scale) -> Result<SeriesReport> {
    let y_label = match (&exp.sweep, exp.metric) {
        (Sweep::Join(_), _) => "join precision",
        (Sweep::Adaptive, _) => "mean query precision",
        (_, Metric::AggError) => "relative error of AVG",
        (_, Metric::TvDistance) => "total variation distance",
        (_, Metric::ActiveRows) => "active tuples",
        _ => "precision E",
    };
    Ok(SeriesReport {
        title: exp.title(scale),
        x_label: "batch".into(),
        y_label: y_label.into(),
        series: lines(exp, scale)?,
    })
}

/// The labelled values, per batch (per epoch for a retention map), of a
/// series or map.
fn lines(exp: &Experiment, scale: &Scale) -> Result<Vec<(String, Vec<f64>)>> {
    match (&exp.sweep, exp.metric) {
        (Sweep::Sim { base, lines, .. }, metric) => lines
            .iter()
            .map(|(label, line)| {
                let cfg = scale.config(base.iter().chain(line));
                Ok((label.to_string(), sim_reading(cfg, metric)?))
            })
            .collect(),
        (Sweep::Join(cases), Metric::Precision) => cases
            .iter()
            .map(|(label, (kind, action))| {
                Ok((label.to_string(), loops::join_loop(scale, kind, *action)?.0))
            })
            .collect(),
        (Sweep::Adaptive, Metric::Precision) => loops::adaptive_lines(scale),
        (_, metric) => Err(config_err!("{}: no {metric:?} series", exp.name)),
    }
}

/// A [`Metric::Final`] table: one row per line, mode or case.
fn table_report(exp: &Experiment, scale: &Scale) -> Result<TableReport> {
    let final_precision = |p: &[f64]| format!("{:.4}", p.last().copied().unwrap_or(1.0));
    let mut rows = Vec::new();
    let header = match &exp.sweep {
        Sweep::Sim {
            base,
            lines,
            columns,
        } => {
            for (label, line) in lines {
                let mut cells = vec![label.to_string()];
                for (_, column) in columns {
                    let cfg = scale.config(base.iter().chain(line).chain(column));
                    cells.push(final_precision(&sim_reading(cfg, Metric::Precision)?));
                }
                rows.push(cells);
            }
            let labels: Vec<&str> = columns.iter().map(|(label, _)| *label).collect();
            format!("policy|{}", labels.join("|"))
        }
        Sweep::Store { modes, probes } => {
            for &(label, mode) in modes {
                rows.push(loops::store_loop(scale, label, mode, *probes)?);
            }
            probes.header().to_string()
        }
        Sweep::Join(cases) => {
            for (label, (kind, action)) in cases {
                let (precisions, dangling, overshoot) = loops::join_loop(scale, kind, *action)?;
                let (dangling, overshoot) = (dangling.to_string(), overshoot.to_string());
                rows.push(vec![
                    label.to_string(),
                    final_precision(&precisions),
                    dangling,
                    overshoot,
                ]);
            }
            "action|final join precision|dangling refs|budget overshoot".to_string()
        }
        Sweep::Compression => {
            rows = loops::codec_grid(scale);
            "distribution|codec|bytes/tuple|budget stretch".to_string()
        }
        Sweep::Adaptive => return Err(config_err!("{}: no table", exp.name)),
    };
    Ok(TableReport {
        title: exp.title(scale),
        header: header.split('|').map(String::from).collect(),
        rows,
    })
}

// The runners the shape tests call, as lookups into the table.

/// Figure 1: retention map of fifo / uniform / ante / area on serial data,
/// `upd-perc = 0.20`.
pub fn fig1_amnesia_map(scale: &Scale) -> Result<MapReport> {
    map_report(find("fig1")?, scale)
}

/// Figure 2: retention map of the rot policy under each paper
/// distribution.
pub fn fig2_rot_map(scale: &Scale) -> Result<MapReport> {
    map_report(find("fig2")?, scale)
}

/// Figure 3: per-batch range precision of the five paper policies on
/// `dist`, `upd-perc = 0.80`.
pub fn fig3_range_precision(scale: &Scale, dist: DistributionKind) -> Result<SeriesReport> {
    series_report(&find("fig3_uniform")?.on(dist), scale)
}

/// §4.3: relative error of `SELECT AVG(a) FROM t` (over a range predicate
/// if `with_predicate`) on `dist`, over a run three times as long.
pub fn aggregate_precision(
    scale: &Scale,
    dist: DistributionKind,
    with_predicate: bool,
) -> Result<SeriesReport> {
    let name = if with_predicate {
        "agg_with_predicate"
    } else {
        "agg_whole_table"
    };
    series_report(&find(name)?.on(dist), scale)
}

/// §4.2: final precision per policy under low (10 %) and high (80 %)
/// update volatility on `dist`.
pub fn volatility_table(scale: &Scale, dist: DistributionKind) -> Result<TableReport> {
    table_report(&find("volatility")?.on(dist), scale)
}

/// §4.2: final precision per policy across selectivity factors on `dist`.
pub fn selectivity_table(scale: &Scale, dist: DistributionKind) -> Result<TableReport> {
    table_report(&find("selectivity")?.on(dist), scale)
}

/// One simulator run read as `metric`: one value per batch (per epoch for
/// [`Metric::Retention`]).
fn sim_reading(cfg: SimConfig, metric: Metric) -> Result<Vec<f64>> {
    if metric == Metric::TvDistance {
        let mut sim = Simulator::new(cfg)?;
        let mut tv = Vec::new();
        for _ in 0..sim.config().batches {
            sim.step()?;
            tv.push(active_history_tv(sim.table()));
        }
        return Ok(tv);
    }
    let report = Simulator::new(cfg)?.run()?;
    Ok(match metric {
        Metric::Retention => report.map.fractions(),
        Metric::AggError => report.agg_error_series(),
        Metric::ActiveRows => report
            .batches
            .iter()
            .map(|b| b.active_rows as f64)
            .collect(),
        _ => report.precision_series(),
    })
}

/// Histogram bins of [`Metric::TvDistance`]: the resolution the aligned
/// policy it evaluates forgets at.
const TV_BINS: usize = 32;

/// Total-variation distance between active and all-history value
/// histograms.
fn active_history_tv(table: &Table) -> f64 {
    let lo = table.min_seen(0).unwrap_or(0);
    let hi = table.max_seen(0).unwrap_or(0).max(lo);
    let (active, all) = select(table, &ColPred::range(0, Value::MIN, Value::MAX));
    let histogram = |sel: &[u64]| {
        let mut values = Vec::new();
        kernels::gather_column(table, sel, 0, &mut values);
        let mut h = Histogram::new(lo, hi, TV_BINS);
        values.into_iter().for_each(|v| h.add(v));
        h
    };
    histogram(&active).total_variation(&histogram(&all))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(name: &str) -> SeriesReport {
        series_report(find(name).unwrap(), &Scale::test()).unwrap()
    }

    fn table(name: &str) -> TableReport {
        table_report(find(name).unwrap(), &Scale::test()).unwrap()
    }

    /// The values of the line called `name`.
    fn line<'a>(lines: &'a [(String, Vec<f64>)], name: &str) -> &'a [f64] {
        &lines.iter().find(|(n, _)| n == name).unwrap().1
    }

    /// The table row whose first cell is `name`.
    fn row<'a>(report: &'a TableReport, name: &str) -> &'a [String] {
        report.rows.iter().find(|r| r[0] == name).unwrap()
    }

    #[test]
    fn fig1_shapes() {
        let report = fig1_amnesia_map(&Scale::test()).unwrap();
        assert_eq!(report.rows.len(), 4);
        let names: Vec<&str> = report.rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["fifo", "uniform", "ante", "area"]);

        let fifo = line(&report.rows, "fifo");
        // FIFO: a step function — old epochs zero, latest epochs full.
        assert!(fifo[0] < 1e-9, "fifo epoch0 {}", fifo[0]);
        assert!((fifo.last().unwrap() - 1.0).abs() < 1e-9);
        // Uniform: gradient increasing toward recent epochs.
        let uni = line(&report.rows, "uniform");
        assert!(uni.last().unwrap() > &uni[1]);
        // Ante: epoch 0 retained the most.
        let ante = line(&report.rows, "ante");
        assert!(ante[0] > 0.7, "ante epoch0 {}", ante[0]);
        let mid = ante[1..ante.len() - 1].iter().sum::<f64>() / (ante.len() - 2) as f64;
        assert!(ante[0] > mid, "ante initial > updates");
    }

    #[test]
    fn fig2_distribution_matters_for_rot() {
        let report = fig2_rot_map(&Scale::test()).unwrap();
        assert_eq!(report.rows.len(), 4);
        // Serial data under rot decays old epochs (fifo-like): the last
        // epoch retains more than the first.
        let serial = &report.rows[0].1;
        assert!(
            serial.last().unwrap() > &serial[0],
            "serial rot map should favour fresh data: {serial:?}"
        );
        // Maps must differ across distributions (Figure 2's point).
        let uniform = &report.rows[1].1;
        assert_ne!(serial, uniform);
    }

    #[test]
    fn fig3_precision_decays_and_first_batch_is_perfect() {
        let report = fig3_range_precision(&Scale::test(), DistributionKind::Uniform).unwrap();
        assert_eq!(report.series.len(), 5);
        for (name, series) in &report.series {
            assert!(
                series[0] > 0.999,
                "{name}: batch 1 ran before any forgetting, got {}",
                series[0]
            );
            assert!(
                series.last().unwrap() < &0.9,
                "{name}: precision must decay, got {:?}",
                series
            );
        }
    }

    #[test]
    fn aggregate_errors_are_marginal() {
        let report = aggregate_precision(&Scale::test(), DistributionKind::Uniform, false).unwrap();
        for (name, series) in &report.series {
            let max = series.iter().fold(0.0f64, |a, &b| a.max(b));
            assert!(max < 0.25, "{name}: AVG error should stay small, got {max}");
        }
    }

    #[test]
    fn pair_beats_uniform_on_avg() {
        let report = series("ablation_pair");
        let mean = |name: &str| {
            let s = line(&report.series, name);
            s.iter().sum::<f64>() / s.len() as f64
        };
        assert!(
            mean("pair") <= mean("uniform") + 1e-6,
            "pair {} vs uniform {}",
            mean("pair"),
            mean("uniform")
        );
    }

    #[test]
    fn aligned_tracks_history_better_than_fifo() {
        let report = series("ablation_aligned");
        let last = |name: &str| *line(&report.series, name).last().unwrap();
        assert!(
            last("aligned") < last("fifo"),
            "aligned {} should beat fifo {}",
            last("aligned"),
            last("fifo")
        );
    }

    #[test]
    fn budget_modes_trade_memory_for_precision() {
        let precision = series("ablation_budget_precision");
        let footprint = series("ablation_budget_footprint");
        let last = |r: &SeriesReport, name: &str| *line(&r.series, name).last().unwrap();
        // Unbounded: perfect precision, biggest footprint.
        assert!((last(&precision, "unbounded") - 1.0).abs() < 1e-9);
        assert!(last(&footprint, "unbounded") > last(&footprint, "fixed"));
        // Fixed: smallest footprint.
        assert_eq!(last(&footprint, "fixed"), Scale::test().dbsize as f64);
    }

    #[test]
    fn forget_modes_table_has_all_modes() {
        let report = table("ablation_forget_modes");
        assert_eq!(report.rows.len(), 6);
        let modes: Vec<&str> = report.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            modes.join(","),
            "mark-only,delete,deindex,tier,summarize,model"
        );
        // Deindex keeps complete scans: completeness column == 1.
        let deindex = &report.rows[2];
        assert_eq!(deindex[5], "1.0000");
        // Summarize answers whole-table AVG exactly; so does model.
        let summarize = &report.rows[4];
        assert_eq!(summarize[6], "0.0000");
        let model = &report.rows[5];
        assert_eq!(model[6], "0.0000");
    }

    #[test]
    fn drift_ablation_runs_for_all_policies() {
        let report = series("ablation_drift");
        assert_eq!(report.series.len(), 6);
        for (name, series) in &report.series {
            assert_eq!(series.len(), Scale::test().batches as usize);
            assert!(series[0] > 0.999, "{name} starts perfect");
            // Under drift the query focus moves with the data; precision
            // still decays but stays a valid ratio.
            for &e in series {
                assert!((0.0..=1.0).contains(&e), "{name}: E={e}");
            }
        }
    }

    #[test]
    fn compression_table_covers_grid() {
        let report = table("ablation_compression");
        // 4 distributions × (5 codecs + auto) = 24 rows.
        assert_eq!(report.rows.len(), 24);
        // Serial data must compress extremely well under delta.
        let serial_delta = report
            .rows
            .iter()
            .find(|r| r[0] == "serial" && r[1] == "delta")
            .unwrap();
        let ratio: f64 = serial_delta[3].parse().unwrap();
        assert!(ratio > 4.0, "serial/delta ratio {ratio}");
    }

    #[test]
    fn reports_render() {
        let report = Report::Map(fig1_amnesia_map(&Scale::test()).unwrap());
        let ascii = report.render_ascii();
        assert!(ascii.contains("fifo"));
        let json = report.to_json();
        assert!(json.contains("\"rows\": {\n      \"fifo\": [0, "), "{json}");
    }

    #[test]
    fn join_precision_decays_for_all_policies() {
        let report = series("join_precision");
        assert_eq!(report.series.len(), 5);
        for (name, series) in &report.series {
            assert_eq!(series.len(), Scale::test().batches as usize);
            for &p in series {
                assert!((0.0..=1.0).contains(&p), "{name}: precision {p}");
            }
            // Forgetting on both sides compounds: precision falls well
            // below the single-table level by the final batch.
            assert!(
                series.last().unwrap() < &0.9,
                "{name}: join precision must decay, got {series:?}"
            );
        }
    }

    #[test]
    fn referential_actions_tradeoff_holds() {
        let report = table("referential_actions");
        assert_eq!(report.rows.len(), 3);
        // Cascade and restrict never leave dangling references.
        assert_eq!(row(&report, "cascade")[2], "0");
        assert_eq!(row(&report, "restrict")[2], "0");
        // Raw forgetting dangles (children of forgotten parents remain).
        let raw_dangling: usize = row(&report, "raw")[2].parse().unwrap();
        assert!(raw_dangling > 0, "raw forgetting must dangle");
        // Cascade meets the parent budget exactly.
        assert_eq!(row(&report, "cascade")[3], "0");
    }

    #[test]
    fn adaptive_partitioning_tracks_the_best_global_policy() {
        let report = series("ablation_adaptive");
        assert_eq!(report.series.len(), 4);
        let tail_mean = |prefix: &str| -> f64 {
            let (_, s) = report
                .series
                .iter()
                .find(|(n, _)| n.starts_with(prefix))
                .unwrap();
            let tail = &s[s.len() * 2 / 3..];
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        let adaptive = tail_mean("adaptive");
        let best_global = ["global-fifo", "global-uniform", "global-rot"]
            .iter()
            .map(|n| tail_mean(n))
            .fold(0.0f64, f64::max);
        // The bandit mixes per-partition winners, so it must at least
        // approach the best single policy (small slack for exploration).
        assert!(
            adaptive >= best_global - 0.05,
            "adaptive {adaptive} vs best global {best_global}"
        );
    }

    #[test]
    fn micromodels_beat_summaries_on_ranged_aggregates() {
        let report = table("ablation_micromodels");
        assert_eq!(report.rows.len(), 4);
        let count_err = |name: &str| -> f64 { row(&report, name)[1].parse().unwrap() };
        // Summaries cannot answer ranged queries: same error as mark-only.
        // Models interpolate and must cut the error substantially.
        assert!(
            count_err("model-128") < 0.5 * count_err("mark-only"),
            "model-128 {} vs mark-only {}",
            count_err("model-128"),
            count_err("mark-only")
        );
        assert!(
            count_err("model-128") <= count_err("model-16") + 0.05,
            "finer bins should not be much worse"
        );
    }

    #[test]
    fn recall_learning_policies_beat_oblivious_baselines() {
        let report = series("recall");
        assert_eq!(report.series.len(), 6);
        let tail_mean = |name: &str| {
            let s = line(&report.series, name);
            let tail = &s[s.len() / 2..];
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        // Query hits rehearse the zipfian head every batch; the
        // count-based policies must retain it far better than fifo,
        // which blindly evicts by age.
        for learner in ["rot", "decay"] {
            assert!(
                tail_mean(learner) > tail_mean("fifo") + 0.05,
                "{learner} {} should beat fifo {}",
                tail_mean(learner),
                tail_mean("fifo")
            );
        }
        // Ebbinghaus documents a negative result: the broad query load
        // rehearses every active tuple each batch, so its recency clock
        // pins to zero and it tracks the oblivious baselines.
        assert!(
            tail_mean("ebbinghaus") > 0.8 * tail_mean("fifo"),
            "ebbinghaus {} collapsed below fifo {}",
            tail_mean("ebbinghaus"),
            tail_mean("fifo")
        );
        // And every series starts perfect before any forgetting.
        for (name, series) in &report.series {
            assert!(series[0] > 0.999, "{name} starts at {}", series[0]);
        }
    }
}
