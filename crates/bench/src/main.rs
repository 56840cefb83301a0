//! `repro` — regenerate every figure and table of the CIDR 2017 amnesia
//! paper, plus the ablations documented in `amnesia_core::experiments`.
//!
//! ```text
//! repro [EXPERIMENT] [--scale test|paper] [--out DIR]
//!
//! EXPERIMENT:
//!   fig1                 Figure 1: database amnesia map
//!   fig2                 Figure 2: database rot map
//!   fig3                 Figure 3: range precision (uniform + zipfian panels)
//!   agg                  §4.3 aggregate (AVG) precision
//!   volatility           §4.2 low vs high volatility table
//!   selectivity          §4.2 selectivity sweep
//!   ablation-pair        §4.4 pair forgetting vs uniform
//!   ablation-aligned     §4.4 distribution-aligned amnesia
//!   ablation-budget      §2.1 fixed vs watermark budgets
//!   ablation-forget      §1 forget modes (mark/delete/deindex/tier/summarize)
//!   ablation-compression §4.4 compression postpones forgetting
//!   ablation-drift       §4.4 amnesia under concept drift
//!   ablation-model       §5 micro-models of forgotten data
//!   ablation-adaptive    §4.4 adaptive per-partition policy choice
//!   recall               §4.4/§5 learning policies vs paper baselines
//!   join                 §2.2/§5 join precision + referential actions
//!   all                  everything above (default)
//! ```
//!
//! With `--out DIR`, each experiment also writes a CSV.

use std::io::Write as _;
use std::path::PathBuf;

use amnesia_core::experiments::{self, MapReport, Scale, SeriesReport, TableReport};
use amnesia_distrib::DistributionKind;

/// Something renderable + exportable produced by an experiment.
enum Output {
    Series(SeriesReport),
    Map(MapReport),
    Table(TableReport),
}

impl Output {
    fn render(&self) -> String {
        match self {
            Output::Series(r) => r.render_ascii(),
            Output::Map(r) => r.render_ascii(),
            Output::Table(r) => r.render_ascii(),
        }
    }

    fn to_csv(&self) -> String {
        match self {
            Output::Series(r) => r.to_csv(),
            Output::Map(r) => r.to_csv(),
            Output::Table(r) => r.to_csv(),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [fig1|fig2|fig3|agg|volatility|selectivity|ablation-pair|\
         ablation-aligned|ablation-budget|ablation-forget|ablation-compression|all] \
         [--scale test|paper] [--out DIR]"
    );
    std::process::exit(2);
}

fn run_experiment(name: &str, scale: &Scale) -> Vec<(String, Output)> {
    let mut outputs = Vec::new();
    match name {
        "fig1" => outputs.push((
            "fig1".to_string(),
            Output::Map(experiments::fig1_amnesia_map(scale).expect("fig1")),
        )),
        "fig2" => outputs.push((
            "fig2".to_string(),
            Output::Map(experiments::fig2_rot_map(scale).expect("fig2")),
        )),
        "fig3" => {
            outputs.push((
                "fig3_uniform".to_string(),
                Output::Series(
                    experiments::fig3_range_precision(scale, DistributionKind::Uniform)
                        .expect("fig3 uniform"),
                ),
            ));
            outputs.push((
                "fig3_zipfian".to_string(),
                Output::Series(
                    experiments::fig3_range_precision(scale, DistributionKind::zipfian_default())
                        .expect("fig3 zipfian"),
                ),
            ));
        }
        "agg" => {
            outputs.push((
                "agg_whole_table".to_string(),
                Output::Series(
                    experiments::aggregate_precision(scale, DistributionKind::Uniform, false)
                        .expect("agg"),
                ),
            ));
            outputs.push((
                "agg_with_predicate".to_string(),
                Output::Series(
                    experiments::aggregate_precision(scale, DistributionKind::Uniform, true)
                        .expect("agg pred"),
                ),
            ));
        }
        "volatility" => outputs.push((
            "volatility".to_string(),
            Output::Table(
                experiments::volatility_table(scale, DistributionKind::Uniform)
                    .expect("volatility"),
            ),
        )),
        "selectivity" => outputs.push((
            "selectivity".to_string(),
            Output::Table(
                experiments::selectivity_table(scale, DistributionKind::Uniform)
                    .expect("selectivity"),
            ),
        )),
        "ablation-pair" => outputs.push((
            "ablation_pair".to_string(),
            Output::Series(experiments::ablation_pair(scale).expect("pair")),
        )),
        "ablation-aligned" => outputs.push((
            "ablation_aligned".to_string(),
            Output::Series(experiments::ablation_aligned(scale).expect("aligned")),
        )),
        "ablation-budget" => {
            let (precision, footprint) = experiments::ablation_budget(scale).expect("budget");
            outputs.push((
                "ablation_budget_precision".to_string(),
                Output::Series(precision),
            ));
            outputs.push((
                "ablation_budget_footprint".to_string(),
                Output::Series(footprint),
            ));
        }
        "ablation-forget" => outputs.push((
            "ablation_forget_modes".to_string(),
            Output::Table(experiments::ablation_forget_modes(scale).expect("forget modes")),
        )),
        "ablation-compression" => outputs.push((
            "ablation_compression".to_string(),
            Output::Table(experiments::ablation_compression(scale).expect("compression")),
        )),
        "ablation-drift" => outputs.push((
            "ablation_drift".to_string(),
            Output::Series(experiments::ablation_drift(scale).expect("drift")),
        )),
        "ablation-model" => outputs.push((
            "ablation_micromodels".to_string(),
            Output::Table(experiments::ablation_micromodels(scale).expect("micromodels")),
        )),
        "ablation-adaptive" => outputs.push((
            "ablation_adaptive".to_string(),
            Output::Series(experiments::ablation_adaptive(scale).expect("adaptive")),
        )),
        "recall" => outputs.push((
            "recall".to_string(),
            Output::Series(experiments::recall_comparison(scale).expect("recall")),
        )),
        "join" => {
            outputs.push((
                "join_precision".to_string(),
                Output::Series(
                    experiments::join_precision_experiment(scale).expect("join precision"),
                ),
            ));
            outputs.push((
                "referential_actions".to_string(),
                Output::Table(
                    experiments::referential_actions_table(scale).expect("referential actions"),
                ),
            ));
        }
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    }
    outputs
}

const ALL: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "agg",
    "volatility",
    "selectivity",
    "ablation-pair",
    "ablation-aligned",
    "ablation-budget",
    "ablation-forget",
    "ablation-compression",
    "ablation-drift",
    "ablation-model",
    "ablation-adaptive",
    "recall",
    "join",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut scale = Scale::paper();
    let mut out_dir: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("test") => scale = Scale::test(),
                    Some("paper") => scale = Scale::paper(),
                    _ => usage(),
                }
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--help" | "-h" => usage(),
            name if !name.starts_with('-') => experiment = name.to_string(),
            _ => usage(),
        }
        i += 1;
    }

    let names: Vec<&str> = if experiment == "all" {
        ALL.to_vec()
    } else {
        vec![experiment.as_str()]
    };

    // Run experiments in parallel: each is an independent, deterministic
    // simulation (scoped threads via the amnesia-sync shim keep the
    // borrows simple and the spawns model-checkable).
    let results: Vec<(usize, Vec<(String, Output)>)> = amnesia_sync::thread::scope(|s| {
        let handles: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(idx, name)| {
                let scale = scale;
                s.spawn(move || (idx, run_experiment(name, &scale)))
            })
            .collect();
        let mut results: Vec<(usize, Vec<(String, Output)>)> = handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect();
        results.sort_by_key(|(idx, _)| *idx);
        results
    });

    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    for (_, outputs) in &results {
        for (name, output) in outputs {
            writeln!(lock, "\n=== {name} ===").expect("stdout");
            writeln!(lock, "{}", output.render()).expect("stdout");
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir).expect("create out dir");
                let path = dir.join(format!("{name}.csv"));
                std::fs::write(&path, output.to_csv()).expect("write csv");
                writeln!(lock, "[wrote {}]", path.display()).expect("stdout");
            }
        }
    }
}
