//! `repro` — run the paper's evaluation: every row of
//! `amnesia_core::experiments::EXPERIMENTS` (Figures 1–3, the §4.2 and
//! §4.3 tables, and the ablations).
//!
//! ```text
//! repro [EXPERIMENT] [--scale test|paper] [--out DIR]
//! ```
//!
//! `EXPERIMENT` is a row's group (`fig3` runs both panels) or `all` (the
//! default); `repro --help` lists the groups. Each row is printed as an ASCII chart, heatmap or table.
//! `--out DIR` also writes every answer to `DIR/PAPER_RESULTS.json`,
//! keyed by row name. The scale defaults to `paper`.
//!
//! Exit status: 1 if an experiment fails or the output cannot be
//! written, 2 on a usage error or an unknown experiment.

use std::error::Error;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use amnesia_core::experiments::{self, Experiment, Report, Scale, EXPERIMENTS};

fn usage() -> ExitCode {
    let mut groups: Vec<&str> = EXPERIMENTS.iter().map(|e| e.group).collect();
    groups.dedup();
    eprintln!(
        "usage: repro [{}|all] [--scale test|paper] [--out DIR]",
        groups.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all";
    let mut scale = Scale::paper();
    let mut out_dir: Option<PathBuf> = None;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => match args.next() {
                Some("test") => scale = Scale::test(),
                Some("paper") => scale = Scale::paper(),
                _ => return usage(),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            name if !name.starts_with('-') => experiment = name,
            _ => return usage(),
        }
    }

    let selected: Vec<&'static Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| experiment == "all" || e.group == experiment)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {experiment}");
        return usage();
    }
    match run(&selected, &scale, out_dir) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    selected: &[&'static Experiment],
    scale: &Scale,
    out_dir: Option<PathBuf>,
) -> Result<(), Box<dyn Error>> {
    // Every row is an independent, deterministic run, so they go in
    // parallel (scoped threads via the amnesia-sync shim).
    let reports = amnesia_sync::thread::scope(|s| {
        let handles: Vec<_> = selected
            .iter()
            .map(|&exp| s.spawn(move || experiments::run(exp, scale)))
            .collect();
        handles
            .into_iter()
            .zip(selected)
            .map(|(handle, exp)| match handle.join() {
                Ok(report) => Ok((exp.name, report?)),
                Err(_) => Err(format!("{} panicked", exp.name).into()),
            })
            .collect::<Result<Vec<(&str, Report)>, Box<dyn Error>>>()
    })?;

    let mut stdout = std::io::stdout().lock();
    for (name, report) in &reports {
        writeln!(stdout, "\n=== {name} ===")?;
        writeln!(stdout, "{}", report.render_ascii())?;
    }
    if let Some(dir) = out_dir {
        let path = dir.join("PAPER_RESULTS.json");
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, experiments::results_json(&reports)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        writeln!(stdout, "[wrote {}]", path.display())?;
    }
    Ok(())
}
