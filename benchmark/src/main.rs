//! Command line of the benchmark.
//!
//! ```text
//! amnesia-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last line of standard output is the result object
//!     the driver reads (end-to-end metrics untraced, per-layer traced)
//! amnesia-benchmark [--seed N] [--seconds S] [--trace] [--scale smoke]
//!     all four workloads: one `workload name value unit` line per metric,
//!     and benchmark/out/results.json
//! amnesia-benchmark --selfcheck [--seed N] [--seconds S] [--scale smoke]
//!     the suite twice; applies each bound to the pair
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use amnesia_benchmark::report::{is_count, lines, result_json, results_json, Better};
use amnesia_benchmark::{out_dir, run_workload, Report, RunConfig, Scale, Workload, END_TO_END};

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        scale: Scale::Full,
        selfcheck: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let v = value(&mut i, "--workload")?;
                args.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                args.seconds = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; by hand it is a flag.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--scale" => {
                args.scale = match value(&mut i, "--scale")?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("unknown scale `{v}`")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

fn config(args: &Args, workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace,
        scale: args.scale,
    }
}

/// Run all four workloads; `Err` carries the first fatal error.
fn suite(args: &Args, trace: bool) -> Result<Vec<Report>, String> {
    Workload::ALL
        .into_iter()
        .map(|w| {
            eprintln!(
                "== {} ({})",
                w.name(),
                if trace { "traced" } else { "untraced" }
            );
            run_workload(&config(args, w, trace))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = suite(args, false)?;
    let second = suite(args, false)?;
    let mut ok = true;
    for (a, b) in first.iter().zip(&second) {
        ok &= a.failed == 0 && b.failed == 0;
        for (i, m) in END_TO_END.iter().enumerate() {
            let (x, y) = (a.end_to_end[i], b.end_to_end[i]);
            let gap = worse_by(m.better, x, y).max(worse_by(m.better, y, x));
            let verdict = if gap <= m.bound {
                "ok"
            } else {
                ok = false;
                "UNRESOLVED"
            };
            println!(
                "{} {} {x} {y} {} gap {:.1}% bound {:.0}% {verdict}",
                a.workload.name(),
                m.name,
                m.unit,
                gap * 100.0,
                m.bound * 100.0
            );
        }
        // Same seed, same inputs: every count must repeat exactly.
        for (name, x) in &a.per_layer {
            if is_count(name) && b.per_layer.get(name) != Some(x) {
                ok = false;
                println!(
                    "{} {name} differs between runs: UNRESOLVED",
                    a.workload.name()
                );
            }
        }
    }
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;
    if args.selfcheck {
        return selfcheck(&args);
    }
    if let Some(w) = args.workload {
        let report = run_workload(&config(&args, w, args.trace))?;
        for line in lines(&report) {
            eprintln!("{line}");
        }
        println!("{}", result_json(&report, args.trace));
        return Ok(report.failed == 0);
    }

    let mut reports = suite(&args, false)?;
    let mut extra = BTreeMap::new();
    if args.trace {
        let traced = suite(&args, true)?;
        for (plain, traced) in reports.iter_mut().zip(traced) {
            // Tracing overhead on the metric each family's loop is about.
            let name = if plain.workload.is_stream() {
                "ingest_rows_per_s"
            } else {
                "sql_qps"
            };
            if let (Some(a), Some(b)) = (plain.e2e(name), traced.e2e(name)) {
                extra.insert(
                    format!("trace.overhead_pct.{}", plain.workload.name()),
                    (a - b) / a * 100.0,
                );
            }
            plain.failed += traced.failed;
            plain.per_layer = traced.per_layer;
        }
    }
    let mut ok = true;
    for r in &reports {
        ok &= r.failed == 0;
        for line in lines(r) {
            println!("{line}");
        }
    }
    for (k, v) in &extra {
        println!("{k} {v} %");
    }
    let path = out_dir().join("results.json");
    std::fs::write(&path, results_json(&reports, &extra))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: failed operations or unresolved metrics (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
