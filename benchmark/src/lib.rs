//! The repo's benchmark: the amnesia loop end to end, the SQL read path,
//! and a per-layer ladder over the same data. See `README.md` for the
//! workloads, every metric's definition and how to run it; the contract the
//! driver checks is `../BENCHMARK.json`.
//!
//! One process, one client thread, a closed loop. All inputs come from
//! `--seed`. A run is a number of *repetitions*: each builds a fresh store
//! from identical inputs and performs a fixed count of operations, so
//! repetitions differ only by noise, and each operation's time is taken as
//! the least of its executions.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gen;
pub mod ladder;
pub mod oracle;
pub mod report;
pub mod session;
pub mod stats;
pub mod trace;
pub mod vfs;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use amnesia_columnar::Table;
use amnesia_core::store::AmnesiacStore;
use amnesia_sync::atomic::{AtomicU64, Ordering};

pub use gen::{Inputs, Scale, Workload};
pub use report::{Report, END_TO_END, PER_LAYER};

use ladder::Layer;
use session::{Fatal, RepResult};
use trace::Tracer;

/// Fewest repetitions of a run: every operation is timed at least this
/// often, and the median set-up time has three values behind it.
pub const MIN_REPS: usize = 3;

/// Where the benchmark writes (trace files, results, store directories):
/// `benchmark/out/`, inside the checkout it was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs started by this process: keeps the store directories of concurrent
/// runs (the tests) apart.
static RUNS: AtomicU64 = AtomicU64::new(0);

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Keep starting repetitions until this much wall time has passed
    /// (never fewer than [`MIN_REPS`]).
    pub seconds: f64,
    /// Record spans and walk the ladder.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
}

/// Run `cfg.workload` and fold its repetitions into a report.
pub fn run_workload(cfg: &RunConfig) -> Result<Report, Fatal> {
    let inputs = Inputs::generate(cfg.workload, cfg.scale, cfg.seed);
    // Relaxed: only uniqueness matters, not ordering against other data.
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!(
        "data-{}-{}-{run}",
        cfg.workload.name(),
        std::process::id()
    ));
    let mut tracer = Tracer::new(cfg.trace);
    let mut layer = Layer::new();
    let mut reps: Vec<RepResult> = Vec::new();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let started = Instant::now();
    loop {
        // A traced run climbs the ladder once, on its first repetition.
        let rep = if cfg.trace && reps.is_empty() {
            ladder::machine(cfg.scale, &mut layer);
            let mut hook = |store: &AmnesiacStore, d: &Table, tracer: &mut Tracer| {
                ladder::walk(store, d, &inputs, tracer, &mut layer);
            };
            session::run_rep(&inputs, &dir, &mut tracer, Some(&mut hook))?
        } else {
            session::run_rep(&inputs, &dir, &mut tracer, None)?
        };
        eprintln!(
            "{} rep {}: {}",
            cfg.workload.name(),
            reps.len(),
            rep.samples.one_line()
        );
        reps.push(rep);
        if reps.len() >= MIN_REPS && started.elapsed() >= budget {
            break;
        }
    }
    if cfg.trace {
        layer.insert("trace.spans".to_string(), tracer.spans().len() as f64);
        for (name, secs) in tracer.self_times() {
            layer.insert(format!("self_s.{name}"), secs / reps.len() as f64);
        }
        let path = out_dir().join(format!("trace-{}.jsonl", cfg.workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report::summarize(cfg.workload, cfg.seed, &reps, layer))
}
