//! Model-checked verification of the morsel scheduler.
//!
//! [`run_morsels`]'s claim/steal protocol runs entirely on Relaxed
//! atomics (see `src/morsel.rs` for the rationale comments); this suite
//! is the proof those comments cite: under every explored interleaving —
//! including steals racing the owner's own claims and stale re-check
//! reads — every morsel executes exactly once, no result is dropped,
//! and the output order is byte-identical to serial execution. The
//! engine's plan stages and the columnar tier schedule both fan out
//! through this one function.
//!
//! Run with `cargo test -p amnesia-sync --features model --test morsel`.
//! Override exploration via `AMNESIA_MODEL_{ITERS,PREEMPTIONS,SEED,REPLAY}`.

use amnesia_sync::atomic::{AtomicUsize, Ordering};
use amnesia_sync::cell::PlainCell;
use amnesia_sync::model::{explore, ModelConfig};
use amnesia_sync::morsel::{run_morsels, run_morsels_mut};

/// Exactly-once across steals: every morsel body runs once on some
/// worker, results land in morsel order, and no more morsels are stolen
/// than exist. The per-morsel execution counters are shim atomics, so a
/// double-execute *or* a drop fails the in-body asserts on whichever
/// schedule produces it. Acceptance requires >=1000 distinct schedules.
/// Two workers are the caller and one spawned thread; six morsels give
/// each a range of three, so steals race the owner's claims over more
/// than one morsel.
#[test]
fn morsel_steal_is_exactly_once() {
    const N: usize = 6;
    const WORKERS: usize = 2;
    // Bound 4 (default 3): the steal loop's re-check/claim interleavings
    // need one extra preemption to expose their full schedule variety,
    // and acceptance wants >=1000 distinct schedules covered. Env
    // overrides (CI, replay) still win when set.
    let mut cfg = ModelConfig::from_env();
    if std::env::var("AMNESIA_MODEL_ITERS").is_err() {
        cfg = cfg.with_max_schedules(40_000);
    }
    if std::env::var("AMNESIA_MODEL_PREEMPTIONS").is_err() {
        cfg = cfg.with_preemption_bound(4);
    }
    let report = explore(cfg, || {
        let runs: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        let (results, steals) = run_morsels(N, WORKERS, |i| {
            // Relaxed: the count is reconciled after the scope join
            // below; the join edge is the model-verified
            // happens-before, exactly as in the scheduler itself.
            runs[i].fetch_add(1, Ordering::Relaxed);
            i * 10
        });
        let expected: Vec<usize> = (0..N).map(|i| i * 10).collect();
        assert_eq!(results, expected, "morsel order must equal serial");
        assert!(steals <= N, "{steals} steals of {N} morsels");
        for (i, c) in runs.iter().enumerate() {
            // Relaxed read: ordered by run_morsels' internal join.
            let count = c.load(Ordering::Relaxed);
            assert_eq!(count, 1, "morsel {i} ran {count} times, want 1");
        }
    });
    report.assert_clean();
    assert!(
        report.schedules >= 1000,
        "morsel proof must cover >=1000 schedules, got {}",
        report.schedules
    );
}

/// The single-worker fast path never spawns and is trivially serial —
/// one schedule, still exact.
#[test]
fn morsel_single_worker_is_serial() {
    let report = explore(ModelConfig::from_env(), || {
        let (results, steals) = run_morsels(4, 1, |i| i + 1);
        assert_eq!(results, vec![1, 2, 3, 4]);
        assert_eq!(steals, 0);
    });
    report.assert_clean();
    assert_eq!(report.schedules, 1, "no spawn, no scheduling choice");
}

/// `run_morsels_mut` hands each item to one morsel: the workers' writes
/// to their items and the caller's reads after the join are ordered on
/// every explored schedule (the items are race-checked cells).
#[test]
fn morsel_items_are_written_by_one_morsel_each() {
    let report = explore(ModelConfig::from_env(), || {
        let mut items: Vec<PlainCell<usize>> = (0..4).map(|_| PlainCell::new(0)).collect();
        run_morsels_mut(&mut items, 2, |i, item| item.set(i + 1));
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.get(), i + 1, "item {i}");
        }
    });
    report.assert_clean();
    assert!(report.schedules > 1, "the two workers interleave");
}

/// Morsel 0 runs on the calling thread on every explored schedule, even
/// when the other worker drains its own range first and steals.
#[test]
fn morsel_zero_runs_on_the_caller() {
    let report = explore(ModelConfig::from_env(), || {
        let caller = std::thread::current().id();
        let (on_caller, _) = run_morsels(4, 2, |i| i != 0 || std::thread::current().id() == caller);
        assert!(on_caller.iter().all(|&ok| ok), "morsel 0 left the caller");
    });
    report.assert_clean();
}
