//! Model-checked verification of the amnesia-sync primitives.
//!
//! Three families:
//! - true-positive gates: deliberately broken fixtures (an unprotected
//!   `PlainCell`, a Relaxed publication, an ABBA lock cycle) that the
//!   explorer MUST flag — these keep the detector honest;
//! - correctness proofs: protocols (mutex counter, release/acquire
//!   publication) that must stay silent on every explored schedule;
//! - harness properties: replay determinism and schedule-space volume.
//!
//! Run with `cargo test -p amnesia-sync --features model`. Override the
//! exploration via `AMNESIA_MODEL_{ITERS,PREEMPTIONS,SEED,REPLAY}`.

use amnesia_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use amnesia_sync::cell::PlainCell;
use amnesia_sync::model::{explore, FailureKind, ModelConfig};
use amnesia_sync::mutex::Mutex;
use amnesia_sync::thread;

fn cfg() -> ModelConfig {
    ModelConfig::from_env()
}

/// The canonical racy fixture: two threads read-modify-write a plain
/// cell with no synchronization at all. The detector must flag it, and
/// the failure must carry a non-empty replayable schedule.
#[test]
fn racy_cell_is_flagged() {
    let report = explore(cfg(), || {
        let cell = PlainCell::new(0u32);
        thread::scope(|s| {
            s.spawn(|| {
                let v = cell.get();
                cell.set(v + 1);
            });
            let v = cell.get();
            cell.set(v + 1);
        });
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Race);
    assert!(!failure.schedule.is_empty(), "race must be replayable");
    assert!(!failure.trace.is_empty(), "race must carry a step trace");
}

/// Publication through a Relaxed flag: the reader can observe the flag
/// without inheriting the writer's clock, so the payload access is a
/// race — and the report's hints must point at the Relaxed observation.
#[test]
fn relaxed_publication_is_flagged_with_weak_edge_hint() {
    let report = explore(cfg(), || {
        let data = PlainCell::new(0u32);
        let ready = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                data.set(42);
                // Bug under test: Relaxed publish drops the release edge.
                ready.store(true, Ordering::Relaxed);
            });
            // Bug under test: Relaxed observation acquires nothing.
            if ready.load(Ordering::Relaxed) {
                let _ = data.get();
            }
        });
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Race);
    assert!(
        !failure.hints.is_empty(),
        "a Relaxed publication race should surface weak-edge hints"
    );
}

/// The same shape with a proper Release/Acquire pair must be silent on
/// every schedule.
#[test]
fn release_acquire_publication_is_clean() {
    let report = explore(cfg(), || {
        let data = PlainCell::new(0u32);
        let ready = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                data.set(42);
                // Release: publishes the data write to acquiring readers.
                ready.store(true, Ordering::Release);
            });
            // Acquire: pairs with the Release store above.
            if ready.load(Ordering::Acquire) {
                assert_eq!(data.get(), 42);
            }
        });
    });
    report.assert_clean();
    assert!(report.schedules > 1, "publication must have real choice");
}

/// Mutex-protected read-modify-write is race-free and, because the lock
/// serializes both increments, always sums to 2.
#[test]
fn mutex_counter_is_clean_and_exact() {
    let report = explore(cfg(), || {
        let counter = Mutex::new(0u32);
        thread::scope(|s| {
            s.spawn(|| {
                let mut g = counter.lock().expect("model mutex");
                *g += 1;
            });
            {
                let mut g = counter.lock().expect("model mutex");
                *g += 1;
            }
        });
        assert_eq!(*counter.lock().expect("model mutex"), 2);
    });
    report.assert_clean();
    assert!(report.schedules > 1, "lock order must have real choice");
}

/// Atomic RMW counters never race even at Relaxed: the accesses are
/// atomic, so only the *ordering* of other memory is at stake — and the
/// final value is read after both children are joined (join edge).
#[test]
fn relaxed_atomic_counter_is_clean_and_exact() {
    let report = explore(cfg(), || {
        let counter = AtomicUsize::new(0);
        thread::scope(|s| {
            let a = s.spawn(|| {
                // Relaxed is enough: the count is reconciled after join,
                // and the join edge orders the read below.
                counter.fetch_add(1, Ordering::Relaxed);
            });
            let b = s.spawn(|| {
                // Relaxed: same rationale as the sibling increment.
                counter.fetch_add(1, Ordering::Relaxed);
            });
            a.join().expect("model child");
            b.join().expect("model child");
            // Relaxed read: ordered by the two join edges above.
            assert_eq!(counter.load(Ordering::Relaxed), 2);
        });
    });
    report.assert_clean();
}

/// ABBA lock cycle: some schedule must deadlock, and the explorer must
/// report it (rather than hang) with a replayable schedule.
#[test]
fn abba_lock_cycle_is_reported_as_deadlock() {
    let report = explore(cfg(), || {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        thread::scope(|s| {
            s.spawn(|| {
                let _ga = a.lock().expect("model mutex");
                let _gb = b.lock().expect("model mutex");
            });
            let _gb = b.lock().expect("model mutex");
            let _ga = a.lock().expect("model mutex");
        });
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(!failure.schedule.is_empty());
}

/// A panic inside a child thread surfaces as a model failure carrying
/// the panic message, not as a hung or aborted process.
#[test]
fn child_panic_is_reported() {
    let report = explore(cfg(), || {
        thread::scope(|s| {
            s.spawn(|| {
                panic!("deliberate child panic");
            });
        });
    });
    let failure = report.expect_failure();
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.desc.contains("deliberate child panic"),
        "panic message should be preserved, got: {}",
        failure.desc
    );
}

/// Replaying the schedule printed in a failure report reproduces the
/// same failure kind in exactly one run: the determinism contract that
/// makes `AMNESIA_MODEL_REPLAY` useful.
#[test]
fn replay_reproduces_failure_deterministically() {
    let body = || {
        let cell = PlainCell::new(0u32);
        thread::scope(|s| {
            s.spawn(|| {
                let v = cell.get();
                cell.set(v + 1);
            });
            let v = cell.get();
            cell.set(v + 1);
        });
    };
    let first = explore(cfg(), body);
    let schedule = first.expect_failure().schedule.clone();
    let replayed = explore(cfg().with_replay(schedule.clone()), body);
    assert_eq!(replayed.schedules, 1, "replay pins exactly one schedule");
    let failure = replayed.expect_failure();
    assert_eq!(failure.kind, FailureKind::Race);
    assert_eq!(
        failure.schedule, schedule,
        "replayed failure must report the same schedule"
    );
}

/// Two explorations with the same seed walk the same schedules and
/// reach the same verdict and count.
#[test]
fn same_seed_is_deterministic() {
    let body = || {
        let ready = AtomicBool::new(false);
        let data = PlainCell::new(0u32);
        thread::scope(|s| {
            s.spawn(|| {
                data.set(7);
                // Release: publish data before the flag.
                ready.store(true, Ordering::Release);
            });
            // Acquire: pairs with the Release store above.
            if ready.load(Ordering::Acquire) {
                assert_eq!(data.get(), 7);
            }
        });
    };
    let cfg_a = ModelConfig::default().with_seed(1234);
    let cfg_b = ModelConfig::default().with_seed(1234);
    let a = explore(cfg_a, body);
    let b = explore(cfg_b, body);
    a.assert_clean();
    b.assert_clean();
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.complete, b.complete);
}
