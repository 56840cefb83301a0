//! # amnesia-sync — the workspace's only door to `std::sync` and `std::thread`
//!
//! Every atomic, mutex, and scoped-thread spawn in the workspace goes
//! through this crate (enforced by the `sync` rule in `amnesia-lint`).
//! In a normal build the modules below are plain `pub use` re-exports of
//! `std` — zero types, zero wrappers, zero overhead. Under the `model`
//! cargo feature the same names become thin wrappers that route every
//! load/store/RMW/lock/spawn/join through a deterministic cooperative
//! scheduler (the `model` module, built only with the feature), which
//! makes interleaving-dependent bugs *checkable* instead of merely
//! unlikely to reproduce.
//!
//! Built on those names, [`morsel::run_morsels`] is the workspace's one
//! fan-out: the engine's plan stages and the tier schedule's freeze and
//! recompression jobs both run through it.
//!
//! ## Scheduler design
//!
//! `model::explore` runs a closure (the "body") many times. Each run
//! executes the body's threads as real OS threads, but serialized: a
//! thread may only cross a synchronization operation (any wrapper call)
//! when the controller grants it a step, and exactly one thread runs
//! between grants. Each grant is a *decision point*; the sequence of
//! chosen thread ids is the *schedule*. The explorer performs a
//! depth-first search over schedules:
//!
//! * **Default policy** keeps running the current thread until it blocks
//!   or finishes (no voluntary preemption), so the first schedule per
//!   branch is the cheapest one.
//! * **DPOR-lite:** whenever an operation by thread *q* conflicts with
//!   an earlier operation by another thread *p* (same location, at least
//!   one write, or the same lock), *q* is added to the *backtrack set*
//!   of the decision point just before *p*'s operation. Only schedules
//!   seeded from backtrack sets are explored, which prunes interleavings
//!   that differ only in the order of independent operations.
//! * **Preemption bound:** a backtrack choice that switches away from a
//!   still-runnable thread costs one preemption; schedules are explored
//!   only up to `AMNESIA_MODEL_PREEMPTIONS` (default 3) of them. Most
//!   real concurrency bugs need very few preemptions to trigger.
//! * **Seeded, capped, replayable:** `AMNESIA_MODEL_SEED` shuffles the
//!   order in which backtrack candidates are tried (CI passes the run
//!   number, mirroring the `recovery-torture` fault matrix), and
//!   `AMNESIA_MODEL_ITERS` caps the number of schedules. Every schedule
//!   explored by the DFS is distinct by construction; `model::Report`
//!   says how many ran and whether the space was exhausted.
//!
//! ## The race detector
//!
//! The scheduler maintains a vector clock per thread and per location.
//! `Release`/`SeqCst` stores and RMWs join the writer's clock into the
//! location; `Acquire`/`SeqCst` loads and RMWs join the location's clock
//! back into the reader; lock release/acquire and spawn/join edges do
//! the same. `Relaxed` operations move no clocks — instead each relaxed
//! observation is remembered as a *weak edge*. Non-atomic shared state
//! is modelled by [`cell::PlainCell`]: its reads and writes are checked
//! FastTrack-style against the clocks, and an unordered pair is a
//! **data race** — a model failure even though the serialized host
//! execution never actually tore.
//!
//! ## Reading a race trace
//!
//! A failure report (printed by the `model` tests on panic, see
//! `model::Failure`) contains:
//!
//! * the failure kind (`data race`, `deadlock`, `panic`) with the two
//!   racing accesses (`t1 wrote loc#3 at step 12; t2 read loc#3 at step
//!   14 with no happens-before edge`),
//! * **weak-edge hints**: relaxed observations involving the racing
//!   threads, e.g. `hint: t1's Relaxed store to loc#2 (step 11) was
//!   observed by t2's Relaxed load (step 13) — this pair creates no
//!   happens-before edge; Acquire/Release would`. That is the signature
//!   of a `Relaxed` flag guarding a non-atomic payload,
//! * the full schedule trace: one line per step, `step / thread / op`,
//! * the decision sequence, for replay.
//!
//! ## Replay workflow
//!
//! A CI failure prints `schedule: 0,1,1,0,...` and the seed. To hold the
//! interleaving fixed while you debug, either re-run with the same
//! `AMNESIA_MODEL_SEED` (the DFS is fully deterministic given the seed),
//! or pin the exact failing schedule with
//! `AMNESIA_MODEL_REPLAY=0,1,1,0,... cargo test -p amnesia-sync
//! --features model --test model` — replay skips exploration and runs
//! that one schedule, so `dbg!`/log output lines up step for step.
//!
//! ## What the model does *not* check
//!
//! The host execution is sequentially consistent (threads are
//! serialized), so stale-value effects of weak orderings are not
//! simulated; the clocks verify that the *happens-before edges the
//! algorithm relies on* actually exist, which is what the `atomics` lint
//! rule's ordering comments claim. Location identity is by address, so
//! state for a location freed mid-run is retired on `Drop` of the
//! wrapper. This is a bounded checker, not a proof past the bound.

pub mod atomic;
pub mod cell;
pub mod morsel;
pub mod mutex;
pub mod thread;

#[cfg(feature = "model")]
pub mod model;

#[cfg(feature = "model")]
pub(crate) mod ctx;
