//! The workspace's one morsel scheduler.
//!
//! [`run_morsels`] runs `n` independent jobs — morsels — on a fixed
//! number of scoped workers and hands their results back **in morsel
//! order**, whichever worker ran which. Two layers call it: the engine's
//! plan stages (`amnesia-engine::morsel`, which cuts a table into spans
//! and keeps the per-plan accounting) and the tier schedule in
//! `amnesia-columnar` (freeze and recompression jobs, one per block and
//! column). Both reach threads only through here, so the model checker
//! (`tests/morsel.rs`, under `--features model`) covers every fan-out in
//! the workspace.
//!
//! Each worker owns a contiguous range of morsel indices behind an
//! atomic cursor; after draining its own range it steals one morsel at a
//! time from the peer with the most work left. The caller is worker 0,
//! so `threads` workers spawn `threads - 1` scoped threads, and one
//! worker (or one morsel) spawns nothing.

use crate::atomic::{AtomicUsize, Ordering};
use crate::thread;
use std::sync::OnceLock;

/// Run `n` morsels across `threads` workers and return the per-morsel
/// results **in morsel order**, plus how many morsels a worker stole
/// from another worker's range.
///
/// Results are collected per worker and scattered back by morsel index,
/// so downstream merges see a deterministic order no matter which worker
/// ran what.
pub fn run_morsels<R, F>(n: usize, threads: usize, run: F) -> (Vec<R>, usize)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return ((0..n).map(&run).collect(), 0);
    }
    let per = n.div_ceil(workers);
    let cursors: Vec<AtomicUsize> = (0..workers).map(|w| AtomicUsize::new(w * per)).collect();
    let ends: Vec<usize> = (0..workers).map(|w| ((w + 1) * per).min(n)).collect();
    // One worker's whole life: its own range, then steals. Returns the
    // `(morsel, result)` pairs it ran and how many it stole.
    let worker = |w: usize| {
        let mut out: Vec<(usize, R)> = Vec::new();
        let mut steals = 0usize;
        // Own range first. Relaxed claim: each cursor word is
        // independently atomic, and results travel to the collector
        // through the scope-join edge, not through cursor ordering — the
        // model suite (tests/morsel.rs, exactly-once) verifies this
        // happens-before shape on every explored schedule.
        loop {
            let i = cursors[w].fetch_add(1, Ordering::Relaxed);
            if i >= ends[w] {
                break;
            }
            out.push((i, run(i)));
        }
        // Steal one morsel at a time from the most-loaded peer until
        // everyone is drained.
        loop {
            // Relaxed: a stale load only picks a less loaded victim; the
            // claim below decides.
            let victim = (0..workers)
                .filter(|&v| v != w)
                .max_by_key(|&v| ends[v].saturating_sub(cursors[v].load(Ordering::Relaxed)));
            let Some(v) = victim else { break };
            // Relaxed re-check: the fetch_add below is the claim; a stale
            // read here only costs one wasted steal attempt, never a
            // double-claimed morsel. The model checker explores
            // stale-read interleavings explicitly and proves no morsel
            // double-executes or drops.
            if ends[v].saturating_sub(cursors[v].load(Ordering::Relaxed)) == 0 {
                break;
            }
            // Relaxed claim: cursors are the sole shared words and
            // fetch_add is atomic per cursor; results are published by
            // the scope join, not by this write — the join edge is the
            // model-verified happens-before that makes Relaxed
            // sufficient.
            let i = cursors[v].fetch_add(1, Ordering::Relaxed);
            if i < ends[v] {
                steals += 1;
                out.push((i, run(i)));
            }
        }
        (out, steals)
    };
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut steal_total = 0usize;
    thread::scope(|s| {
        // The caller is worker 0: one spawn fewer, and it works instead
        // of waiting.
        let worker = &worker;
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || worker(w))).collect();
        let own = worker(0);
        let parts = std::iter::once(own).chain(
            handles
                .into_iter()
                .map(|h| h.join().expect("morsel worker")),
        );
        for (part, steals) in parts {
            steal_total += steals;
            for (i, r) in part {
                slots[i] = Some(r);
            }
        }
    });
    let results = slots
        .into_iter()
        .map(|r| r.expect("every morsel ran exactly once"))
        .collect();
    (results, steal_total)
}

/// The cores this process may run on
/// ([`thread::available_parallelism`], 1 when unknown), read once: the
/// width of work that fans out without a caller-chosen worker count.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_runs_every_morsel_once_in_order() {
        for (n, threads) in [(0usize, 4usize), (1, 8), (7, 2), (64, 7), (100, 8), (5, 64)] {
            let (results, steals) = run_morsels(n, threads, |i| i * 3);
            assert_eq!(results, (0..n).map(|i| i * 3).collect::<Vec<_>>());
            assert!(steals < n.max(1));
        }
        assert!(cores() >= 1);
    }
}
