//! The workspace's one morsel scheduler.
//!
//! [`run_morsels`] runs `n` independent jobs — morsels — on a fixed
//! number of scoped workers and hands their results back **in morsel
//! order**, whichever worker ran which. Three layers call it: the
//! engine's plan stages (`amnesia-engine::morsel`, which cuts a table into
//! spans and keeps the per-plan accounting), the tier schedule in
//! `amnesia-columnar` (freeze and recompression jobs, one per block and
//! column) and its snapshot restore ([`run_morsels_mut`], one job per
//! column filling buffers the caller reserved). All reach threads only
//! through here, so the model checker (`tests/morsel.rs`, under
//! `--features model`) covers every fan-out in the workspace.
//!
//! Each worker owns a contiguous range of morsel indices behind an
//! atomic cursor; after draining its own range it steals one morsel at a
//! time from the peer with the most work left. The caller is worker 0,
//! so `threads` workers spawn `threads - 1` scoped threads, and one
//! worker (or one morsel) spawns nothing. Every buffer of the scheduler
//! is the caller's, so a worker allocates only what its morsels do.

use crate::atomic::{AtomicUsize, Ordering};
use crate::cell::PlainCell;
use crate::thread;
use std::sync::OnceLock;

/// Run `n` morsels across `threads` workers and return the per-morsel
/// results **in morsel order**, plus how many morsels a worker stole
/// from another worker's range.
///
/// Each result goes straight into its morsel's slot, which the caller
/// allocated before any worker started, so downstream merges see a
/// deterministic order no matter which worker ran what, and the
/// scheduler allocates nothing on a worker: a morsel that allocates
/// nothing leaves its worker with no allocation at all. Morsel 0 always
/// runs on the calling thread, so a job that must (one that allocates
/// what outlives the call) goes first.
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
    // One slot per morsel, written once by whichever worker claimed the
    // morsel and read by the caller after the scope joined that worker:
    // the claim makes the writes disjoint and the join orders them
    // before the reads (the model suite race-checks both on every
    // explored schedule).
    let slots: Vec<PlainCell<Option<R>>> = (0..n).map(|_| PlainCell::new(None)).collect();
    // One worker's whole life: its own range, then steals. Returns how
    // many it stole.
    let worker = |w: usize| {
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
            slots[i].put(Some(run(i)));
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
                slots[i].put(Some(run(i)));
            }
        }
        steals
    };
    // Morsel 0 is the caller's: claimed before any worker starts, so it
    // runs on the calling thread whatever the schedule. Relaxed, as every
    // claim: the cursor word is atomic on its own.
    let first = cursors[0].fetch_add(1, Ordering::Relaxed);
    let mut steal_total = 0usize;
    thread::scope(|s| {
        // The caller is worker 0: one spawn fewer, and it works instead
        // of waiting.
        let worker = &worker;
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || worker(w))).collect();
        slots[first].put(Some(run(first)));
        steal_total = worker(0);
        for h in handles {
            steal_total += h.join().expect("morsel worker");
        }
    });
    let results = slots
        .iter()
        .map(|slot| slot.take().expect("every morsel ran exactly once"))
        .collect();
    (results, steal_total)
}

/// [`run_morsels`] over `items`: morsel `i` runs `run(i, &mut items[i])`,
/// and no other morsel sees that item. Jobs fill buffers the caller
/// allocated this way, so a worker allocates nothing to hold its output.
pub fn run_morsels_mut<T, R, F>(items: &mut [T], threads: usize, run: F) -> (Vec<R>, usize)
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let base = Items(items.as_mut_ptr());
    let base = &base;
    // `run_morsels` runs each index below `items.len()` exactly once (the
    // model suite's exactly-once proof), and every morsel ends before it
    // returns, inside the `items` borrow.
    run_morsels(items.len(), threads, |i| {
        // SAFETY: in bounds, and item `i` is borrowed by this morsel only.
        run(i, unsafe { &mut *base.at(i) })
    })
}

/// The items of [`run_morsels_mut`], shared with its workers.
struct Items<T>(*mut T);

// SAFETY: workers reach the items only through `Items::at` in
// `run_morsels_mut`, which hands each index to one morsel, so every `T`
// is used by one thread at a time; `T: Send` lets it move to another.
unsafe impl<T: Send> Sync for Items<T> {}

impl<T> Items<T> {
    /// The address of item `i`.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
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

    #[test]
    fn each_item_goes_to_its_own_morsel() {
        for (n, threads) in [(0usize, 4usize), (1, 8), (7, 2), (64, 7)] {
            let mut items: Vec<usize> = (0..n).collect();
            let (results, _) = run_morsels_mut(&mut items, threads, |i, item| {
                assert_eq!(*item, i);
                *item *= 10;
                i + 1
            });
            assert_eq!(results, (1..=n).collect::<Vec<_>>());
            assert_eq!(items, (0..n).map(|i| i * 10).collect::<Vec<_>>());
        }
    }
}
