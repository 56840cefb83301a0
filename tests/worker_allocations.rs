//! No allocation on a worker thread while a table opens.
//!
//! A fan-out that allocates on a worker takes that memory from the
//! worker's own allocator arena, which the main heap cannot reuse once
//! the table is dropped; the next allocations of the process then fault
//! fresh pages. So every buffer a restore job fills is allocated by the
//! calling thread, and the jobs allocate nothing. A counting global
//! allocator checks it: it counts the allocations made on any thread but
//! the test's own, and `PersistentTable::open` of a hot table and of a
//! frozen-plus-hot table, each with enough full hot blocks to fan out,
//! must make none.
//!
//! The allocator counts for the whole process, so this binary holds one
//! test: libtest runs a binary's tests on parallel threads. It also
//! counts the frees made off the test's thread, which set up a worker's
//! arena as an allocation does, and prints them beside the allocations
//! for both opens; and it prints, without asserting, what a tier sweep
//! allocates and frees on its workers (freeze and recompression still
//! encode on the worker).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use amnesia::columnar::compress::{EncodedBlock, Encoding};
use amnesia::columnar::persist::{PersistentTable, StdVfs, SyncPolicy};
use amnesia::prelude::*;
use amnesia_sync::atomic::{AtomicUsize, Ordering};
use amnesia_sync::morsel::cores;

/// Allocations (and reallocations) made off the test's thread.
static OFF_THREAD: AtomicUsize = AtomicUsize::new(0);

/// Frees made off the test's thread.
static OFF_THREAD_FREES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's own thread. Const-initialised with no
    /// destructor, so reading it from the allocator allocates nothing.
    static TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Count one call in `counter` if it came from off the test's thread.
fn note(counter: &AtomicUsize) {
    if !TEST_THREAD.with(Cell::get) {
        // Relaxed: a count read by the test thread after the workers it
        // counts were joined.
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter that neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` is passed through as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&OFF_THREAD);
        // SAFETY: as above — `System.alloc` under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `p` and `layout` are the caller's, from a prior `alloc`.
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        note(&OFF_THREAD_FREES);
        // SAFETY: as above — `System.dealloc` under the caller's contract.
        unsafe { System.dealloc(p, layout) }
    }

    // SAFETY: the arguments are the caller's, under `GlobalAlloc::realloc`'s
    // own contract.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&OFF_THREAD);
        // SAFETY: as above — `System.realloc` under the caller's contract.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and frees off the test's thread while `f` runs.
fn off_thread<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let count = || {
        // Relaxed: as in `note`.
        let allocations = OFF_THREAD.load(Ordering::Relaxed);
        // Relaxed: as in `note`.
        (allocations, OFF_THREAD_FREES.load(Ordering::Relaxed))
    };
    let before = count();
    let out = f();
    let after = count();
    (out, after.0 - before.0, after.1 - before.1)
}

const BLOCK: usize = 1_024;

/// Four columns whose tails encode as delta, rle, forpack and dict.
fn four_columns(rows: usize) -> Table {
    let mut rng = SimRng::new(47);
    let far = [
        -1_000_000_000_000_000i64,
        -7,
        0,
        3_000_000_000_000,
        900_000_000_000_000_000,
    ];
    let mut t = Table::with_block_rows(Schema::new(vec!["seq", "run", "band", "few"]), BLOCK);
    for b in 0..rows / 1_000 {
        for i in b * 1_000..(b + 1) * 1_000 {
            let i = i as i64;
            let row = [
                i,
                i / 700,
                rng.range_i64(0, 1 << 20),
                far[rng.index(far.len())],
            ];
            t.insert(&row, b as u64).unwrap();
        }
        for _ in 0..100 {
            let row = t.random_active(&mut rng).unwrap();
            t.forget(row, b as u64).unwrap();
        }
    }
    t
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amn-workeralloc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write `table` as a durable directory, open it, print the allocations
/// and frees the open made off the test's thread, and return the
/// allocations.
fn open_off_thread(name: &str, table: Table) -> usize {
    let dir = fresh_dir(name);
    let (rows, active) = (table.num_rows(), table.active_rows());
    let hot_blocks: usize = (0..4)
        .map(|c| table.col_tier(c).hot_values().len() / BLOCK)
        .sum();
    assert!(
        hot_blocks >= 16,
        "{name}: {hot_blocks} full hot blocks do not fan out"
    );
    drop(
        PersistentTable::create_with_table(StdVfs::shared(), &dir, table, SyncPolicy::PerRecord)
            .unwrap(),
    );
    let (rec, allocations, frees) = off_thread(|| PersistentTable::open(&dir).unwrap());
    println!("{name} open, off the test's thread: {allocations} allocations, {frees} frees");
    assert_eq!(
        (rec.table().num_rows(), rec.table().active_rows()),
        (rows, active),
        "{name}"
    );
    drop(rec);
    std::fs::remove_dir_all(&dir).unwrap();
    allocations
}

#[test]
fn no_worker_allocates_while_a_table_opens() {
    TEST_THREAD.with(|t| t.set(true));
    if cores() < 2 {
        eprintln!("one core: the restore runs inline, so this test proves nothing here");
    }

    let hot = four_columns(8 * BLOCK + 500);
    let codecs: Vec<Encoding> = (0..4)
        .map(|c| EncodedBlock::encode_auto(hot.col_tier(c).hot_values()).encoding())
        .collect();
    assert_eq!(
        codecs,
        [
            Encoding::Delta,
            Encoding::Rle,
            Encoding::ForPack,
            Encoding::Dict
        ],
        "the tails cover the stream, run, frame and dictionary decodes"
    );
    assert_eq!(
        open_off_thread("hot", hot),
        0,
        "a hot open allocated on a worker"
    );

    let mut frozen = four_columns(40 * BLOCK);
    frozen.freeze_upto(30 * BLOCK);
    frozen.recompress_frozen(0.95);
    assert_eq!(frozen.frozen_blocks(), 30);
    assert_eq!(
        open_off_thread("frozen", frozen),
        0,
        "a frozen-plus-hot open allocated on a worker"
    );

    // The write side: a tier sweep of 20 blocks per column.
    let mut t = four_columns(21 * BLOCK);
    let (frozen_blocks, freeze, freeze_frees) = off_thread(|| t.freeze_upto(20 * BLOCK));
    let mut rng = SimRng::new(3);
    while t.active_rows() > t.num_rows() / 2 {
        let row = t.random_active(&mut rng).unwrap();
        t.forget(row, 99).unwrap();
    }
    let ((recompressed, _), recompress, recompress_frees) = off_thread(|| t.recompress_frozen(0.9));
    println!(
        "worker allocations / frees: freeze_upto of {frozen_blocks} blocks \
         {freeze} / {freeze_frees}, recompress_frozen of {recompressed} blocks \
         {recompress} / {recompress_frees}"
    );
}
