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
//! prints, without asserting, what a tier sweep allocates on its workers
//! (freeze and recompression still encode on the worker).

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

thread_local! {
    /// Set on the test's own thread. Const-initialised with no
    /// destructor, so reading it from the allocator allocates nothing.
    static TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if !TEST_THREAD.with(Cell::get) {
        // Relaxed: a count read by the test thread after the workers it
        // counts were joined.
        OFF_THREAD.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter that neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` is passed through as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as above — `System.alloc` under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `p` and `layout` are the caller's, from a prior `alloc`.
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: as above — `System.dealloc` under the caller's contract.
        unsafe { System.dealloc(p, layout) }
    }

    // SAFETY: the arguments are the caller's, under `GlobalAlloc::realloc`'s
    // own contract.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: as above — `System.realloc` under the caller's contract.
        unsafe { System.realloc(p, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations off the test's thread while `f` runs.
fn off_thread<R>(f: impl FnOnce() -> R) -> (R, usize) {
    // Relaxed: as in `note_allocation`.
    let before = OFF_THREAD.load(Ordering::Relaxed);
    let out = f();
    // Relaxed: as in `note_allocation`.
    (out, OFF_THREAD.load(Ordering::Relaxed) - before)
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

/// Write `table` as a durable directory, open it, and return the
/// allocations the open made off the test's thread.
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
    let (rec, allocations) = off_thread(|| PersistentTable::open(&dir).unwrap());
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
    let (frozen_blocks, freeze) = off_thread(|| t.freeze_upto(20 * BLOCK));
    let mut rng = SimRng::new(3);
    while t.active_rows() > t.num_rows() / 2 {
        let row = t.random_active(&mut rng).unwrap();
        t.forget(row, 99).unwrap();
    }
    let ((recompressed, _), recompress) = off_thread(|| t.recompress_frozen(0.9));
    println!(
        "worker allocations: freeze_upto of {frozen_blocks} blocks {freeze}, \
         recompress_frozen of {recompressed} blocks {recompress}"
    );
}
