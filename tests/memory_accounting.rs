//! `Table::memory_bytes` against the allocator.
//!
//! `resident_bytes_per_row` — the benchmark's memory metric, and the number
//! budget- and cost-based policies steer by — is `Table::memory_bytes`, a
//! sum the table computes about itself. A counting global allocator checks
//! it: for hot, frozen, FIFO-dropped and scatter-forgotten tables the
//! figure must be within ±10 % of the heap bytes that are live on the
//! table's behalf, and it must be a pure function of the operation history.
//! (As measured the shapes sit between 0.974 and 1.000; the gap is the
//! reference-count header in front of each frozen payload.) A table that
//! has planned a statement also holds one column summary per referenced
//! column, which the figure counts while it is held.

use std::alloc::{GlobalAlloc, Layout, System};

use amnesia::engine::{order_predicates, ColPred, CostModel};
use amnesia::prelude::*;
use amnesia_sync::atomic::{AtomicUsize, Ordering};
use amnesia_sync::mutex::Mutex;

/// Heap bytes currently allocated by this process.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The allocator counts for the whole process, so the tests of this file
/// take turns.
static TURN: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter that neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` is passed through as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as above — `System.alloc` under the caller's contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // Relaxed: a statistic read only by the one test thread that
            // did the allocating; nothing is published through it.
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    // SAFETY: `p` and `layout` are the caller's, from a prior `alloc`.
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: as above — `System.dealloc` under the caller's contract.
        unsafe { System.dealloc(p, layout) };
        // Relaxed: as in `alloc`.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: the arguments are the caller's, under `GlobalAlloc::realloc`'s
    // own contract.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above — `System.realloc` under the caller's contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            // Relaxed: as in `alloc`.
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            // Relaxed: as in `alloc`.
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BATCH: usize = 10_000;

fn values(batch: u64, rng: &mut SimRng) -> Vec<i64> {
    let base = batch as i64 * BATCH as i64;
    (0..BATCH as i64)
        .map(|i| base + i + rng.range_i64(0, 50))
        .collect()
}

/// Ten batches, a fifth of the rows forgotten at random, some touched;
/// never frozen.
fn hot() -> Table {
    let mut rng = SimRng::new(1);
    let mut t = Table::single("a");
    for b in 0..10 {
        t.insert_batch(&values(b, &mut rng), b).unwrap();
        for _ in 0..BATCH / 5 {
            let row = RowId::from(rng.index(t.num_rows()));
            t.forget(row, b).unwrap();
        }
        for _ in 0..50 {
            let row = t.random_active(&mut rng).unwrap();
            t.access_mut().touch(row, b);
        }
    }
    t
}

/// The same history, frozen up to the last batch and recompressed.
fn frozen() -> Table {
    let mut t = hot();
    t.freeze_upto(9 * BATCH);
    t.recompress_frozen(0.9);
    t
}

/// A sliding window five batches wide over thirty batches of history:
/// every block older than the window is dropped.
fn fifo_dropped() -> Table {
    let mut rng = SimRng::new(2);
    let mut t = Table::single("a");
    for b in 0..30u64 {
        t.insert_batch(&values(b, &mut rng), b).unwrap();
        if b >= 5 {
            for r in (b as usize - 5) * BATCH..(b as usize - 4) * BATCH {
                t.forget(RowId::from(r), b).unwrap();
            }
        }
        t.freeze_upto(t.num_rows().saturating_sub(BATCH));
        t.drop_forgotten_blocks();
    }
    assert!(t.dropped_rows() > 20 * BATCH);
    t
}

/// Uniform forgetting down to a third over a frozen, four-column table:
/// no block dies, every block has a death page, blocks recompress.
fn scatter_forgotten() -> Table {
    let mut rng = SimRng::new(3);
    let mut t = Table::new(Schema::new(vec!["a", "b", "c", "d"]));
    for b in 0..6u64 {
        for i in 0..BATCH as i64 {
            t.insert(&[i, i % 97, rng.range_i64(0, 1 << 20), b as i64], b)
                .unwrap();
        }
        while t.active_rows() > 2 * BATCH {
            let row = t.random_active(&mut rng).unwrap();
            t.forget(row, b).unwrap();
        }
        t.freeze_upto(t.num_rows().saturating_sub(BATCH / 2));
        t.recompress_frozen(0.5);
        assert_eq!(t.drop_forgotten_blocks().0, 0);
    }
    t
}

/// Plan one statement with a predicate on every column of `t`, which
/// fills each column's summary cell.
fn plan_a_statement(t: &Table) {
    let preds: Vec<ColPred> = (0..t.schema().arity())
        .map(|c| ColPred::range(c, 0, 1 << 10))
        .collect();
    order_predicates(t, &preds, &CostModel::default());
}

/// The scatter-forgotten table after a statement has been planned on it.
fn planned() -> Table {
    let t = scatter_forgotten();
    plan_a_statement(&t);
    t
}

type Shape = (&'static str, fn() -> Table);

const SHAPES: [Shape; 5] = [
    ("hot", hot),
    ("frozen", frozen),
    ("fifo_dropped", fifo_dropped),
    ("scatter_forgotten", scatter_forgotten),
    ("planned", planned),
];

#[test]
fn memory_bytes_is_within_a_tenth_of_the_live_heap() {
    let _turn = TURN.lock().unwrap();
    for (name, build) in SHAPES {
        // Relaxed: this thread did every allocation it is about to count.
        let before = LIVE.load(Ordering::Relaxed);
        let table = build();
        // Relaxed: as above.
        let live = LIVE.load(Ordering::Relaxed) - before;
        let counted = table.memory_bytes();
        let parts = table.memory_breakdown();
        assert_eq!(parts.total(), counted);
        let ratio = counted as f64 / live as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{name}: memory_bytes {counted} ({parts:?}) vs {live} live heap bytes (ratio {ratio:.3})"
        );
    }
}

#[test]
fn memory_bytes_is_a_function_of_the_operation_history() {
    let _turn = TURN.lock().unwrap();
    for (name, build) in SHAPES {
        let (a, b) = (build(), build());
        assert_eq!(a.memory_bytes(), b.memory_bytes(), "{name}");
        assert_eq!(a.memory_breakdown(), b.memory_breakdown(), "{name}");
    }
}

/// The four summaries are a rounding error beside 60 000 rows, so the band
/// above would pass without them: hold the cells' own bytes to it.
#[test]
fn a_held_summary_is_counted_and_a_mutation_gives_it_back() {
    let _turn = TURN.lock().unwrap();
    let mut t = scatter_forgotten();
    let counted_empty = t.memory_bytes();
    // Relaxed: this thread does every allocation it is about to count.
    let live_empty = LIVE.load(Ordering::Relaxed);
    plan_a_statement(&t);
    // Relaxed: as above.
    let live = LIVE.load(Ordering::Relaxed) - live_empty;
    let counted = t.memory_bytes() - counted_empty;
    assert!(
        counted >= 4 * 512,
        "four 64-bin summaries, counted {counted}"
    );
    let ratio = counted as f64 / live as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "summaries: counted {counted} vs {live} live heap bytes (ratio {ratio:.3})"
    );
    // A forget empties every cell.
    let row = t.random_active(&mut SimRng::new(9)).unwrap();
    t.forget(row, 7).unwrap();
    // Relaxed: as above.
    assert!(LIVE.load(Ordering::Relaxed) <= live_empty + live / 10);
    assert!(t.memory_bytes() <= counted_empty + counted / 10);
}

#[test]
fn a_dropped_block_costs_bytes_not_pages() {
    let _turn = TURN.lock().unwrap();
    let t = fifo_dropped();
    let parts = t.memory_breakdown();
    let history = t.num_rows();
    // Bitmap: an eighth of a byte per row of history (and Vec slack).
    assert!(parts.activity <= history / 4, "{parts:?}");
    // Row metadata: pages for the few blocks of the window that have a
    // forgotten row, a run per dropped block, a run per batch.
    assert!(
        parts.death_epochs + parts.row_metadata < history / 4,
        "{parts:?}"
    );
    let row = RowId::from(3 * BATCH + 17);
    assert_eq!(t.activity().died_at(row), Some(8), "a dropped row's death");
    assert_eq!(t.insert_epoch(row), 3);
}
