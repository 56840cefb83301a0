//! The morsel driver: how every plan stage runs.
//!
//! Each [`PhysicalPlan`](crate::physical::PhysicalPlan) operator exists
//! once, as a kernel over one `Span` — a run of frozen blocks or a
//! word-aligned range of hot rows, so no frozen block and no 64-row
//! activity word is ever shared between two kernel calls — that folds
//! its span into an accumulator. A `Pool` turns a table into a span list
//! and folds it through the kernel **in span order**:
//!
//! ```text
//!        TieredColumn                     Pool { threads, morsel_rows }
//!  ┌────┬────┬────┬───┬╌╌╌╌┐      ┌──────────┐
//!  │ B0 │ B1 │ B2 │B3 │hot │ ───► │ worker 0 │──► partial (sel words /
//!  └────┴────┴────┴───┴╌╌╌╌┘      │ worker 1 │      GroupTable / pairs)
//!    spans: frozen blocks         │    …     │            │
//!    grouped to ~morsel_rows,     └──────────┘            ▼
//!    word-aligned hot chunks       atomic-cursor    absorb partials
//!                                  ranges + steals  in span order
//! ```
//!
//! * **One worker is the whole table in two spans.** [`ExecMode::Serial`]
//!   is not another executor: it is a pool of one, whose morsel size is
//!   unbounded, so the span list is `[all frozen blocks, whole hot tail]`
//!   and both spans fold straight into one accumulator — no thread, no
//!   partial to allocate and stitch. [`ExecMode::Parallel`] runs the same
//!   kernels over the same table cut into ~`morsel_rows` pieces, one
//!   accumulator per piece. A thread count or a morsel size changes how
//!   the work is cut, never which code computes the answer; the
//!   row-at-a-time model the tests hold that answer to is the dev-only
//!   `amnesia-model` crate.
//! * **Scheduling** ([`run_morsels`]): the workspace has one scheduler,
//!   and it lives a layer down, in `amnesia-sync`, because the tier
//!   schedule in `amnesia-columnar` (freeze and recompression jobs) runs
//!   on it too. Each worker owns a contiguous range of span indices
//!   behind an atomic cursor; a worker that drains its range *steals*
//!   single spans from the most-loaded peer. This module keeps the
//!   spans and the per-plan accounting: steal counts surface in
//!   [`SchedStats`] and, through the executor, in
//!   [`ExecStats`](crate::exec::ExecStats).
//! * **Determinism**: partials come back indexed by span, whichever
//!   worker ran them, and absorb left to right. Spans tile the row space
//!   in ascending order, so selection words concatenate, gathered values
//!   and join pairs concatenate in ascending row order, and a
//!   [`GroupTable`] absorbing later spans
//!   appends their new keys after every key an earlier span saw — the
//!   first-seen group order, with nothing to re-sort.
//! * **Zero extra decodes**: a kernel touches each frozen block of its
//!   span at most once and never decodes it, however the table is cut.

use std::ops::Range;
use std::time::Instant;

use amnesia_sync::morsel::run_morsels;
use amnesia_sync::thread;

use amnesia_columnar::{RowId, Table, Value};
use amnesia_util::WORD_BITS;

use crate::batch::{AggState, ProbeStats, TierStats};
use crate::group::{self, AggInput, GroupTable};
use crate::hash::ValueMap;
use crate::join::{self, BuildSide};
use crate::kernels::{self, PredScanStats};
use crate::physical::ColPred;

/// Default target rows per morsel of a multi-worker pool: large enough
/// that per-morsel overhead (a result allocation, one cursor
/// `fetch_add`) is noise, small enough that a 1M-row table yields ~60
/// morsels for 8 workers to balance and steal over. Tunable per
/// executor via
/// [`Executor::with_morsel_rows`](crate::exec::Executor::with_morsel_rows)
/// or the `AMNESIA_MORSEL_ROWS` environment variable.
pub const MORSEL_ROWS: usize = 16_384;

/// Environment variable selecting the default executor's worker count
/// (`>1` selects [`ExecMode::Parallel`]); CI's test matrix sets it so the
/// equivalence suites run at more than one width.
pub const THREADS_ENV: &str = "AMNESIA_TEST_THREADS";

/// Environment variable overriding the default morsel size (rows), so
/// small test tables still split into many morsels per stage.
pub const MORSEL_ROWS_ENV: &str = "AMNESIA_MORSEL_ROWS";

/// How many workers
/// [`Executor::execute_plan`](crate::exec::Executor::execute_plan) runs a
/// plan's stages on — a worker count and nothing else: both variants run
/// the same span kernels through the same `Pool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One inline worker over the whole table (no thread is spawned).
    #[default]
    Serial,
    /// A fixed pool of `n` scoped threads over ~`morsel_rows` morsels.
    /// `n <= 1` is [`ExecMode::Serial`].
    Parallel(usize),
}

impl ExecMode {
    /// The mode selected by [`THREADS_ENV`]: `Parallel(n)` when the
    /// variable parses to `n > 1`, `Serial` otherwise.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(n) if n > 1 => ExecMode::Parallel(n),
            _ => ExecMode::Serial,
        }
    }

    /// Worker count: 1 for serial.
    pub fn threads(self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::Parallel(n) => n.max(1),
        }
    }
}

/// The morsel size selected by [`MORSEL_ROWS_ENV`], floored at one
/// activity word; [`MORSEL_ROWS`] when unset.
pub(crate) fn morsel_rows_from_env() -> usize {
    std::env::var(MORSEL_ROWS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map_or(MORSEL_ROWS, |n| n.max(WORD_BITS))
}

/// Per-plan scheduler accounting, surfaced through
/// [`ExecStats`](crate::exec::ExecStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Morsels (spans) executed — one or two per stage on one worker.
    pub morsels: usize,
    /// Morsels a worker claimed from another worker's range.
    pub steals: usize,
    /// Nanoseconds spent folding per-span partials together at pipeline
    /// breakers (concatenating selections, merging group tables, k-way
    /// sort merge).
    pub merge_ns: u64,
}

/// One morsel of a table — what every plan kernel takes: a contiguous
/// run of frozen blocks, or a word-aligned row range on the hot tail (or
/// a fully hot table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Span {
    /// Frozen blocks `[first, last)`.
    Blocks { first: usize, last: usize },
    /// Absolute rows `[lo, hi)`; `lo` is a multiple of [`WORD_BITS`].
    Rows { lo: usize, hi: usize },
}

impl Span {
    /// The selection words the span covers. Spans tile the row space on
    /// word boundaries, so consecutive spans' ranges abut.
    pub(crate) fn words(&self, block_rows: usize) -> Range<usize> {
        match *self {
            Span::Blocks { first, last } => {
                first * block_rows / WORD_BITS..last * block_rows / WORD_BITS
            }
            Span::Rows { lo, hi } => lo / WORD_BITS..hi.div_ceil(WORD_BITS),
        }
    }
}

/// Contiguous runs of frozen blocks grouped so each run covers about
/// `target_rows` *rows* (at least one block per run): a table of many
/// tiny blocks sizes its runs from `blocks × block_rows`, so the run
/// count never explodes with the block count.
pub(crate) fn frozen_block_spans(
    frozen_blocks: usize,
    block_rows: usize,
    target_rows: usize,
) -> Vec<(usize, usize)> {
    if frozen_blocks == 0 {
        return Vec::new();
    }
    let per = target_rows.max(1).div_ceil(block_rows.max(1)).max(1);
    (0..frozen_blocks)
        .step_by(per)
        .map(|b| (b, b.saturating_add(per).min(frozen_blocks)))
        .collect()
}

/// Word-aligned row chunks of about `target_rows` over `[lo, hi)`.
/// `lo` must be word-aligned (block boundaries are).
fn push_row_spans(lo: usize, hi: usize, target_rows: usize, out: &mut Vec<Span>) {
    let step = target_rows
        .max(WORD_BITS)
        .div_ceil(WORD_BITS)
        .saturating_mul(WORD_BITS);
    let mut l = lo;
    while l < hi {
        let h = l.saturating_add(step).min(hi);
        out.push(Span::Rows { lo: l, hi: h });
        l = h;
    }
}

/// Tier-boundary-aligned morsels covering every row of `table`: frozen
/// blocks grouped to ~`morsel_rows`, then the hot tail in word-aligned
/// chunks. Spans tile the row space in ascending order. An unbounded
/// `morsel_rows` (`usize::MAX`) yields one span per tier — the whole
/// table as `[all frozen blocks, whole hot tail]`.
pub(crate) fn table_morsels(table: &Table, morsel_rows: usize) -> Vec<Span> {
    let n = table.num_rows();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    let br = table.block_rows();
    for (first, last) in frozen_block_spans(table.frozen_blocks(), br, morsel_rows) {
        out.push(Span::Blocks { first, last });
    }
    push_row_spans(table.frozen_blocks() * br, n, morsel_rows, &mut out);
    out
}

/// The uncut table: `[all frozen blocks, whole hot tail]` — what one
/// worker runs, and what the whole-table kernel wrappers iterate.
pub(crate) fn whole_table(table: &Table) -> Vec<Span> {
    table_morsels(table, usize::MAX)
}

/// Plain index chunks `[lo, hi)` of about `target` items over `n` items
/// — the morsel unit for join-pair stages, where there is no tier to
/// align with.
fn index_chunks(n: usize, target: usize) -> Vec<Range<usize>> {
    let step = target.max(1);
    (0..n)
        .step_by(step)
        .map(|lo| lo..lo.saturating_add(step).min(n))
        .collect()
}

// ---------------------------------------------------------------------
// The pool: one driver for every plan stage.
// ---------------------------------------------------------------------

/// The workers a plan runs on and the scheduler accounting they
/// accumulate. Every stage is the same steps — cut the table into spans,
/// fold them through the operator's span kernel, absorb the partials in
/// span order — so a stage cannot answer differently at a different
/// width: there is no second body to answer from.
#[derive(Debug)]
pub(crate) struct Pool {
    threads: usize,
    /// Target rows per morsel; unbounded for a pool of one, which has
    /// nobody to share the table with.
    morsel_rows: usize,
    /// Scheduler accounting across every stage run so far.
    pub(crate) stats: SchedStats,
}

impl Pool {
    /// A pool of `threads` workers over ~`morsel_rows` morsels.
    pub(crate) fn new(threads: usize, morsel_rows: usize) -> Self {
        let threads = threads.max(1);
        Self {
            threads,
            morsel_rows: if threads == 1 {
                usize::MAX
            } else {
                morsel_rows
            },
            stats: SchedStats::default(),
        }
    }

    /// One inline worker over the whole table.
    pub(crate) fn inline() -> Self {
        Self::new(1, usize::MAX)
    }

    /// Fold `units`, in order, through `kernel` into one accumulator.
    ///
    /// A kernel folds one unit into an accumulator that may already hold
    /// the units before it, so one worker — who has nobody to hand a
    /// partial to — runs the units straight into a single accumulator:
    /// nothing is scheduled, nothing merged. A pool gives every unit a
    /// fresh accumulator (`init`) and `absorb`s them left to right; units
    /// ascend, so that merge is an append too.
    fn fold<U: Sync, R: Send>(
        &mut self,
        units: &[U],
        init: impl Fn() -> R + Sync,
        kernel: impl Fn(&U, &mut R) + Sync,
        mut absorb: impl FnMut(&mut R, R),
    ) -> R {
        self.stats.morsels += units.len();
        if self.threads == 1 {
            let mut acc = init();
            for unit in units {
                kernel(unit, &mut acc);
            }
            return acc;
        }
        let (parts, steals) = run_morsels(units.len(), self.threads, |i| {
            let mut part = init();
            kernel(&units[i], &mut part);
            part
        });
        self.stats.steals += steals;
        let t0 = Instant::now();
        let mut parts = parts.into_iter();
        let mut acc = parts.next().unwrap_or_else(&init);
        for part in parts {
            absorb(&mut acc, part);
        }
        self.stats.merge_ns += t0.elapsed().as_nanos() as u64;
        acc
    }

    /// [`Self::fold`] over the tier-aligned spans of `table`.
    fn fold_spans<R: Send>(
        &mut self,
        table: &Table,
        init: impl Fn() -> R + Sync,
        kernel: impl Fn(&Span, &mut R) + Sync,
        absorb: impl FnMut(&mut R, R),
    ) -> R {
        let spans = table_morsels(table, self.morsel_rows);
        self.fold(&spans, init, kernel, absorb)
    }

    /// [`Self::fold`] over index ranges of `n` items — the unit of the
    /// join-pair stages.
    pub(crate) fn fold_chunks<R: Send>(
        &mut self,
        n: usize,
        init: impl Fn() -> R + Sync,
        kernel: impl Fn(&Range<usize>, &mut R) + Sync,
        absorb: impl FnMut(&mut R, R),
    ) -> R {
        let chunks = index_chunks(n, self.morsel_rows);
        self.fold(&chunks, init, kernel, absorb)
    }

    /// The selection scan: `preds` evaluated in execution `order`
    /// ([`kernels::selection_scan_span`]); span selections concatenate,
    /// accounting adds up. Returns the selection words, the tier
    /// accounting and the per-predicate attribution (parallel to
    /// `preds`).
    pub(crate) fn selection_scan(
        &mut self,
        table: &Table,
        preds: &[ColPred],
        order: &[usize],
    ) -> (Vec<u64>, TierStats, Vec<PredScanStats>) {
        // An accumulator holds at most the table, and about a morsel.
        let words = table.num_rows().min(self.morsel_rows).div_ceil(WORD_BITS);
        self.fold_spans(
            table,
            || {
                let per_pred = vec![PredScanStats::default(); preds.len()];
                (Vec::with_capacity(words), TierStats::default(), per_pred)
            },
            |span, (sel, stats, per_pred)| {
                kernels::selection_scan_span(table, preds, order, span, sel, stats, per_pred)
            },
            |(sel, stats, per_pred), (words, ts, pp)| {
                sel.extend(words);
                stats.merge(ts);
                for (agg, part) in per_pred.iter_mut().zip(pp) {
                    agg.merge(part);
                }
            },
        )
    }

    /// The projection gather: `col` at the selected rows, ascending.
    pub(crate) fn gather_column(&mut self, table: &Table, sel: &[u64], col: usize) -> Vec<Value> {
        self.fold_spans(
            table,
            Vec::new,
            |span, out| kernels::gather_column_span(table, sel, col, span, out),
            |out, part| out.extend(part),
        )
    }

    /// The fused aggregate of `col` over a selection. States merge
    /// integer-exact, so the cut cannot change the result.
    pub(crate) fn aggregate_selection(
        &mut self,
        table: &Table,
        sel: &[u64],
        col: usize,
    ) -> AggState {
        self.fold_spans(
            table,
            AggState::new,
            |span, state| kernels::aggregate_selection_span(table, sel, col, span, state),
            |state, part| state.merge(&part),
        )
    }

    /// The grouped fold: later spans' tables absorb into the first, which
    /// keeps the groups in first-seen row order.
    pub(crate) fn grouped_fold(
        &mut self,
        table: &Table,
        sel: &[u64],
        key_col: usize,
        aggs: &[AggInput],
    ) -> GroupTable {
        self.fold_spans(
            table,
            || GroupTable::new(aggs.len()),
            |span, groups| group::grouped_fold_span(table, sel, key_col, aggs, span, groups),
            |groups, part| groups.absorb(&part),
        )
    }

    /// The join build over the rows `words` selects: per-span
    /// `key → ascending rows` maps appended in span order, so each key's
    /// row list ascends whatever the cut.
    pub(crate) fn join_build(&mut self, table: &Table, col: usize, words: &[u64]) -> BuildSide {
        self.fold_spans(
            table,
            BuildSide::default,
            |span, side| join::build_span(table, col, words, span, side),
            |(map, range), (part, part_range)| {
                if let Some((lo, hi)) = part_range {
                    *range = Some(range.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
                }
                for (k, rows) in part {
                    map.entry(k).or_default().extend(rows);
                }
            },
        )
    }

    /// The join probe: `(build row, probe row)` pairs grouped by probe
    /// row (right-major), concatenated in span order.
    pub(crate) fn join_probe(
        &mut self,
        table: &Table,
        col: usize,
        sel: &[u64],
        build: &ValueMap<Vec<RowId>>,
        key_range: Option<(Value, Value)>,
    ) -> (Vec<(RowId, RowId)>, ProbeStats) {
        self.fold_spans(
            table,
            Default::default,
            |span, (pairs, stats)| {
                join::probe_span(table, col, sel, span, build, key_range, pairs, stats)
            },
            |(pairs, stats), (part, part_stats)| {
                pairs.extend(part);
                stats.merge(part_stats);
            },
        )
    }

    /// Stable sort: one worker (or an input under one morsel) sorts in
    /// place, a pool chunk-sorts and k-way merges to the same order.
    pub(crate) fn sort_by<T: Send>(
        &mut self,
        items: &mut Vec<T>,
        cmp: impl Fn(&T, &T) -> std::cmp::Ordering + Sync,
    ) {
        if items.len() > self.morsel_rows {
            self.stats.merge_ns += par_sort_by(items, self.threads, cmp);
        } else {
            items.sort_by(cmp);
        }
    }
}

/// Parallel stable sort: contiguous chunks sort on scoped threads, then
/// a leftmost-preference k-way merge stitches them — exactly what a
/// serial stable `sort_by` produces. Returns merge time in nanoseconds.
fn par_sort_by<T, C>(items: &mut Vec<T>, threads: usize, cmp: C) -> u64
where
    T: Send,
    C: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 || n < 2 {
        items.sort_by(&cmp);
        return 0;
    }
    let chunk = n.div_ceil(workers);
    thread::scope(|s| {
        for c in items.chunks_mut(chunk) {
            let cmp = &cmp;
            s.spawn(move || c.sort_by(cmp));
        }
    });
    let t0 = Instant::now();
    // K-way merge over the sorted chunks; on ties the leftmost chunk
    // wins, which is precisely stability across chunk boundaries.
    let mut heads: Vec<usize> = (0..items.len()).step_by(chunk).collect();
    let ends: Vec<usize> = heads.iter().map(|&lo| (lo + chunk).min(n)).collect();
    let mut out: Vec<T> = Vec::with_capacity(n);
    let src = std::mem::take(items);
    let mut taken: Vec<Option<T>> = src.into_iter().map(Some).collect();
    for _ in 0..n {
        let mut best: Option<usize> = None;
        for k in 0..heads.len() {
            if heads[k] >= ends[k] {
                continue;
            }
            best = Some(match best {
                None => k,
                Some(b) => {
                    let a = taken[heads[k]].as_ref().expect("unconsumed");
                    let bv = taken[heads[b]].as_ref().expect("unconsumed");
                    if cmp(a, bv) == std::cmp::Ordering::Less {
                        k
                    } else {
                        b
                    }
                }
            });
        }
        let k = best.expect("n items remain");
        out.push(taken[heads[k]].take().expect("unconsumed"));
        heads[k] += 1;
    }
    *items = out;
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::Schema;
    use amnesia_util::SimRng;

    fn sample(n: usize, block_rows: usize, freeze: usize) -> Table {
        let mut rng = SimRng::new(0x5EED);
        let mut t = Table::with_block_rows(Schema::new(vec!["k", "v"]), block_rows);
        for i in 0..n {
            t.insert(&[(i % 7) as i64, rng.range_i64(0, 1_000)], 0)
                .unwrap();
        }
        for _ in 0..n / 5 {
            if let Some(r) = t.random_active(&mut rng) {
                t.forget(r, 1).unwrap();
            }
        }
        t.freeze_upto(freeze);
        t
    }

    #[test]
    fn morsels_tile_the_row_space() {
        let t = sample(10_000, 128, 8_192);
        for morsel_rows in [1, 256, usize::MAX] {
            let spans = table_morsels(&t, morsel_rows);
            let (mut next, mut next_word) = (0usize, 0usize);
            for s in &spans {
                let (lo, hi) = match *s {
                    Span::Blocks { first, last } => (first * 128, last * 128),
                    Span::Rows { lo, hi } => (lo, hi),
                };
                assert_eq!(lo, next, "spans tile without gaps");
                assert!(hi > lo);
                assert_eq!(lo % WORD_BITS, 0, "word-aligned starts");
                assert_eq!(s.words(128).start, next_word, "word ranges abut");
                next = hi;
                next_word = s.words(128).end;
            }
            assert_eq!(next, t.num_rows());
            assert_eq!(next_word, t.num_rows().div_ceil(WORD_BITS));
            if morsel_rows == usize::MAX {
                // Unbounded morsels: one span per tier, the whole table.
                let whole = [
                    Span::Blocks { first: 0, last: 64 },
                    Span::Rows {
                        lo: 8_192,
                        hi: 10_000,
                    },
                ];
                assert_eq!(spans, whole);
            }
        }
        // The same on a table with no frozen prefix.
        let hot = sample(200, 128, 0);
        assert_eq!(
            table_morsels(&hot, usize::MAX),
            [Span::Rows { lo: 0, hi: 200 }]
        );
    }

    #[test]
    fn block_chunks_derive_from_rows_not_block_count() {
        // 1024 tiny (64-row) blocks = 65536 rows: at a 4096-row target
        // that is at most 16 chunks, never 1024.
        let chunks = frozen_block_spans(1024, 64, 4096);
        assert!(chunks.len() <= 16, "got {}", chunks.len());
        for &(a, b) in &chunks {
            assert!(
                (b - a) * 64 >= 4096 || b == 1024,
                "chunk [{a},{b}) under floor"
            );
        }
        // Chunks tile the block space.
        let mut next = 0;
        for &(a, b) in &chunks {
            assert_eq!(a, next);
            next = b;
        }
        assert_eq!(next, 1024);
        assert!(frozen_block_spans(0, 64, 4096).is_empty());
    }

    #[test]
    fn par_sort_matches_serial_stable_sort() {
        let mut rng = SimRng::new(99);
        let mut data: Vec<(i64, usize)> = (0..5_000).map(|i| (rng.range_i64(0, 50), i)).collect();
        let mut want = data.clone();
        want.sort_by_key(|a| a.0); // stable: ties keep index order
        for threads in [2, 3, 7, 8] {
            let mut got = data.clone();
            par_sort_by(&mut got, threads, |a, b| a.0.cmp(&b.0));
            assert_eq!(got, want, "threads={threads}");
        }
        data.truncate(1);
        par_sort_by(&mut data, 8, |a, b| a.0.cmp(&b.0));
        assert_eq!(data.len(), 1);
    }

    #[test]
    fn par_selection_scan_equals_serial() {
        let t = sample(20_000, 128, 12_800);
        let preds = [ColPred::range(1, 100, 800), ColPred::range(0, 1, 6)];
        for order in [[0, 1], [1, 0]] {
            let mut inline = Pool::inline();
            let want = inline.selection_scan(&t, &preds, &order);
            assert_eq!(inline.stats.morsels, 2, "frozen prefix + hot tail");
            for threads in [2, 7, 8] {
                let mut pool = Pool::new(threads, 256);
                let got = pool.selection_scan(&t, &preds, &order);
                assert_eq!(got, want, "threads={threads}: words and accounting");
                assert!(pool.stats.morsels > 2);
            }
        }
    }
}
