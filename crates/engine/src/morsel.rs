//! Morsel-driven parallel plan execution.
//!
//! The scheduler splits every [`PhysicalPlan`](crate::physical::PhysicalPlan)
//! stage into *morsels* — work units aligned to the storage tiers, so no
//! frozen block and no 64-row activity word is ever shared between two
//! workers — and pulls them through a fixed pool of std scoped threads:
//!
//! ```text
//!        TieredColumn                     worker pool (ExecMode::Parallel(n))
//!  ┌────┬────┬────┬───┬╌╌╌╌┐      ┌──────────┐
//!  │ B0 │ B1 │ B2 │B3 │hot │ ───► │ worker 0 │──► partial (sel words /
//!  └────┴────┴────┴───┴╌╌╌╌┘      │ worker 1 │      GroupTable / pairs)
//!    morsels: frozen blocks       │    …     │            │
//!    grouped to ~MORSEL_ROWS,     └──────────┘            ▼
//!    word-aligned hot chunks       atomic-cursor    deterministic merge
//!                                  ranges + steals  in morsel order
//! ```
//!
//! * **Morsels** (`Span`): contiguous runs of frozen blocks grouped to a
//!   target row count, then word-aligned chunks over the hot tail (or the
//!   whole table when nothing is frozen). Block boundaries are a whole
//!   number of activity words by construction, so no word is ever split
//!   between two morsels.
//! * **Scheduling** (`run_morsels`): each worker owns a contiguous range
//!   of morsel indices behind an atomic cursor; a worker that drains its
//!   range *steals* single morsels from the most-loaded peer. Steal counts
//!   surface in [`SchedStats`] and, through the executor, in
//!   [`ExecStats`](crate::exec::ExecStats).
//! * **Determinism**: every morsel's partial result is tagged with its
//!   morsel index and stitched back in morsel order, whichever worker ran
//!   it — selection words land at their word offset, gathered values and
//!   join pairs concatenate in ascending row order, per-worker
//!   [`GroupTable`]s merge by key and re-sort by global first-seen row.
//!   The output is **byte-identical** to serial execution, which survives
//!   as the equivalence oracle ([`ExecMode::Serial`]).
//! * **Zero extra decodes**: every per-morsel kernel is the same fused
//!   compressed-space kernel the serial path runs (selection masks,
//!   `for_each_active` streams, codec-domain probes), restricted to the
//!   morsel's blocks — each stage still touches each frozen block at most
//!   once, and never decodes it.

use std::collections::HashMap;
use std::time::Instant;

use amnesia_sync::atomic::{AtomicUsize, Ordering};
use amnesia_sync::thread;

use amnesia_columnar::{RowId, Table, Value};
use amnesia_util::WORD_BITS;

use crate::batch::{self, AggState, ProbeStats, TierStats};
use crate::group::{self, AggInput, GroupTable};
use crate::kernels;
use crate::physical::ColPred;

/// Default target rows per morsel: large enough that per-morsel overhead
/// (a result allocation, one cursor `fetch_add`) is noise, small enough
/// that a 1M-row table yields ~60 morsels for 8 workers to balance and
/// steal over. Tunable per executor via
/// [`Executor::with_morsel_rows`](crate::exec::Executor::with_morsel_rows)
/// or the `AMNESIA_MORSEL_ROWS` environment variable.
pub const MORSEL_ROWS: usize = 16_384;

/// Environment variable selecting the default executor's thread count
/// (`>1` enables [`ExecMode::Parallel`]); CI's test matrix sets it so the
/// equivalence suites run both executors.
pub const THREADS_ENV: &str = "AMNESIA_TEST_THREADS";

/// Environment variable overriding the default morsel size (rows), so
/// the parallel path engages on small tables in test runs.
pub const MORSEL_ROWS_ENV: &str = "AMNESIA_MORSEL_ROWS";

/// How [`Executor::execute_plan`](crate::exec::Executor::execute_plan)
/// runs a plan's stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One thread, stage by stage — the equivalence oracle.
    #[default]
    Serial,
    /// Morsel-driven across a fixed pool of `n` scoped threads. `n <= 1`
    /// behaves exactly like [`ExecMode::Serial`].
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
    /// Morsels executed.
    pub morsels: usize,
    /// Morsels a worker claimed from another worker's range.
    pub steals: usize,
    /// Nanoseconds spent merging per-worker partial state at pipeline
    /// breakers (stitching selections, merging group tables, k-way sort
    /// merge).
    pub merge_ns: u64,
}

impl SchedStats {
    /// Fold in another stage's accounting.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.morsels += other.morsels;
        self.steals += other.steals;
        self.merge_ns += other.merge_ns;
    }
}

/// One morsel of a table: a contiguous run of frozen blocks, or a
/// word-aligned row range on the hot tail (or a fully hot table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Span {
    /// Frozen blocks `[first, last)`.
    Blocks { first: usize, last: usize },
    /// Absolute rows `[lo, hi)`; `lo` is a multiple of [`WORD_BITS`].
    Rows { lo: usize, hi: usize },
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
        .map(|b| (b, (b + per).min(frozen_blocks)))
        .collect()
}

/// Word-aligned row chunks of about `target_rows` over `[lo, hi)`.
/// `lo` must be word-aligned (block boundaries are).
fn push_row_spans(lo: usize, hi: usize, target_rows: usize, out: &mut Vec<Span>) {
    let step = target_rows.max(WORD_BITS).div_ceil(WORD_BITS) * WORD_BITS;
    let mut l = lo;
    while l < hi {
        let h = (l + step).min(hi);
        out.push(Span::Rows { lo: l, hi: h });
        l = h;
    }
}

/// Tier-boundary-aligned morsels covering every row of `table`: frozen
/// blocks grouped to ~`morsel_rows`, then the hot tail in word-aligned
/// chunks. Spans tile the row space in ascending order.
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

/// Plain index chunks `[lo, hi)` of about `target` items over `n` items
/// — the morsel unit for join-pair stages, where there is no tier to
/// align with.
pub(crate) fn index_chunks(n: usize, target: usize) -> Vec<(usize, usize)> {
    let step = target.max(1);
    (0..n)
        .step_by(step)
        .map(|lo| (lo, (lo + step).min(n)))
        .collect()
}

// ---------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------

/// Run `n` morsels across `threads` workers and return the per-morsel
/// results **in morsel order**, plus scheduler accounting.
///
/// Each worker owns a contiguous range of morsel indices behind an
/// atomic cursor; after draining its own range it steals one morsel at a
/// time from the peer with the most work left. Results are collected
/// per-worker and scattered back by morsel index, so downstream merges
/// see a deterministic order no matter which worker ran what.
pub fn run_morsels<R, F>(n: usize, threads: usize, run: F) -> (Vec<R>, SchedStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return (Vec::new(), SchedStats::default());
    }
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        let results = (0..n).map(&run).collect();
        return (
            results,
            SchedStats {
                morsels: n,
                ..Default::default()
            },
        );
    }
    let per = n.div_ceil(workers);
    let cursors: Vec<AtomicUsize> = (0..workers).map(|w| AtomicUsize::new(w * per)).collect();
    let ends: Vec<usize> = (0..workers).map(|w| ((w + 1) * per).min(n)).collect();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut steal_total = 0usize;
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursors = &cursors;
                let ends = &ends;
                let run = &run;
                s.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut steals = 0usize;
                    // Own range first. Relaxed claim: each cursor word
                    // is independently atomic, and results travel to
                    // the collector through the scope-join edge, not
                    // through cursor ordering — the model suite
                    // (tests/model.rs, morsel exactly-once) verifies
                    // this happens-before shape on every explored
                    // schedule.
                    loop {
                        let i = cursors[w].fetch_add(1, Ordering::Relaxed);
                        if i >= ends[w] {
                            break;
                        }
                        out.push((i, run(i)));
                    }
                    // Steal one morsel at a time from the most-loaded
                    // peer until everyone is drained.
                    loop {
                        let victim = (0..workers).filter(|&v| v != w).max_by_key(|&v| {
                            ends[v].saturating_sub(cursors[v].load(Ordering::Relaxed))
                        });
                        let Some(v) = victim else { break };
                        // Relaxed re-check: the fetch_add below is the
                        // claim; a stale read here only costs one wasted
                        // steal attempt, never a double-claimed morsel.
                        // The model checker explores stale-read
                        // interleavings explicitly and proves no morsel
                        // double-executes or drops.
                        if ends[v].saturating_sub(cursors[v].load(Ordering::Relaxed)) == 0 {
                            break;
                        }
                        // Relaxed claim: cursors are the sole shared words
                        // and fetch_add is atomic per cursor; results are
                        // published by the scope join, not by this write —
                        // the join edge is the model-verified
                        // happens-before that makes Relaxed sufficient.
                        let i = cursors[v].fetch_add(1, Ordering::Relaxed);
                        if i < ends[v] {
                            steals += 1;
                            out.push((i, run(i)));
                        }
                    }
                    (out, steals)
                })
            })
            .collect();
        for h in handles {
            let (part, steals) = h.join().expect("morsel worker");
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
    (
        results,
        SchedStats {
            morsels: n,
            steals: steal_total,
            merge_ns: 0,
        },
    )
}

// ---------------------------------------------------------------------
// Parallel plan operators: each fans one serial stage out over morsels
// and merges the partials deterministically.
// ---------------------------------------------------------------------

/// Parallel [`kernels::selection_scan`]: per-morsel selection words
/// stitched at their word offsets. An empty conjunction (a pure activity
/// copy) and single-morsel tables fall back to the serial kernel.
pub(crate) fn par_selection_scan(
    table: &Table,
    preds: &[ColPred],
    threads: usize,
    morsel_rows: usize,
) -> (Vec<u64>, TierStats, SchedStats) {
    let spans = table_morsels(table, morsel_rows);
    if preds.is_empty() || threads <= 1 || spans.len() <= 1 {
        let (sel, ts) = kernels::selection_scan(table, preds);
        return (sel, ts, single_morsel(&spans));
    }
    let (parts, mut sched) = run_morsels(spans.len(), threads, |i| {
        kernels::selection_scan_span(table, preds, &spans[i])
    });
    let t0 = Instant::now();
    let nwords = table.num_rows().div_ceil(WORD_BITS);
    let mut sel = vec![0u64; nwords];
    let mut stats = TierStats::default();
    let br = table.block_rows();
    for (span, (words, ts)) in spans.iter().zip(parts) {
        let w0 = span_first_word(span, br);
        sel[w0..w0 + words.len()].copy_from_slice(&words);
        stats.merge(ts);
    }
    sched.merge_ns = t0.elapsed().as_nanos() as u64;
    (sel, stats, sched)
}

/// Parallel [`kernels::selection_scan_ordered`]: the cost-ordered scan
/// fanned over morsels, per-span selection words stitched at their word
/// offsets and per-predicate attribution merged across spans. Falls back
/// to the serial ordered kernel for empty conjunctions, one thread, or
/// single-morsel tables.
pub(crate) fn par_selection_scan_ordered(
    table: &Table,
    preds: &[ColPred],
    order: &[usize],
    threads: usize,
    morsel_rows: usize,
) -> (Vec<u64>, TierStats, Vec<kernels::PredScanStats>, SchedStats) {
    let spans = table_morsels(table, morsel_rows);
    if preds.is_empty() || threads <= 1 || spans.len() <= 1 {
        let mut per_pred = vec![kernels::PredScanStats::default(); preds.len()];
        let (sel, ts) = kernels::selection_scan_ordered(table, preds, order, &mut per_pred);
        return (sel, ts, per_pred, single_morsel(&spans));
    }
    let (parts, mut sched) = run_morsels(spans.len(), threads, |i| {
        kernels::selection_scan_ordered_span(table, preds, order, &spans[i])
    });
    let t0 = Instant::now();
    let nwords = table.num_rows().div_ceil(WORD_BITS);
    let mut sel = vec![0u64; nwords];
    let mut stats = TierStats::default();
    let mut per_pred = vec![kernels::PredScanStats::default(); preds.len()];
    let br = table.block_rows();
    for (span, (words, ts, pp)) in spans.iter().zip(parts) {
        let w0 = span_first_word(span, br);
        sel[w0..w0 + words.len()].copy_from_slice(&words);
        stats.merge(ts);
        for (agg, part) in per_pred.iter_mut().zip(pp) {
            agg.merge(part);
        }
    }
    sched.merge_ns = t0.elapsed().as_nanos() as u64;
    (sel, stats, per_pred, sched)
}

/// Parallel [`group::grouped_fold`]: per-morsel [`GroupTable`]s (each
/// tracking the global first row of every key) merged by key and
/// re-sorted by first-seen row, reproducing the serial first-seen group
/// order exactly.
pub(crate) fn par_grouped_fold(
    table: &Table,
    sel: &[u64],
    key_col: usize,
    aggs: &[AggInput],
    threads: usize,
    morsel_rows: usize,
) -> (GroupTable, SchedStats) {
    let spans = table_morsels(table, morsel_rows);
    if threads <= 1 || spans.len() <= 1 {
        return (
            group::grouped_fold(table, sel, key_col, aggs),
            single_morsel(&spans),
        );
    }
    let (parts, mut sched) = run_morsels(spans.len(), threads, |i| {
        group::grouped_fold_span(table, sel, key_col, aggs, &spans[i])
    });
    let t0 = Instant::now();
    let mut merged = GroupTable::new(aggs.len());
    for part in &parts {
        merged.absorb(part);
    }
    merged.sort_by_first_row();
    sched.merge_ns = t0.elapsed().as_nanos() as u64;
    (merged, sched)
}

/// Parallel [`kernels::gather_column`]: per-morsel gathers concatenated
/// in morsel (= ascending row) order.
pub(crate) fn par_gather_column(
    table: &Table,
    sel: &[u64],
    col: usize,
    threads: usize,
    morsel_rows: usize,
) -> (Vec<Value>, SchedStats) {
    let spans = table_morsels(table, morsel_rows);
    if threads <= 1 || spans.len() <= 1 {
        let mut out = Vec::new();
        kernels::gather_column(table, sel, col, &mut out);
        return (out, single_morsel(&spans));
    }
    let (parts, mut sched) = run_morsels(spans.len(), threads, |i| {
        let mut out = Vec::new();
        kernels::gather_column_span(table, sel, col, &spans[i], &mut out);
        out
    });
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        out.extend(p);
    }
    sched.merge_ns = t0.elapsed().as_nanos() as u64;
    (out, sched)
}

/// Parallel [`kernels::aggregate_selection`]: per-morsel states merged
/// in morsel order (integer-exact, so the fold order cannot change the
/// result — merging in a fixed order keeps even the accounting
/// deterministic).
pub(crate) fn par_aggregate_selection(
    table: &Table,
    sel: &[u64],
    col: usize,
    threads: usize,
    morsel_rows: usize,
) -> (AggState, SchedStats) {
    let spans = table_morsels(table, morsel_rows);
    if threads <= 1 || spans.len() <= 1 {
        return (
            kernels::aggregate_selection(table, sel, col),
            single_morsel(&spans),
        );
    }
    let (parts, mut sched) = run_morsels(spans.len(), threads, |i| {
        kernels::aggregate_selection_span(table, sel, col, &spans[i])
    });
    let t0 = Instant::now();
    let mut state = AggState::new();
    for p in &parts {
        state.merge(p);
    }
    sched.merge_ns = t0.elapsed().as_nanos() as u64;
    (state, sched)
}

/// Parallel join build: per-morsel `key → ascending rows` maps merged in
/// morsel order, so each key's row list is byte-identical to the serial
/// build's.
/// A join build side: `key → ascending build rows` plus the observed
/// key range (`None` when no row survived the selection).
pub(crate) type BuildSide = (HashMap<Value, Vec<RowId>>, Option<(Value, Value)>);

pub(crate) fn par_build_rows_map(
    table: &Table,
    col: usize,
    words: &[u64],
    threads: usize,
    morsel_rows: usize,
) -> (BuildSide, SchedStats) {
    let spans = table_morsels(table, morsel_rows);
    if threads <= 1 || spans.len() <= 1 {
        return (
            crate::join::build_rows_map_with(table, col, words),
            single_morsel(&spans),
        );
    }
    let (parts, mut sched) = run_morsels(spans.len(), threads, |i| {
        crate::join::build_rows_map_span(table, col, words, &spans[i])
    });
    let t0 = Instant::now();
    let mut map: HashMap<Value, Vec<RowId>> = HashMap::new();
    let mut range: Option<(Value, Value)> = None;
    for (part, part_range) in parts {
        if let Some((lo, hi)) = part_range {
            range = Some(match range {
                Some((a, b)) => (a.min(lo), b.max(hi)),
                None => (lo, hi),
            });
        }
        for (k, rows) in part {
            map.entry(k).or_default().extend(rows);
        }
    }
    sched.merge_ns = t0.elapsed().as_nanos() as u64;
    ((map, range), sched)
}

/// Parallel tiered probe: frozen morsels probe in their codec's domain
/// via [`batch::probe_tiered_blocks_with`] (block-meta pruned against
/// the build key range, same accounting as the serial probe), hot
/// morsels probe the raw slice; pairs concatenate in morsel order —
/// byte-identical to [`batch::probe_tiered`].
pub(crate) fn par_probe(
    table: &Table,
    col: usize,
    sel: &[u64],
    build: &HashMap<Value, Vec<RowId>>,
    key_range: Option<(Value, Value)>,
    threads: usize,
    morsel_rows: usize,
) -> (Vec<(RowId, RowId)>, ProbeStats, SchedStats) {
    let tier = table.col_tier(col);
    let spans = table_morsels(table, morsel_rows);
    if threads <= 1 || spans.len() <= 1 {
        let mut pairs = Vec::new();
        let probe = batch::probe_tiered(tier, sel, build, key_range, &mut pairs);
        return (pairs, probe, single_morsel(&spans));
    }
    let hot = tier.hot_values();
    let hot_start = tier.hot_start();
    let (parts, mut sched) = run_morsels(spans.len(), threads, |i| {
        let mut out: Vec<(RowId, RowId)> = Vec::new();
        let mut stats = ProbeStats::default();
        match spans[i] {
            Span::Blocks { first, last } => {
                stats = batch::probe_tiered_blocks_with(
                    tier,
                    sel,
                    first,
                    last,
                    build,
                    key_range,
                    |ls, row| out.extend(ls.iter().map(|&l| (l, RowId::from(row)))),
                );
            }
            Span::Rows { lo, hi } => {
                for wi in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                    let base = wi * WORD_BITS;
                    let mut active = batch::tail_word(sel, wi, hi - base);
                    while active != 0 {
                        let bit = active.trailing_zeros() as usize;
                        active &= active - 1;
                        let row = base + bit;
                        if let Some(ls) = build.get(&hot[row - hot_start]) {
                            out.extend(ls.iter().map(|&l| (l, RowId::from(row))));
                        }
                    }
                }
            }
        }
        (out, stats)
    });
    let t0 = Instant::now();
    let mut pairs = Vec::with_capacity(parts.iter().map(|(p, _)| p.len()).sum());
    let mut probe = ProbeStats::default();
    for (p, s) in parts {
        pairs.extend(p);
        probe.merge(s);
    }
    sched.merge_ns = t0.elapsed().as_nanos() as u64;
    (pairs, probe, sched)
}

/// Parallel stable sort: contiguous chunks sort on scoped threads, then
/// a leftmost-preference k-way merge stitches them — exactly what a
/// serial stable `sort_by` produces. Returns merge time in nanoseconds.
pub(crate) fn par_sort_by<T, C>(items: &mut Vec<T>, threads: usize, cmp: C) -> u64
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

/// Accounting for a stage that fell back to the serial kernel: the
/// scheduler never engaged, so it executed zero morsels.
fn single_morsel(_spans: &[Span]) -> SchedStats {
    SchedStats::default()
}

/// The first selection word a span covers.
fn span_first_word(span: &Span, block_rows: usize) -> usize {
    match *span {
        Span::Blocks { first, .. } => first * block_rows / WORD_BITS,
        Span::Rows { lo, .. } => lo / WORD_BITS,
    }
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
        let spans = table_morsels(&t, 256);
        let mut next = 0usize;
        for s in &spans {
            let (lo, hi) = match *s {
                Span::Blocks { first, last } => (first * 128, last * 128),
                Span::Rows { lo, hi } => (lo, hi),
            };
            assert_eq!(lo, next, "spans tile without gaps");
            assert!(hi > lo);
            assert_eq!(lo % WORD_BITS, 0, "word-aligned starts");
            next = hi;
        }
        assert_eq!(next, t.num_rows());
    }

    #[test]
    fn scheduler_runs_every_morsel_once_in_order() {
        for (n, threads) in [(1usize, 8usize), (7, 2), (64, 7), (100, 8), (5, 64)] {
            let (results, sched) = run_morsels(n, threads, |i| i * 3);
            assert_eq!(results, (0..n).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(sched.morsels, n);
        }
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
        let (want, want_ts) = kernels::selection_scan(&t, &preds);
        for threads in [1, 2, 7, 8] {
            let (got, ts, sched) = par_selection_scan(&t, &preds, threads, 256);
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(ts, want_ts, "accounting matches serial");
            if threads > 1 {
                assert!(sched.morsels > 1);
            }
        }
    }
}
