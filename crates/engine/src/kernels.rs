//! The selection-vector operators: the physical plan's multi-predicate
//! scan, gather and aggregate stages.
//!
//! These are the tight loops underneath every plan: filter a table by a
//! conjunction of predicates intersected with the activity bitmap, gather
//! the selected values, or fold an aggregate over the selection. They are
//! built on the word primitives of [`crate::batch`] (a fully hot table is
//! a tiered column with zero frozen blocks — there is no second path).
//! Each exists once, as a kernel over one span of the table, and its
//! whole-table function is that kernel over the uncut table — the same
//! code a morsel pool of any width runs. The row-at-a-time model the
//! equivalence suites hold every operator to is the dev-only
//! `amnesia-model` crate.

use amnesia_columnar::compress::BlockAgg;
use amnesia_columnar::{RowId, Table, Value};
use amnesia_util::WORD_BITS;

use crate::batch;
use crate::morsel::{whole_table, Span};
use crate::physical::ColPred;

pub use crate::batch::{AggState, TierStats};

// ---------------------------------------------------------------------
// Selection-vector operators: the physical plan's scan, gather and
// aggregate stages. A *selection* is one 64-bit word per activity word
// (`sel = activity & pred₀ & pred₁ & …`), the currency every operator
// below exchanges — produced once by the selection scan, consumed by the
// join build/probe, the projection gather, the fused aggregate and the
// grouped hash aggregation of [`crate::group`].
//
// Each operator is one kernel over one [`Span`] of the table (a run of
// frozen blocks or a range of hot rows); [`crate::morsel::Pool`] decides
// how the table is cut into spans and folds the partials. The
// whole-table functions here are that kernel over the two spans of the
// uncut table.
// ---------------------------------------------------------------------

/// Per-predicate accounting of the selection scan: how the work split
/// across the conjunction. Indexed *syntactically* (parallel to the
/// plan's predicate list), whatever execution order ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredScanStats {
    /// Full blocks, frozen or hot, whose cached meta this predicate
    /// killed. Pruning is attributed to the *first* predicate (in
    /// execution order) whose meta check failed, so the sum across
    /// predicates equals the scan's total `blocks_pruned`.
    pub blocks_pruned: usize,
    /// Frozen blocks where this predicate ran as a *residual* — refining
    /// the survivors of earlier conjuncts via
    /// `batch::refine_block_masks` instead of filtering the whole
    /// block.
    pub blocks_refined: usize,
}

impl PredScanStats {
    /// Fold in another span's accounting.
    pub fn merge(&mut self, other: PredScanStats) {
        self.blocks_pruned += other.blocks_pruned;
        self.blocks_refined += other.blocks_refined;
    }
}

/// Evaluate a conjunction of pushed-down predicates over `table` into a
/// selection-mask vector, in an explicit execution `order` (indices into
/// `preds`: the identity for the order as written, or what
/// [`crate::stats::order_predicates`] chose), tier-aware:
///
/// * frozen blocks meta-check every predicate in execution order (a
///   block is pruned when *any* predicate's cached
///   [`BlockMeta`](amnesia_columnar::BlockMeta) proves it cannot match,
///   attributed to the first failure); in a survivor the first predicate
///   filters densely via the codecs' fused `filter_range_masks`, and each
///   *residual* predicate refines only the surviving selection words
///   (`batch::refine_block_masks` is density-adaptive: sparse survivors
///   test individual rows in codec space, dense ones take the block
///   filter) — a block whose selection empties skips its remaining
///   predicates outright, and no block is ever decoded,
/// * full hot blocks take the same meta check, attributed the same way;
///   in a survivor, and in the open last block, hot words AND each
///   predicate's [`batch`] mask into the activity word in execution
///   order (early exit once a word empties).
///
/// AND commutes, so the returned selection is the same for any `order`;
/// only the work (and its per-predicate attribution, accumulated into
/// `per_pred`, which must be `preds.len()` long) differs.
///
/// `rows_scanned` counts the active rows the selection examined (all of
/// them when `preds` is empty — the downstream operators will read every
/// survivor); meta-pruned blocks' rows are excluded, which is the work
/// the metadata saved.
pub fn selection_scan_ordered(
    table: &Table,
    preds: &[ColPred],
    order: &[usize],
    per_pred: &mut [PredScanStats],
) -> (Vec<u64>, TierStats) {
    let mut sel = Vec::with_capacity(table.num_rows().div_ceil(WORD_BITS));
    let mut stats = TierStats::default();
    for span in &whole_table(table) {
        selection_scan_span(table, preds, order, span, &mut sel, &mut stats, per_pred);
    }
    (sel, stats)
}

/// The selection-scan kernel: [`selection_scan_ordered`] restricted to
/// `span`. Appends the span's selection words to `sel` (which holds the
/// words of the spans before it, if any) and adds its share of the tier
/// accounting and per-predicate attribution to `stats` / `per_pred`.
pub(crate) fn selection_scan_span(
    table: &Table,
    preds: &[ColPred],
    order: &[usize],
    span: &Span,
    sel: &mut Vec<u64>,
    stats: &mut TierStats,
    per_pred: &mut [PredScanStats],
) {
    debug_assert_eq!(order.len(), preds.len());
    debug_assert_eq!(per_pred.len(), preds.len());
    let words = table.activity_words();
    let span_words = span.words(table.block_rows());
    if preds.is_empty() {
        // The empty conjunction selects the activity map itself.
        let w0 = sel.len();
        sel.extend(span_words.map(|wi| words.get(wi).copied().unwrap_or(0)));
        stats.rows_scanned += selection_count(&sel[w0..]);
        return;
    }
    let imp = batch::mask_impl();
    let w0 = sel.len();
    sel.resize(w0 + span_words.len(), 0);
    let sel = &mut sel[w0..];
    match *span {
        Span::Blocks { first, last } => {
            let block_nwords = table.block_rows() / WORD_BITS;
            let mut mask_buf = Vec::new();
            'blocks: for b in first..last {
                let active_in_block = table.col_tier(0).meta(b).active;
                if active_in_block == 0 {
                    stats.blocks_pruned += 1;
                    continue;
                }
                for &i in order {
                    if !preds[i].block_may_match(table.col_tier(preds[i].col).meta(b)) {
                        stats.blocks_pruned += 1;
                        per_pred[i].blocks_pruned += 1;
                        continue 'blocks;
                    }
                }
                stats.rows_scanned += active_in_block;
                let local_word = (b - first) * block_nwords;
                scan_block_ordered(
                    table,
                    preds,
                    order,
                    per_pred,
                    b,
                    &mut sel[local_word..local_word + block_nwords],
                    batch::block_words(table.col_tier(0), words, b),
                    &mut mask_buf,
                );
            }
        }
        Span::Rows { lo, hi } => {
            let slices: Vec<(&[Value], usize)> =
                preds.iter().map(|p| hot_slice(table, p.col)).collect();
            'hot: for blk in table.col_tier(0).hot_blocks(lo, hi) {
                if let Some(meta) = blk.meta {
                    // A block cut across spans is counted by the span
                    // holding its first row.
                    let counted = usize::from(blk.starts);
                    if meta.active == 0 {
                        stats.blocks_pruned += counted;
                        continue;
                    }
                    for &i in order {
                        let tier = table.col_tier(preds[i].col);
                        if !preds[i].block_may_match(tier.meta(blk.block)) {
                            stats.blocks_pruned += counted;
                            per_pred[i].blocks_pruned += counted;
                            continue 'hot;
                        }
                    }
                }
                let hi = blk.rows.end;
                for wi in blk.rows.start / WORD_BITS..hi.div_ceil(WORD_BITS) {
                    let base = wi * WORD_BITS;
                    let chunk_len = (hi - base).min(WORD_BITS);
                    let active = batch::tail_word(words, wi, chunk_len);
                    if active == 0 {
                        continue;
                    }
                    stats.rows_scanned += active.count_ones() as usize;
                    let mut s = active;
                    for &i in order {
                        let (slice, start) = slices[i];
                        let off = base - start;
                        s = batch::conj_word(&slice[off..off + chunk_len], s, &preds[i], imp);
                        if s == 0 {
                            break;
                        }
                    }
                    sel[wi - span_words.start] = s;
                }
            }
        }
    }
}

/// One surviving frozen block of the selection scan: seed the block's
/// selection words from activity, filter densely with the first
/// predicate in execution order, then refine residuals — bailing out of
/// the block as soon as the selection empties. `sel` and `act` are the
/// block's word slices.
// The arguments are the per-block slices of the caller's scan state;
// bundling them into a struct would rebuild it for every frozen block
// on the hot path without making any call site clearer.
#[allow(clippy::too_many_arguments)]
fn scan_block_ordered(
    table: &Table,
    preds: &[ColPred],
    order: &[usize],
    per_pred: &mut [PredScanStats],
    b: usize,
    sel: &mut [u64],
    act: &[u64],
    mask_buf: &mut Vec<u64>,
) {
    for (k, s) in sel.iter_mut().enumerate() {
        *s = act.get(k).copied().unwrap_or(0);
    }
    for (rank, &i) in order.iter().enumerate() {
        let p = &preds[i];
        let tier = table.col_tier(p.col);
        if sel.iter().all(|&w| w == 0) {
            return; // earlier conjuncts emptied the block
        }
        let f = tier.frozen(b).expect("frozen block");
        if rank == 0 {
            batch::conj_block_masks(f.encoded(), p, mask_buf);
            for (k, s) in sel.iter_mut().enumerate() {
                *s &= mask_buf.get(k).copied().unwrap_or(0);
            }
        } else {
            per_pred[i].blocks_refined += 1;
            batch::refine_block_masks(f.encoded(), p, sel, mask_buf);
        }
    }
}

/// The complete-scan counterpart of a one-predicate selection scan:
/// *every* physical row passing `pred`, forgotten included (paper §1's
/// "a complete scan will fetch all data"). No meta can prune it — block
/// meta describes active rows only; dropped blocks surrendered their
/// values and select nothing.
pub fn selection_scan_all(table: &Table, pred: &ColPred) -> Vec<u64> {
    let tier = table.col_tier(pred.col);
    let mut sel = vec![0u64; table.num_rows().div_ceil(WORD_BITS)];
    let block_nwords = tier.block_rows() / WORD_BITS;
    let mut mask_buf = Vec::new();
    for b in 0..tier.frozen_blocks() {
        let f = tier.frozen(b).expect("frozen block");
        if f.is_dropped() {
            continue;
        }
        batch::conj_block_masks(f.encoded(), pred, &mut mask_buf);
        sel[b * block_nwords..(b + 1) * block_nwords].copy_from_slice(&mask_buf[..block_nwords]);
    }
    let imp = batch::mask_impl();
    let first_word = tier.hot_start() / WORD_BITS;
    for (j, chunk) in tier.hot_values().chunks(WORD_BITS).enumerate() {
        let present = batch::tail_word(&[!0], 0, chunk.len());
        sel[first_word + j] = batch::conj_word(chunk, present, pred, imp);
    }
    sel
}

/// Materialize a selection as ascending [`RowId`]s.
pub fn selection_rows(sel: &[u64]) -> Vec<RowId> {
    let mut out = Vec::new();
    for (wi, &w) in sel.iter().enumerate() {
        batch::emit_selection(w, wi * WORD_BITS, &mut out);
    }
    out
}

/// Selected-row count: one popcount per word.
pub fn selection_count(sel: &[u64]) -> usize {
    sel.iter().map(|w| w.count_ones() as usize).sum()
}

/// Hot-side value slice and its first absolute row (zero for a fully
/// hot table).
fn hot_slice(table: &Table, col: usize) -> (&[Value], usize) {
    let tier = table.col_tier(col);
    (tier.hot_values(), tier.hot_start())
}

/// Gather the values of `col` at the selected rows, in ascending row
/// order. Frozen blocks stream through the codecs'
/// `for_each_active` under the block's selection words — no decode, no
/// dense materialization; the hot tail reads the raw slice.
pub fn gather_column(table: &Table, sel: &[u64], col: usize, out: &mut Vec<Value>) {
    for span in &whole_table(table) {
        gather_column_span(table, sel, col, span, out);
    }
}

/// The gather kernel: [`gather_column`] restricted to `span`, appending
/// to `out` in ascending row order. `sel` is the full-table selection.
pub(crate) fn gather_column_span(
    table: &Table,
    sel: &[u64],
    col: usize,
    span: &Span,
    out: &mut Vec<Value>,
) {
    match *span {
        Span::Blocks { first, last } => {
            let tier = table.col_tier(col);
            for b in first..last {
                let bw = batch::block_words(tier, sel, b);
                if bw.iter().all(|&w| w == 0) {
                    continue;
                }
                let f = tier.frozen(b).expect("frozen block");
                f.encoded().for_each_active(bw, |_, v| out.push(v));
            }
        }
        Span::Rows { lo, hi } => {
            let (slice, start) = hot_slice(table, col);
            for wi in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let mut w = batch::tail_word(sel, wi, (hi - base).min(WORD_BITS));
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    out.push(slice[base - start + bit]);
                }
            }
        }
    }
}

/// Fused aggregate of `col` over an externally-computed selection:
/// frozen blocks fold in run/code/offset space via the codecs'
/// `fold_range_masked` with the selection words standing in for the
/// activity words (no decode), the hot tail folds the raw slice.
pub fn aggregate_selection(table: &Table, sel: &[u64], col: usize) -> AggState {
    let mut state = AggState::new();
    for span in &whole_table(table) {
        aggregate_selection_span(table, sel, col, span, &mut state);
    }
    state
}

/// The fused-aggregate kernel: [`aggregate_selection`] restricted to
/// `span`, folded into `state`. States merge exactly (integer count/sum,
/// min/max), so per-span states folded in any order reproduce the
/// whole-table fold.
pub(crate) fn aggregate_selection_span(
    table: &Table,
    sel: &[u64],
    col: usize,
    span: &Span,
    state: &mut AggState,
) {
    match *span {
        Span::Blocks { first, last } => {
            let tier = table.col_tier(col);
            for b in first..last {
                let bw = batch::block_words(tier, sel, b);
                if bw.iter().all(|&w| w == 0) {
                    continue;
                }
                let f = tier.frozen(b).expect("frozen block");
                let mut agg = BlockAgg::new();
                f.encoded().fold_range_masked(None, bw, &mut agg);
                if agg.count > 0 {
                    state.push_block(agg.count, agg.sum, agg.min, agg.max);
                }
            }
        }
        Span::Rows { lo, hi } => {
            let (slice, start) = hot_slice(table, col);
            for wi in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let chunk_len = (hi - base).min(WORD_BITS);
                let w = batch::tail_word(sel, wi, chunk_len);
                if w != 0 {
                    let off = base - start;
                    batch::fold_selection(state, &slice[off..off + chunk_len], w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::Schema;
    use amnesia_workload::query::{AggKind, RangePredicate as P};

    fn table() -> Table {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[5, 15, 25, 35, 45, 55], 0).unwrap();
        t.forget(RowId(2), 1).unwrap(); // 25 forgotten
        t
    }

    fn scan(t: &Table, pred: P) -> Vec<RowId> {
        let mut out = Vec::new();
        batch::scan_tiered_active_into(t.col_tier(0), t.activity_words(), pred, &mut out);
        out
    }

    fn aggregate(t: &Table, pred: Option<P>) -> (AggState, TierStats) {
        batch::aggregate_tiered_active(t.col_tier(0), t.activity_words(), pred)
    }

    #[test]
    fn active_scan_skips_forgotten() {
        let t = table();
        assert_eq!(scan(&t, P::new(10, 40)), vec![RowId(1), RowId(3)]); // 15, 35
        let (count, _) =
            batch::count_tiered_active(t.col_tier(0), t.activity_words(), P::new(10, 40));
        assert_eq!(count, 2);
    }

    #[test]
    fn full_scan_sees_forgotten() {
        let t = table();
        let sel = selection_scan_all(&t, &ColPred::from_range(0, P::new(10, 40)));
        assert_eq!(selection_rows(&sel), vec![RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn aggregates_respect_activity() {
        let t = table();
        // Active values: 5, 15, 35, 45, 55 — sum 155, avg 31.
        let (state, stats) = aggregate(&t, None);
        assert_eq!(stats.rows_scanned, 5);
        assert_eq!(state.finalize(AggKind::Avg), Some(31.0));
        assert_eq!(state.finalize(AggKind::Sum), Some(155.0));
        assert_eq!(state.finalize(AggKind::Min), Some(5.0));
        assert_eq!(state.finalize(AggKind::Max), Some(55.0));
        assert_eq!(state.finalize(AggKind::Count), Some(5.0));
    }

    #[test]
    fn aggregate_with_predicate() {
        let t = table();
        let avg = aggregate(&t, Some(P::new(10, 50))).0.finalize(AggKind::Avg);
        // matching active values: 15, 35, 45 → avg 31.666…
        assert!((avg.unwrap() - 95.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_selection_semantics() {
        let t = table();
        let (state, _) = aggregate(&t, Some(P::new(1000, 2000)));
        assert_eq!(state.finalize(AggKind::Avg), None, "AVG of empty is NULL");
        assert_eq!(
            state.finalize(AggKind::Count),
            Some(0.0),
            "COUNT of empty is 0"
        );
    }

    #[test]
    fn one_pass_state_serves_every_kind() {
        let t = table();
        let (state, stats) = aggregate(&t, None);
        assert_eq!(stats.rows_scanned, 5);
        assert_eq!(state.count(), 5);
        assert_eq!(state.finalize(AggKind::Sum), Some(155.0));
        assert_eq!(state.finalize(AggKind::Avg), Some(31.0));
        assert_eq!(state.finalize(AggKind::Min), Some(5.0));
        assert_eq!(state.finalize(AggKind::Max), Some(55.0));
    }

    #[test]
    fn agg_state_extremes() {
        let mut s = AggState::new();
        s.push(i64::MAX);
        s.push(i64::MAX);
        // i128 accumulator: no overflow.
        assert_eq!(s.finalize(AggKind::Sum), Some(2.0 * i64::MAX as f64));
        assert_eq!(s.finalize(AggKind::Avg), Some(i64::MAX as f64));
    }
}
