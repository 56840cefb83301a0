//! Block-statistics cardinality estimation: the *estimate* step of the
//! cost-based planner's estimate → order → execute → feedback loop (the
//! diagram lives in [`crate::cost`]).
//!
//! The storage layer already pays for per-block statistics — every
//! [`FrozenBlock`](amnesia_columnar::FrozenBlock) caches a
//! [`BlockMeta`](amnesia_columnar::BlockMeta) (min/max over active rows
//! plus the active count) to drive zone-map pruning — and each column
//! folds them, with the active rows of its hot tail, into one
//! [`ColumnSummary`]: a 64-bin pseudo-histogram
//! (each block's active mass spread across its `[min, max]`, hot values
//! added directly, stride-sampled past a cap with the mass conserved),
//! the active rows per codec, and the sortedness hint. This module only
//! *reads* it ([`Table::col_summary`]), so the estimate is free: a
//! statement costs O(predicates × bins) to plan whatever the table holds.
//!
//! A summary is rebuilt by the first statement after a burst of
//! mutations and by none after that. What empties the column's cell:
//! `freeze_upto`, a first-time forget of any row (hot rows included),
//! `drop_forgotten_blocks` and `recompress_frozen` when they change a
//! block. An append empties nothing — the summary records the
//! hot length it was built at and is stale once the tail has grown. A
//! rebuild walks every block meta and reads the hot values at most
//! twice; it touches no compressed payload.
//!
//! On top of the summary sit the two numbers the executor orders
//! conjuncts by:
//!
//! * **selectivity** — estimated fraction of active rows a
//!   [`ColPred`] keeps ([`ColumnStats::selectivity`]), and
//! * **evaluation cost** — the active-row-weighted blend of each
//!   block codec's [`CostModel::pred_eval_cost`]
//!   ([`ColumnStats::eval_cost`]): an RLE column is nearly free to
//!   filter, a delta column is not. The summary holds the weights, the
//!   caller's model the prices, so one summary serves every model.
//!
//! [`order_predicates`] ranks a conjunction by `selectivity ×
//! eval_cost`, ascending (stable, so ties keep the query's syntactic
//! order), and [`q_error`] scores the estimates against actual
//! cardinalities after execution — the feedback half of the loop, which
//! the bench suite gates via `AMNESIA_QERROR_GATE`.

use std::sync::Arc;

use amnesia_columnar::compress::Encoding;
use amnesia_columnar::{ColumnSummary, Table};

use crate::cost::CostModel;
use crate::physical::ColPred;

/// One column's [`ColumnSummary`] priced by a [`CostModel`]: the view
/// the planner estimates and ranks through.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    summary: Arc<ColumnSummary>,
    eval_cost: f64,
}

impl ColumnStats {
    /// Statistics of column `col` of `table`: the summary the column
    /// holds (built now if a mutation made the held one stale) and the
    /// per-row evaluation cost, the active-mass-weighted blend of
    /// [`CostModel::pred_eval_cost`] across the column's block codecs and
    /// its plain hot tail.
    pub fn of(table: &Table, col: usize, model: &CostModel) -> Self {
        let summary = table.col_summary(col);
        let total = summary.active_rows() as f64;
        let eval_cost = if total == 0.0 {
            model.pred_eval_cost(None)
        } else {
            let priced = |enc| summary.active_rows_in(enc) as f64 * model.pred_eval_cost(enc);
            let frozen: f64 = Encoding::ALL.iter().map(|&e| priced(Some(e))).sum();
            (frozen + priced(None)) / total
        };
        Self { summary, eval_cost }
    }

    /// Estimated active rows in the column (frozen active + hot tail).
    pub fn total_rows(&self) -> f64 {
        self.summary.active_rows() as f64
    }

    /// Blended per-row predicate evaluation cost in
    /// [`CostModel::row_scan`] units.
    pub fn eval_cost(&self) -> f64 {
        self.eval_cost
    }

    /// Estimated number of rows matching `p`, clamped to `[0, total]`.
    pub fn estimate_pred(&self, p: &ColPred) -> f64 {
        let Some(hist) = self.summary.histogram() else {
            return 0.0;
        };
        let mass = if p.is_empty_range() {
            0.0
        } else {
            hist.estimate_range(p.lo, p.hi)
        };
        let total = self.total_rows();
        let est = if p.negated { total - mass } else { mass };
        est.clamp(0.0, total)
    }

    /// Estimated fraction of active rows `p` keeps, in `[0, 1]`.
    pub fn selectivity(&self, p: &ColPred) -> f64 {
        let total = self.total_rows();
        if total == 0.0 {
            return 0.0;
        }
        self.estimate_pred(p) / total
    }

    /// The ordering key for conjunct ranking: estimated selectivity ×
    /// per-row evaluation cost. Low rank = run first (cheap predicates
    /// that kill many rows), high rank = run last over the sparse
    /// residual.
    pub fn rank(&self, p: &ColPred) -> f64 {
        self.selectivity(p) * self.eval_cost
    }
}

/// The costed ordering of one scan's predicate conjunction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredOrder {
    /// Execution order: indices into the syntactic predicate slice,
    /// cheapest-most-selective first. Stable — equal ranks keep the
    /// query's written order.
    pub order: Vec<usize>,
    /// Per-predicate estimated matching rows, indexed *syntactically*
    /// (parallel to the input slice, not to `order`).
    pub est_rows: Vec<f64>,
    /// Estimated rows surviving the whole conjunction, under the
    /// independence assumption (product of selectivities × active rows).
    pub est_out_rows: f64,
}

/// Rank a scan's predicate conjunction by estimated `selectivity ×
/// eval_cost` using the summary each referenced column holds, read once
/// per column and shared across that column's predicates.
pub fn order_predicates(table: &Table, preds: &[ColPred], model: &CostModel) -> PredOrder {
    if preds.is_empty() {
        return PredOrder::default();
    }
    let mut cols: Vec<(usize, ColumnStats)> = Vec::new();
    let stats_for = |col: usize, cols: &mut Vec<(usize, ColumnStats)>| -> usize {
        if let Some(i) = cols.iter().position(|(c, _)| *c == col) {
            return i;
        }
        cols.push((col, ColumnStats::of(table, col, model)));
        cols.len() - 1
    };
    let mut ranked: Vec<(usize, f64)> = Vec::with_capacity(preds.len());
    let mut est_rows = Vec::with_capacity(preds.len());
    let mut total = 0.0f64;
    let mut sel_product = 1.0f64;
    for (i, p) in preds.iter().enumerate() {
        let s = stats_for(p.col, &mut cols);
        let stats = &cols[s].1;
        total = total.max(stats.total_rows());
        ranked.push((i, stats.rank(p)));
        est_rows.push(stats.estimate_pred(p));
        sel_product *= stats.selectivity(p);
    }
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    PredOrder {
        order: ranked.into_iter().map(|(i, _)| i).collect(),
        est_rows,
        est_out_rows: total * sel_product,
    }
}

/// Estimated rows a filtered scan of `table` produces: active rows ×
/// the product of per-predicate selectivities (independence assumption).
/// No predicates estimates the full active count. This is what the join
/// planner compares to pick the build side.
pub fn estimate_scan_rows(table: &Table, preds: &[ColPred], model: &CostModel) -> f64 {
    if preds.is_empty() {
        return table.active_rows() as f64;
    }
    order_predicates(table, preds, model).est_out_rows
}

/// The symmetric q-error of an estimate: `max(est, act) / min(est, act)`
/// with both sides floored at one row, so a perfect estimate scores 1.0
/// and over- and under-estimation are penalized alike. The standard
/// cardinality-estimation quality metric, and the number
/// `AMNESIA_QERROR_GATE` bounds in the bench suite.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let e = est.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::{Schema, Value};

    fn frozen_table(values: &[Value], block_rows: usize, enc: Option<Encoding>) -> Table {
        let mut t = Table::with_block_rows(Schema::single("a"), block_rows);
        if enc.is_some() {
            t.pin_encoding(0, enc);
        }
        t.insert_batch(values, 0).unwrap();
        let frozen_rows = (values.len() / block_rows) * block_rows;
        t.freeze_upto(frozen_rows);
        t
    }

    #[test]
    fn uniform_column_estimates_are_tight() {
        // 0..8192 shuffled-ish uniform: every block spans most of the
        // domain, so the histogram sees overlapping wide blocks.
        let values: Vec<Value> = (0..8192)
            .map(|i| (i * 2654435761u64 % 8192) as Value)
            .collect();
        let t = frozen_table(&values, 1024, None);
        let stats = ColumnStats::of(&t, 0, &CostModel::default());
        assert_eq!(stats.total_rows(), 8192.0);
        // A ~25% range predicate.
        let p = ColPred::range(0, 0, 2047);
        let actual = values.iter().filter(|&&v| v <= 2047).count() as f64;
        assert!(
            q_error(stats.estimate_pred(&p), actual) < 2.0,
            "est {} vs actual {actual}",
            stats.estimate_pred(&p)
        );
    }

    #[test]
    fn sorted_column_estimates_are_nearly_exact() {
        let values: Vec<Value> = (0..4096).collect();
        let t = frozen_table(&values, 1024, None);
        let stats = ColumnStats::of(&t, 0, &CostModel::default());
        let p = ColPred::range(0, 100, 299);
        let est = stats.estimate_pred(&p);
        assert!(q_error(est, 200.0) < 1.5, "est {est} vs actual 200");
    }

    #[test]
    fn negated_predicate_complements_the_estimate() {
        let values: Vec<Value> = (0..4096).collect();
        let t = frozen_table(&values, 1024, None);
        let stats = ColumnStats::of(&t, 0, &CostModel::default());
        let inside = ColPred::range(0, 0, 1023);
        let mut outside = inside.clone();
        outside.negated = true;
        let sum = stats.estimate_pred(&inside) + stats.estimate_pred(&outside);
        assert!(
            (sum - 4096.0).abs() < 1.0,
            "complement masses sum to total, got {sum}"
        );
    }

    #[test]
    fn rle_column_ranks_cheaper_than_plain() {
        let runs: Vec<Value> = (0..4096).map(|i| i / 512).collect();
        let rle = frozen_table(&runs, 1024, Some(Encoding::Rle));
        let plain = frozen_table(&runs, 1024, Some(Encoding::Plain));
        let m = CostModel::default();
        let s_rle = ColumnStats::of(&rle, 0, &m);
        let s_plain = ColumnStats::of(&plain, 0, &m);
        assert!(s_rle.eval_cost() < s_plain.eval_cost());
        let p = ColPred::range(0, 0, 3);
        assert!(s_rle.rank(&p) < s_plain.rank(&p));
    }

    #[test]
    fn order_puts_selective_cheap_predicates_first() {
        // col 0: wide match (everything), col 1: selective match.
        let mut t = Table::with_block_rows(Schema::new(vec!["w", "s"]), 1024);
        for i in 0..4096i64 {
            t.insert(&[i % 100, i], 0).unwrap();
        }
        t.freeze_upto(4096);
        let preds = vec![ColPred::range(0, 0, 99), ColPred::range(1, 0, 40)];
        let po = order_predicates(&t, &preds, &CostModel::default());
        assert_eq!(po.order, vec![1, 0], "selective predicate runs first");
        assert!(po.est_rows[0] > po.est_rows[1]);
        assert!(po.est_out_rows <= po.est_rows[1] * 1.05);
    }

    #[test]
    fn empty_column_and_empty_preds_are_safe() {
        let t = Table::with_block_rows(Schema::single("a"), 1024);
        let stats = ColumnStats::of(&t, 0, &CostModel::default());
        assert_eq!(stats.total_rows(), 0.0);
        assert_eq!(stats.estimate_pred(&ColPred::range(0, 0, 10)), 0.0);
        let po = order_predicates(&t, &[], &CostModel::default());
        assert!(po.order.is_empty());
        assert_eq!(estimate_scan_rows(&t, &[], &CostModel::default()), 0.0);
    }

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(100.0, 100.0), 1.0);
        assert_eq!(q_error(200.0, 100.0), q_error(100.0, 200.0));
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert!(q_error(0.0, 50.0) >= 50.0);
    }
}
