//! Abstract cost model: the pricing side of the cost-based planner.
//!
//! The simulator is "mostly interested in trends rather than speed"
//! (paper §2.1), so costs are abstract units rather than microseconds:
//! what matters is the *relative* price of touching a hot row, or of
//! evaluating one predicate against one row *in a codec's own domain*.
//!
//! The planner runs an estimate → order → execute → feedback loop with
//! this module pricing the middle step. Only the top box depends on what
//! the table holds, and it runs once per burst of mutations, not once per
//! statement: each column keeps its summary until a freeze, forget, drop
//! or recompression empties the cell, or an append outgrows it.
//!
//! ```text
//!   BlockMeta (min/max/active per frozen block) + active hot rows
//!                          │ first statement after a mutation
//!        ┌─────────────────▼──────────────────┐
//!        │ ColumnSummary, held by the column: │  summarize
//!        │ histogram, active rows per codec,  │
//!        │ sortedness hint                    │
//!        └─────────────────┬──────────────────┘
//!                          │ every statement: O(predicates × bins)
//!        ┌─────────────────▼──────────────────┐
//!        │ engine::stats — selectivity(pred), │  estimate
//!        │ codec weights × this model's price │
//!        └─────────────────┬──────────────────┘
//!                          │ rank = selectivity × pred_eval_cost
//!        ┌─────────────────▼──────────────────┐
//!        │ Executor::execute_plan — conjuncts │  order + execute
//!        │ run cheapest-most-selective first, │
//!        │ residuals refine sparsely over the │
//!        │ surviving selection words          │
//!        └─────────────────┬──────────────────┘
//!                          │ est vs actual rows, per-pred prunes
//!        ┌─────────────────▼──────────────────┐
//!        │ ExecStats / EXPLAIN — estimation   │  feedback
//!        │ quality is a testable artifact     │
//!        └────────────────────────────────────┘
//! ```
//!
//! Per-codec predicate costs encode how each encoding evaluates a range
//! predicate without decoding ([`EncodedBlock::filter_range_masks`]):
//! RLE compares once per *run* and fans the verdict out word-at-a-time,
//! so its per-row price is almost free; plain and FOR compare every row
//! (FOR pays a rebase into offset space); dict binary-searches the
//! dictionary once but then translates every row through the code table;
//! delta must prefix-sum the whole block to reconstruct values, making it
//! the most expensive residual to re-touch.
//!
//! [`EncodedBlock::filter_range_masks`]: amnesia_columnar::compress::EncodedBlock::filter_range_masks

use amnesia_columnar::compress::Encoding;
use serde::{Deserialize, Serialize};

/// Cost coefficients in abstract units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of examining one hot row in a scan.
    pub row_scan: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { row_scan: 1.0 }
    }
}

impl CostModel {
    /// Cost of a scan that examined `rows` rows.
    pub fn full_scan(&self, rows: usize) -> f64 {
        rows as f64 * self.row_scan
    }

    /// Relative cost of evaluating one range predicate against one row
    /// of a block in codec space (`None` = the uncompressed hot tail).
    /// Abstract units on the [`row_scan`](CostModel::row_scan) scale:
    /// an RLE block amortizes one comparison over a whole run — its 0.05
    /// assumes long runs, and rle now holds only those (runs of about 12
    /// rows or more, and dropped blocks' placeholders), since shorter
    /// ones encode as runbits. FOR pays a predicate rebase but compares
    /// packed words, dict translates every row through its code table,
    /// and delta reconstructs values by prefix-summing the block.
    /// Runbits compares one packed value per run and spreads the verdicts
    /// over the rows; its price is measured against FOR's:
    /// `compressed_scan/squashed_50_runbits/filter` (runs of two rows at
    /// 20 bits) took 0.40 ns/row to `forpack_w20/filter`'s 0.46 (best of
    /// 15 interleaved passes, x86-64 with AVX-512 VBMI), so it is FOR's
    /// 1.1 scaled by 0.40 / 0.46, rounded.
    pub fn pred_eval_cost(&self, encoding: Option<Encoding>) -> f64 {
        let relative = match encoding {
            Some(Encoding::Rle) => 0.05,
            Some(Encoding::Plain) | None => 1.0,
            Some(Encoding::ForPack) => 1.1,
            Some(Encoding::Dict) => 1.4,
            Some(Encoding::RunBits) => 1.0,
            Some(Encoding::Delta) => 1.8,
        };
        relative * self.row_scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_eval_costs_rank_rle_cheapest_delta_dearest() {
        let m = CostModel::default();
        let rle = m.pred_eval_cost(Some(Encoding::Rle));
        let plain = m.pred_eval_cost(Some(Encoding::Plain));
        let forp = m.pred_eval_cost(Some(Encoding::ForPack));
        let dict = m.pred_eval_cost(Some(Encoding::Dict));
        let delta = m.pred_eval_cost(Some(Encoding::Delta));
        assert!(rle < plain && plain <= forp && forp < dict && dict < delta);
        // Runbits: one packed compare per run, about two rows a run.
        let runbits = m.pred_eval_cost(Some(Encoding::RunBits));
        assert!(rle < runbits && runbits < forp);
        assert_eq!(m.pred_eval_cost(None), plain, "hot tail prices as plain");
    }
}
