//! Information-precision metrics (paper §2.3).
//!
//! After forgetting `F` tuples and inserting `F` new ones, each query `Q`
//! is scored against the ground truth (everything ever inserted — which
//! the mark-only table still physically holds):
//!
//! * `RF(Q)` — tuples actually returned (active matches),
//! * `MF(Q)` — tuples missed (matches that were forgotten),
//! * `PF(Q) = RF / (RF + MF)` — query precision,
//! * `E = avg(RF) / avg(RF + MF)` — the batch error margin.
//!
//! For aggregates, precision is the relative error of the approximate
//! (active-only) value against the exact value over all data seen so far.

use amnesia_util::ascii;
use amnesia_util::bitmap::count_set_bits_in;
use amnesia_util::stats::relative_error;
use amnesia_util::RunningStats;
use serde::{Deserialize, Serialize};

use amnesia_columnar::Table;

/// Outcome of one query: returned vs missed tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryPrecision {
    /// `RF(Q)`: tuples in the (amnesiac) result.
    pub returned: usize,
    /// `MF(Q)`: tuples the full history would additionally return.
    pub missed: usize,
}

impl QueryPrecision {
    /// `PF(Q) = RF / (RF + MF)`; defined as 1 when nothing matched at all
    /// (an empty answer to an empty question is perfectly precise).
    pub fn pf(&self) -> f64 {
        let total = self.returned + self.missed;
        if total == 0 {
            1.0
        } else {
            self.returned as f64 / total as f64
        }
    }
}

/// Accumulates precision over a batch of queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrecisionAccumulator {
    sum_rf: u64,
    sum_total: u64,
    pf_stats: RunningStats,
    agg_err: RunningStats,
}

impl PrecisionAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a row-returning query outcome.
    pub fn record(&mut self, p: QueryPrecision) {
        self.sum_rf += p.returned as u64;
        self.sum_total += (p.returned + p.missed) as u64;
        self.pf_stats.push(p.pf());
    }

    /// Record an aggregate outcome: approximate (active-only) vs exact
    /// value. `None` values (empty selections) count as error 0 when both
    /// are empty, 1 when only one side is.
    pub fn record_aggregate(&mut self, approx: Option<f64>, exact: Option<f64>) {
        let err = match (approx, exact) {
            (Some(a), Some(e)) => relative_error(a, e),
            (None, None) => 0.0,
            _ => 1.0,
        };
        self.agg_err.push(err);
    }

    /// Number of row queries recorded.
    pub fn queries(&self) -> u64 {
        self.pf_stats.count()
    }

    /// Mean `PF` over the batch.
    pub fn mean_pf(&self) -> f64 {
        if self.pf_stats.count() == 0 {
            1.0
        } else {
            self.pf_stats.mean()
        }
    }

    /// The paper's error margin `E = avg(RF) / avg(RF + MF)`.
    pub fn e_margin(&self) -> f64 {
        if self.sum_total == 0 {
            1.0
        } else {
            self.sum_rf as f64 / self.sum_total as f64
        }
    }

    /// Mean relative error of aggregates (`None` if no aggregates ran).
    pub fn mean_agg_error(&self) -> Option<f64> {
        (self.agg_err.count() > 0).then(|| self.agg_err.mean())
    }

    /// Mean `RF` per query.
    pub fn mean_rf(&self) -> f64 {
        if self.pf_stats.count() == 0 {
            0.0
        } else {
            self.sum_rf as f64 / self.pf_stats.count() as f64
        }
    }

    /// Mean `MF` per query.
    pub fn mean_mf(&self) -> f64 {
        if self.pf_stats.count() == 0 {
            0.0
        } else {
            (self.sum_total - self.sum_rf) as f64 / self.pf_stats.count() as f64
        }
    }
}

/// Summary of one batch in a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchSummary {
    /// Batch number (1-based; queries ran before this batch's inserts).
    pub batch: u64,
    /// Mean query precision `PF`.
    pub mean_pf: f64,
    /// Error margin `E`.
    pub e_margin: f64,
    /// Mean returned tuples per query.
    pub mean_rf: f64,
    /// Mean missed tuples per query.
    pub mean_mf: f64,
    /// Mean relative error of aggregate queries, if any ran.
    pub agg_error: Option<f64>,
    /// Active rows after this batch's amnesia.
    pub active_rows: usize,
    /// Physical rows (active + forgotten marks).
    pub total_rows: usize,
}

/// Final retention map: active fraction per insertion epoch — one row of
/// the paper's Figure 1/2 heatmaps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AmnesiaMap {
    /// `totals[e]` = tuples inserted at epoch `e`.
    pub totals: Vec<usize>,
    /// `active[e]` = of those, still active.
    pub active: Vec<usize>,
}

impl AmnesiaMap {
    /// Compute from a (mark-only) table, covering epochs `0..=max_epoch`.
    pub fn from_table(table: &Table, max_epoch: u64) -> Self {
        let n = max_epoch as usize + 1;
        let mut totals = vec![0usize; n];
        let mut active = vec![0usize; n];
        let mut lo = 0;
        for (rows, epoch) in table.insert_epochs().iter() {
            let e = (epoch as usize).min(n - 1);
            totals[e] += rows;
            active[e] += count_set_bits_in(table.activity_words(), lo, lo + rows);
            lo += rows;
        }
        Self { totals, active }
    }

    /// Active fraction per epoch (0 for epochs with no inserts).
    pub fn fractions(&self) -> Vec<f64> {
        self.totals
            .iter()
            .zip(&self.active)
            .map(|(&t, &a)| if t == 0 { 0.0 } else { a as f64 / t as f64 })
            .collect()
    }

    /// Active percentage per epoch (the paper's y-axis).
    pub fn percentages(&self) -> Vec<f64> {
        self.fractions().iter().map(|f| f * 100.0).collect()
    }
}

/// Point-in-time tier metrics of an
/// [`AmnesiacStore`](crate::store::AmnesiacStore): how much of the table
/// rests compressed, what the block-level amnesia transitions reclaimed,
/// and the overall compression ratio. Budget- and cost-based policies
/// read `resident_bytes`/`compression_ratio` so the savings from frozen
/// cold segments actually stretch the storage budget (paper §4.4).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Physical rows (active + marked).
    pub total_rows: usize,
    /// Active rows.
    pub active_rows: usize,
    /// True resident bytes of the table (compressed frozen blocks + hot
    /// tail + metadata).
    pub resident_bytes: usize,
    /// Compressed bytes held by frozen blocks.
    pub bytes_frozen: usize,
    /// Frozen blocks currently resident.
    pub frozen_blocks: usize,
    /// Fully-forgotten blocks whose payloads were dropped (cumulative).
    pub blocks_dropped: u64,
    /// Heavily-forgotten blocks re-encoded smaller (cumulative).
    pub blocks_recompressed: u64,
    /// Rows currently living in dropped blocks: row ids that persist but
    /// whose values were surrendered. Reported separately so
    /// `compression_ratio` can stay an honest codec metric — these
    /// savings come from amnesia, not compression.
    pub dropped_rows: usize,
    /// Flat bytes of surviving rows / resident bytes (≥ 1 means tiering
    /// is saving memory). Rows in dropped blocks are excluded from the
    /// numerator, so the ratio stays meaningful even when
    /// `drop_forgotten_blocks` has surrendered most payloads.
    pub compression_ratio: f64,
    /// Cumulative frozen-block accesses across every column: scans and
    /// probes bump a block's counter each time it survives zone-map
    /// pruning and is actually touched. Hot traffic — a block that keeps
    /// getting read is a bad candidate for recompression or dropping.
    /// Excluded from `PartialEq`: a replayed table starts with fresh
    /// counters, and crash-recovery compares snapshots field for field.
    #[serde(default)]
    pub block_accesses: u64,
}

/// Equality ignores `block_accesses`: access counters are runtime
/// telemetry, not logical state, and must not fail crash-recovery
/// layout comparisons.
impl PartialEq for MetricsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.total_rows == other.total_rows
            && self.active_rows == other.active_rows
            && self.resident_bytes == other.resident_bytes
            && self.bytes_frozen == other.bytes_frozen
            && self.frozen_blocks == other.frozen_blocks
            && self.blocks_dropped == other.blocks_dropped
            && self.blocks_recompressed == other.blocks_recompressed
            && self.dropped_rows == other.dropped_rows
            && self.compression_ratio == other.compression_ratio
    }
}

impl MetricsSnapshot {
    /// Snapshot a bare [`Table`] plus externally-tracked cumulative tier
    /// counters. This is how crash-recovery tests compare a replayed
    /// [`PersistentTable`](amnesia_columnar::PersistentTable) against the
    /// layout an [`AmnesiacStore`](crate::store::AmnesiacStore) reported
    /// before the crash: same struct, field for field.
    pub fn from_table(table: &Table, blocks_dropped: u64, blocks_recompressed: u64) -> Self {
        Self {
            total_rows: table.num_rows(),
            active_rows: table.active_rows(),
            resident_bytes: table.memory_bytes(),
            bytes_frozen: table.bytes_frozen(),
            frozen_blocks: table.frozen_blocks(),
            blocks_dropped,
            blocks_recompressed,
            dropped_rows: table.dropped_rows(),
            compression_ratio: table.compression_ratio(),
            block_accesses: table.block_accesses(),
        }
    }
}

/// Storage accounting at the end of a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StorageReport {
    /// Active rows at the end (the held budget).
    pub final_active_rows: usize,
    /// Rows ever inserted.
    pub total_rows_inserted: usize,
    /// Rows forgotten over the run.
    pub rows_forgotten: usize,
    /// Approximate heap bytes of the table (columns + marks + stats).
    pub table_bytes: usize,
}

/// Complete report of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Policy name (figure legend key).
    pub policy: String,
    /// Distribution name.
    pub distribution: String,
    /// Per-batch precision summaries.
    pub batches: Vec<BatchSummary>,
    /// Final retention map.
    pub map: AmnesiaMap,
    /// Storage accounting.
    pub storage: StorageReport,
}

impl SimReport {
    /// Per-batch error margin `E` — the Figure 3 series.
    pub fn precision_series(&self) -> Vec<f64> {
        self.batches.iter().map(|b| b.e_margin).collect()
    }

    /// Per-batch mean `PF`.
    pub fn pf_series(&self) -> Vec<f64> {
        self.batches.iter().map(|b| b.mean_pf).collect()
    }

    /// Per-batch mean aggregate error (empty if no aggregates ran).
    pub fn agg_error_series(&self) -> Vec<f64> {
        self.batches.iter().filter_map(|b| b.agg_error).collect()
    }

    /// Render the retention map as an ASCII heatmap row.
    pub fn render_map(&self) -> String {
        ascii::heatmap(&[(self.policy.clone(), self.map.fractions())], None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::{RowId, Schema};

    #[test]
    fn pf_definition() {
        assert_eq!(
            QueryPrecision {
                returned: 3,
                missed: 1
            }
            .pf(),
            0.75
        );
        assert_eq!(
            QueryPrecision {
                returned: 0,
                missed: 5
            }
            .pf(),
            0.0
        );
        assert_eq!(
            QueryPrecision {
                returned: 5,
                missed: 0
            }
            .pf(),
            1.0
        );
        assert_eq!(
            QueryPrecision {
                returned: 0,
                missed: 0
            }
            .pf(),
            1.0
        );
    }

    #[test]
    fn e_margin_is_ratio_of_averages_not_average_of_ratios() {
        let mut acc = PrecisionAccumulator::new();
        acc.record(QueryPrecision {
            returned: 9,
            missed: 1,
        }); // pf 0.9
        acc.record(QueryPrecision {
            returned: 0,
            missed: 10,
        }); // pf 0.0
            // mean PF = 0.45; E = 9/20 = 0.45 here they coincide…
        assert!((acc.mean_pf() - 0.45).abs() < 1e-12);
        assert!((acc.e_margin() - 0.45).abs() < 1e-12);
        // …but not in general:
        let mut acc2 = PrecisionAccumulator::new();
        acc2.record(QueryPrecision {
            returned: 1,
            missed: 0,
        }); // pf 1.0
        acc2.record(QueryPrecision {
            returned: 10,
            missed: 90,
        }); // pf 0.1
        assert!((acc2.mean_pf() - 0.55).abs() < 1e-12);
        assert!((acc2.e_margin() - 11.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_error_accounting() {
        let mut acc = PrecisionAccumulator::new();
        acc.record_aggregate(Some(11.0), Some(10.0));
        acc.record_aggregate(None, None);
        acc.record_aggregate(None, Some(5.0));
        let mean = acc.mean_agg_error().unwrap();
        assert!((mean - (0.1 + 0.0 + 1.0) / 3.0).abs() < 1e-12);
        assert_eq!(PrecisionAccumulator::new().mean_agg_error(), None);
    }

    #[test]
    fn rf_mf_means() {
        let mut acc = PrecisionAccumulator::new();
        acc.record(QueryPrecision {
            returned: 4,
            missed: 2,
        });
        acc.record(QueryPrecision {
            returned: 6,
            missed: 0,
        });
        assert_eq!(acc.mean_rf(), 5.0);
        assert_eq!(acc.mean_mf(), 1.0);
        assert_eq!(acc.queries(), 2);
    }

    #[test]
    fn empty_accumulator_conventions() {
        let acc = PrecisionAccumulator::new();
        assert_eq!(acc.mean_pf(), 1.0);
        assert_eq!(acc.e_margin(), 1.0);
        assert_eq!(acc.mean_rf(), 0.0);
    }

    #[test]
    fn amnesia_map_from_table() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[1, 2, 3, 4], 0).unwrap();
        t.insert_batch(&[5, 6], 1).unwrap();
        t.forget(RowId(0), 1).unwrap();
        t.forget(RowId(4), 1).unwrap();
        let map = AmnesiaMap::from_table(&t, 1);
        assert_eq!(map.totals, vec![4, 2]);
        assert_eq!(map.active, vec![3, 1]);
        let f = map.fractions();
        assert!((f[0] - 0.75).abs() < 1e-12);
        assert!((f[1] - 0.5).abs() < 1e-12);
        assert_eq!(map.percentages()[1], 50.0);
    }
}
