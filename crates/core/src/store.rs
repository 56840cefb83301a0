//! What *physically* happens to forgotten tuples.
//!
//! Paper §1 lists the design space: "A DBMS might be as radical as to
//! delete all data being forgotten. A lighter and more feasible option is
//! to stop indexing the forgotten data … A more cost-effective option is
//! to move forgotten data to cheap slow cold-storage. Finally, a possibly
//! poor information retention approach would be to keep a summary."
//!
//! [`AmnesiacStore`] realizes all of them behind one insert/forget/query
//! API so the `ABL-FORGET` ablation can compare bytes resident, query cost
//! and recoverability under identical workloads; the paper's own loop,
//! [`Simulator`](crate::sim::Simulator), runs on a `MarkOnly` store.
//!
//! # The write path
//!
//! The store holds a [`Table`] and, when it is durable, the
//! [`DurableLog`] beside it. A mutation of a durable store is one call to
//! the log's method of that name — which validates against the table,
//! logs one record, then applies through the table's own mutator (the
//! sequence is written once, in `amnesia_columnar::persist`, and
//! `PersistentTable` makes the same calls) — and of a volatile store the
//! table's mutator alone. Two things are the store's own:
//!
//! * **Emission.** What a mode keeps of a forgotten row (a cold archive
//!   record, a summary or micro-model absorb) is written by one hook,
//!   `Emission::first_forget`, fired by the row's *first* active →
//!   forgotten transition, after the table (and the log) took it: a row
//!   named twice is emitted once.
//! * **Reclaim.** `end_batch` and `forget_block` give bytes up through
//!   one step ([`DurableLog::reclaim`] when durable: drop → count →
//!   shred, with the batch boundary's freeze and recompression around the
//!   drop), and `Delete` / `Summarize` / `Model` additionally compact
//!   through [`vacuum`] at every batch boundary — block drops cannot
//!   reclaim scattered rows (ROADMAP item 2 has the measurement).

use amnesia_columnar::vacuum::vacuum;
use amnesia_columnar::{
    ColdStore, DurableLog, Epoch, ModelStore, RowId, Schema, SummaryStore, Table, Value, WalStats,
};
use amnesia_engine::{Aux, CostModel, ExecResult, Executor, ForgetVisibility};
use amnesia_util::{Result, SimRng};
use amnesia_workload::Query;
use serde::{Deserialize, Serialize};

/// Physical fate of forgotten tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForgetMode {
    /// Mark inactive only; a complete scan still reads the tuple (the
    /// ground truth [`Simulator`](crate::sim::Simulator) scores against).
    MarkOnly,
    /// Mark, then physically vacuum at every batch boundary.
    Delete,
    /// Keep tuples scannable but evict them from every pruning access
    /// path: range and point queries run the complete scan and still see
    /// them (paper §1: "a complete scan will fetch all data"); aggregates
    /// stay amnesiac.
    Deindex,
    /// Move tuple payloads to cold storage, then mark.
    Tier,
    /// Absorb tuples into per-epoch aggregate summaries, then mark and
    /// vacuum (summaries replace the bytes).
    Summarize,
    /// Absorb tuples into per-epoch micro-models (paper §5 \[15\]): like
    /// `Summarize` but the histogram also interpolates *range-restricted*
    /// aggregates. `bins` sets the per-epoch histogram resolution.
    Model {
        /// Histogram buckets per epoch model.
        bins: usize,
    },
}

impl ForgetMode {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ForgetMode::MarkOnly => "mark-only",
            ForgetMode::Delete => "delete",
            ForgetMode::Deindex => "deindex",
            ForgetMode::Tier => "tier",
            ForgetMode::Summarize => "summarize",
            ForgetMode::Model { .. } => "model",
        }
    }
}

/// Storage accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreFootprint {
    /// Physical rows in the hot table (active + still-marked).
    pub hot_rows: usize,
    /// Active rows.
    pub active_rows: usize,
    /// Approximate resident bytes of the table. Frozen blocks count at
    /// their *compressed* size.
    pub hot_bytes: usize,
    /// Compressed bytes held by frozen tier blocks (part of
    /// `hot_bytes`).
    pub bytes_frozen: usize,
    /// Tuples parked in cold storage.
    pub cold_rows: usize,
    /// Cold storage bytes.
    pub cold_bytes: u64,
    /// Summary bytes.
    pub summary_bytes: usize,
    /// Micro-model bytes.
    pub model_bytes: usize,
}

/// Tier scheduling configuration: how many of the newest rows stay hot
/// (uncompressed) when the store freezes its cold prefix at batch
/// boundaries, and when heavily-forgotten frozen blocks re-encode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Rows kept hot at the tail (rounded up to a block boundary by the
    /// freeze).
    pub hot_rows: usize,
    /// Recompress frozen blocks whose active fraction drops to this or
    /// below (0.5 = half forgotten).
    pub recompress_below: f64,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            hot_rows: 4_096,
            recompress_below: 0.5,
        }
    }
}

/// What the mode keeps of forgotten rows, and the one hook that writes it.
struct Emission {
    mode: ForgetMode,
    cold: Option<Box<dyn ColdStore>>,
    summaries: SummaryStore,
    models: Option<ModelStore>,
    total_forgotten: u64,
}

impl Emission {
    /// `row` just went from active to forgotten in `table`: count it and
    /// run the mode's emission. The value and insert epoch still read —
    /// a forget only marks.
    fn first_forget(&mut self, table: &Table, row: RowId) -> Result<()> {
        self.total_forgotten += 1;
        match self.mode {
            ForgetMode::MarkOnly | ForgetMode::Delete | ForgetMode::Deindex => {}
            ForgetMode::Tier => {
                if let Some(cold) = &mut self.cold {
                    cold.archive(row, &table.row_values(row))?;
                }
            }
            ForgetMode::Summarize => {
                self.summaries
                    .absorb(table.insert_epoch(row), table.value(0, row));
            }
            ForgetMode::Model { .. } => {
                if let Some(models) = &mut self.models {
                    models.absorb(table.insert_epoch(row), table.value(0, row));
                }
            }
        }
        Ok(())
    }
}

/// A table plus the machinery that executes its forget mode.
pub struct AmnesiacStore {
    table: Table,
    log: Option<DurableLog>,
    emission: Emission,
    executor: Executor,
    tiering: Option<TierConfig>,
    blocks_dropped: u64,
    blocks_recompressed: u64,
}

impl AmnesiacStore {
    /// New single-attribute store under `mode`.
    ///
    /// `Tier` mode requires a cold store: pass one with
    /// [`AmnesiacStore::with_cold_store`] before the first forget.
    pub fn new(mode: ForgetMode) -> Self {
        Self::from_table(Table::new(Schema::single("a")), mode)
    }

    /// Wrap an existing table (e.g. one recovered from a
    /// [`PersistentTable`](amnesia_columnar::PersistentTable)) under
    /// `mode`.
    pub fn from_table(table: Table, mode: ForgetMode) -> Self {
        let visibility = match mode {
            ForgetMode::Deindex => ForgetVisibility::ScanSeesForgotten,
            _ => ForgetVisibility::ActiveOnly,
        };
        Self {
            table,
            log: None,
            emission: Emission {
                mode,
                cold: None,
                summaries: SummaryStore::new(),
                models: match mode {
                    ForgetMode::Model { bins } => Some(ModelStore::new(bins)),
                    _ => None,
                },
                total_forgotten: 0,
            },
            executor: Executor::new(visibility, CostModel::default()),
            tiering: None,
            blocks_dropped: 0,
            blocks_recompressed: 0,
        }
    }

    /// Attach a cold store (required for `Tier`).
    pub fn with_cold_store(mut self, cold: Box<dyn ColdStore>) -> Self {
        self.emission.cold = Some(cold);
        self
    }

    /// Make the store durable: `log` is the [`DurableLog`] half of a
    /// [`PersistentTable`](amnesia_columnar::PersistentTable) whose table
    /// half this store was built from (`into_parts`). Every insert, forget
    /// and tier transition is then logged *before* it is applied;
    /// [`AmnesiacStore::end_batch`] commits the batch, checkpoints after a
    /// vacuum (vacuums renumber rows and are not replayable) and shreds
    /// covered segments after a block drop so forgotten values' encoded
    /// bytes do not outlive the drop. The cumulative tier counters resume
    /// from the totals the log recovered.
    pub fn with_durability(mut self, log: Box<DurableLog>) -> Self {
        self.blocks_dropped = log.blocks_dropped();
        self.blocks_recompressed = log.blocks_recompressed();
        self.log = Some(*log);
        self
    }

    /// Cumulative counters of the attached log, if any.
    pub fn durability_stats(&self) -> Option<WalStats> {
        self.log.as_ref().map(DurableLog::stats)
    }

    /// Enable tiered freeze scheduling: at every batch boundary the store
    /// compresses all but the newest `cfg.hot_rows` rows in place
    /// ([`Table::freeze_upto`]), drops the payloads of fully-forgotten
    /// frozen blocks, and recompresses blocks whose active fraction fell
    /// below `cfg.recompress_below`.
    ///
    /// Ignored under `Deindex` mode: its complete-scan regime must keep
    /// reading forgotten tuples, which block drops and recompression
    /// would rewrite.
    pub fn with_tiering(mut self, cfg: TierConfig) -> Self {
        self.tiering = Some(cfg);
        self
    }

    /// The forget mode.
    pub fn mode(&self) -> ForgetMode {
        self.emission.mode
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The table's access statistics, which a driver scoring its own
    /// queries touches and decays.
    pub fn access_mut(&mut self) -> &mut amnesia_columnar::AccessStats {
        self.table.access_mut()
    }

    /// Total tuples forgotten through this store.
    pub fn total_forgotten(&self) -> u64 {
        self.emission.total_forgotten
    }

    /// Insert a batch of values at `epoch`.
    pub fn insert_batch(&mut self, values: &[Value], epoch: Epoch) -> Result<()> {
        match &mut self.log {
            Some(log) => log.insert_batch(&mut self.table, values, epoch)?,
            None => self.table.insert_batch(values, epoch)?,
        };
        Ok(())
    }

    /// Forget one tuple at `epoch`, applying the mode's physical action.
    pub fn forget(&mut self, row: RowId, epoch: Epoch) -> Result<()> {
        let first = match &mut self.log {
            Some(log) => log.forget(&mut self.table, row, epoch)?,
            None => self.table.forget(row, epoch)?,
        };
        if first {
            self.emission.first_forget(&self.table, row)?;
        }
        Ok(())
    }

    /// Forget many tuples, atomically: every id is validated before
    /// anything is logged or applied, so a rejected batch leaves the log
    /// and the table untouched, and the whole batch is one log record.
    pub fn forget_batch(&mut self, rows: &[RowId], epoch: Epoch) -> Result<()> {
        let emission = &mut self.emission;
        let on_first = |table: &Table, row| emission.first_forget(table, row);
        match &mut self.log {
            Some(log) => log.forget_batch(&mut self.table, rows, epoch, on_first)?,
            None => self.table.forget_batch(rows, epoch, on_first)?,
        };
        Ok(())
    }

    /// The one reclaim step: drop every fully-forgotten frozen block and
    /// count it — with `schedule = Some((freeze_upto, recompress_below))`
    /// as the middle of a turn of the tier schedule. Durable, that is
    /// [`DurableLog::reclaim`] (logged, fsynced, shredded); volatile, the
    /// table's transitions alone.
    fn reclaim(&mut self, schedule: Option<(usize, f64)>) -> Result<()> {
        let ((dropped, _), (recompressed, _)) = match &mut self.log {
            Some(log) => log.reclaim(&mut self.table, schedule)?,
            None => {
                if let Some((upto, _)) = schedule {
                    self.table.freeze_upto(upto);
                }
                let dropped = self.table.drop_forgotten_blocks();
                let recompressed =
                    schedule.map_or((0, 0), |(_, below)| self.table.recompress_frozen(below));
                (dropped, recompressed)
            }
        };
        self.blocks_dropped += dropped as u64;
        self.blocks_recompressed += recompressed as u64;
        Ok(())
    }

    /// Batch boundary: vacuum if the mode compacts, then run the tier
    /// schedule and commit the batch to the log.
    pub fn end_batch(&mut self) -> Result<()> {
        if let Some(models) = &mut self.emission.models {
            models.seal();
        }
        // `Delete` deletes; summaries and models replace the bytes.
        let compacts = matches!(
            self.emission.mode,
            ForgetMode::Delete | ForgetMode::Summarize | ForgetMode::Model { .. }
        );
        if compacts && self.table.forgotten_rows() > 0 {
            self.table = vacuum(&self.table).table;
            // A vacuum renumbers rows, which no WAL replay can reproduce:
            // re-anchor durability on a fresh snapshot of the compacted
            // table instead.
            if let Some(log) = &mut self.log {
                log.checkpoint(&self.table)?;
            }
        }
        // Tier scheduling: freeze the cold prefix in place, drop dead
        // blocks, recompress heavily-forgotten ones. Gated off the
        // complete-scan regime (Deindex), whose scans must keep reading
        // forgotten tuples.
        if let Some(cfg) = self.tiering {
            if self.executor.mode() == ForgetVisibility::ActiveOnly {
                let upto = self.table.num_rows().saturating_sub(cfg.hot_rows);
                self.reclaim(Some((upto, cfg.recompress_below)))?;
            }
        }
        if let Some(log) = &mut self.log {
            log.commit()?;
        }
        Ok(())
    }

    /// Forget every remaining active row of frozen block `b` (a
    /// block-level amnesia decision — see
    /// [`AmnesiaPolicy::select_victim_blocks`](crate::policy::AmnesiaPolicy::select_victim_blocks))
    /// and immediately drop its payload. Returns the rows forgotten.
    pub fn forget_block(&mut self, b: usize, epoch: Epoch) -> Result<usize> {
        let block_rows = self.table.block_rows();
        if b >= self.table.frozen_blocks() {
            return Ok(0);
        }
        let lo = b * block_rows;
        let hi = (lo + block_rows).min(self.table.num_rows());
        let victims: Vec<RowId> = (lo..hi)
            .map(RowId::from)
            .filter(|&r| self.table.activity().is_active(r))
            .collect();
        self.forget_batch(&victims, epoch)?;
        self.reclaim(None)?;
        Ok(victims.len())
    }

    /// Execute a query with the mode's visibility, folding in what the
    /// mode remembers of forgotten tuples (summaries, micro-models).
    pub fn query(&self, q: &Query) -> ExecResult {
        let kept = &self.emission;
        let aux = Aux {
            summaries: matches!(kept.mode, ForgetMode::Summarize).then_some(&kept.summaries),
            models: kept.models.as_ref(),
        };
        self.executor.execute(&self.table, 0, q, &aux)
    }

    /// Explicitly recover a tuple from cold storage (paper §5: cold data
    /// only returns through deliberate user action).
    pub fn recover_from_cold(&mut self, row: RowId) -> Result<Option<Vec<Value>>> {
        match &mut self.emission.cold {
            Some(cold) => cold.fetch(row),
            None => Ok(None),
        }
    }

    /// Pick a uniformly random active row (for driving test workloads).
    pub fn random_active(&self, rng: &mut SimRng) -> Option<RowId> {
        self.table.random_active(rng)
    }

    /// Storage accounting.
    pub fn footprint(&self) -> StoreFootprint {
        let kept = &self.emission;
        StoreFootprint {
            hot_rows: self.table.num_rows(),
            active_rows: self.table.active_rows(),
            hot_bytes: self.table.memory_bytes(),
            bytes_frozen: self.table.bytes_frozen(),
            cold_rows: kept.cold.as_ref().map_or(0, |c| c.len()),
            cold_bytes: kept.cold.as_ref().map_or(0, |c| c.bytes_used()),
            summary_bytes: kept.summaries.memory_bytes(),
            model_bytes: kept.models.as_ref().map_or(0, ModelStore::memory_bytes),
        }
    }

    /// Tier-aware metrics snapshot: resident bytes, frozen-block
    /// accounting and the overall compression ratio — what budget- and
    /// cost-based policies watch to see compression actually postponing
    /// forgetting.
    pub fn metrics_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        crate::metrics::MetricsSnapshot::from_table(
            &self.table,
            self.blocks_dropped,
            self.blocks_recompressed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::{MemoryColdStore, SummaryStore};
    use amnesia_workload::query::{AggKind, RangePredicate};

    fn run_forgetting(mode: ForgetMode) -> AmnesiacStore {
        let mut store = AmnesiacStore::new(mode);
        if matches!(mode, ForgetMode::Tier) {
            store = store.with_cold_store(Box::new(MemoryColdStore::new()));
        }
        store
            .insert_batch(&(0..100).collect::<Vec<i64>>(), 0)
            .unwrap();
        // Forget the first half over two batches.
        store
            .forget_batch(&(0..25).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store.end_batch().unwrap();
        store
            .forget_batch(&(25..50).map(RowId).collect::<Vec<_>>(), 2)
            .unwrap();
        store.end_batch().unwrap();
        store
    }

    #[test]
    fn mark_only_keeps_bytes() {
        let store = run_forgetting(ForgetMode::MarkOnly);
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 100);
        assert_eq!(fp.active_rows, 50);
        assert_eq!(store.total_forgotten(), 50);
    }

    #[test]
    fn delete_reclaims_rows() {
        let store = run_forgetting(ForgetMode::Delete);
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 50, "vacuum removed the forgotten rows");
        assert_eq!(fp.active_rows, 50);
    }

    #[test]
    fn tier_archives_payloads_and_recovers_them() {
        let mut store = run_forgetting(ForgetMode::Tier);
        let fp = store.footprint();
        assert_eq!(fp.cold_rows, 50);
        assert!(fp.cold_bytes > 0);
        // Forgotten values never appear in queries…
        let r = store.query(&Query::Range(RangePredicate::new(0, 50)));
        assert_eq!(r.output.cardinality(), 0);
        // …but can be explicitly recovered.
        let values = store.recover_from_cold(RowId(7)).unwrap();
        assert_eq!(values, Some(vec![7]));
        assert_eq!(store.recover_from_cold(RowId(99)).unwrap(), None);
    }

    #[test]
    fn summarize_answers_whole_table_aggregates_exactly() {
        let store = run_forgetting(ForgetMode::Summarize);
        // Hot bytes shrink (vacuumed) but the whole-table average is exact.
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 50);
        assert!(fp.summary_bytes > 0);
        let avg = store
            .query(&Query::Aggregate {
                kind: AggKind::Avg,
                predicate: None,
            })
            .output
            .agg()
            .unwrap();
        assert_eq!(avg, Some(49.5), "exact average over all 100 values");
        let count = store
            .query(&Query::Aggregate {
                kind: AggKind::Count,
                predicate: None,
            })
            .output
            .agg()
            .unwrap();
        assert_eq!(count, Some(100.0));
    }

    #[test]
    fn model_mode_recovers_ranged_aggregates_approximately() {
        let store = run_forgetting(ForgetMode::Model { bins: 16 });
        let fp = store.footprint();
        assert_eq!(fp.hot_rows, 50, "models vacuum like summarize");
        assert!(fp.model_bytes > 0);
        assert_eq!(
            fp.summary_bytes,
            SummaryStore::new().memory_bytes(),
            "summary store stays empty in model mode"
        );
        // Whole-table aggregates are exact (model totals are exact).
        let avg = store
            .query(&Query::Aggregate {
                kind: AggKind::Avg,
                predicate: None,
            })
            .output
            .agg()
            .unwrap();
        assert_eq!(avg, Some(49.5));
        // Ranged COUNT over [0, 50) — all 50 forgotten values: the
        // histogram estimate lands near the truth where summarize would
        // answer 0.
        let count = store
            .query(&Query::Aggregate {
                kind: AggKind::Count,
                predicate: Some(RangePredicate::new(0, 50)),
            })
            .output
            .agg()
            .unwrap()
            .unwrap();
        assert!((count - 50.0).abs() < 5.0, "ranged count {count}");
    }

    #[test]
    fn deindex_full_scans_still_see_forgotten_data() {
        let store = run_forgetting(ForgetMode::Deindex);
        let r = store.query(&Query::Range(RangePredicate::new(0, 50)));
        // Scan path: complete answer including forgotten tuples.
        assert_eq!(r.output.cardinality(), 50);
    }

    #[test]
    fn queries_answer_through_vacuum() {
        let mut store = AmnesiacStore::new(ForgetMode::Delete);
        store
            .insert_batch(&(0..1000).collect::<Vec<i64>>(), 0)
            .unwrap();
        store
            .forget_batch(&(0..500).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store.end_batch().unwrap();
        // After vacuum row ids changed; a scan must return exactly the
        // surviving values.
        let r = store.query(&Query::Range(RangePredicate::new(400, 600)));
        assert_eq!(r.output.cardinality(), 100, "values 500..600 survive");
    }

    #[test]
    fn tiering_freezes_cold_prefix_and_shrinks_resident_bytes() {
        let mut plain = AmnesiacStore::new(ForgetMode::MarkOnly);
        let mut tiered = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 2_048,
            recompress_below: 0.5,
        });
        let values: Vec<i64> = (0..50_000).collect();
        plain.insert_batch(&values, 0).unwrap();
        tiered.insert_batch(&values, 0).unwrap();
        plain.end_batch().unwrap();
        tiered.end_batch().unwrap();
        let snap = tiered.metrics_snapshot();
        assert!(snap.frozen_blocks >= 46, "{}", snap.frozen_blocks);
        assert!(snap.bytes_frozen > 0);
        assert!(snap.compression_ratio > 2.0, "{}", snap.compression_ratio);
        assert!(
            tiered.footprint().hot_bytes < plain.footprint().hot_bytes,
            "tiered {} vs plain {}",
            tiered.footprint().hot_bytes,
            plain.footprint().hot_bytes
        );
        assert_eq!(tiered.footprint().bytes_frozen, snap.bytes_frozen);
        // Queries answer identically through the tiers.
        let q = Query::Range(RangePredicate::new(10_000, 10_100));
        assert_eq!(tiered.query(&q).output, plain.query(&q).output);
        let agg = Query::Aggregate {
            kind: AggKind::Sum,
            predicate: Some(RangePredicate::new(0, 25_000)),
        };
        assert_eq!(tiered.query(&agg).output, plain.query(&agg).output);
    }

    #[test]
    fn tiering_drops_dead_blocks_and_recompresses_rotten_ones() {
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 0,
            recompress_below: 0.6,
        });
        // Block 1 interleaves a constant survivor value with serial
        // noise, so forgetting the noise lets recompression collapse it.
        let values: Vec<i64> = (0..4_096)
            .map(|i| {
                if (1_024..2_048).contains(&i) && i % 2 == 1 {
                    100_000
                } else {
                    i
                }
            })
            .collect();
        store.insert_batch(&values, 0).unwrap();
        store.end_batch().unwrap();
        assert_eq!(store.metrics_snapshot().frozen_blocks, 4);
        // Kill block 0 entirely, the noisy half of block 1.
        store
            .forget_batch(&(0..1_024).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store
            .forget_batch(
                &(1_024..2_048)
                    .filter(|r| r % 2 == 0)
                    .map(RowId)
                    .collect::<Vec<_>>(),
                1,
            )
            .unwrap();
        let before = store.metrics_snapshot().bytes_frozen;
        store.end_batch().unwrap();
        let snap = store.metrics_snapshot();
        assert_eq!(snap.blocks_dropped, 1);
        assert!(snap.blocks_recompressed >= 1);
        assert!(snap.bytes_frozen < before);
        // Survivors still answer.
        let r = store.query(&Query::Range(RangePredicate::new(100_000, 100_001)));
        assert_eq!(r.output.cardinality(), 512, "block 1 survivors");
    }

    #[test]
    fn dropped_blocks_report_separately_instead_of_inflating_ratio() {
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 0,
            recompress_below: 0.0,
        });
        // Incompressible values keep the honest codec ratio near 1.
        let values: Vec<i64> = (0..4_096).map(|i| (i * 0x9E37_79B9) ^ (i << 19)).collect();
        store.insert_batch(&values, 0).unwrap();
        store.end_batch().unwrap();
        let honest = store.metrics_snapshot().compression_ratio;
        assert_eq!(store.metrics_snapshot().dropped_rows, 0);
        // Forget and drop 3 of 4 blocks.
        store
            .forget_batch(&(0..3_072).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store.end_batch().unwrap();
        let snap = store.metrics_snapshot();
        assert_eq!(snap.blocks_dropped, 3);
        assert_eq!(snap.dropped_rows, 3_072, "amnesia savings report as rows");
        assert!(
            snap.compression_ratio < honest * 1.5,
            "codec ratio must not absorb drop savings: {} vs {honest}",
            snap.compression_ratio
        );
    }

    #[test]
    fn forget_block_drops_whole_blocks_via_policy_candidates() {
        use crate::policy::{AmnesiaPolicy, PolicyContext, UniformPolicy};
        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly).with_tiering(TierConfig {
            hot_rows: 0,
            recompress_below: 0.0,
        });
        store
            .insert_batch(&(0..3_072).collect::<Vec<i64>>(), 0)
            .unwrap();
        store.end_batch().unwrap();
        // Make block 1 the cheapest to evict.
        store
            .forget_batch(
                &(1_024..2_048)
                    .filter(|r| r % 4 != 0)
                    .map(RowId)
                    .collect::<Vec<_>>(),
                1,
            )
            .unwrap();
        let mut rng = SimRng::new(5);
        let mut policy = UniformPolicy;
        let ctx = PolicyContext {
            table: store.table(),
            epoch: 2,
        };
        let blocks = policy.select_victim_blocks(&ctx, 1, &mut rng);
        assert_eq!(blocks, vec![1], "fewest active rows first");
        let forgotten = store.forget_block(1, 2).unwrap();
        assert_eq!(forgotten, 256, "the surviving quarter");
        assert_eq!(store.metrics_snapshot().blocks_dropped, 1);
        let r = store.query(&Query::Range(RangePredicate::new(1_024, 2_048)));
        assert_eq!(r.output.cardinality(), 0, "whole block forgotten");
        assert_eq!(
            store
                .query(&Query::Range(RangePredicate::new(0, 1_024)))
                .output
                .cardinality(),
            1_024,
            "neighbours untouched"
        );
    }

    #[test]
    fn forget_batch_is_atomic_and_one_log_record() {
        use amnesia_columnar::PersistentTable;
        let dir = std::env::temp_dir().join(format!("amn-store-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        let (table, log) = pt.into_parts();
        let mut store =
            AmnesiacStore::from_table(table, ForgetMode::MarkOnly).with_durability(Box::new(log));
        store
            .insert_batch(&(0..100).collect::<Vec<i64>>(), 0)
            .unwrap();
        let records = |s: &AmnesiacStore| s.durability_stats().unwrap().records_appended;
        assert_eq!(records(&store), 1, "one record for the insert batch");
        // An out-of-range id mid-batch: nothing logged, nothing applied.
        let bad = [RowId(1), RowId(2), RowId(500), RowId(3)];
        assert!(store.forget_batch(&bad, 1).is_err());
        assert_eq!(
            records(&store),
            1,
            "a rejected batch leaves the log untouched"
        );
        assert_eq!(store.table().active_rows(), 100, "and the table");
        assert_eq!(store.total_forgotten(), 0);
        // The empty batch logs nothing.
        store.forget_batch(&[], 1).unwrap();
        assert_eq!(records(&store), 1);
        // A good batch is one record however many rows it names; a repeat
        // inside it is the usual no-op.
        store
            .forget_batch(&[RowId(1), RowId(2), RowId(3), RowId(2), RowId(90)], 1)
            .unwrap();
        assert_eq!(records(&store), 2);
        assert_eq!(store.total_forgotten(), 4);
        drop(store);
        let rec = PersistentTable::open(&dir).unwrap();
        assert!(rec.recovered_clean());
        assert_eq!(rec.table().active_rows(), 96);
        assert_eq!(rec.table().activity().died_at(RowId(90)), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forget_batch_still_runs_each_rows_physical_action() {
        let victims: Vec<RowId> = (10..30).map(RowId).collect();
        let load = |mode| {
            let mut store = AmnesiacStore::new(mode);
            if mode == ForgetMode::Tier {
                store = store.with_cold_store(Box::new(MemoryColdStore::new()));
            }
            store
                .insert_batch(&(0..100).collect::<Vec<i64>>(), 0)
                .unwrap();
            store.forget_batch(&victims, 1).unwrap();
            store
        };
        let mut tier = load(ForgetMode::Tier);
        assert_eq!(tier.footprint().cold_rows, victims.len());
        assert_eq!(tier.recover_from_cold(RowId(29)).unwrap(), Some(vec![29]));
        let summarize = load(ForgetMode::Summarize);
        assert!(summarize.footprint().summary_bytes > 0);
        let avg = Query::Aggregate {
            kind: AggKind::Avg,
            predicate: None,
        };
        assert_eq!(summarize.query(&avg).output.agg().unwrap(), Some(49.5));
        let model = load(ForgetMode::Model { bins: 8 });
        assert!(model.footprint().model_bytes > 0);
    }

    #[test]
    fn durable_store_recovers_exact_tier_layout() {
        use crate::metrics::MetricsSnapshot;
        use amnesia_columnar::PersistentTable;
        let dir = std::env::temp_dir().join(format!("amn-store-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        let (table, log) = pt.into_parts();
        let mut store = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
            .with_durability(Box::new(log))
            .with_tiering(TierConfig {
                hot_rows: 0,
                recompress_below: 0.5,
            });
        store
            .insert_batch(&(0..4_096).collect::<Vec<i64>>(), 0)
            .unwrap();
        store.end_batch().unwrap();
        // Kill block 0 (dropped + shredded at the batch boundary) and rot
        // most of block 1 (recompressed).
        store
            .forget_batch(&(0..1_024).map(RowId).collect::<Vec<_>>(), 1)
            .unwrap();
        store
            .forget_batch(
                &(1_024..2_048)
                    .filter(|r| r % 4 != 0)
                    .map(RowId)
                    .collect::<Vec<_>>(),
                1,
            )
            .unwrap();
        store.end_batch().unwrap();
        // Tail work after the shred: replayed from the log, not the
        // snapshot.
        store
            .insert_batch(&(0..100).collect::<Vec<i64>>(), 2)
            .unwrap();
        store.forget(RowId(4_100), 2).unwrap();
        let snap = store.metrics_snapshot();
        assert!(snap.blocks_dropped >= 1, "{snap:?}");
        assert!(snap.blocks_recompressed >= 1, "{snap:?}");
        drop(store);

        let rec = PersistentTable::open(&dir).unwrap();
        assert!(rec.recovered_clean());
        let mut recovered = MetricsSnapshot::from_table(
            rec.table(),
            rec.blocks_dropped(),
            rec.blocks_recompressed(),
        );
        // Heap accounting tracks allocation history (Vec growth), which a
        // rebuild legitimately differs on — everything logical must match
        // exactly, resident bytes within a whisker.
        let drift = (recovered.resident_bytes as f64 - snap.resident_bytes as f64).abs()
            / snap.resident_bytes as f64;
        assert!(drift < 0.02, "resident bytes drift {drift}");
        recovered.resident_bytes = snap.resident_bytes;
        recovered.compression_ratio = snap.compression_ratio;
        assert_eq!(
            recovered, snap,
            "recovered tier layout must match pre-crash"
        );
        // A store resumed over the recovered halves keeps counting from
        // the pre-crash totals: kill block 1's survivors, drop it.
        let (table, log) = rec.into_parts();
        let mut resumed = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
            .with_durability(Box::new(log))
            .with_tiering(TierConfig {
                hot_rows: 0,
                recompress_below: 0.5,
            });
        let before = resumed.metrics_snapshot();
        assert_eq!(
            (before.blocks_dropped, before.blocks_recompressed),
            (snap.blocks_dropped, snap.blocks_recompressed)
        );
        resumed
            .forget_batch(&(1_024..2_048).map(RowId).collect::<Vec<_>>(), 3)
            .unwrap();
        resumed.end_batch().unwrap();
        let after = resumed.metrics_snapshot();
        assert_eq!(after.blocks_dropped, snap.blocks_dropped + 1);
        assert_eq!(after.blocks_recompressed, snap.blocks_recompressed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footprint_shrinks_most_under_summarize() {
        let mark = run_forgetting(ForgetMode::MarkOnly).footprint();
        let del = run_forgetting(ForgetMode::Delete).footprint();
        let summ = run_forgetting(ForgetMode::Summarize).footprint();
        assert!(del.hot_rows < mark.hot_rows);
        assert!(summ.hot_rows <= del.hot_rows);
        assert!(summ.summary_bytes < 1024);
    }
}
