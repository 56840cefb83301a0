//! The amnesiac table: columns + activity + epochs + access stats.
//!
//! A column is a [`TieredColumn`] — nothing wraps it. The min/max of
//! every value a column ever held is the column's own
//! `TieredColumn::appended_range` plus, after a restore, the persisted
//! bounds the table keeps beside it.
//!
//! Everything per row is sized by what is resident, not by what was ever
//! inserted: insert epochs are runs (one per batch), death epochs and
//! access statistics are [paged](crate::paged) by tier block, and
//! [`Table::drop_forgotten_blocks`] gives a dropped block's pages back
//! along with its payload. Only the active bitmap (an eighth of a byte
//! per row) still covers the whole history.

use std::borrow::Cow;
use std::sync::Arc;

use amnesia_sync::morsel::{cores, run_morsels};
use amnesia_util::bitmap::for_each_set_bit_in;
use amnesia_util::{storage_err, Error, MinMax, Result, SimRng};
use serde::{Deserialize, Serialize};

use crate::access::AccessStats;
use crate::activity::ActivityMap;
use crate::compress::Encoding;
use crate::paged::EpochRuns;
use crate::schema::Schema;
use crate::tier::{ColumnSummary, TieredColumn};
use crate::types::{Epoch, RowId, Value, DEFAULT_BLOCK_ROWS};

/// Blocks a tier transition must cover before its jobs fan out across
/// cores. A job (freezing or recompressing one 1024-row block of one
/// column) costs some tens of µs, about what starting a worker thread
/// costs, so a transition over fewer blocks — a FIFO stream's
/// recompressions, about one block per batch — runs inline and spawns
/// nothing.
const TIER_FAN_OUT_BLOCKS: usize = 16;

/// The workers for jobs over `blocks` blocks: `threads` from
/// [`TIER_FAN_OUT_BLOCKS`] blocks up, one (inline) below. Tier
/// transitions and the snapshot restore's tail decode both size their
/// fan-out here.
pub(crate) fn fan_out_width(threads: usize, blocks: usize) -> usize {
    if blocks < TIER_FAN_OUT_BLOCKS {
        1
    } else {
        threads
    }
}

/// Run the `jobs` jobs of a tier transition over `blocks` blocks and
/// return their results in job order, on [`fan_out_width`] workers.
fn tier_jobs<R: Send>(
    threads: usize,
    blocks: usize,
    jobs: usize,
    job: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    run_morsels(jobs, fan_out_width(threads, blocks), job).0
}

/// A columnar table whose tuples can be *forgotten*.
///
/// Forgetting here means marking inactive (the simulator's measurable
/// notion, paper §2.1); what *physically* happens to forgotten tuples
/// (deletion, cold storage, summaries, index eviction) is decided by the
/// layers above, which this crate also provides.
///
/// Storage is *tiered* (see [`crate::tier`]): each column keeps its old
/// full blocks compressed in place behind a hot uncompressed tail.
/// Freshly built tables are fully hot; [`Table::freeze_upto`] moves the
/// cold prefix into its compressed resting state, and
/// [`Table::drop_forgotten_blocks`] / [`Table::recompress_frozen`] are
/// the block-granular amnesia transitions layered on top.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<TieredColumn>,
    /// The persisted min/max of every value appended to each column
    /// before the snapshot it was restored from (empty for a table built
    /// here). With each column's `TieredColumn::appended_range` it makes
    /// [`Table::max_seen`] / [`Table::min_seen`]: the paper's `RANGE`
    /// bound (§4.2), and what a dropped block still leaves behind of its
    /// values.
    seen: Vec<MinMax>,
    activity: ActivityMap,
    insert_epoch: EpochRuns,
    access: AccessStats,
    current_epoch: Epoch,
    block_rows: usize,
}

/// [`Table::memory_bytes`] by what holds it: the values, and what
/// forgetting and access tracking keep about each row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Column payload: frozen blocks, hot tails, per-block metadata.
    pub payload: usize,
    /// The active bitmap: an eighth of a byte per row ever inserted.
    pub activity: usize,
    /// Death epochs: a byte per row, plus a small dictionary, for each
    /// resident block that lost a row; a few runs per dropped block.
    pub death_epochs: usize,
    /// Other per-row metadata: access-statistics pages, insert-epoch runs.
    pub row_metadata: usize,
}

impl MemoryBreakdown {
    /// Sum of the components.
    pub fn total(&self) -> usize {
        self.payload + self.activity + self.death_epochs + self.row_metadata
    }
}

/// A forget batch as `(start, len)` runs, in batch order: consecutive
/// ascending ids collapse into one run, so a batch costs as many runs as
/// it is fragmented into. Both the log record of a batch
/// ([`WalRecord::forget_rows`](crate::persist::WalRecord::forget_rows))
/// and its apply path ([`Table::forget_batch`]) take these.
pub(crate) fn forget_runs(rows: &[RowId]) -> impl Iterator<Item = (RowId, u64)> + '_ {
    let mut rest = rows;
    std::iter::from_fn(move || {
        let &start = rest.first()?;
        let mut len = 1;
        while rest
            .get(len)
            .is_some_and(|row| start.0.checked_add(len as u64) == Some(row.0))
        {
            len += 1;
        }
        rest = &rest[len..];
        Some((start, len as u64))
    })
}

impl Table {
    /// Empty table with the given schema and the default tier block size.
    pub fn new(schema: Schema) -> Self {
        Self::with_block_rows(schema, DEFAULT_BLOCK_ROWS)
    }

    /// Empty table with a custom tier block size (rows per frozen block;
    /// must be a positive multiple of 64 so blocks tile activity words).
    pub fn with_block_rows(schema: Schema, block_rows: usize) -> Self {
        let arity = schema.arity();
        Self {
            schema,
            columns: (0..arity)
                .map(|_| TieredColumn::with_block_rows(block_rows))
                .collect(),
            seen: vec![MinMax::new(); arity],
            activity: ActivityMap::with_block_rows(block_rows),
            insert_epoch: EpochRuns::new(),
            access: AccessStats::with_block_rows(block_rows),
            current_epoch: 0,
            block_rows,
        }
    }

    /// Empty single-attribute table (the paper's setting).
    pub fn single(name: impl Into<String>) -> Self {
        Self::new(Schema::single(name))
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Check that one row could be inserted (schema arity match) without
    /// mutating anything. Write-ahead callers validate with this *before*
    /// logging, so a rejected call never leaves a durable record whose
    /// replay would fail.
    pub fn validate_insert(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.arity() {
            return Err(storage_err!(
                "row arity {} does not match schema arity {}",
                values.len(),
                self.schema.arity()
            ));
        }
        Ok(())
    }

    /// Check that a single-column batch insert is legal (arity 1) without
    /// mutating anything — the write-ahead twin of [`Table::insert_batch`].
    pub fn validate_insert_batch(&self) -> Result<()> {
        if self.schema.arity() != 1 {
            return Err(storage_err!(
                "insert_batch requires a single-column table (arity {})",
                self.schema.arity()
            ));
        }
        Ok(())
    }

    /// Check that `row` is forgettable (in range) without mutating
    /// anything — the write-ahead twin of [`Table::forget`].
    pub fn validate_forget(&self, row: RowId) -> Result<()> {
        if row.as_usize() >= self.num_rows() {
            return Err(storage_err!("row {row} out of range"));
        }
        Ok(())
    }

    /// Check that every run of a forget batch ([`forget_runs`]) lies in
    /// the table — no end that overflows, none past the last row — without
    /// mutating anything. The one check a batch gets: the live path runs
    /// it before logging, replay before applying, so a batch is rejected
    /// whole and a rejected batch leaves no log record.
    pub(crate) fn validate_forget_runs(
        &self,
        runs: impl IntoIterator<Item = (RowId, u64)>,
    ) -> Result<()> {
        let n = self.num_rows() as u64;
        let past_end =
            |&(start, len): &(RowId, u64)| start.0.checked_add(len).is_none_or(|end| end > n);
        match runs.into_iter().find(past_end) {
            Some((start, len)) => Err(storage_err!(
                "forget run {start}+{len} past the table's {n} rows"
            )),
            None => Ok(()),
        }
    }

    /// Insert one row (`values` must match the schema arity). Returns the
    /// new row id.
    pub fn insert(&mut self, values: &[Value], epoch: Epoch) -> Result<RowId> {
        self.validate_insert(values)?;
        let id = RowId::from(self.num_rows());
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        self.activity.push_active(1);
        self.insert_epoch.push(1, epoch);
        self.access.push_rows(1);
        self.current_epoch = self.current_epoch.max(epoch);
        Ok(id)
    }

    /// Insert a batch of single-column values (convenience for the
    /// simulator's one-attribute tables). Returns the id of the first row.
    pub fn insert_batch(&mut self, values: &[Value], epoch: Epoch) -> Result<RowId> {
        self.validate_insert_batch()?;
        let first = RowId::from(self.num_rows());
        self.columns[0].extend_from_slice(values);
        self.activity.push_active(values.len());
        self.insert_epoch.push(values.len(), epoch);
        self.access.push_rows(values.len());
        self.current_epoch = self.current_epoch.max(epoch);
        Ok(first)
    }

    /// Mark a row forgotten at `epoch`. Errors if the id is out of range;
    /// forgetting an already-forgotten row is a no-op returning `false`.
    /// First-time forgets propagate to the tier layer so frozen-block
    /// metadata (active counts) stays exact.
    pub fn forget(&mut self, row: RowId, epoch: Epoch) -> Result<bool> {
        self.validate_forget(row)?;
        let first = self.activity.forget(row, epoch);
        if first {
            let b = row.as_usize() / self.block_rows;
            for c in &mut self.columns {
                c.note_forgotten(b, 1);
            }
        }
        Ok(first)
    }

    /// [`Table::forget`] of every row in `[lo, hi)`, a block at a time:
    /// word-masked clears, a died-at fill, and per touched block one meta
    /// update per column. Rows already forgotten keep their death epoch.
    /// Returns how many rows were still active. Each run of a forget batch
    /// takes this step, live or replayed ([`Self::apply_forget_runs`]);
    /// the range is the caller's to check ([`Table::validate_forget_runs`]).
    fn forget_range(&mut self, lo: usize, hi: usize, epoch: Epoch) -> usize {
        debug_assert!(lo <= hi && hi <= self.num_rows(), "rows {lo}..{hi}");
        let mut forgotten = 0;
        let mut at = lo;
        while at < hi {
            let b = at / self.block_rows;
            let end = hi.min((b + 1) * self.block_rows);
            let n = self.activity.forget_range(at, end, epoch);
            if n > 0 {
                for c in &mut self.columns {
                    c.note_forgotten(b, n);
                }
            }
            forgotten += n;
            at = end;
        }
        forgotten
    }

    /// Forget a batch of rows atomically — the batch's runs
    /// (`forget_runs`) are range-checked before any row is marked, then
    /// applied by the path replay applies a logged batch with — and
    /// call `on_first` for each row this batch took from active to
    /// forgotten, in batch order, right after its run was applied (its
    /// value and insert epoch still read). That call is the one hook a
    /// forget mode emits from: a row named twice, in one batch or across
    /// batches, fires it once. Returns how many rows were still active.
    pub fn forget_batch(
        &mut self,
        rows: &[RowId],
        epoch: Epoch,
        on_first: impl FnMut(&Table, RowId) -> Result<()>,
    ) -> Result<usize> {
        self.validate_forget_runs(forget_runs(rows))?;
        self.apply_forget_runs(forget_runs(rows), epoch, on_first)
    }

    /// The one apply path of a forget batch, live and replayed alike: each
    /// run through [`Self::forget_range`], in order, then `on_first` for
    /// each row of the run that was still active, ascending. The runs are
    /// the caller's to check ([`Table::validate_forget_runs`]).
    pub(crate) fn apply_forget_runs(
        &mut self,
        runs: impl IntoIterator<Item = (RowId, u64)>,
        epoch: Epoch,
        mut on_first: impl FnMut(&Table, RowId) -> Result<()>,
    ) -> Result<usize> {
        let mut forgotten = 0;
        let mut dying = Vec::new();
        for (start, len) in runs {
            let (lo, hi) = (start.as_usize(), start.as_usize() + len as usize);
            // A run part dead already (a row named twice, or forgotten by
            // an earlier batch): note which rows die before they do. A
            // one-row run dies whole or not at all.
            dying.clear();
            if len > 1 {
                let active = self.activity.active_in_range(lo, hi);
                if active != 0 && active != hi - lo {
                    for_each_set_bit_in(self.activity.words(), lo, hi, |row| dying.push(row));
                }
            }
            let n = self.forget_range(lo, hi, epoch);
            forgotten += n;
            if n == hi - lo {
                for row in lo..hi {
                    on_first(self, RowId::from(row))?;
                }
            } else {
                for &row in &dying {
                    on_first(self, RowId::from(row))?;
                }
            }
        }
        Ok(forgotten)
    }

    /// Value of `col` at `row` (whether or not the row is active). Hot
    /// rows are array indexing; frozen rows take the owning codec's
    /// `value_at` fast path (no block decode). Panics if out of range.
    #[inline]
    pub fn value(&self, col: usize, row: RowId) -> Value {
        self.columns[col].value_at(row.as_usize())
    }

    /// Full row as a vector of values.
    pub fn row_values(&self, row: RowId) -> Vec<Value> {
        self.columns
            .iter()
            .map(|c| c.value_at(row.as_usize()))
            .collect()
    }

    /// The tiered representation of `col`: frozen compressed blocks with
    /// cached per-block metadata, then the hot tail. This is the entry
    /// point for the engine's tier-aware kernels.
    #[inline]
    pub fn col_tier(&self, col: usize) -> &TieredColumn {
        &self.columns[col]
    }

    /// The planner's view of `col`: the [`ColumnSummary`] of its active
    /// rows, held by the column between mutations (see
    /// [`TieredColumn::summary`]) — what a statement costs to plan does
    /// not depend on what the table holds.
    pub fn col_summary(&self, col: usize) -> Arc<ColumnSummary> {
        self.columns[col].summary(self.activity.words())
    }

    /// The whole column in physical row order: borrowed while fully hot,
    /// decoded into an owned buffer when blocks are frozen. For consumers
    /// (joins, index builds, ground-truth scoring) that genuinely need
    /// every value materialized.
    pub fn col_values_dense(&self, col: usize) -> Cow<'_, [Value]> {
        let tier = &self.columns[col];
        if tier.is_fully_hot() {
            Cow::Borrowed(tier.hot_values())
        } else {
            Cow::Owned(tier.dense_values())
        }
    }

    /// True when any column holds frozen blocks (all columns freeze in
    /// lockstep, so checking the first suffices).
    pub fn has_frozen(&self) -> bool {
        self.columns.first().is_some_and(|c| !c.is_fully_hot())
    }

    /// Rows per tier block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Pin (or unpin) the freeze codec of one column — the codec-ablation
    /// and equivalence-test hook; production tables use the automatic
    /// per-block chooser.
    pub fn pin_encoding(&mut self, col: usize, encoding: Option<Encoding>) {
        self.columns[col].pin_encoding(encoding);
    }

    /// Freeze every column's full blocks below `row` (rounded down to a
    /// block boundary): the cold prefix moves into its compressed resting
    /// state with per-block min/max/active metadata cached from the
    /// current activity map. Returns the number of blocks frozen (per
    /// column — all columns freeze in lockstep). One job per block and
    /// column, on every core from 16 blocks up (`TIER_FAN_OUT_BLOCKS`).
    pub fn freeze_upto(&mut self, row: usize) -> usize {
        self.freeze_upto_on(cores(), row)
    }

    /// [`Self::freeze_upto`] with its jobs on `threads` workers once the
    /// freeze covers [`TIER_FAN_OUT_BLOCKS`] blocks (inline below): the
    /// blocks come back in order, whatever ran them.
    pub(crate) fn freeze_upto_on(&mut self, threads: usize, row: usize) -> usize {
        let Some(first) = self.columns.first() else {
            return 0;
        };
        let blocks = first.blocks_to_freeze(row);
        let nb = blocks.len();
        if nb == 0 {
            return 0;
        }
        let (columns, words) = (&self.columns, self.activity.words());
        let jobs = tier_jobs(threads, nb, nb * columns.len(), |i| {
            columns[i / nb].freeze_block(blocks.start + i % nb, words)
        });
        let mut jobs = jobs.into_iter();
        for c in &mut self.columns {
            c.push_frozen(jobs.by_ref().take(nb));
        }
        nb
    }

    /// Drop the payload of every fully-forgotten frozen block — the most
    /// radical tier transition: forgetting a whole block reclaims its
    /// bytes while row ids stay stable. Its per-row metadata goes with it:
    /// nothing is kept of the access statistics (no policy scores a
    /// forgotten row), and of the death epochs only the runs a snapshot
    /// writes, so every `died_at` still reads back. Live and replayed
    /// drops both come through here. Returns `(blocks dropped, bytes
    /// reclaimed)` — payload bytes.
    pub fn drop_forgotten_blocks(&mut self) -> (usize, usize) {
        let mut blocks = 0;
        let mut bytes = 0;
        let nb = self.frozen_blocks();
        for b in 0..nb {
            if self.columns[0].meta(b).active != 0 {
                continue;
            }
            let mut dropped_any = false;
            for c in &mut self.columns {
                let freed = c.drop_block(b);
                if freed > 0 {
                    dropped_any = true;
                }
                bytes += freed;
            }
            if dropped_any {
                blocks += 1;
                self.access.free_block(b);
                self.activity.seal_block(b);
            }
        }
        (blocks, bytes)
    }

    /// Recompress frozen blocks whose active fraction fell to
    /// `max_active_fraction` or below: forgotten rows squash onto active
    /// neighbours, codecs re-run, meta bounds tighten. Returns `(blocks
    /// recompressed, bytes saved)`; a block counts when any column saved
    /// bytes. One job per block and column, on every core from 16
    /// eligible blocks up (`TIER_FAN_OUT_BLOCKS`).
    pub fn recompress_frozen(&mut self, max_active_fraction: f64) -> (usize, usize) {
        self.recompress_frozen_on(cores(), max_active_fraction)
    }

    /// [`Self::recompress_frozen`] with its jobs on `threads` workers once
    /// [`TIER_FAN_OUT_BLOCKS`] blocks are eligible (inline below). The
    /// jobs only read; their results install serially, in block order.
    pub(crate) fn recompress_frozen_on(
        &mut self,
        threads: usize,
        max_active_fraction: f64,
    ) -> (usize, usize) {
        let Some(first) = self.columns.first() else {
            return (0, 0);
        };
        let most_active = max_active_fraction * self.block_rows as f64;
        let eligible: Vec<usize> = (0..first.frozen_blocks())
            .filter(|&b| {
                first
                    .frozen(b)
                    .is_some_and(|f| !f.is_dropped() && f.meta().active as f64 <= most_active)
            })
            .collect();
        let (columns, words) = (&self.columns, self.activity.words());
        let ncols = columns.len();
        let jobs = tier_jobs(threads, eligible.len(), eligible.len() * ncols, |i| {
            columns[i % ncols].recompress_job(eligible[i / ncols], words)
        });
        let mut jobs = jobs.into_iter();
        let (mut blocks, mut bytes) = (0, 0);
        for &b in &eligible {
            let mut saved_any = false;
            // `zip` asks the columns first, so it takes exactly one job
            // per column of block `b`.
            for (c, job) in self.columns.iter_mut().zip(jobs.by_ref()) {
                let saved = job.map_or(0, |job| c.install_recompressed(b, job));
                saved_any |= saved > 0;
                bytes += saved;
            }
            blocks += usize::from(saved_any);
        }
        (blocks, bytes)
    }

    /// Number of frozen blocks (identical across columns).
    pub fn frozen_blocks(&self) -> usize {
        self.columns.first().map_or(0, |c| c.frozen_blocks())
    }

    /// Compressed bytes currently held by frozen blocks, summed over
    /// columns.
    pub fn bytes_frozen(&self) -> usize {
        self.columns.iter().map(|c| c.bytes_frozen()).sum()
    }

    /// Rows living in dropped blocks (identical across columns — blocks
    /// drop in lockstep). These row ids still exist but their values were
    /// surrendered; they are excluded from [`Table::compression_ratio`]
    /// so amnesia savings never masquerade as codec savings.
    pub fn dropped_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.dropped_rows())
    }

    /// Flat bytes of *surviving* rows / resident bytes over all columns
    /// (≥ 1 means tiering is saving memory). Dropped blocks' rows are
    /// excluded from the numerator — see
    /// [`TieredColumn::compression_ratio`](crate::tier::TieredColumn::compression_ratio).
    pub fn compression_ratio(&self) -> f64 {
        let surviving: usize = self
            .columns
            .iter()
            .map(|c| (c.len() - c.dropped_rows()) * std::mem::size_of::<Value>())
            .sum();
        let resident: usize = self.columns.iter().map(|c| c.memory_bytes()).sum();
        if resident == 0 || surviving == 0 {
            1.0
        } else {
            surviving as f64 / resident as f64
        }
    }

    /// The packed active-row words (see
    /// [`ActivityMap::words`](crate::activity::ActivityMap::words)).
    #[inline]
    pub fn activity_words(&self) -> &[u64] {
        self.activity.words()
    }

    /// Reassemble a table from restored parts (snapshot reader): the
    /// tiers install as-is, and their vector becomes the table's
    /// columns. There is no dense materialization and no throwaway hot
    /// column or vector. The activity map arrives built from the persisted
    /// death epochs rather than routed through [`Table::forget`] (the
    /// tiers' block metadata already reflects those forgets, so
    /// `note_forget` must not run again), with the dropped blocks' death
    /// epochs sealed before they were filled, as a drop leaves them. The
    /// hot blocks' active counts, which no snapshot holds, are recounted
    /// from it. The seen-min/max restore separately via
    /// [`Table::restore_col_stats`].
    pub fn from_restored_parts(
        schema: Schema,
        block_rows: usize,
        mut tiers: Vec<TieredColumn>,
        insert_epoch: EpochRuns,
        activity: ActivityMap,
    ) -> Result<Self> {
        if tiers.len() != schema.arity() {
            return Err(storage_err!(
                "{} tiers for a schema of arity {}",
                tiers.len(),
                schema.arity()
            ));
        }
        let n = insert_epoch.len();
        if activity.len() != n {
            return Err(storage_err!(
                "activity map covers {} rows, expected {n}",
                activity.len()
            ));
        }
        for (c, tier) in tiers.iter().enumerate() {
            if tier.len() != n {
                return Err(storage_err!(
                    "tier for column {c} holds {} rows, expected {n}",
                    tier.len()
                ));
            }
        }
        for tier in &mut tiers {
            tier.recount_hot_active(activity.words());
        }
        let mut access = AccessStats::with_block_rows(block_rows);
        access.push_rows(n);
        let current_epoch = insert_epoch.max_epoch();
        Ok(Self {
            schema,
            seen: vec![MinMax::new(); tiers.len()],
            columns: tiers,
            activity,
            insert_epoch,
            access,
            current_epoch,
            block_rows,
        })
    }

    /// Restore one column's historical min/max (snapshot reader; dropped
    /// blocks lose their values so stats cannot be recomputed).
    pub fn restore_col_stats(&mut self, col: usize, min: Option<Value>, max: Option<Value>) {
        let mut seen = MinMax::new();
        for v in min.into_iter().chain(max) {
            seen.push(v);
        }
        self.seen[col] = seen;
    }

    /// Total physical rows (active + forgotten).
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, TieredColumn::len)
    }

    /// Number of active rows — the storage budget the paper holds at
    /// `DBSIZE`.
    pub fn active_rows(&self) -> usize {
        self.activity.active_count()
    }

    /// Number of forgotten rows.
    pub fn forgotten_rows(&self) -> usize {
        self.activity.forgotten_count()
    }

    /// The activity map.
    pub fn activity(&self) -> &ActivityMap {
        &self.activity
    }

    /// Access statistics (frequency / recency per tuple).
    pub fn access(&self) -> &AccessStats {
        &self.access
    }

    /// Mutable access statistics (the executor touches result rows).
    pub fn access_mut(&mut self) -> &mut AccessStats {
        &mut self.access
    }

    /// Insertion epoch of a row.
    #[inline]
    pub fn insert_epoch(&self, row: RowId) -> Epoch {
        self.insert_epoch.get(row)
    }

    /// All insertion epochs, as one run per batch (physical order).
    /// Readers that walk row ids in ascending order — every policy's
    /// candidate scan — take its [`cursor`](EpochRuns::cursor).
    pub fn insert_epochs(&self) -> &EpochRuns {
        &self.insert_epoch
    }

    /// Highest epoch observed on insert.
    pub fn current_epoch(&self) -> Epoch {
        self.current_epoch
    }

    /// Iterate over active row ids in insertion order.
    pub fn iter_active(&self) -> impl Iterator<Item = RowId> + '_ {
        self.activity.iter_active()
    }

    /// Collect the active row ids.
    pub fn active_row_ids(&self) -> Vec<RowId> {
        let mut ids = Vec::with_capacity(self.active_rows());
        ids.extend(self.iter_active());
        ids
    }

    /// Uniformly random active row.
    pub fn random_active(&self, rng: &mut SimRng) -> Option<RowId> {
        self.activity.random_active(rng)
    }

    /// Largest value seen in `col` since table creation (the paper's
    /// `RANGE` bound for query generation).
    pub fn max_seen(&self, col: usize) -> Option<Value> {
        self.seen_range(col).max()
    }

    /// Smallest value seen in `col`.
    pub fn min_seen(&self, col: usize) -> Option<Value> {
        self.seen_range(col).min()
    }

    /// Every value `col` ever held: what the column appended, and the
    /// persisted bounds of what it held before a restore.
    fn seen_range(&self, col: usize) -> MinMax {
        let mut range = self.columns[col].appended_range();
        range.merge(&self.seen[col]);
        range
    }

    /// True *resident* heap bytes: compressed frozen blocks + hot tails +
    /// per-block metadata + marking + stats. Frozen columns report their
    /// compressed size, not the flat size they replaced — this is the
    /// number the budget- and cost-based layers must see for compression
    /// to actually postpone forgetting (paper §4.4).
    pub fn memory_bytes(&self) -> usize {
        self.memory_breakdown().total()
    }

    /// [`Table::memory_bytes`] split into payload, active bitmap, death
    /// epochs and other per-row metadata — what is resident, and why.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        MemoryBreakdown {
            payload: self
                .columns
                .iter()
                .map(|c| c.memory_bytes() + std::mem::size_of::<MinMax>())
                .sum(),
            activity: self.activity.memory_bytes() - self.activity.death_bytes(),
            death_epochs: self.activity.death_bytes(),
            row_metadata: self.access.memory_bytes() + self.insert_epoch.memory_bytes(),
        }
    }

    /// Validate internal consistency (lengths agree); used by tests and
    /// debug assertions in the simulator.
    pub fn check_invariants(&self) -> Result<()> {
        let n = self.num_rows();
        for (i, c) in self.columns.iter().enumerate() {
            if c.len() != n {
                return Err(Error::Storage(format!(
                    "column {i} has {} rows, expected {n}",
                    c.len()
                )));
            }
        }
        if self.activity.len() != n {
            return Err(storage_err!(
                "activity map covers {} rows, expected {n}",
                self.activity.len()
            ));
        }
        if self.insert_epoch.len() != n {
            return Err(storage_err!(
                "insert-epoch runs cover {} rows, expected {n}",
                self.insert_epoch.len()
            ));
        }
        if self.access.len() != n {
            return Err(storage_err!(
                "access stats cover {} rows, expected {n}",
                self.access.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(values: &[Value]) -> Table {
        let mut t = Table::single("a");
        t.insert_batch(values, 0).unwrap();
        t
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = Table::new(Schema::new(vec!["a", "b"]));
        let r0 = t.insert(&[1, 10], 0).unwrap();
        let r1 = t.insert(&[2, 20], 1).unwrap();
        assert_eq!(r0, RowId(0));
        assert_eq!(r1, RowId(1));
        assert_eq!(t.value(0, r1), 2);
        assert_eq!(t.value(1, r1), 20);
        assert_eq!(t.row_values(r0), vec![1, 10]);
        assert_eq!(t.insert_epoch(r1), 1);
        assert_eq!(t.current_epoch(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::new(Schema::new(vec!["a", "b"]));
        assert!(t.insert(&[1], 0).is_err());
        let mut t1 = Table::single("a");
        t1.insert_batch(&[1, 2], 0).unwrap();
        let mut t2 = Table::new(Schema::new(vec!["a", "b"]));
        assert!(t2.insert_batch(&[1, 2], 0).is_err());
    }

    #[test]
    fn forget_changes_counts_not_storage() {
        let mut t = table_with(&[10, 20, 30]);
        assert_eq!(t.active_rows(), 3);
        assert!(t.forget(RowId(1), 1).unwrap());
        assert_eq!(t.active_rows(), 2);
        assert_eq!(t.forgotten_rows(), 1);
        assert_eq!(t.num_rows(), 3, "physical rows unchanged");
        // The value is still there: only marked.
        assert_eq!(t.value(0, RowId(1)), 20);
        // Double forget is a no-op.
        assert!(!t.forget(RowId(1), 2).unwrap());
        // Out of range errors.
        assert!(t.forget(RowId(99), 1).is_err());
    }

    #[test]
    fn forget_range_matches_forgetting_row_by_row() {
        let build = || {
            let mut t = Table::with_block_rows(Schema::new(vec!["a", "b"]), 64);
            for i in 0..300 {
                t.insert(&[i % 7, -i], 0).unwrap();
            }
            t.freeze_upto(256);
            t
        };
        let (mut by_rows, mut by_range) = (build(), build());
        // Ranges inside a word, across words and blocks, into the hot
        // tail, empty, and over rows an earlier range already forgot.
        let ranges = [(3, 5), (60, 70), (100, 230), (250, 300), (0, 0), (1, 129)];
        for (epoch, &(lo, hi)) in (1..).zip(&ranges) {
            let mut want = 0;
            for r in lo..hi {
                want += usize::from(by_rows.forget(RowId::from(r), epoch).unwrap());
            }
            assert_eq!(by_range.forget_range(lo, hi, epoch), want);
        }
        assert_eq!(by_range.activity_words(), by_rows.activity_words());
        for r in 0..300 {
            let r = RowId::from(r);
            assert_eq!(
                by_range.activity().died_at(r),
                by_rows.activity().died_at(r)
            );
        }
        for c in 0..2 {
            for b in 0..by_rows.frozen_blocks() {
                assert_eq!(by_range.col_tier(c).meta(b), by_rows.col_tier(c).meta(b));
            }
        }
        by_range.check_invariants().unwrap();
        // A run past the last row is rejected by the one check, and a
        // batch holding one forgets nothing.
        assert!(by_range.validate_forget_runs([(RowId(299), 2)]).is_err());
        assert!(by_range
            .validate_forget_runs([(RowId(u64::MAX), 1)])
            .is_err());
        let batch = [RowId(3), RowId(299), RowId(300)];
        assert!(by_range.forget_batch(&batch, 9, |_, _| Ok(())).is_err());
        assert_eq!(by_range.active_rows(), by_rows.active_rows());
    }

    #[test]
    fn batch_insert_sets_epochs() {
        let mut t = Table::single("a");
        t.insert_batch(&[1, 2], 0).unwrap();
        let first = t.insert_batch(&[3, 4, 5], 7).unwrap();
        assert_eq!(first, RowId(2));
        assert_eq!(t.insert_epoch(RowId(0)), 0);
        assert_eq!(t.insert_epoch(RowId(4)), 7);
        assert_eq!(t.current_epoch(), 7);
        assert_eq!(t.num_rows(), 5);
        t.check_invariants().unwrap();
    }

    #[test]
    fn max_seen_includes_forgotten() {
        let mut t = Table::single("a");
        assert_eq!((t.min_seen(0), t.max_seen(0)), (None, None));
        t.insert_batch(&[5, 100, 7], 0).unwrap();
        t.forget(RowId(1), 1).unwrap();
        assert_eq!(t.max_seen(0), Some(100), "RANGE covers forgotten values");
        t.insert(&[2], 1).unwrap();
        t.freeze_upto(t.num_rows());
        assert_eq!((t.min_seen(0), t.max_seen(0)), (Some(2), Some(100)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_value_panics() {
        let _ = Table::single("a").value(0, RowId(0));
    }

    #[test]
    fn iter_active_skips_forgotten() {
        let mut t = table_with(&[1, 2, 3, 4]);
        t.forget(RowId(0), 1).unwrap();
        t.forget(RowId(2), 1).unwrap();
        assert_eq!(t.active_row_ids(), vec![RowId(1), RowId(3)]);
    }

    #[test]
    fn freeze_reduces_resident_bytes_and_preserves_reads() {
        let values: Vec<Value> = (0..10_000).collect();
        let mut t = table_with(&values);
        let flat_bytes = t.memory_bytes();
        assert!(!t.has_frozen());
        let frozen = t.freeze_upto(t.num_rows());
        assert_eq!(frozen, 9, "9 full blocks of 1024");
        assert!(t.has_frozen());
        assert!(t.bytes_frozen() > 0);
        // Table-level bytes include activity/epoch/access bookkeeping;
        // the column payload itself shrinks by an order of magnitude.
        assert!(
            t.memory_bytes() < flat_bytes,
            "tiered {} vs flat {flat_bytes}",
            t.memory_bytes()
        );
        assert!(t.compression_ratio() > 2.0);
        // Point reads go through the codec fast paths.
        for r in [0usize, 63, 64, 1023, 1024, 5000, 9999] {
            assert_eq!(t.value(0, RowId::from(r)), r as i64, "row {r}");
        }
        assert_eq!(t.col_values_dense(0).as_ref(), &values[..]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn block_drop_and_recompress_lifecycle() {
        // Block 1 alternates a hot constant with serial noise: forgetting
        // the noisy rows lets recompression collapse it to one long run.
        let values: Vec<Value> = (0..4096)
            .map(|i| {
                if (1024..2048).contains(&i) && i % 2 == 0 {
                    7
                } else {
                    i
                }
            })
            .collect();
        let mut t = table_with(&values);
        t.freeze_upto(4096);
        assert_eq!(t.frozen_blocks(), 4);
        // Fully forget block 0, forget the noisy half of block 1.
        for r in 0..1024u64 {
            t.forget(RowId(r), 1).unwrap();
        }
        for r in (1025..2048u64).step_by(2) {
            t.forget(RowId(r), 1).unwrap();
        }
        let before = t.bytes_frozen();
        let (dropped, freed) = t.drop_forgotten_blocks();
        assert_eq!(dropped, 1);
        assert!(freed > 0);
        let (recompressed, saved) = t.recompress_frozen(0.5);
        assert_eq!(recompressed, 1, "only the half-forgotten block");
        assert!(saved > 0, "a constant run must shrink the payload");
        assert!(t.bytes_frozen() < before);
        // Active rows still answer exactly.
        assert_eq!(t.value(0, RowId(1026)), 7);
        assert_eq!(t.value(0, RowId(3000)), 3000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn custom_block_rows_tables() {
        let mut t = Table::with_block_rows(Schema::single("a"), 64);
        t.insert_batch(&(0..200).collect::<Vec<Value>>(), 0)
            .unwrap();
        assert_eq!(t.block_rows(), 64);
        t.freeze_upto(200);
        assert_eq!(t.frozen_blocks(), 3);
        assert_eq!(t.value(0, RowId(100)), 100);
    }

    #[test]
    fn access_stats_flow_through() {
        let mut t = table_with(&[1, 2, 3]);
        t.access_mut().touch_all(&[RowId(0), RowId(2)], 3);
        assert_eq!(t.access().frequency(RowId(0)), 1.0);
        assert_eq!(t.access().frequency(RowId(1)), 0.0);
        assert_eq!(t.access().last_access(RowId(2)), 3);
    }
}

/// The tier schedule at every width: the crate-private fan-out driven at
/// one, two and four workers, on both sides of its floor.
#[cfg(test)]
pub(crate) mod tier_width {
    use super::*;
    use crate::persist::snapshot;

    /// Three columns of `blocks + 2` full 64-row blocks and a partial
    /// one, the last column pinned to dict. Blocks 0 and 1 freeze first,
    /// inline; block 0 dies and drops, block 1 loses 40 % of its rows and
    /// recompresses. Then the calls under test, on `threads` workers: one
    /// freeze of the next `blocks` blocks and, with 5 rows in 8 of them
    /// forgotten, one recompression at 0.5 — which block 1 (59 % active)
    /// and the dropped block sit out, so it sees exactly `blocks`
    /// eligible blocks. Returns the table, the blocks the freeze froze
    /// and the recompression's `(blocks, bytes)`.
    pub(crate) fn history(threads: usize, blocks: usize) -> (Table, [usize; 3]) {
        let mut t = Table::with_block_rows(Schema::new(vec!["a", "b", "c"]), 64);
        t.pin_encoding(2, Some(Encoding::Dict));
        let rows = rows(blocks);
        for row in &rows {
            t.insert(row, 0).unwrap();
        }
        let rows = rows.len();
        assert_eq!(t.freeze_upto_on(1, 128), 2);
        for r in (0..64).chain((64..128).filter(|r| r % 5 < 2)) {
            t.forget(RowId(r), 1).unwrap();
        }
        assert_eq!(t.drop_forgotten_blocks().0, 1);
        assert_eq!(t.recompress_frozen_on(1, 0.7).0, 1);

        let frozen = t.freeze_upto_on(threads, rows);
        for r in (128..rows as u64).filter(|r| r % 8 < 5) {
            t.forget(RowId(r), 2).unwrap();
        }
        let (recompressed, saved) = t.recompress_frozen_on(threads, 0.5);
        (t, [frozen, recompressed, saved])
    }

    /// The rows [`history`] inserts: a serial column, a low-cardinality
    /// one and a wide random one.
    pub(crate) fn rows(blocks: usize) -> Vec<[Value; 3]> {
        let mut rng = SimRng::new(0x71E4);
        (0..((blocks + 2) * 64 + 40) as i64)
            .map(|i| [i, i / 7 % 5, rng.range_i64(-1 << 40, 1 << 40)])
            .collect()
    }

    /// Every column's tiers (payloads, metas, states, hot tail) and the
    /// snapshot bytes (activity, epochs, death epochs, access, bounds) of
    /// `a` and `b` agree.
    pub(crate) fn assert_same_table(a: &Table, b: &Table, ctx: &str) {
        assert_eq!(a.schema(), b.schema(), "{ctx}");
        for c in 0..a.schema().arity() {
            assert_eq!(a.col_tier(c), b.col_tier(c), "{ctx}: column {c}");
        }
        assert_eq!(snapshot::encode(a), snapshot::encode(b), "{ctx}: snapshot");
    }

    #[test]
    fn the_tier_schedule_is_identical_at_every_width() {
        for blocks in [15, 16] {
            let (want, want_counts) = history(1, blocks);
            assert_eq!(want_counts[0], blocks);
            assert!(want_counts[1] > 0 && want_counts[2] > 0, "{want_counts:?}");
            for threads in [2, 4] {
                let (got, counts) = history(threads, blocks);
                let ctx = format!("{blocks} blocks, {threads} workers");
                assert_eq!(counts, want_counts, "{ctx}: returned counts");
                assert_same_table(&got, &want, &ctx);
                assert_eq!(got.memory_bytes(), want.memory_bytes(), "{ctx}");
                got.check_invariants().unwrap();
            }
        }
    }
}
