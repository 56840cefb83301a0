//! Crash-consistent durability for amnesiac tables: segmented compressed
//! WAL, snapshots, tier-transition logging, and physical shredding.
//!
//! The paper keeps forgetting reversible only through operator action:
//! "data is forgotten and will never show up in query results, unless the
//! user takes the action and recover a backup version of the database
//! from cold storage explicitly" (§5). That contract has two durable
//! halves. A [`snapshot`] is the recoverable "backup version" and the
//! [`segment`]ed log keeps the tail of history since the last snapshot —
//! including the tier transitions, so recovery lands on the *exact*
//! pre-crash layout. And once a drop is checkpointed, the shredder
//! destroys the segments that still held the forgotten values' bytes:
//! amnesia is physical, not just logical.
//!
//! # Segment lifecycle
//!
//! ```text
//!           append                    rotate (size threshold:
//!                                              fsync, then seal)
//!   record ────────▶ active segment ─────────────▶ sealed segment
//!                        │                              │
//!                        │ checkpoint                   │ checkpoint:
//!                        │ (snapshot commit)            │   covered? ──▶ unlink
//!                        ▼                              │ drop+shred:
//!                   keeps appending                     │   covered? ──▶ zero,
//!                   (covered prefix is                  │       fsync, unlink
//!                    skipped at replay)                 ▼
//! ```
//!
//! A sealed segment is never written or fsynced again, so `rotate` fsyncs
//! the old handle *before* it seals: every byte of a sealed segment is
//! durable, and a later fsync of the active segment is all a batch
//! boundary needs even when the batch's log spanned several rotations.
//!
//! # Recovery
//!
//! [`PersistentTable::open`] walks this state machine:
//!
//! ```text
//!        ┌────────────────┐  version < 3 + table.wal   ┌───────────────┐
//!        │ load snapshot   │ ─────────────────────────▶ │ legacy replay │
//!        │ (+RecoveryMeta) │                            │ + checkpoint  │
//!        └───────┬────────┘                            │ + unlink .wal │
//!                │ v3+: snapshot covers seqno ≤ S       └───────────────┘
//!                ▼
//!        ┌────────────────┐  per segment, index order
//!        │ scan segments   │──▶ dead header ─▶ unlink (shred/create died)
//!        │                 │──▶ torn tail ──▶ truncate in place at the
//!        │                 │                  last valid frame
//!        │                 │──▶ seqno gap ──▶ stop; unlink the rest
//!        └───────┬────────┘
//!                ▼
//!        ┌────────────────┐
//!        │ apply records   │  skip seqno ≤ S; inserts/forgets mutate rows,
//!        │ with seqno > S  │  Freeze/DropBlocks/Recompress replay the
//!        └────────────────┘  tier transitions parameter-for-parameter
//! ```
//!
//! Recovery is prefix-consistent: a torn or bit-flipped tail loses only
//! the unacknowledged suffix, never checkpointed state, and a record is
//! never applied unless every record before it was.
//!
//! Before it reads the snapshot, `open` removes the `table.tmp` a save
//! the crash interrupted may have left. A non-empty one may hold frozen
//! payload bytes, so it is zero-filled and fsynced before the unlink, as
//! the shredder does with a segment.
//!
//! ## What an open costs
//!
//! Each phase touches each byte once:
//!
//! 1. **Read and check.** The snapshot file is read whole and its CRC-32
//!    checked where the payload lies in that buffer, with no copy. The
//!    carry-less-multiply kernel ([`amnesia_util::crc`]) runs at the speed
//!    of memory, so the check costs about what the read does.
//! 2. **Decode** ([`snapshot`]). On the calling thread, each frozen
//!    payload is copied out as its header is read, and each hot tail is
//!    checked where it lies in the file's buffer; then its values and the
//!    metas of its full blocks are reserved at their exact sizes. One job
//!    per column decodes its tail into those buffers and seals each full
//!    block's meta as the block fills, while its rows are in cache. Job 0,
//!    which always runs on the calling thread, reads the row metadata
//!    meanwhile: the death runs in one varint loop, applied a page at a
//!    time. The jobs run on every core once the tails hold
//!    `TIER_FAN_OUT_BLOCKS` (16) full blocks between them, inline below,
//!    so a frozen table's short tails never start a thread.
//! 3. **Replay.** Segment records are parsed, CRC-checked, and moved (not
//!    copied) into the apply loop. The loop runs them through the live
//!    mutators, so tier transitions fan out as they do live.
//!
//! Every buffer of the decode is allocated by the calling thread, and the
//! decode jobs allocate nothing (`tests/worker_allocations.rs` counts).
//! A worker's allocations come from its own glibc arena: once the
//! restored table is dropped, the main heap has that much less to reuse,
//! and when an earlier parallel decode allocated its columns on the
//! workers, the benchmark's next repetition faulted ~19 000 more pages in
//! its set-up.
//!
//! On a 2-core x86-64 VM, the benchmark's crashed `sql_hot` directory (a
//! 9.7 MB snapshot of four 2 M-row hot columns, 400 K rows forgotten)
//! opens in ~20 ms when the heap already holds the memory, and in
//! ~41–50 ms when the 64 MB of tail buffers are touched for the first
//! time (~18 K page faults); inline, on one core, in ~32 and ~60 ms. Of
//! the warm open, the read takes ~1.7 ms, the CRC ~1.3 ms, the headers,
//! frozen payloads and reservations ~1 ms, and the jobs ~15 ms; on one
//! core the tails alone take ~20 ms and the row metadata ~8 ms.
//!
//! # One write path
//!
//! Every mutation of a durable table is one sequence, and [`DurableLog`]'s
//! transition methods are the only place it is written:
//!
//! ```text
//!   validate ──▶ log ──▶ apply            (insert, insert_batch, forget,
//!   (the table,   (one      (the table's    forget_batch, freeze_upto,
//!    read-only)    record)   own mutator)    recompress_frozen)
//!
//!   log drop ─▶ fsync ─▶ apply drop ─▶ count ─▶ [recompress] ─▶ shred
//!                                                (reclaim: the only way
//!                                                 a durable table gives
//!                                                 bytes up)
//! ```
//!
//! Each method takes the [`Table`] it logs for, because the log does not
//! own one: [`PersistentTable`] keeps a table and a log side by side and
//! its mutators are one-line calls, and the core store
//! (`amnesia_core::AmnesiacStore`) holds the two halves
//! [`PersistentTable::into_parts`] hands it and makes the same calls.
//! *Validate* is the table's (`Table::validate_*`): a record that reaches
//! the log must always apply, now and at replay, or one rejected call
//! would leave a durable record that bricks every future recovery.
//! *Apply* is the table's too, the same mutators recovery replays
//! through, so live and recovered state cannot diverge. A forget mode's
//! *emission* (archive, absorb into a summary) is not part of the
//! sequence: it hangs off the hook `Table::forget_batch` fires for a
//! row's first active → forgotten transition, after the record is down.
//! The *shred* sits at the end of [`DurableLog::reclaim`]: once a drop
//! has freed a block, the post-drop state is snapshotted and every covered
//! segment — where the dropped values' encodings still live — is zeroed,
//! fsynced and unlinked.
//!
//! # Durability policies
//!
//! "Acknowledged" means different things under different [`SyncPolicy`]s:
//! per-record (every append fsyncs before returning), per-batch (a
//! [`DurableLog::commit`] / [`PersistentTable::sync`] fsyncs the
//! batch), or manual. Log records are batch-granular — one kind-3 record
//! per `insert_batch`, one kind-8 record per `forget_batch`, one record
//! per tier transition — so under per-batch sync a cycle of the amnesia
//! loop is a handful of appends and one fsync however many rows it
//! touched. Crash tests in `tests/persistence.rs` enforce each policy's
//! contract under scripted fault injection ([`fault::FaultVfs`]) — a dead
//! process at every storage operation — and this module's tests add
//! power loss (everything not fsynced is gone, closed handles included).
//!
//! The crash matrix has a static twin: `amnesia-lint` bans `unwrap`/
//! `expect`/`panic!` throughout this module tree, so corrupt on-disk
//! bytes surface as `Err` on every path, not just the ones a fault
//! schedule happens to hit (rules and waiver syntax: `CONTRIBUTING.md`
//! at the repo root).

pub mod fault;
pub mod reader;
pub mod segment;
pub mod snapshot;
pub mod vfs;
pub mod wal;

use std::path::{Path, PathBuf};

use amnesia_util::Result;

use crate::schema::Schema;
use crate::table::{forget_runs, Table};
use crate::types::{Epoch, RowId, Value};

pub use fault::{Fault, FaultKind, FaultVfs};
pub use segment::{recover_segments, SegmentedWal, WalStats, DEFAULT_SEGMENT_BYTES};
pub use snapshot::RecoveryMeta;
pub use vfs::{SharedVfs, StdVfs, Vfs, VfsFile};
pub use wal::{replay, ReplayOutcome, WalRecord};

use snapshot as snap;

/// Snapshot file name inside a table directory.
pub const SNAPSHOT_FILE: &str = "table.snap";
/// Pre-segment (monolithic) WAL file name; found only in directories
/// written before the segmented log, and migrated away on first open.
pub const LEGACY_WAL_FILE: &str = "table.wal";

/// When appended records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync inside every logging call: once `insert`/`forget` returns,
    /// the record survives any crash. The strongest and slowest option.
    #[default]
    PerRecord,
    /// fsync at batch boundaries ([`DurableLog::commit`] /
    /// [`PersistentTable::sync`]): a crash mid-batch may lose the whole
    /// unsynced batch, never a synced one.
    PerBatch,
    /// The caller owns [`PersistentTable::sync`]; nothing is implied.
    Manual,
}

/// The durability half of a [`PersistentTable`]: segmented WAL, snapshot
/// bookkeeping, sync policy, and cumulative tier counters — and the one
/// validate → log → apply sequence of every transition (module docs).
/// Owns no table: each method takes the one it logs for.
#[derive(Debug)]
pub struct DurableLog {
    vfs: SharedVfs,
    dir: PathBuf,
    wal: SegmentedWal,
    policy: SyncPolicy,
    /// What the next snapshot records: the seqno the last one covered and
    /// the cumulative tier counters (live).
    meta: RecoveryMeta,
    last_epoch: u64,
    records_since_checkpoint: u64,
}

impl DurableLog {
    /// A log over `wal` in `dir` whose cumulative counters resume from
    /// `meta` (what the snapshot recorded plus what replay added).
    fn new(
        vfs: SharedVfs,
        dir: PathBuf,
        wal: SegmentedWal,
        policy: SyncPolicy,
        meta: RecoveryMeta,
    ) -> Self {
        Self {
            vfs,
            dir,
            wal,
            policy,
            meta,
            last_epoch: 0,
            records_since_checkpoint: 0,
        }
    }

    fn append(&mut self, rec: &WalRecord) -> Result<()> {
        self.append_body(&rec.encode_body())
    }

    /// [`Self::append`] for a body encoded already.
    fn append_body(&mut self, body: &[u8]) -> Result<()> {
        self.wal.append_body(body, self.last_epoch)?;
        self.records_since_checkpoint += 1;
        if self.policy == SyncPolicy::PerRecord {
            self.wal.sync()?;
        }
        Ok(())
    }

    /// Insert one row: validated, logged, then applied — a call the table
    /// would reject never reaches the log, so replay can never hit a
    /// record that fails to apply.
    pub fn insert(&mut self, table: &mut Table, values: &[Value], epoch: Epoch) -> Result<RowId> {
        table.validate_insert(values)?;
        self.last_epoch = epoch;
        self.append(&WalRecord::Insert {
            epoch,
            rows: vec![values.to_vec()],
        })?;
        table.insert(values, epoch)
    }

    /// Insert a batch into a one-column table, as one record.
    pub fn insert_batch(
        &mut self,
        table: &mut Table,
        values: &[Value],
        epoch: Epoch,
    ) -> Result<RowId> {
        table.validate_insert_batch()?;
        self.last_epoch = epoch;
        self.append(&WalRecord::InsertColumn {
            epoch,
            values: values.to_vec(),
        })?;
        table.insert_batch(values, epoch)
    }

    /// Forget one row. `true` when it was still active.
    pub fn forget(&mut self, table: &mut Table, row: RowId, epoch: Epoch) -> Result<bool> {
        table.validate_forget(row)?;
        self.last_epoch = epoch;
        self.append(&WalRecord::Forget { epoch, row })?;
        table.forget(row, epoch)
    }

    /// Forget a batch of rows atomically, as one record of its runs: the
    /// runs are checked before anything is logged, so a rejected batch
    /// leaves the log and the table untouched (and an empty one logs
    /// nothing), and then applied by the path replay applies them with.
    /// `on_first` is [`Table::forget_batch`]'s hook. Returns how many of
    /// the rows were still active.
    pub fn forget_batch(
        &mut self,
        table: &mut Table,
        rows: &[RowId],
        epoch: Epoch,
        on_first: impl FnMut(&Table, RowId) -> Result<()>,
    ) -> Result<usize> {
        table.validate_forget_runs(forget_runs(rows))?;
        if rows.is_empty() {
            return Ok(0);
        }
        self.last_epoch = epoch;
        self.append_body(&wal::encode_forget_rows(epoch, rows))?;
        table.apply_forget_runs(forget_runs(rows), epoch, on_first)
    }

    /// Freeze full blocks at or below `upto` rows. Tier transitions log
    /// their *parameters*; replay re-runs the same deterministic call.
    /// Returns the number of blocks frozen.
    pub fn freeze_upto(&mut self, table: &mut Table, upto: usize) -> Result<usize> {
        self.append(&WalRecord::Freeze { upto })?;
        Ok(table.freeze_upto(upto))
    }

    /// Recompress frozen blocks whose active fraction fell to the
    /// threshold or below. Returns `(blocks, bytes saved)`.
    pub fn recompress_frozen(
        &mut self,
        table: &mut Table,
        max_active_fraction: f64,
    ) -> Result<(usize, usize)> {
        self.append(&WalRecord::Recompress {
            max_active_fraction,
        })?;
        let (blocks, bytes) = table.recompress_frozen(max_active_fraction);
        self.meta.blocks_recompressed += blocks as u64;
        Ok((blocks, bytes))
    }

    /// The reclaim step — drop, count, shred: fully-forgotten frozen
    /// blocks give their payloads up, durably and *physically*. With
    /// `schedule = Some((freeze_upto, recompress_below))` it is one turn
    /// of the tier schedule (what a batch boundary runs): the freeze goes
    /// first and the recompression sits between the drop and the shred,
    /// so the shred's snapshot covers all three and the log starts empty
    /// after it. Returns what [`Table::drop_forgotten_blocks`] and
    /// [`Table::recompress_frozen`] returned (the latter `(0, 0)` without
    /// a schedule).
    pub fn reclaim(
        &mut self,
        table: &mut Table,
        schedule: Option<(usize, f64)>,
    ) -> Result<((usize, usize), (usize, usize))> {
        if let Some((upto, _)) = schedule {
            self.freeze_upto(table, upto)?;
        }
        // The drop must be durable before anything is destroyed: if the
        // shred's snapshot never commits, replay has to redo the drop.
        self.append(&WalRecord::DropBlocks)?;
        if self.policy != SyncPolicy::PerRecord {
            self.wal.sync()?;
        }
        let dropped = table.drop_forgotten_blocks();
        self.meta.blocks_dropped += dropped.0 as u64;
        let recompressed = match schedule {
            Some((_, below)) => self.recompress_frozen(table, below)?,
            None => (0, 0),
        };
        if dropped.0 > 0 {
            // Amnesia must reach the log too: snapshot the post-drop
            // state, then destroy (zero + fsync + unlink) every covered
            // segment — the active one included — where the dropped
            // values' encodings still live.
            let through = self.save_snapshot(table)?;
            self.wal.shred_covered(through)?;
            self.records_since_checkpoint = 0;
        }
        Ok((dropped, recompressed))
    }

    /// Batch boundary: under [`SyncPolicy::PerBatch`] this is the fsync.
    pub fn commit(&mut self) -> Result<()> {
        if self.policy == SyncPolicy::PerBatch {
            self.wal.sync()?;
        }
        Ok(())
    }

    /// Make everything appended so far durable regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Snapshot `table` and prune covered segments (unlink only). Replay
    /// after a crash starts from this state.
    pub fn checkpoint(&mut self, table: &Table) -> Result<()> {
        let through = self.save_snapshot(table)?;
        self.wal.prune_covered(through)?;
        self.append(&WalRecord::Checkpoint {
            through_seqno: through,
        })?;
        self.records_since_checkpoint = 0;
        Ok(())
    }

    /// Write the snapshot covering every record logged so far; returns
    /// the seqno it covers. The rename inside is the commit point: from
    /// here on, replay starts past it and the covered segments are
    /// redundant.
    fn save_snapshot(&mut self, table: &Table) -> Result<u64> {
        self.meta.last_seqno = self.wal.next_seqno() - 1;
        let path = self.dir.join(SNAPSHOT_FILE);
        snap::save_with(&*self.vfs, table, self.meta, &path)?;
        self.wal.note_checkpoint();
        Ok(self.meta.last_seqno)
    }

    /// Change the sync policy (affects subsequent appends).
    pub fn set_policy(&mut self, policy: SyncPolicy) {
        self.policy = policy;
    }

    /// Cumulative frozen blocks dropped (survives checkpoints/restarts).
    pub fn blocks_dropped(&self) -> u64 {
        self.meta.blocks_dropped
    }

    /// Cumulative frozen blocks recompressed.
    pub fn blocks_recompressed(&self) -> u64 {
        self.meta.blocks_recompressed
    }

    /// Records logged since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.records_since_checkpoint
    }

    /// Durability counters (appends, rotations, shreds, fsyncs).
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }
}

/// Apply one replayed record to a table — through the mutators the live
/// sequence applies with — adding the blocks it dropped or recompressed
/// to `meta`, so recovery keeps the cumulative counters exact.
fn apply_record(table: &mut Table, rec: &WalRecord, meta: &mut RecoveryMeta) -> Result<()> {
    match rec {
        WalRecord::Insert { epoch, rows } => {
            for row in rows {
                table.insert(row, *epoch)?;
            }
        }
        WalRecord::InsertColumn { epoch, values } => {
            table.insert_batch(values, *epoch)?;
        }
        WalRecord::Forget { epoch, row } => {
            table.forget(*row, *epoch)?;
        }
        WalRecord::ForgetRows { epoch, runs } => {
            // Whole record or nothing, and no loop over a run the table
            // cannot hold.
            table.validate_forget_runs(runs.iter().copied())?;
            table.apply_forget_runs(runs.iter().copied(), *epoch, |_, _| Ok(()))?;
        }
        WalRecord::Freeze { upto } => {
            table.freeze_upto(*upto);
        }
        WalRecord::DropBlocks => {
            meta.blocks_dropped += table.drop_forgotten_blocks().0 as u64;
        }
        WalRecord::Recompress {
            max_active_fraction,
        } => {
            meta.blocks_recompressed += table.recompress_frozen(*max_active_fraction).0 as u64;
        }
        WalRecord::Checkpoint { .. } => {}
    }
    Ok(())
}

/// Remove the temp file a save the crash interrupted left beside the
/// snapshot at `snap_path` ([`snap::save_with`] writes it before the
/// rename). One cut short after its payload was written holds frozen
/// payload bytes, so a non-empty one goes the shredder's way: zero-fill,
/// fsynced, then unlink. An empty one is just unlinked.
fn remove_stale_tmp(vfs: &dyn Vfs, snap_path: &Path) -> Result<()> {
    let tmp = snap_path.with_extension("tmp");
    if !vfs.exists(&tmp) {
        return Ok(());
    }
    let len = vfs.file_len(&tmp)? as usize;
    if len > 0 {
        vfs.overwrite(&tmp, &vec![0u8; len])?;
    }
    vfs.remove_file(&tmp)
}

/// A [`Table`] with a durable home directory.
///
/// Every mutator is a one-line call to the [`DurableLog`] method of the
/// same name (validate → log → apply, module docs);
/// [`checkpoint`] (snapshot + segment pruning) bounds replay time, and
/// tier transitions are both logged and — for drops — followed by a
/// physical shred of the covered segments. [`PersistentTable::open`]
/// recovers snapshot + segment tail after a crash (see the module docs
/// for the full state machine).
///
/// [`checkpoint`]: PersistentTable::checkpoint
#[derive(Debug)]
pub struct PersistentTable {
    table: Table,
    log: DurableLog,
    recovered_clean: bool,
}

impl PersistentTable {
    /// Create a fresh durable table in `dir` (created if missing) with
    /// the default backend and [`SyncPolicy::PerRecord`]. An initial
    /// empty snapshot is written immediately so that `open` on a
    /// crashed-before-first-checkpoint directory still finds the schema.
    pub fn create(dir: impl Into<PathBuf>, schema: Schema) -> Result<Self> {
        Self::create_with(StdVfs::shared(), dir, schema, SyncPolicy::PerRecord)
    }

    /// [`create`](PersistentTable::create) with an explicit storage
    /// backend and sync policy.
    pub fn create_with(
        vfs: SharedVfs,
        dir: impl Into<PathBuf>,
        schema: Schema,
        policy: SyncPolicy,
    ) -> Result<Self> {
        Self::create_with_table(vfs, dir, Table::new(schema), policy)
    }

    /// [`create`](PersistentTable::create) around a caller-built table —
    /// e.g. one with a non-default tier block size, or already holding
    /// rows (the initial snapshot covers them; the log starts empty).
    pub fn create_with_table(
        vfs: SharedVfs,
        dir: impl Into<PathBuf>,
        table: Table,
        policy: SyncPolicy,
    ) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        // Clear any stale log files from a previous incarnation.
        for path in vfs.list_dir(&dir)? {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == LEGACY_WAL_FILE
                || (name.starts_with(segment::SEGMENT_PREFIX)
                    && name.ends_with(segment::SEGMENT_SUFFIX))
            {
                vfs.remove_file(&path)?;
            }
        }
        snap::save_with(
            &*vfs,
            &table,
            RecoveryMeta::default(),
            &dir.join(SNAPSHOT_FILE),
        )?;
        let wal = SegmentedWal::create(vfs.clone(), &dir, 1)?;
        Ok(Self {
            table,
            log: DurableLog::new(vfs, dir, wal, policy, RecoveryMeta::default()),
            recovered_clean: true,
        })
    }

    /// Open an existing durable table with the default backend.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(StdVfs::shared(), dir)
    }

    /// Open an existing durable table: load the snapshot, repair and
    /// replay the segment tail (or migrate a pre-segment directory).
    pub fn open_with(vfs: SharedVfs, dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let snap_path = dir.join(SNAPSHOT_FILE);
        remove_stale_tmp(&*vfs, &snap_path)?;
        let snap_bytes = vfs.read(&snap_path)?;
        let version = snap::peek_version(&snap_bytes)?;
        let (mut table, mut meta) = snap::decode_with_meta(&snap_bytes)?;
        let legacy_path = dir.join(LEGACY_WAL_FILE);

        if version < 3 && vfs.exists(&legacy_path) {
            // Pre-segment directory: replay the monolithic log, then
            // checkpoint into the new layout and drop the old file. A v3+
            // snapshot is the "migrated" marker — its rename commits the
            // migration, so a crash before the unlink merely re-runs the
            // (now no-op) cleanup, never re-applies the legacy records.
            let outcome = replay(&vfs.read(&legacy_path)?);
            for rec in &outcome.records {
                apply_record(&mut table, rec, &mut meta)?;
            }
            let wal = SegmentedWal::create(vfs.clone(), &dir, 1)?;
            let log = DurableLog::new(vfs, dir, wal, SyncPolicy::PerRecord, meta);
            snap::save_with(&*log.vfs, &table, log.meta, &snap_path)?;
            log.vfs.remove_file(&legacy_path)?;
            return Ok(Self {
                table,
                log,
                recovered_clean: outcome.clean,
            });
        }
        if vfs.exists(&legacy_path) {
            // Migration already committed (v3+ snapshot) but the cleanup
            // unlink crashed: finish it now.
            vfs.remove_file(&legacy_path)?;
        }

        let recovery = recover_segments(vfs.clone(), &dir, meta.last_seqno, DEFAULT_SEGMENT_BYTES)?;
        let mut applied = 0u64;
        for rec in &recovery.records {
            apply_record(&mut table, rec, &mut meta)?;
            applied += u64::from(!matches!(rec, WalRecord::Checkpoint { .. }));
        }
        let mut log = DurableLog::new(vfs, dir, recovery.wal, SyncPolicy::PerRecord, meta);
        log.records_since_checkpoint = applied;
        Ok(Self {
            table,
            log,
            recovered_clean: recovery.clean,
        })
    }

    /// The in-memory table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The durable directory.
    pub fn dir(&self) -> &Path {
        &self.log.dir
    }

    /// Did the last `open` find an undamaged log?
    pub fn recovered_clean(&self) -> bool {
        self.recovered_clean
    }

    /// WAL records applied since the last checkpoint.
    pub fn records_since_checkpoint(&self) -> u64 {
        self.log.records_since_checkpoint()
    }

    /// Change the sync policy for subsequent writes.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.log.set_policy(policy);
    }

    /// Durability counters (appends, rotations, shreds, fsyncs).
    pub fn stats(&self) -> WalStats {
        self.log.stats()
    }

    /// Cumulative frozen blocks dropped across the table's history.
    pub fn blocks_dropped(&self) -> u64 {
        self.log.blocks_dropped()
    }

    /// Cumulative frozen blocks recompressed across the table's history.
    pub fn blocks_recompressed(&self) -> u64 {
        self.log.blocks_recompressed()
    }

    /// Split into the table and its log (the core store keeps the two
    /// side by side and makes the same [`DurableLog`] calls).
    pub fn into_parts(self) -> (Table, DurableLog) {
        (self.table, self.log)
    }

    /// Insert one row durably ([`DurableLog::insert`]).
    pub fn insert(&mut self, values: &[Value], epoch: Epoch) -> Result<RowId> {
        self.log.insert(&mut self.table, values, epoch)
    }

    /// Insert a batch of single-column values durably
    /// ([`DurableLog::insert_batch`]).
    pub fn insert_batch(&mut self, values: &[Value], epoch: Epoch) -> Result<RowId> {
        self.log.insert_batch(&mut self.table, values, epoch)
    }

    /// Forget one row durably ([`DurableLog::forget`]).
    pub fn forget(&mut self, row: RowId, epoch: Epoch) -> Result<bool> {
        self.log.forget(&mut self.table, row, epoch)
    }

    /// Forget a batch of rows durably and atomically
    /// ([`DurableLog::forget_batch`]). Returns how many were still active.
    pub fn forget_batch(&mut self, rows: &[RowId], epoch: Epoch) -> Result<usize> {
        self.log
            .forget_batch(&mut self.table, rows, epoch, |_, _| Ok(()))
    }

    /// Freeze full blocks at or below `upto` rows, durably
    /// ([`DurableLog::freeze_upto`]). Returns the number of blocks frozen.
    pub fn freeze_upto(&mut self, upto: usize) -> Result<usize> {
        self.log.freeze_upto(&mut self.table, upto)
    }

    /// Drop fully-forgotten frozen blocks, durably and *physically*
    /// ([`DurableLog::reclaim`]): the drop is logged, applied,
    /// checkpointed, and the log segments that still carried the dropped
    /// values are zero-overwritten and unlinked. Returns `(blocks dropped,
    /// bytes freed)`.
    pub fn drop_forgotten_blocks(&mut self) -> Result<(usize, usize)> {
        Ok(self.log.reclaim(&mut self.table, None)?.0)
    }

    /// Recompress frozen blocks whose active fraction fell below the
    /// threshold, durably ([`DurableLog::recompress_frozen`]). Returns
    /// `(blocks, bytes saved)`.
    pub fn recompress_frozen(&mut self, max_active_fraction: f64) -> Result<(usize, usize)> {
        self.log
            .recompress_frozen(&mut self.table, max_active_fraction)
    }

    /// Make everything appended so far durable.
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Write a snapshot and prune covered segments. Replay after a crash
    /// now starts from this state.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.log.checkpoint(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amn-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn drive(pt: &mut PersistentTable) {
        pt.insert_batch(&(0..100).collect::<Vec<i64>>(), 0).unwrap();
        for r in (0..50u64).step_by(3) {
            pt.forget(RowId(r), 1).unwrap();
        }
        pt.insert_batch(&(100..150).collect::<Vec<i64>>(), 2)
            .unwrap();
        pt.sync().unwrap();
    }

    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let p = e.unwrap().path();
                let name = p.file_name()?.to_str()?;
                (name.starts_with(segment::SEGMENT_PREFIX)
                    && name.ends_with(segment::SEGMENT_SUFFIX))
                .then_some(p)
            })
            .collect()
    }

    #[test]
    fn create_write_reopen_equals_live_state() {
        let dir = tmp_dir("reopen");
        let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        drive(&mut pt);
        let live_active = pt.table().active_rows();
        let live_rows = pt.table().num_rows();
        drop(pt);

        let reopened = PersistentTable::open(&dir).unwrap();
        assert!(reopened.recovered_clean());
        assert_eq!(reopened.table().num_rows(), live_rows);
        assert_eq!(reopened.table().active_rows(), live_active);
        assert_eq!(reopened.table().value(0, RowId(120)), 120);
        assert_eq!(reopened.table().insert_epoch(RowId(120)), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_bounds_the_log() {
        let dir = tmp_dir("checkpoint");
        let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        drive(&mut pt);
        assert!(pt.records_since_checkpoint() > 0);
        pt.checkpoint().unwrap();
        assert_eq!(pt.records_since_checkpoint(), 0);
        // Post-checkpoint writes land in the log and recover.
        pt.insert(&[999], 3).unwrap();
        pt.sync().unwrap();
        drop(pt);
        let reopened = PersistentTable::open(&dir).unwrap();
        assert_eq!(reopened.records_since_checkpoint(), 1);
        let last = RowId::from(reopened.table().num_rows() - 1);
        assert_eq!(reopened.table().value(0, last), 999);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_with_torn_tail_recovers_prefix() {
        let dir = tmp_dir("torn");
        let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        pt.insert_batch(&(0..10).collect::<Vec<i64>>(), 0).unwrap();
        pt.forget(RowId(3), 1).unwrap();
        pt.sync().unwrap();
        drop(pt);
        // Simulate a crash mid-append: chop bytes off the newest segment.
        let seg = segment_files(&dir).pop().unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let reopened = PersistentTable::open(&dir).unwrap();
        assert!(!reopened.recovered_clean());
        // The forget record was the torn one: inserts survive, the
        // unacknowledged forget is gone.
        assert_eq!(reopened.table().num_rows(), 10);
        assert_eq!(reopened.table().active_rows(), 10);
        // The trimmed log accepts new appends and recovers them.
        let mut reopened = reopened;
        reopened.forget(RowId(5), 2).unwrap();
        reopened.sync().unwrap();
        drop(reopened);
        let again = PersistentTable::open(&dir).unwrap();
        assert!(again.recovered_clean());
        assert_eq!(again.table().active_rows(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_column_rows_survive_recovery() {
        let dir = tmp_dir("multicol");
        let mut pt = PersistentTable::create(&dir, Schema::new(vec!["k", "v"])).unwrap();
        pt.insert(&[1, 100], 0).unwrap();
        pt.insert(&[2, 200], 0).unwrap();
        pt.forget(RowId(0), 1).unwrap();
        pt.checkpoint().unwrap();
        pt.insert(&[3, 300], 2).unwrap();
        pt.sync().unwrap();
        drop(pt);
        let pt = PersistentTable::open(&dir).unwrap();
        assert_eq!(pt.table().row_values(RowId(2)), vec![3, 300]);
        assert!(!pt.table().activity().is_active(RowId(0)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_without_directory_errors() {
        assert!(PersistentTable::open(tmp_dir("missing")).is_err());
    }

    #[test]
    fn rejected_calls_leave_no_poison_in_the_log() {
        // Write-ahead means a record hits the log before the table; a
        // call the table rejects must therefore be caught *before*
        // logging, or the durable record would fail to apply at every
        // replay and brick recovery forever.
        let dir = tmp_dir("poison");
        let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        pt.insert(&[1], 0).unwrap();
        assert!(pt.insert(&[1, 2], 0).is_err(), "arity mismatch rejected");
        assert!(pt.forget(RowId(99), 0).is_err(), "out-of-range rejected");
        pt.insert(&[2], 1).unwrap();
        pt.sync().unwrap();
        drop(pt);
        let rec = PersistentTable::open(&dir).expect("rejected calls must not poison recovery");
        assert!(rec.recovered_clean());
        assert_eq!(rec.table().num_rows(), 2);
        assert_eq!(rec.table().active_rows(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_ahead_of_lost_wal_tail_keeps_later_writes_recoverable() {
        // Manual sync: records are acknowledged into the OS buffer, a
        // checkpoint durably commits a snapshot covering them, then the
        // crash loses the unflushed WAL tail. Recovery must not reopen
        // the stale tail segment for appending — new writes would create
        // an in-segment seqno gap that the *next* open mistakes for
        // corruption and discards.
        let dir = tmp_dir("horizon");
        let mut pt = PersistentTable::create_with(
            StdVfs::shared(),
            &dir,
            Schema::single("a"),
            SyncPolicy::Manual,
        )
        .unwrap();
        for i in 0..10 {
            pt.insert(&[i], 0).unwrap();
        }
        pt.checkpoint().unwrap(); // snapshot covers seqnos 1..=10
        drop(pt);
        // Simulate the lost tail: every logged record vanishes, only the
        // segment header (and the durable snapshot) survive.
        for seg in segment_files(&dir) {
            let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
            f.set_len(segment::SEGMENT_HEADER_LEN as u64).unwrap();
        }
        let mut pt = PersistentTable::open(&dir).unwrap();
        assert_eq!(pt.table().num_rows(), 10, "snapshot carries the rows");
        pt.insert(&[99], 1).unwrap();
        pt.sync().unwrap();
        drop(pt);
        // The acknowledged post-crash insert must survive the next open.
        let rec = PersistentTable::open(&dir).unwrap();
        assert!(rec.recovered_clean(), "no fake corruption");
        assert_eq!(rec.table().num_rows(), 11);
        assert_eq!(rec.table().value(0, RowId(10)), 99);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_transitions_replay_to_the_exact_layout() {
        let dir = tmp_dir("tiers");
        let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        let values: Vec<i64> = (0..4096).collect();
        pt.insert_batch(&values, 0).unwrap();
        pt.freeze_upto(4096).unwrap();
        for r in 0..1024u64 {
            pt.forget(RowId(r), 1).unwrap();
        }
        for r in (1024..2048u64).step_by(2) {
            pt.forget(RowId(r), 2).unwrap();
        }
        pt.recompress_frozen(0.6).unwrap();
        pt.sync().unwrap();
        let live_frozen = pt.table().frozen_blocks();
        let live_bytes = pt.table().bytes_frozen();
        let live_recompressed = pt.blocks_recompressed();
        drop(pt);
        // No checkpoint happened since the transitions: recovery must
        // replay Freeze + Recompress records to the identical layout.
        let rec = PersistentTable::open(&dir).unwrap();
        assert!(rec.recovered_clean());
        assert_eq!(rec.table().frozen_blocks(), live_frozen);
        assert_eq!(rec.table().bytes_frozen(), live_bytes);
        assert_eq!(rec.blocks_recompressed(), live_recompressed);
        rec.table().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash right after a fanned-out freeze and recompression (20
    /// blocks, over the fan-out floor) recovers, by replaying both
    /// records through the same fan-out, to the live table — which is the
    /// table the same history builds on one worker.
    #[test]
    fn a_fanned_out_sweep_replays_to_the_live_table() {
        use crate::compress::Encoding;
        use crate::table::tier_width::{assert_same_table, history, rows};
        let dir = tmp_dir("fan-out");
        let (serial, counts) = history(1, 20);
        let mut table = Table::with_block_rows(Schema::new(vec!["a", "b", "c"]), 64);
        table.pin_encoding(2, Some(Encoding::Dict));
        let mut pt = PersistentTable::create_with_table(
            StdVfs::shared(),
            &dir,
            table,
            SyncPolicy::PerRecord,
        )
        .unwrap();
        // `history`'s steps, logged.
        let rows = rows(20);
        for row in &rows {
            pt.insert(row, 0).unwrap();
        }
        pt.freeze_upto(128).unwrap();
        let first: Vec<RowId> = (0..64)
            .chain((64..128).filter(|r| r % 5 < 2))
            .map(RowId)
            .collect();
        pt.forget_batch(&first, 1).unwrap();
        pt.drop_forgotten_blocks().unwrap();
        pt.recompress_frozen(0.7).unwrap();
        assert_eq!(pt.freeze_upto(rows.len()).unwrap(), counts[0]);
        let n = rows.len() as u64;
        let second: Vec<RowId> = (128..n).filter(|r| r % 8 < 5).map(RowId).collect();
        pt.forget_batch(&second, 2).unwrap();
        assert_eq!(pt.recompress_frozen(0.5).unwrap(), (counts[1], counts[2]));
        let live = pt.table().clone();
        let live_recompressed = pt.blocks_recompressed();
        assert_same_table(&live, &serial, "live at full width vs one worker");
        drop(pt);
        let rec = PersistentTable::open(&dir).unwrap();
        assert!(rec.recovered_clean());
        assert_same_table(rec.table(), &live, "recovered vs live");
        assert_eq!(rec.blocks_recompressed(), live_recompressed);
        rec.table().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_shreds_the_covered_segments() {
        let dir = tmp_dir("dropshred");
        let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        let values: Vec<i64> = (0..2048).collect();
        pt.insert_batch(&values, 0).unwrap();
        pt.freeze_upto(2048).unwrap();
        for r in 0..1024u64 {
            pt.forget(RowId(r), 1).unwrap();
        }
        let (blocks, bytes) = pt.drop_forgotten_blocks().unwrap();
        assert!(blocks > 0 && bytes > 0);
        assert!(pt.stats().segments_shredded > 0);
        assert!(pt.stats().bytes_shredded > 0);
        assert_eq!(pt.blocks_dropped(), blocks as u64);
        let live_dropped_rows = pt.table().dropped_rows();
        // Recovery agrees with the live layout and counters.
        pt.sync().unwrap();
        drop(pt);
        let rec = PersistentTable::open(&dir).unwrap();
        assert_eq!(rec.blocks_dropped(), blocks as u64);
        assert_eq!(rec.table().dropped_rows(), live_dropped_rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot whose frozen RLE block spells out more (or fewer) rows
    /// than the block holds — CRC intact — is refused at open: the run
    /// walks index activity words by those lengths.
    #[test]
    fn snapshot_with_rle_run_lengths_off_the_block_fails_to_open() {
        let dir = tmp_dir("rle-runs");
        let mut table = Table::with_block_rows(Schema::single("a"), 64);
        table.insert_batch(&[7; 100], 0).unwrap();
        table.freeze_upto(64);
        let pt = PersistentTable::create_with_table(
            StdVfs::shared(),
            &dir,
            table,
            SyncPolicy::PerRecord,
        )
        .unwrap();
        drop(pt);
        let pristine = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        // The frozen block's record ends `active = 64 | data length = 2 |
        // zigzag(7) | run length 64`.
        let needle: Vec<u8> = [&64u64.to_le_bytes()[..], &2u64.to_le_bytes(), &[14, 64]].concat();
        let at = pristine
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("the RLE block's record")
            + needle.len()
            - 1;
        for run in [65u8, 63, 0x7F] {
            let mut bytes = pristine.clone();
            bytes[at] = run;
            let crc_at = bytes.len() - 4;
            let crc = amnesia_util::crc32(&bytes[20..crc_at]);
            bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
            assert!(PersistentTable::open(&dir).is_err(), "run length {run}");
        }
        std::fs::write(dir.join(SNAPSHOT_FILE), &pristine).unwrap();
        let back = PersistentTable::open(&dir).unwrap();
        assert_eq!(back.table().value(0, RowId(10)), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_monolithic_directory_migrates_on_open() {
        let dir = tmp_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // Fabricate the old layout: a v2 snapshot as the pre-segment era
        // wrote it (checked-in bytes: one column "a", rows 0..50 inserted
        // at epoch 0) + a monolithic table.wal.
        let v2 = include_bytes!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/v2_legacy.snap"
        ));
        assert_eq!(snap::peek_version(v2).unwrap(), 2);
        std::fs::write(dir.join(SNAPSHOT_FILE), v2).unwrap();
        let old_wal: Vec<u8> = [
            WalRecord::Insert {
                epoch: 1,
                rows: vec![vec![500], vec![501]],
            },
            WalRecord::Forget {
                epoch: 2,
                row: RowId(3),
            },
        ]
        .iter()
        .flat_map(wal::legacy_frame)
        .collect();
        std::fs::write(dir.join(LEGACY_WAL_FILE), old_wal).unwrap();

        let pt = PersistentTable::open(&dir).unwrap();
        assert!(pt.recovered_clean());
        assert_eq!(pt.table().num_rows(), 52);
        assert!(!pt.table().activity().is_active(RowId(3)));
        assert!(
            !dir.join(LEGACY_WAL_FILE).exists(),
            "legacy log removed after migration"
        );
        // The migrated directory reopens through the segment path.
        drop(pt);
        let again = PersistentTable::open(&dir).unwrap();
        assert!(again.recovered_clean());
        assert_eq!(again.table().num_rows(), 52);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_committed_batch_spanning_rotations_survives_power_loss() {
        // Per-batch sync fsyncs the *active* segment at commit. A batch
        // whose log rotated on the way left its head in sealed segments,
        // which nothing fsyncs later: `rotate` has to, or power loss
        // (closed handles flush nothing) takes acknowledged rows.
        let dir = tmp_dir("powerloss");
        let fvfs = Arc::new(FaultVfs::new());
        let mut pt = PersistentTable::create_with(
            fvfs.clone(),
            &dir,
            Schema::single("a"),
            SyncPolicy::PerBatch,
        )
        .unwrap();
        pt.log.wal.set_segment_bytes(96);
        for i in 0..40 {
            pt.insert(&[i], 1).unwrap();
        }
        pt.forget_batch(&[RowId(3), RowId(4), RowId(30)], 1)
            .unwrap();
        pt.log.commit().unwrap();
        let stats = pt.stats();
        assert!(stats.segments_rotated >= 2, "{stats:?}");
        assert_eq!(
            stats.fsyncs,
            stats.segments_rotated + 1,
            "one fsync per sealed segment, one for the commit"
        );
        // Not acknowledged: may or may not survive.
        pt.insert(&[999], 2).unwrap();
        fvfs.power_loss().unwrap();
        drop(pt);

        let rec = PersistentTable::open(&dir).unwrap();
        let t = rec.table();
        assert!(
            t.num_rows() >= 40,
            "acknowledged rows lost: {}",
            t.num_rows()
        );
        for i in 0..40 {
            assert_eq!(t.value(0, RowId(i)), i as i64);
        }
        for r in [3, 4, 30] {
            assert!(!t.activity().is_active(RowId(r)), "forget of row {r} lost");
        }
        assert_eq!(t.forgotten_rows(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_policies_gate_fsyncs() {
        let dir = tmp_dir("policy");
        let vfs = Arc::new(StdVfs);
        let mut pt =
            PersistentTable::create_with(vfs, &dir, Schema::single("a"), SyncPolicy::Manual)
                .unwrap();
        pt.insert(&[1], 0).unwrap();
        pt.insert(&[2], 0).unwrap();
        assert_eq!(pt.stats().fsyncs, 0, "manual policy never syncs");
        pt.set_sync_policy(SyncPolicy::PerRecord);
        pt.insert(&[3], 0).unwrap();
        assert_eq!(pt.stats().fsyncs, 1, "per-record syncs each append");
        pt.set_sync_policy(SyncPolicy::PerBatch);
        pt.insert(&[4], 0).unwrap();
        assert_eq!(pt.stats().fsyncs, 1, "per-batch defers to commit");
        pt.log.commit().unwrap();
        assert_eq!(pt.stats().fsyncs, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The file names in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn open_removes_the_tmp_an_interrupted_save_left() {
        // A save dies at each of its steps, tears its write in half, or
        // loses power before its tmp is fsynced. The reopened directory
        // holds exactly the files it held before the save, and a tmp that
        // held bytes was zero-filled before its unlink.
        let mut table = Table::single("a");
        table
            .insert_batch(&(0..5_000).collect::<Vec<i64>>(), 1)
            .unwrap();
        table.freeze_upto(4_096);
        let bytes = snap::encode(&table).len();
        let counting = FaultVfs::new();
        let probe = tmp_dir("tmpsteps");
        std::fs::create_dir_all(&probe).unwrap();
        let meta = RecoveryMeta::default();
        snap::save_with(&counting, &table, meta, &probe.join(SNAPSHOT_FILE)).unwrap();
        let steps = counting.op_count();
        std::fs::remove_dir_all(&probe).unwrap();
        // (the save's vfs, lose power after the crash)
        let mut cases: Vec<(FaultVfs, bool)> =
            (0..steps).map(|k| (FaultVfs::crash_at(k), false)).collect();
        cases.push((FaultVfs::torn_at(0, bytes / 2), false));
        cases.push((FaultVfs::crash_at(1), true));
        let mut seen = [0; 3]; // no tmp, an empty one, one with bytes
        for (k, (fvfs, lose_power)) in cases.into_iter().enumerate() {
            let dir = tmp_dir(&format!("tmpcrash{k}"));
            let policy = SyncPolicy::PerRecord;
            PersistentTable::create_with_table(StdVfs::shared(), &dir, table.clone(), policy)
                .unwrap();
            let before = names(&dir);
            assert!(snap::save_with(&fvfs, &table, meta, &dir.join(SNAPSHOT_FILE)).is_err());
            if lose_power {
                fvfs.power_loss().unwrap();
            }
            let tmp = dir.join("table.tmp");
            let left = std::fs::metadata(&tmp).map(|m| m.len()).ok();
            let watch = Arc::new(FaultVfs::new());
            let rec = PersistentTable::open_with(watch.clone(), &dir).unwrap();
            assert_eq!(rec.table().num_rows(), 5_000, "case {k}");
            assert_eq!(names(&dir), before, "case {k}: {left:?} bytes of tmp left");
            let tmp_ops: Vec<String> = watch
                .op_log()
                .into_iter()
                .filter(|op| op.contains("table.tmp"))
                .collect();
            let remove = format!("remove {}", tmp.display());
            let want = match left {
                None => vec![],
                Some(0) => vec![remove],
                Some(len) => vec![format!("overwrite {} {len}", tmp.display()), remove],
            };
            assert_eq!(tmp_ops, want, "case {k}");
            seen[left.map_or(0, |len| 1 + usize::from(len > 0))] += 1;
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert!(seen.iter().all(|&n| n > 0), "every tmp shape: {seen:?}");
    }
}
