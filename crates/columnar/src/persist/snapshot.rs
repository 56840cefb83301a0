//! Binary table snapshots.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   "AMNSNAP1"                         8 bytes
//! u32     version (= 4)
//! u64     payload length
//! payload:
//!   u64   last WAL seqno this snapshot covers     (v3+)
//!   u64   cumulative blocks dropped               (v3+)
//!   u64   cumulative blocks recompressed          (v3+)
//!   u16   arity
//!   per column: u16 name length, UTF-8 name bytes
//!   u64   row count
//!   u64   tier block rows
//!   per column:
//!     u8    pinned-encoding flag (0xFF = automatic, else encoding tag)
//!     u64   frozen block count
//!     per frozen block: u8 state, u8 encoding tag,
//!                       i64 meta min, i64 meta max, u64 meta active,
//!                       u64 data length, data
//!     u8    tail encoding tag, u64 tail rows, u64 data length, data
//!     u8    stats flag, [i64 min seen, i64 max seen]
//!   u64   forgotten count
//!   death runs, until they total the forgotten count:        (v4)
//!         varint gap from the previous run's end, varint length,
//!         varint died-at epoch
//!   insert-epoch runs, until they total the row count:       (v4)
//!         varint length, varint epoch
//!   u64   touched count (rows with access stats)
//!   per touched row: varint row id, f64 frequency, varint last access
//! u32     CRC-32 of the payload
//! ```
//!
//! Version 4 makes the file proportional to what is *remembered*. The
//! two per-row metadata sections of versions 1–3 —
//!
//! ```text
//!   per forgotten row: varint row id, varint died-at epoch   (v1–v3)
//!   per row: signed varint insert-epoch delta (vs previous)  (v1–v3)
//! ```
//!
//! — cost three to six bytes for every row *ever forgotten* and a byte for
//! every row *ever inserted*, so a sliding-window store whose live data is
//! under a megabyte rewrote seven at every checkpoint. Rows are inserted
//! in batches and forgotten in batches, so both sections are runs: a death
//! run is consecutive rows that died in the same epoch (the writer walks
//! the activity words, so fully active words cost nothing), an
//! insert-epoch run is consecutive rows of one batch. A dropped block
//! then contributes no payload *and* no per-row bytes: the file is the
//! frozen payload, the hot tail and O(batches) of metadata. Scattered
//! forgetting degrades to one run per forgotten row, about what v3 paid.
//!
//! The table holds this metadata in the same shape in memory — sealed death
//! runs per dropped block, death pages for blocks still resident, one
//! insert-epoch run per batch, access pages only where a row was touched
//! ([`crate::paged`]) — so the writer copies runs and walks the pages that
//! exist, and the reader appends runs; neither loops over the row count. A
//! dropped block contributes its sealed runs verbatim, an untouched block
//! nothing, and a decoded run inside a dropped block lands sealed without a
//! page ever being allocated for it. The v4 bytes are what they were when
//! the metadata was per-row vectors (`tests/fixtures/v4_*` pin them).
//!
//! There is one writer (v4). The reader keeps every older version
//! readable: v2 and v3 share v4's body and differ only in those two
//! sections (`read_row_metadata` branches on the version), v1
//! (pre-tier, one whole-column block per column) has its own column
//! reader and the same metadata sections.
//!
//! The reader touches each byte once. It checks the CRC on the payload
//! where it lies in the caller's buffer (no copy). Then, on the calling
//! thread, it copies each frozen payload out as it reads its header,
//! checks each hot tail where it lies, and reserves the tail's values and
//! the metas of its full blocks at their exact sizes. One job per column
//! decodes the tail into those buffers, sealing each block's meta as the
//! block fills, and allocates nothing; the jobs run on every core once the
//! tails hold `TIER_FAN_OUT_BLOCKS` full blocks between them. Beside them
//! the calling thread reads the row metadata: the death runs in one
//! varint loop, applied a death-epoch page at a time (one mask per run on
//! the activity words, one dictionary lookup per change of epoch on the
//! page's codes). The [`crate::persist`] module docs give what each phase
//! of an open costs.
//!
//! Version 3 adds the [`RecoveryMeta`] prefix: the WAL sequence number
//! the snapshot covers (so segmented-log replay knows exactly where to
//! resume) and the cumulative tier-transition counters (so a recovered
//! store's metrics snapshot matches the pre-crash one even though the
//! dropped blocks' history spans many checkpoints). Wrappers keep the
//! plain `encode`/`decode` signatures working with zero meta.
//!
//! Version 2 persists the *tiered* representation verbatim: frozen
//! blocks ship their compressed payloads, cached [`BlockMeta`] and
//! lifecycle state byte-for-byte, the hot tail goes through
//! [`EncodedBlock::encode_auto`], and a restore reproduces the exact
//! tier layout — dropped blocks stay dropped, recompressed blocks keep
//! their squashed payloads, and the resident footprint after a restore
//! matches the footprint before the save. The trailing CRC makes
//! corruption loud: a snapshot either loads exactly or errors — never
//! silently half-loads.

use std::path::Path;

use amnesia_sync::morsel::{cores, run_morsels_mut};
use amnesia_util::{crc32, storage_err, Result};
use bytes::{BufMut, Bytes, BytesMut};

use crate::activity::ActivityMap;
use crate::compress::varint::write_varint;
use crate::compress::{dict, EncodedBlock, Encoding};
use crate::paged::EpochRuns;
use crate::schema::Schema;
use crate::simd::mask_impl;
use crate::table::{fan_out_width, Table};
use crate::tier::{BlockMeta, BlockState, FrozenBlock, TieredColumn};
use crate::types::{Epoch, RowId, Value};

use super::reader::{place_run, Reader};

/// File magic.
pub const MAGIC: &[u8; 8] = b"AMNSNAP1";
/// Current format version.
pub const VERSION: u32 = 4;

/// Recovery bookkeeping carried at the head of a v3+ payload.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryMeta {
    /// Last WAL sequence number whose effects are inside the snapshot.
    /// Segment replay resumes at `last_seqno + 1`.
    pub last_seqno: u64,
    /// Cumulative frozen blocks dropped over the table's whole history.
    pub blocks_dropped: u64,
    /// Cumulative frozen blocks recompressed over the table's history.
    pub blocks_recompressed: u64,
}

/// Stable on-disk tag for a block's lifecycle state.
fn state_tag(state: BlockState) -> u8 {
    match state {
        BlockState::Frozen => 0,
        BlockState::Recompressed => 1,
        BlockState::Dropped => 2,
    }
}

/// Inverse of [`state_tag`].
fn state_from_tag(tag: u8) -> Option<BlockState> {
    Some(match tag {
        0 => BlockState::Frozen,
        1 => BlockState::Recompressed,
        2 => BlockState::Dropped,
        _ => return None,
    })
}

/// Serialize `table` into snapshot bytes with zero recovery meta (for
/// callers outside the segmented-log lifecycle).
pub fn encode(table: &Table) -> Vec<u8> {
    encode_with_meta(table, RecoveryMeta::default())
}

/// Serialize `table` into snapshot bytes, embedding `meta`.
pub fn encode_with_meta(table: &Table, meta: RecoveryMeta) -> Vec<u8> {
    let mut payload = BytesMut::new();
    payload.put_u64_le(meta.last_seqno);
    payload.put_u64_le(meta.blocks_dropped);
    payload.put_u64_le(meta.blocks_recompressed);

    // Schema.
    let schema = table.schema();
    payload.put_u16_le(schema.arity() as u16);
    for def in schema.columns() {
        payload.put_u16_le(def.name.len() as u16);
        payload.put_slice(def.name.as_bytes());
    }

    // Columns: the tiered representation, verbatim.
    let n = table.num_rows();
    payload.put_u64_le(n as u64);
    payload.put_u64_le(table.block_rows() as u64);
    for c in 0..schema.arity() {
        let tier = table.col_tier(c);
        payload.put_u8(tier.pinned_encoding().map_or(0xFF, Encoding::tag));
        payload.put_u64_le(tier.frozen_blocks() as u64);
        for b in 0..tier.frozen_blocks() {
            // lint: allow(panic) encode path, not recovery: the loop walks 0..frozen_blocks(), so the index is in range by construction
            let f = tier.frozen(b).expect("block in range");
            payload.put_u8(state_tag(f.state()));
            payload.put_u8(f.encoded().encoding().tag());
            payload.put_i64_le(f.meta().min);
            payload.put_i64_le(f.meta().max);
            payload.put_u64_le(f.meta().active as u64);
            payload.put_u64_le(f.encoded().data().len() as u64);
            payload.put_slice(f.encoded().data());
        }
        let tail = EncodedBlock::encode_auto(tier.hot_values());
        payload.put_u8(tail.encoding().tag());
        payload.put_u64_le(tail.len() as u64);
        payload.put_u64_le(tail.data().len() as u64);
        payload.put_slice(tail.data());
        match (table.min_seen(c), table.max_seen(c)) {
            (Some(min), Some(max)) => {
                payload.put_u8(1);
                payload.put_i64_le(min);
                payload.put_i64_le(max);
            }
            _ => payload.put_u8(0),
        }
    }

    // Death epochs: maximal runs of consecutive rows that died in one
    // epoch, each as its gap from the previous run's end.
    payload.put_u64_le(table.forgotten_rows() as u64);
    let mut prev_end = 0usize;
    table.activity().for_each_death_run(|start, end, epoch| {
        write_varint(&mut payload, (start - prev_end) as u64);
        write_varint(&mut payload, (end - start) as u64);
        write_varint(&mut payload, epoch);
        prev_end = end;
    });

    // Insert epochs: one run per batch.
    for (rows, epoch) in table.insert_epochs().iter() {
        write_varint(&mut payload, rows as u64);
        write_varint(&mut payload, epoch);
    }

    // Access stats: only touched rows.
    let touched: Vec<_> = table.access().iter_touched().collect();
    payload.put_u64_le(touched.len() as u64);
    for (row, frequency, last_access) in touched {
        write_varint(&mut payload, row.0);
        payload.put_f64_le(frequency);
        write_varint(&mut payload, last_access);
    }

    // Frame.
    let payload = payload.freeze();
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Reconstruct a table from snapshot bytes, discarding recovery meta.
pub fn decode(bytes: &[u8]) -> Result<Table> {
    Ok(decode_with_meta(bytes)?.0)
}

/// Read the format version out of snapshot bytes without decoding the
/// payload (used to detect pre-segment directories needing migration).
pub fn peek_version(bytes: &[u8]) -> Result<u32> {
    let mut r = Reader::new(bytes);
    if r.bytes(8)? != MAGIC {
        return Err(storage_err!("not a snapshot: bad magic"));
    }
    r.u32()
}

/// Reconstruct a table and its recovery meta from snapshot bytes.
/// Versions 1 and 2 predate the meta and return zeros.
pub fn decode_with_meta(bytes: &[u8]) -> Result<(Table, RecoveryMeta)> {
    decode_with_meta_on(bytes, cores())
}

/// [`decode_with_meta`] with the hot tails decoded on `threads` workers
/// once they hold `TIER_FAN_OUT_BLOCKS` full blocks between them, inline
/// below.
pub(crate) fn decode_with_meta_on(bytes: &[u8], threads: usize) -> Result<(Table, RecoveryMeta)> {
    let mut r = Reader::new(bytes);
    let magic = r.bytes(8)?;
    if magic != MAGIC {
        return Err(storage_err!("not a snapshot: bad magic"));
    }
    let version = r.u32()?;
    if !(1..=VERSION).contains(&version) {
        return Err(storage_err!(
            "unsupported snapshot version {version} (expected 1..={VERSION})"
        ));
    }
    let payload_len = r.u64()? as usize;
    let payload = r.bytes(payload_len)?;
    let stored_crc = r.u32()?;
    let actual = crc32(payload);
    if stored_crc != actual {
        return Err(storage_err!(
            "snapshot checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        ));
    }
    if version == 1 {
        return Ok((decode_v1(payload)?, RecoveryMeta::default()));
    }
    let mut meta = RecoveryMeta::default();
    let body = if version >= 3 {
        let mut m = Reader::new(payload);
        meta.last_seqno = m.u64()?;
        meta.blocks_dropped = m.u64()?;
        meta.blocks_recompressed = m.u64()?;
        m.bytes(m.remaining())?
    } else {
        payload
    };
    Ok((decode_body(body, version, threads)?, meta))
}

/// Death runs the restore gathers before applying them to their page.
const PAGE_RUNS: usize = 256;

/// The per-row metadata that closes every version's payload.
struct RowMetadata {
    activity: ActivityMap,
    insert_epochs: EpochRuns,
    /// `(row, frequency, last access)` of rows with access statistics.
    touched: Vec<(RowId, f64, Epoch)>,
}

/// Read the death epochs, insert epochs and access statistics of an
/// `n`-row table and require the payload to end there. Versions 1–3 list
/// the first two per row, version 4 as runs (module docs). Counts read
/// from disk never size an allocation the remaining bytes could not fill.
/// The death epochs of the `dropped` blocks (`block_rows` rows each) are
/// sealed before anything is read, so their runs are appended as runs.
fn read_row_metadata(
    p: &mut Reader<'_>,
    version: u32,
    n: usize,
    block_rows: usize,
    dropped: &[usize],
) -> Result<RowMetadata> {
    let forgotten_count = p.u64()?;
    let mut activity = ActivityMap::with_block_rows(block_rows);
    activity.push_active(n);
    for &b in dropped {
        activity.seal_block(b);
    }
    let mut insert_epochs = EpochRuns::new();
    if version >= 4 {
        if forgotten_count > n as u64 {
            return Err(storage_err!("{forgotten_count} forgotten rows of {n}"));
        }
        // The runs gather a death-epoch page (a tier block) at a time, up
        // to `PAGE_RUNS` of them, and are applied together; a run across a
        // page boundary goes through the range path on its own, in order.
        // The buffer is on the stack: a growing `Vec` here, freed above the
        // column buffers, left the heap trimmed once the table was dropped.
        let mut runs = [(0, 0, 0); PAGE_RUNS];
        let mut held = 0;
        let mut page = 0;
        let mut prev_end = 0u64;
        let mut total = 0u64;
        while total < forgotten_count {
            let gap =
                i64::try_from(p.varint()?).map_err(|_| storage_err!("death run gap overflows"))?;
            let len = p.varint()?;
            let epoch = p.varint()?;
            let (start, end) = place_run(prev_end, gap, len, n as u64)?;
            // `end <= n` bounds `len`, so the sum cannot overflow.
            total += len;
            if total > forgotten_count {
                return Err(storage_err!(
                    "death runs exceed the declared {forgotten_count} rows"
                ));
            }
            prev_end = end;
            // Runs ascend and never overlap (`place_run`, `gap >= 0`): all
            // their rows are active.
            let (start, end) = (start as usize, end as usize);
            if held == PAGE_RUNS || start / block_rows != page {
                activity.forget_page_runs(page, &runs[..held]);
                (held, page) = (0, start / block_rows);
            }
            if (end - 1) / block_rows == page {
                // `held < PAGE_RUNS`: a full buffer was applied above.
                runs[held] = (start, end, epoch);
                held += 1;
            } else {
                activity.forget_page_runs(page, &runs[..held]);
                activity.forget_active_range(start, end, epoch);
                (held, page) = (0, (end - 1) / block_rows);
            }
        }
        activity.forget_page_runs(page, &runs[..held]);
        while insert_epochs.len() < n {
            let len = p.varint()?;
            let epoch = p.varint()?;
            if len == 0 || len > (n - insert_epochs.len()) as u64 {
                return Err(storage_err!(
                    "insert-epoch run of {len} rows at row {} of {n}",
                    insert_epochs.len()
                ));
            }
            insert_epochs.push(len as usize, epoch);
        }
    } else {
        // Two bytes at least per forgotten row, one per insert epoch.
        if forgotten_count > (p.remaining() / 2) as u64 {
            return Err(storage_err!(
                "{forgotten_count} forgotten rows in {} bytes",
                p.remaining()
            ));
        }
        for _ in 0..forgotten_count {
            let row = p.varint()?;
            let epoch = p.varint()?;
            if row >= n as u64 {
                return Err(storage_err!("forgotten row {row} out of range"));
            }
            activity.forget(RowId(row), epoch);
        }
        if n > p.remaining() {
            return Err(storage_err!("{n} insert epochs in {} bytes", p.remaining()));
        }
        let mut prev = 0i64;
        for _ in 0..n {
            prev += p.signed_varint()?;
            if prev < 0 {
                return Err(storage_err!("negative insert epoch"));
            }
            insert_epochs.push(1, prev as u64);
        }
    }

    // Ten bytes at least per touched row.
    let touched_count = p.u64()?;
    if touched_count > (p.remaining() / 10) as u64 {
        return Err(storage_err!(
            "{touched_count} touched rows in {} bytes",
            p.remaining()
        ));
    }
    let mut touched = Vec::with_capacity(touched_count as usize);
    for _ in 0..touched_count {
        let row = p.varint()?;
        let freq = p.f64()?;
        let last = p.varint()?;
        if row >= n as u64 {
            return Err(storage_err!("touched row {row} out of range"));
        }
        touched.push((RowId(row), freq, last));
    }
    p.expect_end()?;
    Ok(RowMetadata {
        activity,
        insert_epochs,
        touched,
    })
}

/// One column's hot tail where it lies in the payload.
struct Tail<'a> {
    encoding: Encoding,
    rows: usize,
    data: &'a [u8],
    /// A dict tail's sorted distinct values, read by the caller so that
    /// no decode job allocates.
    dictionary: Option<Vec<Value>>,
}

/// One job of a restore.
enum Job<'a, 'p> {
    /// Read the row metadata that closes the payload into the second
    /// field.
    Rows(&'a mut Reader<'p>, &'a mut Option<Result<RowMetadata>>),
    /// Decode one column's hot tail into it.
    Tail(&'a mut TieredColumn),
}

/// Decode the column/activity/access body shared by versions 2 to 4,
/// the hot tails on `threads` workers (see [`decode_with_meta_on`]).
fn decode_body(payload: &[u8], version: u32, threads: usize) -> Result<Table> {
    let mut p = Reader::new(payload);

    // Schema.
    let arity = p.u16()? as usize;
    if arity == 0 {
        return Err(storage_err!("snapshot declares zero columns"));
    }
    let mut names = Vec::with_capacity(arity);
    for _ in 0..arity {
        let len = p.u16()? as usize;
        let raw = p.bytes(len)?;
        names.push(
            std::str::from_utf8(raw)
                .map_err(|_| storage_err!("column name is not UTF-8"))?
                .to_string(),
        );
    }

    // Columns: tiered representation.
    let n = p.u64()? as usize;
    let block_rows = p.u64()? as usize;
    if block_rows == 0 || !block_rows.is_multiple_of(64) {
        return Err(storage_err!("invalid tier block size {block_rows}"));
    }
    // The four vectors are sized before the first column buffer, and
    // the table adopts `tiers` as its columns. So no throwaway vector is
    // allocated above the column buffers. A small freed chunk left there
    // stops the allocator from giving their memory back when the table is
    // dropped.
    let mut tiers: Vec<TieredColumn> = Vec::with_capacity(arity);
    let mut stats: Vec<Option<(i64, i64)>> = Vec::with_capacity(arity);
    let mut tails: Vec<Tail<'_>> = Vec::with_capacity(arity);
    // The row metadata job's result lives here, not in the scheduler's
    // result slots: those would make a bigger throwaway vector.
    let mut row_metadata = None;
    let mut jobs: Vec<Job<'_, '_>> = Vec::with_capacity(arity + 1);
    for c in 0..arity {
        let pinned = p.u8()?;
        let pinned = if pinned == 0xFF {
            None
        } else {
            Some(
                Encoding::from_tag(pinned)
                    .ok_or_else(|| storage_err!("unknown pinned encoding tag {pinned}"))?,
            )
        };
        // 34 bytes at least per frozen block, whatever its state.
        let frozen_count = p.u64()? as usize;
        if frozen_count > p.remaining() / 34
            || frozen_count
                .checked_mul(block_rows)
                .is_none_or(|rows| rows > n)
        {
            return Err(storage_err!(
                "column {c} declares {frozen_count} frozen blocks for {n} rows"
            ));
        }
        let mut frozen = Vec::with_capacity(frozen_count);
        for b in 0..frozen_count {
            let state = p.u8()?;
            let state = state_from_tag(state)
                .ok_or_else(|| storage_err!("unknown block state tag {state}"))?;
            let tag = p.u8()?;
            let encoding = Encoding::from_tag(tag)
                .ok_or_else(|| storage_err!("unknown encoding tag {tag}"))?;
            let min = p.i64()?;
            let max = p.i64()?;
            let active = p.u64()? as usize;
            if active > block_rows {
                return Err(storage_err!(
                    "block {b} of column {c} claims {active} active rows"
                ));
            }
            let data_len = p.u64()? as usize;
            let data = Bytes::copy_from_slice(p.bytes(data_len)?);
            let block = EncodedBlock::try_from_parts(encoding, block_rows, data)?;
            frozen.push(FrozenBlock::from_parts(
                block,
                BlockMeta { min, max, active },
                state,
            ));
        }
        let tail_tag = p.u8()?;
        let encoding = Encoding::from_tag(tail_tag)
            .ok_or_else(|| storage_err!("unknown tail encoding tag {tail_tag}"))?;
        let rows = p.u64()? as usize;
        if frozen_count * block_rows + rows != n {
            return Err(storage_err!(
                "column {c} covers {} rows, expected {n}",
                frozen_count * block_rows + rows
            ));
        }
        // Checked where it lies: a tail that passes decodes to exactly
        // `rows` rows, so no decode grows the buffers reserved below.
        let data_len = p.u64()? as usize;
        let data = p.bytes(data_len)?;
        encoding.check(data, rows)?;
        stats.push(match p.u8()? {
            0 => None,
            1 => Some((p.i64()?, p.i64()?)),
            f => return Err(storage_err!("bad stats flag {f}")),
        });
        tiers.push(TieredColumn::from_parts(block_rows, pinned, frozen, rows));
        let dictionary = (encoding == Encoding::Dict).then(|| dict::read_dictionary(data));
        tails.push(Tail {
            encoding,
            rows,
            data,
            dictionary,
        });
    }

    // The restore's jobs: the row metadata on the calling thread (morsel
    // 0 is always the caller's), beside one job per column that decodes
    // its hot tail into the buffers reserved above and seals each
    // block's meta as the block fills. Every allocation is the caller's:
    // the row metadata's come after the column buffers, as they would
    // serially, and a worker's would come from its own allocator arena,
    // which the main heap cannot reuse once the table is dropped. The CPU
    // dispatch the seals use is resolved here for the same reason (its
    // first call reads the environment).
    let dropped: Vec<usize> = tiers.first().map_or_else(Vec::new, |c| {
        (0..c.frozen_blocks())
            .filter(|&b| c.frozen(b).is_some_and(FrozenBlock::is_dropped))
            .collect()
    });
    mask_impl();
    let hot_blocks = tails.iter().map(|t| t.rows / block_rows).sum();
    jobs.push(Job::Rows(&mut p, &mut row_metadata));
    jobs.extend(tiers.iter_mut().map(Job::Tail));
    let width = fan_out_width(threads, hot_blocks);
    run_morsels_mut(&mut jobs, width, |i, job| match job {
        Job::Rows(p, out) => **out = Some(read_row_metadata(p, version, n, block_rows, &dropped)),
        Job::Tail(tier) => {
            let t = &tails[i - 1];
            t.encoding
                .decode_into(t.data, t.rows, t.dictionary.as_deref(), *tier);
        }
    });
    drop(jobs);
    for (c, (tier, t)) in tiers.iter().zip(&tails).enumerate() {
        if tier.hot_values().len() != t.rows {
            return Err(storage_err!(
                "column {c} tail decoded to {} rows, expected {}",
                tier.hot_values().len(),
                t.rows
            ));
        }
    }
    let meta = row_metadata.ok_or_else(|| storage_err!("row metadata job did not run"))??;

    // Rebuild: the persisted tiers install as-is and the activity /
    // epoch / access bookkeeping is reconstructed directly — the restore
    // never materializes a dense copy of the table and allocates nothing
    // beyond the tiers it keeps. Dropped blocks stay dropped, frozen
    // payloads are not re-encoded, and block metadata arrives already
    // reflecting the persisted forgets.
    let mut table = Table::from_restored_parts(
        Schema::new(names),
        block_rows,
        tiers,
        meta.insert_epochs,
        meta.activity,
    )?;
    for (row, freq, last) in meta.touched {
        table.access_mut().restore(row, freq, last);
    }
    for (c, stats) in stats.into_iter().enumerate() {
        if let Some((min, max)) = stats {
            table.restore_col_stats(c, Some(min), Some(max));
        }
    }
    table.check_invariants()?;
    Ok(table)
}

/// Reconstruct a table from a *version 1* (pre-tier) payload.
///
/// v1 snapshots predate tiered storage: each column is one
/// whole-column [`EncodedBlock`] (`u8 encoding tag, u64 value count,
/// u64 data length, data`), with no block size, no per-block metadata
/// and no lifecycle states. They restore into a **fully hot** table with
/// the default tier block size — freezing is a policy decision the
/// restored store makes at its next batch boundary, not something to
/// invent while reading old bytes. Column min/max stats are recomputed
/// from the decoded values, matching the v1 writer's behavior (every
/// value it saved was still physically present).
fn decode_v1(payload: &[u8]) -> Result<Table> {
    let mut p = Reader::new(payload);

    // Schema.
    let arity = p.u16()? as usize;
    if arity == 0 {
        return Err(storage_err!("snapshot declares zero columns"));
    }
    let mut names = Vec::with_capacity(arity);
    for _ in 0..arity {
        let len = p.u16()? as usize;
        let raw = p.bytes(len)?;
        names.push(
            std::str::from_utf8(raw)
                .map_err(|_| storage_err!("column name is not UTF-8"))?
                .to_string(),
        );
    }

    // Columns: one whole-column encoded block each.
    let n = p.u64()? as usize;
    let mut columns: Vec<Vec<i64>> = Vec::with_capacity(arity);
    for c in 0..arity {
        let tag = p.u8()?;
        let encoding =
            Encoding::from_tag(tag).ok_or_else(|| storage_err!("unknown encoding tag {tag}"))?;
        let count = p.u64()? as usize;
        if count != n {
            return Err(storage_err!("column {c} has {count} values, expected {n}"));
        }
        let data_len = p.u64()? as usize;
        let data = Bytes::copy_from_slice(p.bytes(data_len)?);
        let values = EncodedBlock::try_from_parts(encoding, count, data)?.decode();
        if values.len() != n {
            return Err(storage_err!(
                "column {c} decoded to {} values, expected {n}",
                values.len()
            ));
        }
        columns.push(values);
    }

    let meta = read_row_metadata(&mut p, 1, n, crate::types::DEFAULT_BLOCK_ROWS, &[])?;

    // Rebuild as a fully hot tiered table. Stats recompute from the
    // decoded values (a v1 snapshot physically held every row), matching
    // what the v1 reader's per-row insert path produced.
    let mut tiers = Vec::with_capacity(arity);
    let mut stats = Vec::with_capacity(arity);
    for values in columns {
        let mut tier = TieredColumn::new();
        stats.push((values.iter().min().copied(), values.iter().max().copied()));
        tier.extend_from_slice(&values);
        tiers.push(tier);
    }
    let mut table = Table::from_restored_parts(
        Schema::new(names),
        crate::types::DEFAULT_BLOCK_ROWS,
        tiers,
        meta.insert_epochs,
        meta.activity,
    )?;
    for (c, (min, max)) in stats.into_iter().enumerate() {
        table.restore_col_stats(c, min, max);
    }
    for (row, freq, last) in meta.touched {
        table.access_mut().restore(row, freq, last);
    }
    table.check_invariants()?;
    Ok(table)
}

/// Write a snapshot atomically: temp file in the same directory, fsync,
/// rename over the target, fsync the directory. The rename is the commit
/// point — a crash before it leaves the old snapshot untouched — and the
/// directory fsync pins the commit: without it, power loss could bring
/// the *old* snapshot back after checkpoint/shred already pruned or
/// zeroed the segments it needs.
pub fn save(table: &Table, path: &Path) -> Result<()> {
    save_with(
        &crate::persist::vfs::StdVfs,
        table,
        RecoveryMeta::default(),
        path,
    )
}

/// [`save`], parameterized over the storage backend and recovery meta.
pub fn save_with(
    vfs: &dyn crate::persist::vfs::Vfs,
    table: &Table,
    meta: RecoveryMeta,
    path: &Path,
) -> Result<()> {
    let bytes = encode_with_meta(table, meta);
    let tmp = path.with_extension("tmp");
    vfs.write_file(&tmp, &bytes)?;
    vfs.sync_file(&tmp)?;
    vfs.rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        vfs.sync_dir(parent)?;
    }
    Ok(())
}

/// Load a snapshot from disk.
pub fn load(path: &Path) -> Result<Table> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_util::SimRng;

    fn sample_table() -> Table {
        let mut t = Table::new(Schema::new(vec!["k", "v"]));
        let mut rng = SimRng::new(3);
        for i in 0..500i64 {
            t.insert(&[i, rng.range_i64(0, 1000)], (i / 100) as u64)
                .unwrap();
        }
        for r in (0..500u64).step_by(7) {
            t.forget(RowId(r), 3).unwrap();
        }
        for r in (0..500u64).step_by(11) {
            t.access_mut().touch(RowId(r), 2);
            t.access_mut().touch(RowId(r), 4);
        }
        t
    }

    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.active_rows(), b.active_rows());
        for r in 0..a.num_rows() {
            let id = RowId::from(r);
            for c in 0..a.schema().arity() {
                assert_eq!(a.value(c, id), b.value(c, id), "value {c}@{r}");
            }
            assert_eq!(a.insert_epoch(id), b.insert_epoch(id), "epoch @{r}");
            assert_eq!(
                a.activity().is_active(id),
                b.activity().is_active(id),
                "activity @{r}"
            );
            assert_eq!(
                a.activity().died_at(id),
                b.activity().died_at(id),
                "died_at @{r}"
            );
            assert_eq!(
                a.access().frequency(id),
                b.access().frequency(id),
                "freq @{r}"
            );
            assert_eq!(
                a.access().last_access(id),
                b.access().last_access(id),
                "last @{r}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_table();
        let restored = decode(&encode(&t)).unwrap();
        assert_tables_equal(&t, &restored);
    }

    #[test]
    fn recovery_meta_round_trips_and_defaults_to_zero() {
        let t = sample_table();
        let meta = RecoveryMeta {
            last_seqno: 12345,
            blocks_dropped: 6,
            blocks_recompressed: 2,
        };
        let (restored, back) = decode_with_meta(&encode_with_meta(&t, meta)).unwrap();
        assert_eq!(back, meta);
        assert_tables_equal(&t, &restored);
        // Plain encode carries zero meta; v1 payloads decode to zero too.
        let (_, zero) = decode_with_meta(&encode(&t)).unwrap();
        assert_eq!(zero, RecoveryMeta::default());
        let (_, v1_meta) = decode_with_meta(&encode_v1(&t)).unwrap();
        assert_eq!(v1_meta, RecoveryMeta::default());
    }

    #[test]
    fn round_trip_empty_table() {
        let t = Table::new(Schema::single("a"));
        let restored = decode(&encode(&t)).unwrap();
        assert_eq!(restored.num_rows(), 0);
        assert_eq!(restored.schema().arity(), 1);
    }

    #[test]
    fn serial_data_compresses_well() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&(0..10_000).collect::<Vec<i64>>(), 0)
            .unwrap();
        let snap = encode(&t);
        // 10k serial i64s = 80 KB plain; delta coding brings the column
        // to ~1 byte/value (plus 1 byte/row of epoch deltas).
        assert!(snap.len() < 25_000, "snapshot is {} bytes", snap.len());
        assert_tables_equal(&t, &decode(&snap).unwrap());
    }

    #[test]
    fn tiered_table_round_trips_layout_exactly() {
        // Freeze, forget, drop a block, recompress another: the restored
        // table must reproduce the tier layout and the resident bytes.
        let values: Vec<i64> = (0..4096).map(|i| if i % 2 == 0 { 9 } else { i }).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        t.freeze_upto(4096);
        for r in 0..1024u64 {
            t.forget(RowId(r), 1).unwrap();
        }
        for r in (1025..2048u64).step_by(2) {
            t.forget(RowId(r), 2).unwrap();
        }
        t.drop_forgotten_blocks();
        t.recompress_frozen(0.6);
        // A hot tail of two full blocks and an open one, forgets in each.
        t.insert_batch(&(0..2_600).rev().collect::<Vec<i64>>(), 3)
            .unwrap();
        for r in [4_106u64, 5_600, 5_601, 6_690] {
            t.forget(RowId(r), 4).unwrap();
        }
        let restored = decode(&encode(&t)).unwrap();
        assert_eq!(restored.frozen_blocks(), t.frozen_blocks());
        // The hot metas, which no snapshot holds, come back as the live
        // table maintained them — the open block's forgets included.
        let full = |t: &Table| {
            let c = t.col_tier(0);
            (0..c.full_blocks()).map(|b| *c.meta(b)).collect::<Vec<_>>()
        };
        assert_eq!(full(&restored), full(&t));
        let (mut grown, mut regrown) = (t.clone(), restored.clone());
        for table in [&mut grown, &mut regrown] {
            table.insert_batch(&[5; 600], 5).unwrap();
        }
        assert_eq!(full(&regrown), full(&grown));
        assert_eq!(grown.col_tier(0).full_blocks(), 7);
        assert_eq!(grown.col_tier(0).meta(6).active, 1_023);
        assert_eq!(restored.bytes_frozen(), t.bytes_frozen());
        for b in 0..t.frozen_blocks() {
            let (a, r) = (
                t.col_tier(0).frozen(b).unwrap(),
                restored.col_tier(0).frozen(b).unwrap(),
            );
            assert_eq!(a.state(), r.state(), "block {b} state");
            assert_eq!(a.meta(), r.meta(), "block {b} meta");
            assert_eq!(a.encoded(), r.encoded(), "block {b} payload");
        }
        // Active rows answer identically; history bounds survive even
        // though block 0's values are gone.
        for row in t.iter_active() {
            assert_eq!(t.value(0, row), restored.value(0, row));
        }
        assert_eq!(restored.max_seen(0), t.max_seen(0));
        assert_eq!(restored.min_seen(0), t.min_seen(0));
        assert_eq!(restored.active_rows(), t.active_rows());
        restored.check_invariants().unwrap();
    }

    /// The version-1 (pre-tier) snapshot writer, kept verbatim from the
    /// PR-2 era as the backward-compat reference: `tests/fixtures/
    /// v1_pre_tier.snap` was produced by this code, and [`decode`] must
    /// keep loading both the fixture and anything this emits.
    pub(super) fn encode_v1(table: &Table) -> Vec<u8> {
        use crate::compress::varint::write_signed;
        use crate::types::Value;
        let mut payload = BytesMut::new();
        let schema = table.schema();
        payload.put_u16_le(schema.arity() as u16);
        for def in schema.columns() {
            payload.put_u16_le(def.name.len() as u16);
            payload.put_slice(def.name.as_bytes());
        }
        let n = table.num_rows();
        payload.put_u64_le(n as u64);
        for c in 0..schema.arity() {
            let values: Vec<Value> = (0..n).map(|r| table.value(c, RowId::from(r))).collect();
            let block = EncodedBlock::encode_auto(&values);
            payload.put_u8(block.encoding().tag());
            payload.put_u64_le(block.len() as u64);
            payload.put_u64_le(block.data().len() as u64);
            payload.put_slice(block.data());
        }
        let forgotten: Vec<(u64, u64)> = (0..n)
            .filter_map(|r| {
                let id = RowId::from(r);
                table.activity().died_at(id).map(|e| (r as u64, e))
            })
            .collect();
        payload.put_u64_le(forgotten.len() as u64);
        for (row, epoch) in forgotten {
            write_varint(&mut payload, row);
            write_varint(&mut payload, epoch);
        }
        let mut prev = 0i64;
        for r in 0..n {
            let e = table.insert_epoch(RowId::from(r)) as i64;
            write_signed(&mut payload, e - prev);
            prev = e;
        }
        let touched: Vec<u64> = (0..n as u64)
            .filter(|&r| table.access().frequency(RowId(r)) > 0.0)
            .collect();
        payload.put_u64_le(touched.len() as u64);
        for r in touched {
            write_varint(&mut payload, r);
            payload.put_f64_le(table.access().frequency(RowId(r)));
            write_varint(&mut payload, table.access().last_access(RowId(r)));
        }
        let payload = payload.freeze();
        let mut out = Vec::with_capacity(payload.len() + 24);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out
    }

    use bytes::{BufMut, BytesMut};

    #[test]
    fn v1_snapshot_loads_into_fully_hot_table() {
        let t = sample_table();
        let restored = decode(&encode_v1(&t)).unwrap();
        assert_tables_equal(&t, &restored);
        // v1 predates tiering: the restore must come back fully hot with
        // the default block size, ready for the store's own freeze
        // scheduling.
        assert!(!restored.has_frozen(), "v1 restores fully hot");
        assert_eq!(restored.block_rows(), crate::types::DEFAULT_BLOCK_ROWS);
        assert_eq!(restored.max_seen(0), t.max_seen(0));
        assert_eq!(restored.min_seen(0), t.min_seen(0));
        // Re-encoding writes the current version; the round trip holds.
        let reencoded = decode(&encode(&restored)).unwrap();
        assert_tables_equal(&restored, &reencoded);
    }

    #[test]
    fn v1_corruption_is_still_detected() {
        let mut bytes = encode_v1(&sample_table());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(decode(&bytes).is_err(), "v1 CRC must stay enforced");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample_table());
        bytes[0] ^= 0xFF;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode(&sample_table());
        bytes[8] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn payload_corruption_is_detected() {
        let bytes = encode(&sample_table());
        // Flip one bit in every payload byte position (sparsely, to keep
        // the test fast) — the CRC must catch each.
        for i in (20..bytes.len() - 4).step_by(97) {
            let mut dup = bytes.clone();
            dup[i] ^= 0x01;
            assert!(decode(&dup).is_err(), "flip at {i} survived");
        }
    }

    /// Hand-build the metadata that closes a v4 payload.
    fn v4_metadata(
        forgotten: u64,
        deaths: &[(u64, u64, u64)],
        epochs: &[(u64, u64)],
        touched: u64,
    ) -> BytesMut {
        let mut m = BytesMut::new();
        m.put_u64_le(forgotten);
        for &(gap, len, epoch) in deaths {
            write_varint(&mut m, gap);
            write_varint(&mut m, len);
            write_varint(&mut m, epoch);
        }
        for &(len, epoch) in epochs {
            write_varint(&mut m, len);
            write_varint(&mut m, epoch);
        }
        m.put_u64_le(touched);
        m
    }

    #[test]
    fn malformed_v4_runs_are_errors_not_panics_or_allocations() {
        let read = |m: &[u8], n: usize| read_row_metadata(&mut Reader::new(m), 4, n, 64, &[]);
        // 100 rows: rows 10..15 died at 3, rows 40..42 at 5; two batches.
        let good = v4_metadata(7, &[(10, 5, 3), (25, 2, 5)], &[(60, 0), (40, 1)], 0);
        let meta = read(&good, 100).unwrap();
        assert_eq!(meta.activity.died_at(RowId(14)), Some(3));
        assert_eq!(meta.activity.died_at(RowId(15)), None);
        assert_eq!(meta.activity.died_at(RowId(41)), Some(5));
        assert_eq!(meta.activity.forgotten_count(), 7);
        let epoch_of = |row| meta.insert_epochs.get(RowId(row));
        assert_eq!((epoch_of(59), epoch_of(60)), (0, 1));
        // Inside a dropped block the same runs land sealed: no page.
        let sealed = read_row_metadata(&mut Reader::new(&good), 4, 100, 64, &[0]).unwrap();
        assert_eq!(sealed.activity.died_at(RowId(14)), Some(3));
        assert_eq!(sealed.activity.died_at(RowId(15)), None);
        assert_eq!(sealed.activity.died_at(RowId(41)), Some(5));
        // Exactly: beside the directory, the sealed block holds its five
        // runs, the restored one a coded page (the box: a `Vec` and a boxed
        // slice; ALIVE, 3 and 5 at capacity 4; 64 codes).
        let mut bare = ActivityMap::with_block_rows(64);
        bare.push_active(100);
        bare.seal_block(0);
        let directory = bare.death_bytes() - std::mem::size_of::<(usize, Epoch)>();
        let coded_page = std::mem::size_of::<(Vec<Epoch>, Box<[u8]>)>() + 4 * 8 + 64;
        let runs = 5 * std::mem::size_of::<(usize, Epoch)>();
        assert_eq!(sealed.activity.death_bytes(), directory + runs);
        assert_eq!(meta.activity.death_bytes(), directory + coded_page);

        let e = &[(100u64, 0u64)][..];
        for (what, m) in [
            (
                "zero-length death run",
                v4_metadata(2, &[(1, 0, 3), (0, 2, 3)], e, 0),
            ),
            (
                "death run past the row count",
                v4_metadata(5, &[(98, 5, 3)], e, 0),
            ),
            (
                "death run gap overflow",
                v4_metadata(1, &[(u64::MAX, 1, 3)], e, 0),
            ),
            (
                "death run length overflow",
                v4_metadata(9, &[(5, u64::MAX, 3)], e, 0),
            ),
            (
                "death total above the count",
                v4_metadata(3, &[(1, 2, 3), (1, 2, 3)], e, 0),
            ),
            (
                "death total below the count",
                v4_metadata(9, &[(1, 2, 3), (1, 2, 3)], e, 0),
            ),
            ("more forgotten than rows", v4_metadata(101, &[], e, 0)),
            (
                "zero-length epoch run",
                v4_metadata(0, &[], &[(0, 1), (100, 1)], 0),
            ),
            (
                "epoch run past the row count",
                v4_metadata(0, &[], &[(60, 0), (41, 1)], 0),
            ),
            (
                "epoch runs short of the row count",
                v4_metadata(0, &[], &[(60, 0), (39, 1)], 0),
            ),
            (
                "epoch run length overflow",
                v4_metadata(0, &[], &[(u64::MAX, 0)], 0),
            ),
            (
                "touched count past the bytes",
                v4_metadata(0, &[], e, 1 << 50),
            ),
        ] {
            assert!(read(&m, 100).is_err(), "{what} accepted");
        }
        // Pre-v4 counts cannot size an allocation either.
        let mut v3 = BytesMut::new();
        v3.put_u64_le(1 << 50);
        v3.put_slice(&[0u8; 64]);
        assert!(read_row_metadata(&mut Reader::new(&v3), 3, 100, 64, &[]).is_err());

        // Every single-byte mutation of both run sections decodes or
        // errors — and what decodes still describes 100 rows.
        for i in 0..good.len() {
            for flip in [0x01u8, 0x10, 0x80, 0xFF] {
                let mut dup = good.to_vec();
                dup[i] ^= flip;
                if let Ok(meta) = read(&dup, 100) {
                    assert_eq!(meta.activity.len(), 100);
                    assert_eq!(meta.insert_epochs.len(), 100);
                }
            }
        }
    }

    #[test]
    fn history_costs_runs_not_rows() {
        // A sliding window: 20 batches of 1 000 rows, the oldest 15
        // forgotten batch by batch and their blocks dropped. The snapshot
        // must not grow with the 15 000 rows of history.
        let mut t = Table::with_block_rows(Schema::single("a"), 64);
        for b in 0..20u64 {
            let base = b as i64 * 1000;
            t.insert_batch(&(base..base + 1000).map(|v| v * 7).collect::<Vec<_>>(), b)
                .unwrap();
            if b >= 5 {
                for r in (b - 5) * 1000..(b - 4) * 1000 {
                    t.forget(RowId(r), b).unwrap();
                }
            }
        }
        t.freeze_upto(19_000);
        let (dropped, _) = t.drop_forgotten_blocks();
        assert!(dropped > 200, "{dropped} blocks dropped");
        let snap = encode(&t);
        let restored = decode(&snap).unwrap();
        assert_tables_equal(&t, &restored);
        assert_eq!(restored.dropped_rows(), t.dropped_rows());
        let mut live = Table::with_block_rows(Schema::single("a"), 64);
        live.insert_batch(&(15_000..20_000).map(|v| v * 7).collect::<Vec<_>>(), 0)
            .unwrap();
        live.freeze_upto(4_000);
        let floor = encode(&live).len();
        // Per dropped block: 34 bytes of block header, no rows. (v3 spent
        // three bytes and up on each of the 15 000 forgotten rows.)
        assert!(
            snap.len() < floor + dropped * 34 + 1024,
            "snapshot {} bytes, live floor {floor}, {dropped} dropped blocks",
            snap.len()
        );
    }

    /// Three columns of 128-row blocks (the last pinned to dict), 41
    /// blocks each, whose death runs take every shape the page-at-a-time
    /// restore handles: one-row runs, runs of 2–63 rows, runs across an
    /// activity word, across one block boundary and across several,
    /// several epochs in one page, a dropped block (sealed runs) and a
    /// recompressed one, in the frozen prefix and in the hot tail.
    fn death_run_table() -> Table {
        use crate::tier::BlockState;
        let mut t = Table::with_block_rows(Schema::new(vec!["a", "b", "c"]), 128);
        t.pin_encoding(2, Some(Encoding::Dict));
        let mut rng = SimRng::new(45);
        for i in 0..40 * 128 + 50 {
            t.insert(&[i, i % 7, rng.range_i64(-1000, 1000)], i as u64 / 500)
                .unwrap();
        }
        t.freeze_upto(30 * 128);
        let mut forget = |rows: std::ops::Range<u64>, epoch: u64| {
            for r in rows {
                t.forget(RowId(r), epoch).unwrap();
            }
        };
        forget(0..100, 20); // block 0, in two epochs: dropped below
        forget(100..128, 21);
        for r in (128..256).step_by(3) {
            forget(r..r + 1, 22); // one-row runs
        }
        for (at, len) in [(260, 2), (270, 5), (290, 17), (320, 40)] {
            forget(at..at + len, 23); // 2–63 rows: block 2 recompresses
        }
        forget(3 * 128 + 60..3 * 128 + 70, 24); // across a word
        forget(4 * 128 + 120..5 * 128 + 8, 25); // across a block
        forget(6 * 128 + 100..9 * 128 + 10, 26); // across three, 7 and 8 drop
        for r in 10 * 128..10 * 128 + 40 {
            forget(r..r + 1, 27 + r % 3); // three epochs in one page
        }
        forget(31 * 128 - 3..31 * 128 + 2, 30); // hot: one block to the next
        for r in (35 * 128..40 * 128 + 50).step_by(11) {
            forget(r..r + 1, 31); // hot and open blocks, one row each
        }
        assert_eq!(t.drop_forgotten_blocks().0, 3);
        assert_eq!(t.recompress_frozen(0.6).0, 1);
        let tier = t.col_tier(0);
        assert_eq!(tier.frozen(0).unwrap().state(), BlockState::Dropped);
        assert_eq!(tier.frozen(2).unwrap().state(), BlockState::Recompressed);
        for r in (7..5000u64).step_by(13) {
            t.access_mut().touch(RowId(r), 40);
        }
        t
    }

    #[test]
    fn every_death_run_shape_restores_exactly() {
        use crate::table::tier_width::assert_same_table;
        let t = death_run_table();
        let restored = decode(&encode(&t)).unwrap();
        for r in 0..t.num_rows() {
            let id = RowId::from(r);
            assert_eq!(
                restored.activity().died_at(id),
                t.activity().died_at(id),
                "died_at @{r}"
            );
        }
        // Tiers, hot metas, death epochs, insert epochs, access and
        // bounds: the restore re-encodes to the same bytes, and holds its
        // death epochs in the same pages and runs.
        assert_same_table(&restored, &t, "restored");
        assert_eq!(
            restored.activity().death_bytes(),
            t.activity().death_bytes()
        );
        // The hot metas, which no snapshot holds, come back as the live
        // table maintained them.
        for c in 0..3 {
            let metas = |t: &Table| {
                let tier = t.col_tier(c);
                (0..tier.full_blocks())
                    .map(|b| *tier.meta(b))
                    .collect::<Vec<_>>()
            };
            assert_eq!(metas(&restored), metas(&t), "column {c}");
        }
        restored.check_invariants().unwrap();

        // More runs in one page than the restore gathers at a time.
        let mut t = Table::with_block_rows(Schema::single("a"), 1024);
        t.insert_batch(&(0..3000).collect::<Vec<i64>>(), 0).unwrap();
        for r in (0..2100u64).step_by(2) {
            t.forget(RowId(r), 1 + r / 700).unwrap();
        }
        let restored = decode(&encode(&t)).unwrap();
        assert_same_table(&restored, &t, "1 050 one-row runs");
        assert_eq!(
            restored.activity().death_bytes(),
            t.activity().death_bytes()
        );
    }

    #[test]
    fn the_restore_is_identical_at_every_width() {
        use crate::table::tier_width::assert_same_table;
        // Four hot columns (stream, runs, frame, dictionary tails) of 20
        // full 64-row blocks and an open one, rows forgotten in each.
        let mut hot = Table::with_block_rows(Schema::new(vec!["a", "b", "c", "d"]), 64);
        let mut rng = SimRng::new(47);
        let far = [i64::MIN, -7, 0, 1 << 50, i64::MAX];
        for i in 0..20 * 64 + 30 {
            let row = [i, i / 90, rng.range_i64(0, 1 << 20), far[rng.index(5)]];
            hot.insert(&row, i as u64 / 100).unwrap();
        }
        for r in (0..hot.num_rows() as u64).step_by(7) {
            hot.forget(RowId(r), 50).unwrap();
        }
        // Frozen, dropped and recompressed blocks before ten full hot
        // blocks per column.
        for (name, t) in [("hot", hot), ("frozen and hot", death_run_table())] {
            let meta = RecoveryMeta {
                last_seqno: 9,
                ..RecoveryMeta::default()
            };
            let bytes = encode_with_meta(&t, meta);
            let (want, want_meta) = decode_with_meta_on(&bytes, 1).unwrap();
            assert_same_table(&want, &t, name);
            for threads in [2, 4] {
                let ctx = format!("{name}, {threads} workers");
                let (got, got_meta) = decode_with_meta_on(&bytes, threads).unwrap();
                assert_eq!(got_meta, want_meta, "{ctx}");
                assert_same_table(&got, &want, &ctx);
                for c in 0..t.schema().arity() {
                    let (g, w) = (got.col_tier(c), want.col_tier(c));
                    let metas = |tier: &TieredColumn| {
                        (0..tier.full_blocks())
                            .map(|b| *tier.meta(b))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(metas(g), metas(w), "{ctx}: column {c} metas");
                    assert_eq!(metas(g), metas(t.col_tier(c)), "{ctx}: column {c} live");
                    assert_eq!(g.appended_range(), w.appended_range(), "{ctx}: {c}");
                }
                for r in 0..t.num_rows() {
                    let id = RowId::from(r);
                    let died = got.activity().died_at(id);
                    assert_eq!(died, want.activity().died_at(id), "{ctx}: died_at @{r}");
                }
                assert_eq!(got.memory_bytes(), want.memory_bytes(), "{ctx}");
                got.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample_table());
        for cut in [0, 4, 8, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} survived");
        }
    }

    #[test]
    fn save_and_load_via_files() {
        let dir = std::env::temp_dir().join(format!("amn-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        let t = sample_table();
        save(&t, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_tables_equal(&t, &restored);
        // No stray temp file remains.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
