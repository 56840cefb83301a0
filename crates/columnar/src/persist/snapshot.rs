//! Binary table snapshots.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic   "AMNSNAP1"                         8 bytes
//! u32     version (= 3)
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
//!   per forgotten row: varint row id, varint died-at epoch
//!   per row: signed varint insert-epoch delta (vs previous row)
//!   u64   touched count (rows with access stats)
//!   per touched row: varint row id, f64 frequency, varint last access
//! u32     CRC-32 of the payload
//! ```
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

use amnesia_util::{crc32, storage_err, Result};
use bytes::{BufMut, Bytes, BytesMut};

use crate::compress::varint::{write_signed, write_varint};
use crate::compress::{EncodedBlock, Encoding};
use crate::schema::Schema;
use crate::table::Table;
use crate::tier::{BlockMeta, BlockState, FrozenBlock, TieredColumn};
use crate::types::RowId;

use super::reader::Reader;

/// File magic.
pub const MAGIC: &[u8; 8] = b"AMNSNAP1";
/// Current format version.
pub const VERSION: u32 = 3;

/// Recovery bookkeeping carried at the head of a v3 payload.
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

    // Forgotten rows with their death epochs.
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

    // Insert epochs, delta-coded (batch inserts make these long runs of
    // zero deltas — one byte each).
    let mut prev = 0i64;
    for &e in table.insert_epochs() {
        write_signed(&mut payload, e as i64 - prev);
        prev = e as i64;
    }

    // Access stats: only touched rows.
    let touched: Vec<u64> = (0..n as u64)
        .filter(|&r| table.access().frequency(RowId(r)) > 0.0)
        .collect();
    payload.put_u64_le(touched.len() as u64);
    for r in touched {
        write_varint(&mut payload, r);
        payload.put_f64_le(table.access().frequency(RowId(r)));
        write_varint(&mut payload, table.access().last_access(RowId(r)));
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
    let payload = r.bytes(payload_len)?.to_vec();
    let stored_crc = r.u32()?;
    let actual = crc32(&payload);
    if stored_crc != actual {
        return Err(storage_err!(
            "snapshot checksum mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
        ));
    }
    if version == 1 {
        return Ok((decode_v1(&payload)?, RecoveryMeta::default()));
    }
    let mut meta = RecoveryMeta::default();
    let body = if version >= 3 {
        let mut m = Reader::new(&payload);
        meta.last_seqno = m.u64()?;
        meta.blocks_dropped = m.u64()?;
        meta.blocks_recompressed = m.u64()?;
        &payload[m.position()..]
    } else {
        &payload[..]
    };
    Ok((decode_v2_body(body)?, meta))
}

/// Decode the column/activity/access body shared by versions 2 and 3.
fn decode_v2_body(payload: &[u8]) -> Result<Table> {
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
    struct ColParts {
        tier: TieredColumn,
        stats: Option<(i64, i64)>,
    }
    let mut columns: Vec<ColParts> = Vec::with_capacity(arity);
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
        let frozen_count = p.u64()? as usize;
        if frozen_count
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
        let tail_encoding = Encoding::from_tag(tail_tag)
            .ok_or_else(|| storage_err!("unknown tail encoding tag {tail_tag}"))?;
        let tail_rows = p.u64()? as usize;
        if frozen_count * block_rows + tail_rows != n {
            return Err(storage_err!(
                "column {c} covers {} rows, expected {n}",
                frozen_count * block_rows + tail_rows
            ));
        }
        let data_len = p.u64()? as usize;
        let data = Bytes::copy_from_slice(p.bytes(data_len)?);
        let tail = EncodedBlock::try_from_parts(tail_encoding, tail_rows, data)?.decode();
        if tail.len() != tail_rows {
            return Err(storage_err!(
                "column {c} tail decoded to {} rows, expected {tail_rows}",
                tail.len()
            ));
        }
        let stats = match p.u8()? {
            0 => None,
            1 => Some((p.i64()?, p.i64()?)),
            f => return Err(storage_err!("bad stats flag {f}")),
        };
        columns.push(ColParts {
            tier: TieredColumn::from_parts(block_rows, pinned, frozen, tail),
            stats,
        });
    }

    // Forgotten rows.
    let forgotten_count = p.u64()? as usize;
    let mut forgotten = Vec::with_capacity(forgotten_count);
    for _ in 0..forgotten_count {
        let row = p.varint()?;
        let epoch = p.varint()?;
        if row as usize >= n {
            return Err(storage_err!("forgotten row {row} out of range"));
        }
        forgotten.push((RowId(row), epoch));
    }

    // Insert epochs.
    let mut epochs = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        prev += p.signed_varint()?;
        if prev < 0 {
            return Err(storage_err!("negative insert epoch"));
        }
        epochs.push(prev as u64);
    }

    // Access stats.
    let touched_count = p.u64()? as usize;
    let mut touched = Vec::with_capacity(touched_count);
    for _ in 0..touched_count {
        let row = p.varint()?;
        let freq = p.f64()?;
        let last = p.varint()?;
        if row as usize >= n {
            return Err(storage_err!("touched row {row} out of range"));
        }
        touched.push((RowId(row), freq, last));
    }
    p.expect_end()?;

    // Rebuild: the persisted tiers install as-is and the activity /
    // epoch / access bookkeeping is reconstructed directly — the restore
    // never materializes a dense copy of the table and allocates nothing
    // beyond the tiers it keeps. Dropped blocks stay dropped, frozen
    // payloads are not re-encoded, and block metadata arrives already
    // reflecting the persisted forgets.
    let (tiers, stats): (Vec<_>, Vec<_>) = columns.into_iter().map(|c| (c.tier, c.stats)).unzip();
    let mut table =
        Table::from_restored_parts(Schema::new(names), block_rows, tiers, epochs, &forgotten)?;
    for (row, freq, last) in touched {
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

    // Forgotten rows.
    let forgotten_count = p.u64()? as usize;
    let mut forgotten = Vec::with_capacity(forgotten_count);
    for _ in 0..forgotten_count {
        let row = p.varint()?;
        let epoch = p.varint()?;
        if row as usize >= n {
            return Err(storage_err!("forgotten row {row} out of range"));
        }
        forgotten.push((RowId(row), epoch));
    }

    // Insert epochs.
    let mut epochs = Vec::with_capacity(n);
    let mut prev = 0i64;
    for _ in 0..n {
        prev += p.signed_varint()?;
        if prev < 0 {
            return Err(storage_err!("negative insert epoch"));
        }
        epochs.push(prev as u64);
    }

    // Access stats.
    let touched_count = p.u64()? as usize;
    let mut touched = Vec::with_capacity(touched_count);
    for _ in 0..touched_count {
        let row = p.varint()?;
        let freq = p.f64()?;
        let last = p.varint()?;
        if row as usize >= n {
            return Err(storage_err!("touched row {row} out of range"));
        }
        touched.push((RowId(row), freq, last));
    }
    p.expect_end()?;

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
        epochs,
        &forgotten,
    )?;
    for (c, (min, max)) in stats.into_iter().enumerate() {
        table.restore_col_stats(c, min, max);
    }
    for (row, freq, last) in touched {
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

/// Load a snapshot and its recovery meta through a [`Vfs`].
///
/// [`Vfs`]: crate::persist::vfs::Vfs
pub fn load_with(vfs: &dyn crate::persist::vfs::Vfs, path: &Path) -> Result<(Table, RecoveryMeta)> {
    let bytes = vfs.read(path)?;
    decode_with_meta(&bytes)
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
        let restored = decode(&encode(&t)).unwrap();
        assert_eq!(restored.frozen_blocks(), t.frozen_blocks());
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
        for &e in table.insert_epochs() {
            write_signed(&mut payload, e as i64 - prev);
            prev = e as i64;
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
