//! WAL record encoding, and the reader of the legacy single-file log.
//!
//! Record framing (legacy `table.wal` and inside
//! [segments](super::segment) alike):
//!
//! ```text
//! u32  body length
//! body: u8 kind, payload
//! u32  CRC-32 of the body
//! ```
//!
//! Kinds:
//!
//! | kind | record | payload | written by |
//! |------|--------|---------|------------|
//! | 1 | insert (row-major) | `varint epoch, varint rows, varint arity, signed varint values` | single-row `insert`, batches under 8 rows |
//! | 2 | forget | `varint epoch, varint row` | single-row `forget` only |
//! | 3 | insert (column-major) | `varint epoch, varint rows, varint arity`, per column: `u8 codec tag, varint data length, codec bytes` | `insert_batch` (one column, straight from the caller's slice) |
//! | 4 | freeze | `varint upto` | `freeze_upto` |
//! | 5 | drop blocks | — | `drop_forgotten_blocks` |
//! | 6 | recompress | `f64 max active fraction` | `recompress_frozen` |
//! | 7 | checkpoint | `varint through-seqno` | `checkpoint` |
//! | 8 | forget rows | `varint epoch, varint count`, runs: `signed varint gap from the previous run's end, varint length` | `AmnesiacStore::forget_batch`, once per batch |
//!
//! Kind 3 is the compressed batch path: each column runs through
//! [`EncodedBlock::encode_auto`], so a WAL full of serial or repetitive
//! inserts costs about what the frozen tier costs, not eight bytes a
//! value. Small batches stay row-major (kind 1) — the codec header would
//! outweigh them. Kind 8 is its forgetting twin: a batch of victims is one
//! record of row-id runs, so a FIFO batch of any size is about ten bytes
//! and a scattered one about three bytes a row, where one kind-2 record
//! per victim cost sixteen bytes, a checksum and a write call each. The
//! gap is signed because victims arrive in policy order, not row order.
//! Kinds 4–6 are the tier transitions: they log the
//! *parameters* of `freeze_upto` / `drop_forgotten_blocks` /
//! `recompress_frozen`, which are deterministic given table state, so
//! replay reproduces the exact pre-crash tier layout.
//!
//! A one-column insert decodes to [`WalRecord::InsertColumn`] whichever of
//! kinds 1 and 3 carried it, so replay applies it with one
//! `Table::insert_batch`; wider rows decode to [`WalRecord::Insert`].
//!
//! Nothing writes a `table.wal` any more; a directory that still holds one
//! is supported input, and [`replay`] reads its bytes: records until they
//! end cleanly or a torn / corrupt record appears — everything before the
//! damage is recovered, everything after is discarded (it was never
//! acknowledged durable).

use amnesia_util::fixed::le_u32;
use amnesia_util::{crc32, storage_err, Result};
use bytes::{BufMut, Bytes, BytesMut};

use crate::compress::varint::{write_signed, write_varint};
use crate::compress::{EncodedBlock, Encoding};
use crate::table::forget_runs;
use crate::types::{Epoch, RowId, Value};

use super::reader::{place_run, Reader};

const KIND_INSERT: u8 = 1;
const KIND_FORGET: u8 = 2;
const KIND_INSERT_COLS: u8 = 3;
const KIND_FREEZE: u8 = 4;
const KIND_DROP_BLOCKS: u8 = 5;
const KIND_RECOMPRESS: u8 = 6;
const KIND_CHECKPOINT: u8 = 7;
const KIND_FORGET_ROWS: u8 = 8;

/// Insert batches at or above this many rows take the column-major
/// codec-compressed encoding (kind 3); below it, the per-column codec
/// headers would outweigh the values.
const COLUMNAR_THRESHOLD: usize = 8;

/// The shared head of both insert kinds.
fn put_insert_header(body: &mut BytesMut, kind: u8, epoch: Epoch, rows: usize, arity: usize) {
    body.put_u8(kind);
    write_varint(body, epoch);
    write_varint(body, rows as u64);
    write_varint(body, arity as u64);
}

/// One kind-3 column: `u8 codec tag, varint data length, codec bytes`.
fn put_encoded_column(body: &mut BytesMut, values: &[Value]) {
    let block = EncodedBlock::encode_auto(values);
    body.put_u8(block.encoding().tag());
    write_varint(body, block.data().len() as u64);
    body.put_slice(block.data());
}

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch of inserted rows (row-major values). One-column batches
    /// read back as [`WalRecord::InsertColumn`].
    Insert {
        /// Insertion epoch.
        epoch: Epoch,
        /// Rows, each of schema arity.
        rows: Vec<Vec<Value>>,
    },
    /// A batch of values inserted into a one-column table.
    InsertColumn {
        /// Insertion epoch.
        epoch: Epoch,
        /// The column's new values, in row order.
        values: Vec<Value>,
    },
    /// One forgotten row.
    Forget {
        /// Forget epoch.
        epoch: Epoch,
        /// Victim.
        row: RowId,
    },
    /// A batch of forgotten rows, as runs of consecutive row ids in the
    /// order the batch named them (build with [`WalRecord::forget_rows`]).
    ForgetRows {
        /// Forget epoch.
        epoch: Epoch,
        /// `(first row, length)` of each run; lengths are non-zero.
        runs: Vec<(RowId, u64)>,
    },
    /// Tier transition: `Table::freeze_upto(upto)`.
    Freeze {
        /// Row bound passed to `freeze_upto`.
        upto: usize,
    },
    /// Tier transition: `Table::drop_forgotten_blocks()`.
    DropBlocks,
    /// Tier transition: `Table::recompress_frozen(max_active_fraction)`.
    Recompress {
        /// Active-fraction threshold below which blocks recompress.
        max_active_fraction: f64,
    },
    /// Marker: everything at or below `through_seqno` is captured by the
    /// snapshot on disk. Replay treats it as a no-op; it exists so the
    /// log itself records where checkpoints happened.
    Checkpoint {
        /// Last sequence number the snapshot covers.
        through_seqno: u64,
    },
}

impl WalRecord {
    /// A [`WalRecord::ForgetRows`] for `rows`: consecutive ascending ids
    /// collapse into one run, so the record is as long as the batch is
    /// fragmented, not as long as it is large.
    pub fn forget_rows(epoch: Epoch, rows: &[RowId]) -> WalRecord {
        WalRecord::ForgetRows {
            epoch,
            runs: forget_runs(rows).collect(),
        }
    }

    /// Encode the record body (kind byte + payload), without framing.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut body = BytesMut::new();
        match self {
            WalRecord::Insert { epoch, rows } => {
                let arity = rows.first().map_or(0, Vec::len);
                if rows.len() >= COLUMNAR_THRESHOLD && arity > 0 {
                    put_insert_header(&mut body, KIND_INSERT_COLS, *epoch, rows.len(), arity);
                    let mut col = Vec::with_capacity(rows.len());
                    for c in 0..arity {
                        col.clear();
                        for row in rows {
                            debug_assert_eq!(row.len(), arity, "ragged insert batch");
                            col.push(row[c]);
                        }
                        put_encoded_column(&mut body, &col);
                    }
                } else {
                    put_insert_header(&mut body, KIND_INSERT, *epoch, rows.len(), arity);
                    for row in rows {
                        debug_assert_eq!(row.len(), arity, "ragged insert batch");
                        for &v in row {
                            write_signed(&mut body, v);
                        }
                    }
                }
            }
            WalRecord::InsertColumn { epoch, values } => {
                if values.len() >= COLUMNAR_THRESHOLD {
                    put_insert_header(&mut body, KIND_INSERT_COLS, *epoch, values.len(), 1);
                    put_encoded_column(&mut body, values);
                } else {
                    put_insert_header(&mut body, KIND_INSERT, *epoch, values.len(), 1);
                    for &v in values {
                        write_signed(&mut body, v);
                    }
                }
            }
            WalRecord::Forget { epoch, row } => {
                body.put_u8(KIND_FORGET);
                write_varint(&mut body, *epoch);
                write_varint(&mut body, row.0);
            }
            WalRecord::Freeze { upto } => {
                body.put_u8(KIND_FREEZE);
                write_varint(&mut body, *upto as u64);
            }
            WalRecord::DropBlocks => {
                body.put_u8(KIND_DROP_BLOCKS);
            }
            WalRecord::Recompress {
                max_active_fraction,
            } => {
                body.put_u8(KIND_RECOMPRESS);
                body.put_f64_le(*max_active_fraction);
            }
            WalRecord::Checkpoint { through_seqno } => {
                body.put_u8(KIND_CHECKPOINT);
                write_varint(&mut body, *through_seqno);
            }
            WalRecord::ForgetRows { epoch, runs } => {
                let count = runs.iter().map(|&(_, len)| len).sum();
                put_forget_rows(&mut body, *epoch, count, runs.iter().copied());
            }
        }
        body.to_vec()
    }

    /// Decode a record body (inverse of [`WalRecord::encode_body`]).
    pub fn decode_body(body: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(body);
        let kind = r.u8()?;
        let rec = match kind {
            KIND_INSERT => {
                let epoch = r.varint()?;
                let n = r.varint()? as usize;
                let arity = r.varint()? as usize;
                if arity == 0 && n > 0 {
                    return Err(storage_err!("insert record with zero arity"));
                }
                // Every value is at least one byte: a count the rest of
                // the body cannot hold is corrupt, and must not size an
                // allocation.
                if n.saturating_mul(arity) > r.remaining() {
                    return Err(storage_err!("insert record claims impossible size"));
                }
                if arity == 1 {
                    let mut values = Vec::with_capacity(n);
                    for _ in 0..n {
                        values.push(r.signed_varint()?);
                    }
                    WalRecord::InsertColumn { epoch, values }
                } else {
                    let mut rows = Vec::with_capacity(n);
                    for _ in 0..n {
                        let mut row = Vec::with_capacity(arity);
                        for _ in 0..arity {
                            row.push(r.signed_varint()?);
                        }
                        rows.push(row);
                    }
                    WalRecord::Insert { epoch, rows }
                }
            }
            KIND_INSERT_COLS => {
                let epoch = r.varint()?;
                let n = r.varint()? as usize;
                let arity = r.varint()? as usize;
                if arity == 0 || n == 0 {
                    return Err(storage_err!("columnar insert record with empty shape"));
                }
                // Codecs compress, so `n` is not bounded by the body
                // length; each column is at least a tag and a length.
                if n.saturating_mul(arity) > (1 << 32) || arity > r.remaining() / 2 {
                    return Err(storage_err!("insert record claims impossible size"));
                }
                // Nothing is sized from `n` until a column has decoded to
                // exactly that many values.
                let mut columns = Vec::with_capacity(arity);
                for c in 0..arity {
                    let tag = r.u8()?;
                    let encoding = Encoding::from_tag(tag)
                        .ok_or_else(|| storage_err!("unknown codec tag {tag} in WAL insert"))?;
                    let data_len = r.varint()? as usize;
                    let data = Bytes::copy_from_slice(r.bytes(data_len)?);
                    let values = EncodedBlock::try_from_parts(encoding, n, data)?.decode();
                    if values.len() != n {
                        return Err(storage_err!(
                            "WAL insert column {c} decoded to {} values, expected {n}",
                            values.len()
                        ));
                    }
                    columns.push(values);
                }
                match <[Vec<Value>; 1]>::try_from(columns) {
                    Ok([values]) => WalRecord::InsertColumn { epoch, values },
                    Err(columns) => WalRecord::Insert {
                        epoch,
                        rows: (0..n)
                            .map(|i| columns.iter().map(|col| col[i]).collect())
                            .collect(),
                    },
                }
            }
            KIND_FORGET => WalRecord::Forget {
                epoch: r.varint()?,
                row: RowId(r.varint()?),
            },
            KIND_FREEZE => WalRecord::Freeze {
                upto: r.varint()? as usize,
            },
            KIND_DROP_BLOCKS => WalRecord::DropBlocks,
            KIND_RECOMPRESS => WalRecord::Recompress {
                max_active_fraction: r.f64()?,
            },
            KIND_CHECKPOINT => WalRecord::Checkpoint {
                through_seqno: r.varint()?,
            },
            KIND_FORGET_ROWS => {
                let epoch = r.varint()?;
                let count = r.varint()?;
                // Each run is at least two bytes, so the body bounds the
                // run list whatever `count` claims.
                let mut runs = Vec::with_capacity((r.remaining() / 2).min(count as usize));
                let mut prev_end = 0u64;
                let mut total = 0u64;
                while total < count {
                    let gap = r.signed_varint()?;
                    let len = r.varint()?;
                    let (start, end) = place_run(prev_end, gap, len, u64::MAX)?;
                    total = total
                        .checked_add(len)
                        .filter(|&t| t <= count)
                        .ok_or_else(|| {
                            storage_err!("forget-rows runs exceed the declared {count}")
                        })?;
                    runs.push((RowId(start), len));
                    prev_end = end;
                }
                WalRecord::ForgetRows { epoch, runs }
            }
            other => return Err(storage_err!("unknown WAL record kind {other}")),
        };
        r.expect_end()?;
        Ok(rec)
    }
}

/// What replay found.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Records recovered, in log order.
    pub records: Vec<WalRecord>,
    /// True when the log ended exactly at a record boundary.
    pub clean: bool,
    /// Bytes of valid log prefix.
    pub valid_bytes: u64,
}

/// Replay the bytes of a legacy log file (`table.wal`). Corruption (torn
/// frame, bad CRC, undecodable body) ends replay at the last good record.
pub fn replay(bytes: &[u8]) -> ReplayOutcome {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let clean = loop {
        if pos == bytes.len() {
            break true; // exact boundary
        }
        let Some((body, next)) = next_frame(bytes, pos) else {
            break false;
        };
        match WalRecord::decode_body(body) {
            Ok(rec) => records.push(rec),
            Err(_) => break false,
        }
        pos = next;
    };
    ReplayOutcome {
        records,
        clean,
        valid_bytes: pos as u64,
    }
}

/// Parse one `u32 len | body | u32 crc` frame at `pos`. Returns the body
/// slice and the offset just past the frame, or `None` when the frame is
/// torn or its CRC does not match.
pub(super) fn next_frame(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    // Checked reads throughout (`le_u32` is `None` on a short slice):
    // torn frames surface as `None`, never as a panic (lint rule `panic`).
    let len = le_u32(bytes.get(pos..)?)? as usize;
    let body_start = pos + 4;
    let crc_start = body_start.checked_add(len)?;
    if crc_start.checked_add(4)? > bytes.len() {
        return None; // torn body or checksum
    }
    let body = &bytes[body_start..crc_start];
    let stored = le_u32(&bytes[crc_start..])?;
    if crc32(body) != stored {
        return None; // bit rot or partial overwrite
    }
    Some((body, crc_start + 4))
}

/// The body [`WalRecord::forget_rows`]`(epoch, rows)` encodes to, written
/// straight from the rows: the durable forget path logs a batch without
/// collecting its runs. Every row is in exactly one run, so the count is
/// `rows.len()`.
pub(crate) fn encode_forget_rows(epoch: Epoch, rows: &[RowId]) -> Vec<u8> {
    let mut body = BytesMut::new();
    put_forget_rows(&mut body, epoch, rows.len() as u64, forget_runs(rows));
    body.to_vec()
}

/// A kind-8 body: the header, then each run as its signed gap from the
/// previous run's end and its length.
fn put_forget_rows(
    body: &mut BytesMut,
    epoch: Epoch,
    count: u64,
    runs: impl IntoIterator<Item = (RowId, u64)>,
) {
    body.put_u8(KIND_FORGET_ROWS);
    write_varint(body, epoch);
    write_varint(body, count);
    let mut prev_end = 0u64;
    for (start, len) in runs {
        // Wrapping: the two's-complement difference of any two u64 row
        // ids is the i64 gap the decoder adds back.
        write_signed(body, start.0.wrapping_sub(prev_end) as i64);
        write_varint(body, len);
        prev_end = start.0.wrapping_add(len);
    }
}

/// One record as the legacy log framed it (`u32 len | body | u32 crc`):
/// how tests fabricate the `table.wal` nothing writes any more.
#[cfg(test)]
pub(super) fn legacy_frame(record: &WalRecord) -> Vec<u8> {
    let body = record.encode_body();
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<u8> {
        sample_records().iter().flat_map(legacy_frame).collect()
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                epoch: 0,
                rows: vec![vec![1, 10], vec![2, 20], vec![3, 30]],
            },
            WalRecord::Forget {
                epoch: 1,
                row: RowId(1),
            },
            WalRecord::Insert {
                epoch: 1,
                rows: vec![vec![-4, 40]],
            },
            WalRecord::Freeze { upto: 2048 },
            WalRecord::Recompress {
                max_active_fraction: 0.5,
            },
            WalRecord::DropBlocks,
            WalRecord::Forget {
                epoch: 2,
                row: RowId(0),
            },
            WalRecord::Checkpoint { through_seqno: 7 },
            WalRecord::InsertColumn {
                epoch: 3,
                values: vec![7, -8],
            },
            // Policy order, not row order: a run, a step back, a repeat.
            WalRecord::forget_rows(
                3,
                &[
                    RowId(10),
                    RowId(11),
                    RowId(12),
                    RowId(4),
                    RowId(4),
                    RowId(900),
                ],
            ),
        ]
    }

    #[test]
    fn every_kind_round_trips_through_body_encoding() {
        let mut all = sample_records();
        // Batches big enough for the column-major path.
        all.push(WalRecord::Insert {
            epoch: 9,
            rows: (0..100).map(|i| vec![i, i * 2, -i]).collect(),
        });
        all.push(WalRecord::InsertColumn {
            epoch: 9,
            values: (0..100).map(|i| i * i - 50).collect(),
        });
        all.push(WalRecord::forget_rows(9, &[]));
        for rec in &all {
            let body = rec.encode_body();
            assert_eq!(&WalRecord::decode_body(&body).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn large_batches_take_the_columnar_compressed_path() {
        let serial = WalRecord::InsertColumn {
            epoch: 0,
            values: (0..1000i64).collect(),
        };
        let body = serial.encode_body();
        assert_eq!(body[0], KIND_INSERT_COLS, "big batch is column-major");
        // 1000 serial values compress to ~1 byte/value, below the ~2
        // bytes/value the row-major zigzag varints would need.
        assert!(body.len() < 1100, "compressed body is {} bytes", body.len());
        assert_eq!(WalRecord::decode_body(&body).unwrap(), serial);
        // Kind 3 bytes did not change when the one-column variant split
        // off: the row-major spelling of the same batch encodes the same.
        let as_rows = WalRecord::Insert {
            epoch: 0,
            rows: (0..1000i64).map(|i| vec![i]).collect(),
        };
        assert_eq!(as_rows.encode_body(), body);
        // Small batches stay row-major, and a one-column batch decodes to
        // the column variant from either kind.
        let small = WalRecord::Insert {
            epoch: 0,
            rows: vec![vec![1], vec![2]],
        };
        assert_eq!(small.encode_body()[0], KIND_INSERT);
        assert_eq!(
            WalRecord::decode_body(&small.encode_body()).unwrap(),
            WalRecord::InsertColumn {
                epoch: 0,
                values: vec![1, 2]
            }
        );
    }

    #[test]
    fn forget_rows_cost_what_the_batch_is_fragmented_into() {
        // FIFO: 20 000 consecutive victims are one run, about ten bytes.
        let fifo: Vec<RowId> = (1_000_000..1_020_000).map(RowId).collect();
        let rec = WalRecord::forget_rows(51, &fifo);
        assert_eq!(
            rec,
            WalRecord::ForgetRows {
                epoch: 51,
                runs: vec![(RowId(1_000_000), 20_000)]
            }
        );
        let body = rec.encode_body();
        assert!(body.len() <= 12, "fifo batch is {} bytes", body.len());
        assert_eq!(WalRecord::decode_body(&body).unwrap(), rec);
        // Scattered, unordered victims: a few bytes a row, never the 16
        // of a framed kind-2 record.
        let mut rng = amnesia_util::SimRng::new(5);
        let scattered: Vec<RowId> = (0..5_000)
            .map(|_| RowId(rng.next_u64() % 1_000_000))
            .collect();
        let rec = WalRecord::forget_rows(2, &scattered);
        let body = rec.encode_body();
        assert!(body.len() < 5 * scattered.len(), "{} bytes", body.len());
        let WalRecord::ForgetRows { runs, .. } = WalRecord::decode_body(&body).unwrap() else {
            panic!("kind 8 decodes to ForgetRows");
        };
        let rows: Vec<RowId> = runs
            .iter()
            .flat_map(|&(start, len)| (start.0..start.0 + len).map(RowId))
            .collect();
        assert_eq!(rows, scattered, "order and duplicates survive");
        // The same kind of batch ascending, as uniform victims come: 25 000
        // distinct rows of 1 850 000 (`stream_scatter`'s shape) cost their
        // gaps, under 3.6 bytes a row.
        let ascending: Vec<RowId> = rng
            .sample_set(1_850_000, 25_000)
            .iter_ones()
            .map(|r| RowId(r as u64))
            .collect();
        let rec = WalRecord::forget_rows(3, &ascending);
        let body = rec.encode_body();
        let per_row = body.len() as f64 / ascending.len() as f64;
        assert!(per_row <= 3.6, "{per_row:.3} bytes per ascending row");
        assert_eq!(WalRecord::decode_body(&body).unwrap(), rec);
    }

    #[test]
    fn encode_forget_rows_is_the_record_encoding() {
        let mut rng = amnesia_util::SimRng::new(8);
        let unsorted: Vec<RowId> = (0..2_000)
            .map(|_| RowId(rng.index(50_000) as u64))
            .collect();
        let batches: [Vec<RowId>; 5] = [
            Vec::new(),
            unsorted,
            [7, 7, 8, 9, 9, 3, 4, 4, 5, 0].map(RowId).to_vec(),
            (100..900).map(RowId).collect(),
            [u64::MAX - 1, u64::MAX, 0, 1].map(RowId).to_vec(),
        ];
        for rows in &batches {
            let want = WalRecord::forget_rows(6, rows).encode_body();
            assert_eq!(encode_forget_rows(6, rows), want, "{} rows", rows.len());
        }
    }

    /// Hand-build a kind-8 body from `(gap, len)` runs.
    fn forget_rows_body(count: u64, runs: &[(i64, u64)]) -> BytesMut {
        let mut body = BytesMut::new();
        body.put_u8(KIND_FORGET_ROWS);
        write_varint(&mut body, 1); // epoch
        write_varint(&mut body, count);
        for &(gap, len) in runs {
            write_signed(&mut body, gap);
            write_varint(&mut body, len);
        }
        body
    }

    #[test]
    fn malformed_forget_rows_are_errors_not_panics_or_allocations() {
        assert!(WalRecord::decode_body(&forget_rows_body(3, &[(5, 3)])).is_ok());
        for (what, body) in [
            ("zero-length run", forget_rows_body(3, &[(5, 0), (0, 3)])),
            ("start before row 0", forget_rows_body(3, &[(-1, 3)])),
            (
                "gap overflow",
                forget_rows_body(2, &[(i64::MAX, 1), (i64::MAX, 1), (5, 1)]),
            ),
            (
                "length overflow",
                forget_rows_body(u64::MAX, &[(8, u64::MAX - 3)]),
            ),
            (
                "total above the count",
                forget_rows_body(3, &[(5, 2), (1, 2)]),
            ),
            (
                "total below the count",
                forget_rows_body(9, &[(5, 2), (1, 2)]),
            ),
            ("trailing run", forget_rows_body(2, &[(5, 2), (1, 2)])),
            ("huge count, no runs", forget_rows_body(1 << 60, &[])),
        ] {
            assert!(WalRecord::decode_body(&body).is_err(), "{what} accepted");
        }
        // Every single-byte mutation of a valid body decodes or errors.
        let valid =
            WalRecord::forget_rows(4, &[RowId(3), RowId(4), RowId(90), RowId(2)]).encode_body();
        for i in 0..valid.len() {
            for flip in [0x01u8, 0x40, 0x80, 0xFF] {
                let mut dup = valid.clone();
                dup[i] ^= flip;
                let _ = WalRecord::decode_body(&dup);
            }
        }
    }

    #[test]
    fn append_then_replay_round_trips() {
        let full = sample_log();
        let outcome = replay(&full);
        assert!(outcome.clean);
        assert_eq!(outcome.records, sample_records());
        assert_eq!(outcome.valid_bytes, full.len() as u64);
        let empty = replay(&[]);
        assert!(empty.clean && empty.records.is_empty());
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let full = sample_log();
        // Cut the log at every possible byte: replay must never panic
        // and must return a prefix of the logical records.
        for cut in 0..full.len() {
            let outcome = replay(&full[..cut]);
            assert!(outcome.records.len() <= sample_records().len(), "cut {cut}");
            let expected = &sample_records()[..outcome.records.len()];
            assert_eq!(outcome.records, expected, "cut {cut}: prefix property");
            assert!(outcome.valid_bytes <= cut as u64);
            assert!(!outcome.clean || outcome.valid_bytes == cut as u64);
        }
    }

    #[test]
    fn bit_flips_drop_the_damaged_suffix() {
        let full = sample_log();
        for i in (0..full.len()).step_by(5) {
            let mut dup = full.clone();
            dup[i] ^= 0x40;
            let outcome = replay(&dup);
            // The records recovered must be a prefix of the originals —
            // a flip can only truncate history, never corrupt it
            // silently into different-but-valid records (CRC would have
            // to collide, which these single-bit flips cannot).
            let expected = &sample_records()[..outcome.records.len()];
            assert_eq!(outcome.records, expected, "flip at {i}");
        }
    }

    #[test]
    fn unknown_kind_ends_replay() {
        let body = [99u8, 0, 0]; // kind 99 does not exist
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        let outcome = replay(&bytes);
        assert!(!outcome.clean);
        assert!(outcome.records.is_empty());
    }

    #[test]
    fn impossible_sizes_are_rejected_not_allocated() {
        // A record whose body claims 2^40 rows must fail fast instead of
        // trying to reserve terabytes.
        let mut body = BytesMut::new();
        body.put_u8(KIND_INSERT);
        write_varint(&mut body, 0); // epoch
        write_varint(&mut body, 1 << 40); // rows
        write_varint(&mut body, 1 << 20); // arity
        let err = WalRecord::decode_body(&body).unwrap_err();
        assert!(err.to_string().contains("impossible"), "{err}");
        // A count the remaining bytes cannot hold is refused before it
        // sizes anything, in both insert kinds.
        for (kind, rows, arity) in [(KIND_INSERT, 1000u64, 1u64), (KIND_INSERT_COLS, 4, 1000)] {
            let mut body = BytesMut::new();
            body.put_u8(kind);
            write_varint(&mut body, 0);
            write_varint(&mut body, rows);
            write_varint(&mut body, arity);
            body.put_slice(&[0u8; 16]);
            let err = WalRecord::decode_body(&body).unwrap_err();
            assert!(err.to_string().contains("impossible"), "{err}");
        }
    }
}
