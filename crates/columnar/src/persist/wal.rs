//! WAL record encoding and the legacy single-file write-ahead log.
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
//! | kind | record | payload |
//! |------|--------|---------|
//! | 1 | insert (row-major) | `varint epoch, varint rows, varint arity, signed varint values` |
//! | 2 | forget | `varint epoch, varint row` |
//! | 3 | insert (column-major) | `varint epoch, varint rows, varint arity`, per column: `u8 codec tag, varint data length, codec bytes` |
//! | 4 | freeze | `varint upto` |
//! | 5 | drop blocks | — |
//! | 6 | recompress | `f64 max active fraction` |
//! | 7 | checkpoint | `varint through-seqno` |
//!
//! Kind 3 is the compressed batch path: each column runs through
//! [`EncodedBlock::encode_auto`], so a WAL full of serial or repetitive
//! inserts costs about what the frozen tier costs, not eight bytes a
//! value. Small batches stay row-major (kind 1) — the codec header would
//! outweigh them. Kinds 4–6 are the tier transitions: they log the
//! *parameters* of `freeze_upto` / `drop_forgotten_blocks` /
//! `recompress_frozen`, which are deterministic given table state, so
//! replay reproduces the exact pre-crash tier layout.
//!
//! Replay walks records until the file ends cleanly or a torn / corrupt
//! record appears — everything before the damage is recovered, everything
//! after is discarded (it was never acknowledged durable).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use amnesia_util::fixed::le_u32;
use amnesia_util::{crc32, storage_err, Result};
use bytes::{BufMut, Bytes, BytesMut};

use crate::compress::varint::{write_signed, write_varint};
use crate::compress::{EncodedBlock, Encoding};
use crate::types::{Epoch, RowId, Value};

use super::reader::Reader;

const KIND_INSERT: u8 = 1;
const KIND_FORGET: u8 = 2;
const KIND_INSERT_COLS: u8 = 3;
const KIND_FREEZE: u8 = 4;
const KIND_DROP_BLOCKS: u8 = 5;
const KIND_RECOMPRESS: u8 = 6;
const KIND_CHECKPOINT: u8 = 7;

/// Insert batches at or above this many rows take the column-major
/// codec-compressed encoding (kind 3); below it, the per-column codec
/// headers would outweigh the values.
const COLUMNAR_THRESHOLD: usize = 8;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch of inserted rows (row-major values).
    Insert {
        /// Insertion epoch.
        epoch: Epoch,
        /// Rows, each of schema arity.
        rows: Vec<Vec<Value>>,
    },
    /// One forgotten row.
    Forget {
        /// Forget epoch.
        epoch: Epoch,
        /// Victim.
        row: RowId,
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
    /// Encode the record body (kind byte + payload), without framing.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut body = BytesMut::new();
        match self {
            WalRecord::Insert { epoch, rows } => {
                let arity = rows.first().map_or(0, Vec::len);
                if rows.len() >= COLUMNAR_THRESHOLD && arity > 0 {
                    body.put_u8(KIND_INSERT_COLS);
                    write_varint(&mut body, *epoch);
                    write_varint(&mut body, rows.len() as u64);
                    write_varint(&mut body, arity as u64);
                    let mut col = Vec::with_capacity(rows.len());
                    for c in 0..arity {
                        col.clear();
                        for row in rows {
                            debug_assert_eq!(row.len(), arity, "ragged insert batch");
                            col.push(row[c]);
                        }
                        let block = EncodedBlock::encode_auto(&col);
                        body.put_u8(block.encoding().tag());
                        write_varint(&mut body, block.data().len() as u64);
                        body.put_slice(block.data());
                    }
                } else {
                    body.put_u8(KIND_INSERT);
                    write_varint(&mut body, *epoch);
                    write_varint(&mut body, rows.len() as u64);
                    write_varint(&mut body, arity as u64);
                    for row in rows {
                        debug_assert_eq!(row.len(), arity, "ragged insert batch");
                        for &v in row {
                            write_signed(&mut body, v);
                        }
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
        }
        body.to_vec()
    }

    /// Frame the record for the legacy single-file log:
    /// `u32 len | body | u32 crc`.
    fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
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
                // Guard against absurd sizes from corrupt length fields.
                if n.saturating_mul(arity) > body.len() * 8 {
                    return Err(storage_err!("insert record claims impossible size"));
                }
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
            KIND_INSERT_COLS => {
                let epoch = r.varint()?;
                let n = r.varint()? as usize;
                let arity = r.varint()? as usize;
                if arity == 0 || n == 0 {
                    return Err(storage_err!("columnar insert record with empty shape"));
                }
                if n.saturating_mul(arity) > (1 << 32) {
                    return Err(storage_err!("insert record claims impossible size"));
                }
                let mut rows = vec![Vec::with_capacity(arity); n];
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
                    for (row, v) in rows.iter_mut().zip(values) {
                        row.push(v);
                    }
                }
                WalRecord::Insert { epoch, rows }
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
            other => return Err(storage_err!("unknown WAL record kind {other}")),
        };
        r.expect_end()?;
        Ok(rec)
    }

    /// Is this a tier-transition record (as opposed to row data or a
    /// checkpoint marker)?
    pub fn is_tier_transition(&self) -> bool {
        matches!(
            self,
            WalRecord::Freeze { .. } | WalRecord::DropBlocks | WalRecord::Recompress { .. }
        )
    }
}

/// What replay found.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Records recovered, in log order.
    pub records: Vec<WalRecord>,
    /// True when the log ended exactly at a record boundary.
    pub clean: bool,
    /// Bytes of valid log prefix (where the next append should start).
    pub valid_bytes: u64,
}

/// The legacy single-file write-ahead log (`table.wal`).
///
/// Superseded by [`segment::SegmentedWal`](super::segment::SegmentedWal);
/// kept so that pre-segment directories can be read and migrated, and as
/// the baseline in the WAL benchmarks.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

impl Wal {
    /// Open (creating if missing) for appending.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self { file, path })
    }

    /// The log path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record (buffered by the OS; call [`Wal::sync`] for
    /// durability).
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.file.write_all(&record.encode())?;
        Ok(())
    }

    /// fsync the log.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Discard every record (after a checkpoint made them redundant).
    pub fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Current log size in bytes.
    pub fn len_bytes(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// Replay a legacy log file. Missing file = empty clean log. Corruption
/// (torn frame, bad CRC, undecodable body) ends replay at the last good
/// record.
pub fn replay(path: &Path) -> Result<ReplayOutcome> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(ReplayOutcome {
                records: Vec::new(),
                clean: true,
                valid_bytes: 0,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    let clean = loop {
        if pos == bytes.len() {
            break true; // exact boundary
        }
        let Some((body, next)) = next_frame(&bytes, pos) else {
            break false;
        };
        match WalRecord::decode_body(body) {
            Ok(rec) => records.push(rec),
            Err(_) => break false,
        }
        pos = next;
    };
    Ok(ReplayOutcome {
        records,
        clean,
        valid_bytes: pos as u64,
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amn-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
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
        ]
    }

    #[test]
    fn every_kind_round_trips_through_body_encoding() {
        let mut all = sample_records();
        // A batch big enough for the column-major path.
        all.push(WalRecord::Insert {
            epoch: 9,
            rows: (0..100).map(|i| vec![i, i * 2, -i]).collect(),
        });
        for rec in &all {
            let body = rec.encode_body();
            assert_eq!(&WalRecord::decode_body(&body).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn large_batches_take_the_columnar_compressed_path() {
        let serial = WalRecord::Insert {
            epoch: 0,
            rows: (0..1000i64).map(|i| vec![i]).collect(),
        };
        let body = serial.encode_body();
        assert_eq!(body[0], KIND_INSERT_COLS, "big batch is column-major");
        // 1000 serial values compress to ~1 byte/value, below the ~2
        // bytes/value the row-major zigzag varints would need.
        assert!(body.len() < 1100, "compressed body is {} bytes", body.len());
        assert_eq!(WalRecord::decode_body(&body).unwrap(), serial);
        // Small batches stay row-major.
        let small = WalRecord::Insert {
            epoch: 0,
            rows: vec![vec![1], vec![2]],
        };
        assert_eq!(small.encode_body()[0], KIND_INSERT);
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = tmp("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        let outcome = replay(&path).unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.records, sample_records());
        assert_eq!(outcome.valid_bytes, wal.len_bytes().unwrap());
    }

    #[test]
    fn missing_file_is_a_clean_empty_log() {
        let outcome = replay(&tmp("never-created.wal")).unwrap();
        assert!(outcome.clean);
        assert!(outcome.records.is_empty());
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let path = tmp("torn.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut the file at every possible byte: replay must never panic
        // and must return a prefix of the logical records.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let outcome = replay(&path).unwrap();
            assert!(outcome.records.len() <= sample_records().len(), "cut {cut}");
            let expected = &sample_records()[..outcome.records.len()];
            assert_eq!(outcome.records, expected, "cut {cut}: prefix property");
            assert!(outcome.valid_bytes <= cut as u64);
            if cut < full.len() {
                assert!(!outcome.clean || outcome.valid_bytes == cut as u64);
            }
        }
    }

    #[test]
    fn bit_flips_drop_the_damaged_suffix() {
        let path = tmp("flip.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        for i in (0..full.len()).step_by(5) {
            let mut dup = full.clone();
            dup[i] ^= 0x40;
            std::fs::write(&path, &dup).unwrap();
            let outcome = replay(&path).unwrap();
            // The records recovered must be a prefix of the originals —
            // a flip can only truncate history, never corrupt it
            // silently into different-but-valid records (CRC would have
            // to collide, which these single-bit flips cannot).
            let expected = &sample_records()[..outcome.records.len()];
            assert_eq!(outcome.records, expected, "flip at {i}");
        }
    }

    #[test]
    fn truncate_resets_the_log() {
        let path = tmp("trunc.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes().unwrap(), 0);
        // Appends continue to work after truncation.
        wal.append(&sample_records()[1]).unwrap();
        wal.sync().unwrap();
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.records, vec![sample_records()[1].clone()]);
    }

    #[test]
    fn unknown_kind_ends_replay() {
        let path = tmp("kind.wal");
        let body = [9u8, 0, 0]; // kind 9 does not exist
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let outcome = replay(&path).unwrap();
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
    }
}
