//! Rotating, CRC-framed, codec-compressed WAL segments.
//!
//! The log is a directory of `wal-<index>.seg` files. Each segment is:
//!
//! ```text
//! header (36 bytes):
//!   magic "AMNWSEG1"      8 bytes
//!   u32   version (= 1)
//!   u32   flags (reserved)
//!   u64   first seqno in this segment
//!   u64   base epoch (epoch of the workload when the segment opened)
//!   u32   CRC-32 of the 32 header bytes above
//! records, each:
//!   u32   frame length
//!   frame: varint seqno, record body (see `wal` kinds)
//!   u32   CRC-32 of the frame
//! ```
//!
//! Every record carries a global, monotonically increasing sequence
//! number, and seqnos inside one segment are contiguous — so a segment
//! header alone names the half-open seqno range it starts, and the *next*
//! segment's header closes it. That is what lets checkpointing prune
//! ("every record at or below `through` is in the snapshot — unlink any
//! sealed segment whose successor starts at or below `through + 1`")
//! without reading a single record body, and what lets recovery skip
//! already-snapshotted records without trusting file order.
//!
//! A segment that reaches the rotation threshold is fsynced and then
//! sealed: sealed segments are never written or fsynced again, so a batch
//! commit — one fsync of the *active* segment — makes the whole batch
//! durable however many rotations its records crossed.
//!
//! Recovery ([`recover_segments`]) walks segments in index order and is
//! the place every crash mode lands:
//!
//! * **torn tail in the newest segment** — cut in place
//!   ([`Vfs::truncate`](super::vfs::Vfs::truncate), never rewrite) and
//!   keep appending after the
//!   valid prefix;
//! * **damage in an older segment** — everything after the damage point
//!   is unreachable without violating prefix order, so later segments are
//!   unlinked;
//! * **zeroed or headerless file** — a shred or segment-create crashed
//!   mid-write; the file is dead weight and is removed (any record it
//!   once held is either covered by the snapshot — the shredder only runs
//!   after a snapshot commits — or lost with the tear, in which case the
//!   seqno gap stops replay at the right place);
//! * **seqno gap between surviving segments** — stop: recovery never
//!   applies record *n+2* without *n+1*.
//!
//! The same machinery implements physical amnesia:
//! [`SegmentedWal::shred_covered`] zero-overwrites covered segments in
//! place, fsyncs the zeros, then unlinks — so a forgotten value's bytes
//! do not survive in the log once the drop has been checkpointed.

use std::path::{Path, PathBuf};

use amnesia_util::fixed::{le_u32, le_u64};
use amnesia_util::{crc32, storage_err, Result};

use super::reader::Reader;
use super::vfs::{SharedVfs, VfsFile};
use super::wal::{next_frame, WalRecord};

/// Segment file magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"AMNWSEG1";
/// Segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Segment header length in bytes.
pub const SEGMENT_HEADER_LEN: usize = 36;
/// Segment file name prefix.
pub const SEGMENT_PREFIX: &str = "wal-";
/// Segment file name suffix.
pub const SEGMENT_SUFFIX: &str = ".seg";
/// Default rotation threshold: a segment that reaches this many bytes is
/// sealed and a fresh one opened.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

/// Durability-layer counters, surfaced through
/// [`PersistentTable::stats`](super::PersistentTable::stats) and the
/// core store's metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (across all segments).
    pub records_appended: u64,
    /// Framed bytes appended.
    pub bytes_appended: u64,
    /// Segments sealed because they reached the rotation threshold.
    pub segments_rotated: u64,
    /// Segments destroyed by the shredder.
    pub segments_shredded: u64,
    /// Bytes zero-overwritten by the shredder.
    pub bytes_shredded: u64,
    /// fsync calls issued by the log against segment *data*.
    pub fsyncs: u64,
    /// fsync calls issued against the log *directory* (after segment
    /// creates and prune/shred unlinks, so the entries are durable).
    pub dir_fsyncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// Path of segment `index` inside `dir`.
pub fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{index:08}{SEGMENT_SUFFIX}"))
}

/// Parse a segment index out of a file name, if it is one of ours.
fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    digits.parse().ok()
}

fn encode_header(first_seqno: u64, base_epoch: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..8].copy_from_slice(SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[12..16].copy_from_slice(&0u32.to_le_bytes());
    h[16..24].copy_from_slice(&first_seqno.to_le_bytes());
    h[24..32].copy_from_slice(&base_epoch.to_le_bytes());
    let crc = crc32(&h[..32]);
    h[32..36].copy_from_slice(&crc.to_le_bytes());
    h
}

/// A parsed segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Sequence number of the first record this segment may hold.
    pub first_seqno: u64,
    /// Workload epoch when the segment was opened.
    pub base_epoch: u64,
}

/// Decode and validate a segment header. `None` means the file is not a
/// usable segment (too short, bad magic/version, checksum mismatch — all
/// of which a crashed shred or create can leave behind).
pub fn decode_header(bytes: &[u8]) -> Option<SegmentHeader> {
    if bytes.len() < SEGMENT_HEADER_LEN || &bytes[..8] != SEGMENT_MAGIC {
        return None;
    }
    // Checked reads (the length test above makes them infallible, but a
    // short slice must yield `None`, never a panic — lint rule `panic`).
    let version = le_u32(&bytes[8..])?;
    if version != SEGMENT_VERSION {
        return None;
    }
    let stored = le_u32(&bytes[32..])?;
    if crc32(&bytes[..32]) != stored {
        return None;
    }
    Some(SegmentHeader {
        first_seqno: le_u64(&bytes[16..])?,
        base_epoch: le_u64(&bytes[24..])?,
    })
}

/// A sealed (no longer appended-to) segment the log still tracks.
#[derive(Debug, Clone)]
struct SealedSegment {
    index: u64,
    first_seqno: u64,
}

/// The active (appendable) segment.
struct ActiveSegment {
    index: u64,
    first_seqno: u64,
    file: Box<dyn VfsFile>,
    bytes: u64,
}

impl std::fmt::Debug for ActiveSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSegment")
            .field("index", &self.index)
            .field("first_seqno", &self.first_seqno)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// The rotating segmented write-ahead log.
#[derive(Debug)]
pub struct SegmentedWal {
    vfs: SharedVfs,
    dir: PathBuf,
    sealed: Vec<SealedSegment>,
    active: Option<ActiveSegment>,
    next_index: u64,
    next_seqno: u64,
    segment_bytes: u64,
    stats: WalStats,
}

/// What [`recover_segments`] reconstructed.
#[derive(Debug)]
pub struct SegmentRecovery {
    /// The reopened log, positioned to append after the last valid record.
    pub wal: SegmentedWal,
    /// Records with seqno above the snapshot horizon, in seqno order —
    /// exactly the tail the caller must replay on top of the snapshot.
    pub records: Vec<WalRecord>,
    /// Sequence number of the last record in `records` (or the snapshot
    /// horizon when the tail is empty).
    pub last_seqno: u64,
    /// False when any repair was needed (torn tail, dead segment, seqno
    /// gap): some unacknowledged suffix was discarded.
    pub clean: bool,
}

impl SegmentedWal {
    /// Create a fresh log in `dir`. The first record gets sequence number
    /// `start_seqno`.
    pub fn create(vfs: SharedVfs, dir: &Path, start_seqno: u64) -> Result<Self> {
        vfs.create_dir_all(dir)?;
        Ok(Self {
            vfs,
            dir: dir.to_path_buf(),
            sealed: Vec::new(),
            active: None,
            next_index: 0,
            next_seqno: start_seqno,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            stats: WalStats::default(),
        })
    }

    /// Override the rotation threshold (tests use tiny segments to force
    /// rotation; the default is [`DEFAULT_SEGMENT_BYTES`]).
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.segment_bytes = bytes.max(SEGMENT_HEADER_LEN as u64 + 1);
    }

    /// Counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Seqno the next appended record will get.
    pub fn next_seqno(&self) -> u64 {
        self.next_seqno
    }

    /// Number of live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(self.active.is_some())
    }

    /// Open a fresh active segment, sealing the current one.
    fn rotate(&mut self, base_epoch: u64) -> Result<()> {
        // Nothing fsyncs a sealed segment again, and a batch commit fsyncs
        // only the active one: whatever this segment took since its last
        // fsync must reach the device before the handle goes.
        self.sync()?;
        if let Some(active) = self.active.take() {
            self.sealed.push(SealedSegment {
                index: active.index,
                first_seqno: active.first_seqno,
            });
            self.stats.segments_rotated += 1;
        }
        let index = self.next_index;
        self.next_index += 1;
        let path = segment_path(&self.dir, index);
        let mut file = self.vfs.open_append(&path)?;
        let header = encode_header(self.next_seqno, base_epoch);
        file.append(&header)?;
        // The new entry must be durable: a data fsync alone does not
        // guarantee the file is findable after power loss.
        self.vfs.sync_dir(&self.dir)?;
        self.stats.dir_fsyncs += 1;
        self.active = Some(ActiveSegment {
            index,
            first_seqno: self.next_seqno,
            file,
            bytes: SEGMENT_HEADER_LEN as u64,
        });
        Ok(())
    }

    /// Append one record; returns its sequence number. Buffered by the
    /// OS — call [`SegmentedWal::sync`] (or use a per-record sync policy)
    /// for durability.
    pub fn append(&mut self, record: &WalRecord, epoch_hint: u64) -> Result<u64> {
        self.append_body(&record.encode_body(), epoch_hint)
    }

    /// [`Self::append`] for a record body encoded already
    /// ([`WalRecord::encode_body`] or its kind-8 twin).
    pub(crate) fn append_body(&mut self, body: &[u8], epoch_hint: u64) -> Result<u64> {
        let needs_rotate = match &self.active {
            None => true,
            Some(a) => a.bytes >= self.segment_bytes,
        };
        if needs_rotate {
            self.rotate(epoch_hint)?;
        }
        let seqno = self.next_seqno;
        // `len | seqno | body | crc` in one buffer, the body copied once:
        // the length goes into the 4 bytes reserved for it once the frame
        // (seqno and body) is in, the CRC after it.
        let mut framed = Vec::with_capacity(4 + 10 + body.len() + 4);
        framed.extend_from_slice(&[0; 4]);
        crate::compress::varint::write_varint(&mut framed, seqno);
        framed.extend_from_slice(body);
        let frame_len = (framed.len() - 4) as u32;
        framed[..4].copy_from_slice(&frame_len.to_le_bytes());
        let crc = crc32(&framed[4..]);
        framed.extend_from_slice(&crc.to_le_bytes());
        let Some(active) = self.active.as_mut() else {
            // rotate() always installs an active segment; if it somehow
            // did not, fail the append rather than crash mid-durability.
            return Err(storage_err!("wal append with no active segment"));
        };
        active.file.append(&framed)?;
        active.bytes += framed.len() as u64;
        self.next_seqno += 1;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += framed.len() as u64;
        Ok(seqno)
    }

    /// fsync the active segment.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(active) = self.active.as_mut() {
            active.file.sync()?;
            self.stats.fsyncs += 1;
        }
        Ok(())
    }

    /// Unlink sealed segments fully covered by a snapshot through
    /// `through_seqno`. Header bookkeeping only — no record is read. The
    /// active segment is never pruned (recovery's seqno filter skips its
    /// covered prefix instead).
    pub fn prune_covered(&mut self, through_seqno: u64) -> Result<()> {
        // Sealed segment i is fully covered iff its successor's first
        // seqno (sealed i+1, or the active segment) is <= through + 1.
        let mut keep = Vec::with_capacity(self.sealed.len());
        let mut removed = false;
        for i in 0..self.sealed.len() {
            let next_first = self
                .sealed
                .get(i + 1)
                .map(|s| s.first_seqno)
                .or(self.active.as_ref().map(|a| a.first_seqno))
                .unwrap_or(self.next_seqno);
            if next_first <= through_seqno.saturating_add(1) {
                self.vfs
                    .remove_file(&segment_path(&self.dir, self.sealed[i].index))?;
                removed = true;
            } else {
                keep.push(self.sealed[i].clone());
            }
        }
        self.sealed = keep;
        if removed {
            // Make the unlinks durable: a pruned segment that reappears
            // after power loss would replay records the snapshot already
            // covers at best, and resurrect shredded bytes at worst.
            self.vfs.sync_dir(&self.dir)?;
            self.stats.dir_fsyncs += 1;
        }
        Ok(())
    }

    /// Physically destroy every segment fully covered by a snapshot
    /// through `through_seqno`: zero-overwrite in place, fsync the
    /// zeros, unlink. When the active segment is covered too (the usual
    /// case right after a drop checkpoint) it is shredded as well and a
    /// fresh segment opens on the next append.
    ///
    /// Call only after the covering snapshot is durably committed — a
    /// crash mid-shred then loses nothing, because everything destroyed
    /// here is replayable from the snapshot.
    pub fn shred_covered(&mut self, through_seqno: u64) -> Result<()> {
        let mut doomed: Vec<u64> = Vec::new();
        let mut keep = Vec::with_capacity(self.sealed.len());
        for i in 0..self.sealed.len() {
            let next_first = self
                .sealed
                .get(i + 1)
                .map(|s| s.first_seqno)
                .or(self.active.as_ref().map(|a| a.first_seqno))
                .unwrap_or(self.next_seqno);
            if next_first <= through_seqno.saturating_add(1) {
                doomed.push(self.sealed[i].index);
            } else {
                keep.push(self.sealed[i].clone());
            }
        }
        self.sealed = keep;
        if self.next_seqno <= through_seqno + 1 {
            // Every record in the active segment is covered: drop the
            // handle and shred the file too.
            if let Some(active) = self.active.take() {
                doomed.push(active.index);
            }
        }
        let shredded = !doomed.is_empty();
        for index in doomed {
            let path = segment_path(&self.dir, index);
            let len = self.vfs.file_len(&path)? as usize;
            self.vfs.overwrite(&path, &vec![0u8; len])?;
            self.vfs.remove_file(&path)?;
            self.stats.segments_shredded += 1;
            self.stats.bytes_shredded += len as u64;
        }
        if shredded {
            // The unlinks are part of the destruction: fsync the
            // directory so no shredded entry can reappear after power
            // loss.
            self.vfs.sync_dir(&self.dir)?;
            self.stats.dir_fsyncs += 1;
        }
        Ok(())
    }

    /// Record a checkpoint in the counters (the snapshot itself is the
    /// caller's job).
    pub fn note_checkpoint(&mut self) {
        self.stats.checkpoints += 1;
    }
}

/// One parsed segment, before seqno filtering.
struct ParsedSegment {
    index: u64,
    path: PathBuf,
    first_seqno: u64,
    /// The segment's records until replay moves them out.
    records: Vec<WalRecord>,
    /// How many records the segment held as parsed.
    count: u64,
    /// Byte offset just past the last valid frame.
    valid_bytes: u64,
    /// File length as read.
    file_len: u64,
}

/// Parse a segment's frames. Seqnos must start at the header's
/// `first_seqno` and increase by one per record; any violation ends the
/// valid prefix (it cannot be distinguished from corruption).
fn parse_segment(bytes: &[u8], header: SegmentHeader) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    let mut expected = header.first_seqno;
    while pos < bytes.len() {
        let Some((frame, next)) = next_frame(bytes, pos) else {
            break;
        };
        let mut r = Reader::new(frame);
        let Ok(seqno) = r.varint() else { break };
        if seqno != expected {
            break;
        }
        let body = &frame[r.position()..];
        let Ok(rec) = WalRecord::decode_body(body) else {
            break;
        };
        records.push(rec);
        expected += 1;
        pos = next;
    }
    (records, pos as u64)
}

/// Recover the segmented log in `dir` on top of a snapshot that covers
/// everything at or below `snap_seqno`. The reopened log rotates at
/// `segment_bytes` (pass [`DEFAULT_SEGMENT_BYTES`] when unconfigured —
/// a custom [`SegmentedWal::set_segment_bytes`] threshold must be passed
/// back in or it would silently revert on every open). Performs physical
/// repair as a side effect (see the module docs for the crash modes) and
/// returns the reopened log plus the record tail to replay.
pub fn recover_segments(
    vfs: SharedVfs,
    dir: &Path,
    snap_seqno: u64,
    segment_bytes: u64,
) -> Result<SegmentRecovery> {
    let segment_bytes = segment_bytes.max(SEGMENT_HEADER_LEN as u64 + 1);
    // Collect and order segment files by index.
    let mut found: Vec<(u64, PathBuf)> = vfs
        .list_dir(dir)?
        .into_iter()
        .filter_map(|p| segment_index(&p).map(|i| (i, p)))
        .collect();
    found.sort_by_key(|(i, _)| *i);

    let mut clean = true;
    let mut unlinked = false; // any entry removed: fsync the dir before returning
    let mut next_index = 0u64;
    let mut parsed: Vec<ParsedSegment> = Vec::new();
    let mut dead_after = false; // damage seen: unlink everything later
    for (index, path) in found {
        next_index = next_index.max(index + 1);
        if dead_after {
            clean = false;
            vfs.remove_file(&path)?;
            unlinked = true;
            continue;
        }
        let bytes = vfs.read(&path)?;
        let Some(header) = decode_header(&bytes) else {
            // Headerless / zeroed file: a shred or create died mid-way.
            clean = false;
            vfs.remove_file(&path)?;
            unlinked = true;
            continue;
        };
        let (records, valid_bytes) = parse_segment(&bytes, header);
        if valid_bytes < bytes.len() as u64 {
            // Damage inside this segment: nothing after it is usable.
            clean = false;
            dead_after = true;
        }
        parsed.push(ParsedSegment {
            index,
            path,
            first_seqno: header.first_seqno,
            count: records.len() as u64,
            records,
            valid_bytes,
            file_len: bytes.len() as u64,
        });
    }

    // Seqno filter: skip what the snapshot covers, stop at any gap.
    let mut expected = snap_seqno + 1;
    let mut out: Vec<WalRecord> = Vec::new();
    let mut kept: Vec<ParsedSegment> = Vec::new();
    let mut gap = false;
    for mut seg in parsed {
        if gap {
            clean = false;
            vfs.remove_file(&seg.path)?;
            unlinked = true;
            continue;
        }
        let lo = seg.first_seqno;
        let n = seg.count;
        if lo + n <= expected {
            // Fully covered by the snapshot (or empty below the horizon):
            // redundant — unlink now instead of carrying it forward,
            // unless it is the newest segment (kept as the append tail).
            kept.push(seg);
            continue;
        }
        if lo > expected {
            // Records between `expected` and `lo` are gone (a dead
            // segment took them): prefix order forbids applying anything
            // later.
            gap = true;
            clean = false;
            vfs.remove_file(&seg.path)?;
            unlinked = true;
            continue;
        }
        let skip = (expected - lo) as usize;
        out.extend(std::mem::take(&mut seg.records).into_iter().skip(skip));
        expected = lo + n;
        kept.push(seg);
    }

    // Physical repair of the newest surviving segment's torn tail: cut in
    // place so future appends extend the valid prefix. (Older segments
    // with damage caused everything after them to be unlinked above.)
    for (i, seg) in kept.iter().enumerate() {
        if seg.valid_bytes < seg.file_len {
            debug_assert_eq!(i, kept.len() - 1, "only the last segment can be torn here");
            vfs.truncate(&seg.path, seg.valid_bytes)?;
        }
    }

    // Prune fully-covered sealed segments (all but the last kept one).
    let mut sealed: Vec<SealedSegment> = Vec::new();
    let keep_tail = kept.len().saturating_sub(1);
    for (i, seg) in kept.iter().enumerate() {
        let covered = i < keep_tail && {
            let next_first = kept[i + 1].first_seqno;
            next_first <= expected && next_first <= snap_seqno.saturating_add(1)
        };
        if covered {
            vfs.remove_file(&seg.path)?;
            unlinked = true;
        } else if i < keep_tail {
            sealed.push(SealedSegment {
                index: seg.index,
                first_seqno: seg.first_seqno,
            });
        }
    }

    // Reopen the newest segment for appending if it is still small —
    // but only when the next seqno (`expected`) extends its record run
    // contiguously. A snapshot horizon past the segment's last record
    // (durable snapshot, unflushed WAL tail at crash under
    // per-batch/manual sync) would otherwise put seqno `expected`
    // straight after a lower seqno, an in-segment gap the next open
    // reads as corruption — silently discarding acknowledged records.
    // Sealing instead makes the next append rotate into a fresh segment
    // whose header starts at `expected`.
    let mut active = None;
    if let Some(seg) = kept.last() {
        let contiguous = seg.first_seqno + seg.count == expected;
        if contiguous && seg.valid_bytes < segment_bytes {
            let file = vfs.open_append(&seg.path)?;
            active = Some(ActiveSegment {
                index: seg.index,
                first_seqno: seg.first_seqno,
                file,
                bytes: seg.valid_bytes,
            });
        } else {
            sealed.push(SealedSegment {
                index: seg.index,
                first_seqno: seg.first_seqno,
            });
        }
    }

    if unlinked {
        vfs.sync_dir(dir)?;
    }

    let last_seqno = expected - 1;
    let wal = SegmentedWal {
        vfs,
        dir: dir.to_path_buf(),
        sealed,
        active,
        next_index,
        next_seqno: expected,
        segment_bytes,
        stats: WalStats::default(),
    };
    Ok(SegmentRecovery {
        wal,
        records: out,
        last_seqno,
        clean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::vfs::StdVfs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amn-seg-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(i: i64) -> WalRecord {
        WalRecord::Insert {
            epoch: i as u64,
            rows: vec![vec![i, -i]],
        }
    }

    #[test]
    fn append_rotate_recover_round_trips() {
        let dir = tmp_dir("round");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        wal.set_segment_bytes(128); // force rotations
        let records: Vec<WalRecord> = (0..40).map(rec).collect();
        for r in &records {
            wal.append(r, 0).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 1, "tiny threshold must rotate");
        assert!(wal.stats().segments_rotated > 0);
        drop(wal);
        let rec = recover_segments(StdVfs::shared(), &dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(rec.clean);
        assert_eq!(rec.records, records);
        assert_eq!(rec.last_seqno, 40);
        assert_eq!(rec.wal.next_seqno(), 41);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_skips_snapshot_covered_records_and_prunes() {
        let dir = tmp_dir("skip");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        wal.set_segment_bytes(96);
        let records: Vec<WalRecord> = (0..30).map(rec).collect();
        for r in &records {
            wal.append(r, 0).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Snapshot covers the first 12 records.
        let rec = recover_segments(StdVfs::shared(), &dir, 12, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(rec.clean);
        assert_eq!(rec.records, records[12..]);
        assert_eq!(rec.last_seqno, 30);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_cut_in_place_and_appendable() {
        let dir = tmp_dir("torn");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i), 0).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let path = segment_path(&dir, 0);
        let full = std::fs::read(&path).unwrap();
        // Tear mid-record.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full.len() as u64 - 3).unwrap();
        drop(f);
        let outcome = recover_segments(StdVfs::shared(), &dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(!outcome.clean);
        assert_eq!(outcome.records, (0..4).map(rec).collect::<Vec<_>>());
        // Repair happened in place: the file now ends at the valid prefix.
        let repaired = std::fs::read(&path).unwrap();
        assert_eq!(&full[..repaired.len()], &repaired[..], "prefix preserved");
        // Appends continue and recover.
        let mut wal = outcome.wal;
        assert_eq!(wal.next_seqno(), 5);
        wal.append(&rec(99), 0).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let again = recover_segments(StdVfs::shared(), &dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(again.clean);
        let mut expected: Vec<WalRecord> = (0..4).map(rec).collect();
        expected.push(rec(99));
        assert_eq!(again.records, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_byte_cut_of_the_last_segment_is_a_prefix() {
        let dir = tmp_dir("cuts");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        let records: Vec<WalRecord> = (0..6).map(rec).collect();
        for r in &records {
            wal.append(r, 0).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let path = segment_path(&dir, 0);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let outcome =
                recover_segments(StdVfs::shared(), &dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
            assert_eq!(
                outcome.records,
                records[..outcome.records.len()],
                "cut {cut}: prefix property"
            );
            // A cut landing exactly on a frame boundary is
            // indistinguishable from a shorter log and may look clean;
            // everything else must be flagged.
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zeroed_segment_is_removed_and_gap_stops_replay() {
        let dir = tmp_dir("zeroed");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        wal.set_segment_bytes(96);
        let records: Vec<WalRecord> = (0..30).map(rec).collect();
        for r in &records {
            wal.append(r, 0).unwrap();
        }
        wal.sync().unwrap();
        let segs = wal.segment_count();
        assert!(segs >= 3, "need a middle segment, got {segs}");
        drop(wal);
        // Zero segment 1 (a mid-shred crash leaves exactly this).
        let victim = segment_path(&dir, 1);
        let len = std::fs::metadata(&victim).unwrap().len() as usize;
        std::fs::write(&victim, vec![0u8; len]).unwrap();
        let outcome = recover_segments(StdVfs::shared(), &dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(!outcome.clean);
        // Only segment 0's records survive: the gap stops replay.
        let seg0 = recover_segments(StdVfs::shared(), &dir, 0, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(outcome.records, seg0.records, "replay is stable");
        assert!(outcome.records.len() < records.len());
        assert_eq!(outcome.records, records[..outcome.records.len()]);
        assert!(!victim.exists(), "dead segment removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zeroed_covered_segment_recovers_the_full_tail() {
        // The realistic mid-shred crash: the zeroed segment is *covered*
        // by the snapshot, so recovery loses nothing.
        let dir = tmp_dir("covered");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        wal.set_segment_bytes(96);
        let records: Vec<WalRecord> = (0..30).map(rec).collect();
        for r in &records {
            wal.append(r, 0).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Count records in segment 0 so we can "cover" them.
        let seg0_bytes = std::fs::read(segment_path(&dir, 0)).unwrap();
        let header = decode_header(&seg0_bytes).unwrap();
        let (seg0_records, _) = parse_segment(&seg0_bytes, header);
        let covered = seg0_records.len() as u64;
        let victim = segment_path(&dir, 0);
        let len = std::fs::metadata(&victim).unwrap().len() as usize;
        std::fs::write(&victim, vec![0u8; len]).unwrap();
        let outcome =
            recover_segments(StdVfs::shared(), &dir, covered, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(outcome.records, records[covered as usize..], "no loss");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_covered_reads_no_bodies_and_keeps_uncovered() {
        let dir = tmp_dir("prune");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        wal.set_segment_bytes(96);
        for i in 0..30 {
            wal.append(&rec(i), 0).unwrap();
        }
        wal.sync().unwrap();
        let before = wal.segment_count();
        assert!(before >= 3);
        // Nothing covered: nothing pruned.
        wal.prune_covered(0).unwrap();
        assert_eq!(wal.segment_count(), before);
        // Everything covered: all sealed segments go; active stays.
        wal.prune_covered(wal.next_seqno() - 1).unwrap();
        assert_eq!(wal.segment_count(), 1);
        // The survivors still replay (their covered prefix is skipped).
        drop(wal);
        let outcome = recover_segments(StdVfs::shared(), &dir, 29, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(outcome.records, vec![rec(29)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shred_covered_zeroes_then_unlinks() {
        let dir = tmp_dir("shred");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        wal.set_segment_bytes(96);
        for i in 0..30 {
            wal.append(&rec(i), 0).unwrap();
        }
        wal.sync().unwrap();
        let n = wal.next_seqno() - 1;
        wal.shred_covered(n).unwrap();
        let stats = wal.stats();
        assert!(stats.segments_shredded >= 3);
        assert!(stats.bytes_shredded > 0);
        // Directory is empty of segments until the next append.
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| segment_index(&e.unwrap().path()))
            .collect();
        assert!(files.is_empty(), "all segments destroyed: {files:?}");
        // Appends reopen a fresh segment with continuous seqnos.
        wal.append(&rec(77), 5).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let outcome = recover_segments(StdVfs::shared(), &dir, n, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(outcome.clean);
        assert_eq!(outcome.records, vec![rec(77)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_horizon_past_the_tail_seals_instead_of_reopening() {
        // PerBatch/Manual crash shape: the snapshot (covering through
        // seqno 8) was durably committed, but the WAL tail after seqno 5
        // never hit the disk. Reopening the tail segment as the append
        // target would put seqno 9 right after seqno 5 — an in-segment
        // gap the *next* recovery reads as corruption, silently
        // discarding acknowledged records. The tail must be sealed and
        // appends rotate into a fresh segment starting at 9.
        let dir = tmp_dir("horizon");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i), 0).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let outcome = recover_segments(StdVfs::shared(), &dir, 8, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(outcome.records.is_empty(), "everything is covered");
        assert_eq!(outcome.wal.next_seqno(), 9);
        let mut wal = outcome.wal;
        wal.append(&rec(42), 0).unwrap();
        wal.sync().unwrap();
        assert_eq!(
            wal.segment_count(),
            2,
            "append must rotate into a fresh segment, not extend the stale tail"
        );
        drop(wal);
        let again = recover_segments(StdVfs::shared(), &dir, 8, DEFAULT_SEGMENT_BYTES).unwrap();
        assert!(again.clean, "the new tail is not corruption");
        assert_eq!(again.records, vec![rec(42)], "the acked record survives");
        assert_eq!(again.last_seqno, 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_honors_a_custom_segment_threshold() {
        let dir = tmp_dir("threshold");
        let mut wal = SegmentedWal::create(StdVfs::shared(), &dir, 1).unwrap();
        wal.set_segment_bytes(96);
        for i in 0..6 {
            wal.append(&rec(i), 0).unwrap();
        }
        wal.sync().unwrap();
        let live_segments = wal.segment_count();
        assert!(live_segments > 1, "96-byte threshold must rotate");
        drop(wal);
        // Recovering with the same threshold keeps rotating at it; the
        // default would have coalesced everything into one segment.
        let mut wal = recover_segments(StdVfs::shared(), &dir, 0, 96).unwrap().wal;
        for i in 6..12 {
            wal.append(&rec(i), 0).unwrap();
        }
        wal.sync().unwrap();
        assert!(
            wal.segment_count() > live_segments,
            "custom threshold survives recovery: {} segments",
            wal.segment_count()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_survives_scrutiny() {
        let h = encode_header(42, 7);
        let parsed = decode_header(&h).unwrap();
        assert_eq!(parsed.first_seqno, 42);
        assert_eq!(parsed.base_epoch, 7);
        // Any single-bit flip invalidates it.
        for i in 0..h.len() {
            let mut dup = h;
            dup[i] ^= 1;
            assert!(decode_header(&dup).is_none(), "flip at {i}");
        }
        assert!(decode_header(&h[..20]).is_none(), "short header");
        assert!(decode_header(&[0u8; 36]).is_none(), "zeroed header");
    }
}
