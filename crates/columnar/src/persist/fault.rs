//! Scripted fault injection for crash-recovery testing.
//!
//! [`FaultVfs`] wraps the real filesystem and injects failures at exact
//! *operation* boundaries: the Nth mutating call can tear (write only a
//! prefix of its bytes, byte-granular), fail with an I/O error, or
//! "crash" — after which every further operation fails, modelling a dead
//! process whose files survive. Because the underlying bytes are real,
//! recovery then runs against the genuinely-left-behind state: open the
//! same directory with a clean VFS and assert the acknowledged prefix
//! came back.
//!
//! The crash-matrix pattern:
//!
//! 1. run the workload once over a counting `FaultVfs::new()` and read
//!    [`FaultVfs::op_count`] — every mutating op is a potential crash
//!    point;
//! 2. for each point `k`, rerun in a fresh directory with
//!    `FaultVfs::crash_at(k)` until the injected crash fires;
//! 3. reopen with [`StdVfs`] and assert consistency.
//!
//! A dead process keeps its page cache; a machine that loses power does
//! not. [`FaultVfs::power_loss`] models the second: the wrapper tracks
//! each file's last-fsynced length (through `VfsFile::sync`, `sync_file`,
//! and the `truncate` / `overwrite` calls whose `StdVfs` forms fsync), and
//! power loss cuts every file back to it. Closing a handle flushes
//! nothing — which is how a log that seals a segment without an fsync
//! loses an acknowledged batch, and how the regression test next to
//! [`PersistentTable`](super::PersistentTable) catches it. Directory
//! entries are not modelled.
//!
//! Mutating operations are counted; reads are passed through unfaulted
//! (a reader cannot corrupt durable state). The op log
//! ([`FaultVfs::op_log`]) records every mutating call, so tests can also
//! assert *how* the layer touched disk — e.g. that torn-tail repair
//! truncated in place instead of rewriting the file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use amnesia_util::{storage_err, Result};

use super::vfs::{StdVfs, Vfs, VfsFile};

/// What happens when a scripted fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Write only the first `keep` bytes of the buffer, then crash (all
    /// later operations fail). Models a torn append / partial sector.
    TornWrite {
        /// Bytes of the buffer that reach the file before the tear.
        keep: usize,
    },
    /// Fail this one operation with an I/O error; later operations
    /// proceed (a transient fault the caller may observe and handle).
    Error,
    /// Fail this and every subsequent operation (process death before
    /// the operation took effect).
    Crash,
}

/// One scripted fault: fire `kind` on the `at_op`-th mutating operation
/// (0-based, in [`FaultVfs`] op-count order).
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Index of the mutating operation to fault.
    pub at_op: u64,
    /// Failure mode.
    pub kind: FaultKind,
}

#[derive(Debug, Default)]
struct State {
    ops: u64,
    faults: Vec<Fault>,
    crashed: bool,
    log: Vec<String>,
    /// Last-fsynced length of every file written through this wrapper.
    synced: BTreeMap<PathBuf, u64>,
}

impl State {
    /// Account one mutating op; decide its fate.
    fn admit(&mut self, desc: String) -> Result<Option<FaultKind>> {
        if self.crashed {
            return Err(storage_err!("fault-vfs: crashed (op after injected crash)"));
        }
        let idx = self.ops;
        self.ops += 1;
        self.log.push(desc);
        let fault = self.faults.iter().find(|f| f.at_op == idx).map(|f| f.kind);
        if let Some(FaultKind::Crash | FaultKind::TornWrite { .. }) = fault {
            self.crashed = true;
        }
        Ok(fault)
    }
}

/// A [`Vfs`] that injects scripted faults into an inner [`StdVfs`].
#[derive(Debug, Clone)]
pub struct FaultVfs {
    inner: StdVfs,
    state: Arc<Mutex<State>>,
}

impl Default for FaultVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultVfs {
    /// Counting VFS with no faults (the recording pass of a crash
    /// matrix).
    pub fn new() -> Self {
        Self::with_faults(Vec::new())
    }

    /// VFS with an explicit fault script.
    pub fn with_faults(faults: Vec<Fault>) -> Self {
        Self {
            inner: StdVfs,
            state: Arc::new(Mutex::new(State {
                faults,
                ..State::default()
            })),
        }
    }

    /// Crash on the `k`-th mutating operation.
    pub fn crash_at(k: u64) -> Self {
        Self::with_faults(vec![Fault {
            at_op: k,
            kind: FaultKind::Crash,
        }])
    }

    /// Tear the `k`-th mutating operation down to `keep` bytes, then
    /// crash.
    pub fn torn_at(k: u64, keep: usize) -> Self {
        Self::with_faults(vec![Fault {
            at_op: k,
            kind: FaultKind::TornWrite { keep },
        }])
    }

    /// Fail the `k`-th mutating operation with a transient I/O error.
    pub fn error_at(k: u64) -> Self {
        Self::with_faults(vec![Fault {
            at_op: k,
            kind: FaultKind::Error,
        }])
    }

    /// Mutating operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.state.lock().expect("fault state").ops
    }

    /// Has an injected crash fired?
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("fault state").crashed
    }

    /// The mutating-operation log (`"append path 123"`-style entries).
    pub fn op_log(&self) -> Vec<String> {
        self.state.lock().expect("fault state").log.clone()
    }

    fn admit(&self, desc: String) -> Result<Option<FaultKind>> {
        self.state.lock().expect("fault state").admit(desc)
    }

    /// Lose power: every file written through this wrapper is cut back to
    /// its last-fsynced length, and every later operation fails. Returns
    /// the number of bytes that were lost.
    pub fn power_loss(&self) -> Result<u64> {
        let mut state = self.state.lock().expect("fault state");
        state.crashed = true;
        let mut lost = 0;
        for (path, &synced) in &state.synced {
            if !self.inner.exists(path) {
                continue;
            }
            let len = self.inner.file_len(path)?;
            if len > synced {
                self.inner.truncate(path, synced)?;
                lost += len - synced;
            }
        }
        Ok(lost)
    }

    fn note_synced(&self, path: &Path) -> Result<()> {
        note_synced(&self.state, path)
    }

    fn guard_read(&self) -> Result<()> {
        if self.state.lock().expect("fault state").crashed {
            return Err(storage_err!("fault-vfs: crashed (read after crash)"));
        }
        Ok(())
    }
}

/// The whole of `path` as it is on disk now has been fsynced.
fn note_synced(state: &Mutex<State>, path: &Path) -> Result<()> {
    let len = StdVfs.file_len(path)?;
    let mut state = state.lock().expect("fault state");
    state.synced.insert(path.to_path_buf(), len);
    Ok(())
}

/// Append handle that consults the shared fault state on every write.
struct FaultFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    state: Arc<Mutex<State>>,
}

impl VfsFile for FaultFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let fault = self.state.lock().expect("fault state").admit(format!(
            "append {} {}",
            self.path.display(),
            bytes.len()
        ))?;
        match fault {
            None => self.inner.append(bytes),
            Some(FaultKind::TornWrite { keep }) => {
                let keep = keep.min(bytes.len());
                self.inner.append(&bytes[..keep])?;
                Err(storage_err!("fault-vfs: torn append ({keep} bytes kept)"))
            }
            Some(FaultKind::Error) => Err(storage_err!("fault-vfs: injected append error")),
            Some(FaultKind::Crash) => Err(storage_err!("fault-vfs: crash before append")),
        }
    }

    fn sync(&mut self) -> Result<()> {
        let fault = self
            .state
            .lock()
            .expect("fault state")
            .admit(format!("fsync {}", self.path.display()))?;
        match fault {
            None => {
                self.inner.sync()?;
                note_synced(&self.state, &self.path)
            }
            Some(_) => Err(storage_err!("fault-vfs: injected fsync failure")),
        }
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, path: &Path) -> Result<()> {
        // Directory creation happens once at setup; not a crash point.
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        self.guard_read()?;
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let fault = self.admit(format!("write_file {} {}", path.display(), bytes.len()))?;
        if matches!(fault, None | Some(FaultKind::TornWrite { .. })) {
            // A rewritten file starts over: none of the new content is
            // synced.
            let mut state = self.state.lock().expect("fault state");
            state.synced.insert(path.to_path_buf(), 0);
        }
        match fault {
            None => self.inner.write_file(path, bytes),
            Some(FaultKind::TornWrite { keep }) => {
                self.inner
                    .write_file(path, &bytes[..keep.min(bytes.len())])?;
                Err(storage_err!("fault-vfs: torn write_file"))
            }
            Some(FaultKind::Error) => Err(storage_err!("fault-vfs: injected write_file error")),
            Some(FaultKind::Crash) => Err(storage_err!("fault-vfs: crash before write_file")),
        }
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        // Opening is not a mutation of durable *contents*; faults attach
        // to the writes performed through the handle.
        self.guard_read()?;
        // What is on disk before this wrapper first writes to the file is
        // taken as durable.
        let on_disk = self.inner.file_len(path).unwrap_or(0);
        let mut state = self.state.lock().expect("fault state");
        state.synced.entry(path.to_path_buf()).or_insert(on_disk);
        drop(state);
        Ok(Box::new(FaultFile {
            inner: self.inner.open_append(path)?,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }

    fn sync_file(&self, path: &Path) -> Result<()> {
        match self.admit(format!("sync_file {}", path.display()))? {
            None => {
                self.inner.sync_file(path)?;
                self.note_synced(path)
            }
            Some(_) => Err(storage_err!("fault-vfs: injected sync_file failure")),
        }
    }

    fn sync_dir(&self, path: &Path) -> Result<()> {
        match self.admit(format!("sync_dir {}", path.display()))? {
            None => self.inner.sync_dir(path),
            Some(_) => Err(storage_err!("fault-vfs: injected sync_dir failure")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        match self.admit(format!("rename {} {}", from.display(), to.display()))? {
            None => {
                self.inner.rename(from, to)?;
                let mut state = self.state.lock().expect("fault state");
                if let Some(synced) = state.synced.remove(from) {
                    state.synced.insert(to.to_path_buf(), synced);
                }
                Ok(())
            }
            // Rename is atomic in the model: it either happens or not.
            Some(_) => Err(storage_err!("fault-vfs: crash before rename")),
        }
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        match self.admit(format!("remove {}", path.display()))? {
            None => {
                self.inner.remove_file(path)?;
                let mut state = self.state.lock().expect("fault state");
                state.synced.remove(path);
                Ok(())
            }
            Some(_) => Err(storage_err!("fault-vfs: crash before remove")),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        match self.admit(format!("truncate {} {len}", path.display()))? {
            // `StdVfs::truncate` fsyncs the cut.
            None => {
                self.inner.truncate(path, len)?;
                self.note_synced(path)
            }
            Some(_) => Err(storage_err!("fault-vfs: crash before truncate")),
        }
    }

    fn overwrite(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.admit(format!("overwrite {} {}", path.display(), bytes.len()))? {
            // `StdVfs::overwrite` fsyncs the file it rewrote in place.
            None => {
                self.inner.overwrite(path, bytes)?;
                self.note_synced(path)
            }
            Some(FaultKind::TornWrite { keep }) => {
                self.inner
                    .overwrite(path, &bytes[..keep.min(bytes.len())])?;
                Err(storage_err!("fault-vfs: torn overwrite"))
            }
            Some(_) => Err(storage_err!("fault-vfs: crash before overwrite")),
        }
    }

    fn file_len(&self, path: &Path) -> Result<u64> {
        self.guard_read()?;
        self.inner.file_len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list_dir(&self, path: &Path) -> Result<Vec<PathBuf>> {
        self.guard_read()?;
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amn-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn counting_vfs_passes_through_and_counts() {
        let vfs = FaultVfs::new();
        let path = tmp("count.bin");
        let _ = std::fs::remove_file(&path);
        let mut f = vfs.open_append(&path).unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.write_file(&path, b"xyz").unwrap();
        assert_eq!(vfs.op_count(), 3, "append, fsync, write_file");
        assert!(!vfs.crashed());
        assert_eq!(vfs.read(&path).unwrap(), b"xyz");
        let log = vfs.op_log();
        assert!(log[0].starts_with("append"), "{log:?}");
        assert!(log[1].starts_with("fsync"), "{log:?}");
    }

    #[test]
    fn torn_write_keeps_exact_prefix_then_crashes() {
        let vfs = FaultVfs::torn_at(0, 2);
        let path = tmp("torn.bin");
        let _ = std::fs::remove_file(&path);
        let mut f = vfs.open_append(&path).unwrap();
        assert!(f.append(b"abcdef").is_err());
        assert!(vfs.crashed());
        // Everything after the tear fails, including reads.
        assert!(f.append(b"zz").is_err());
        assert!(vfs.read(&path).is_err());
        // The real file holds exactly the torn prefix.
        assert_eq!(std::fs::read(&path).unwrap(), b"ab");
    }

    #[test]
    fn transient_error_does_not_latch() {
        let vfs = FaultVfs::error_at(1);
        let path = tmp("transient.bin");
        let _ = std::fs::remove_file(&path);
        let mut f = vfs.open_append(&path).unwrap();
        f.append(b"a").unwrap();
        assert!(f.append(b"b").is_err(), "op 1 faults");
        f.append(b"c").unwrap();
        assert!(!vfs.crashed());
        assert_eq!(std::fs::read(&path).unwrap(), b"ac");
    }

    #[test]
    fn power_loss_keeps_only_what_was_fsynced() {
        let vfs = FaultVfs::new();
        let (log, sealed, snap_tmp, snap) = (
            tmp("pl-log.bin"),
            tmp("pl-sealed.bin"),
            tmp("pl-snap.tmp"),
            tmp("pl-snap.bin"),
        );
        for p in [&log, &sealed, &snap_tmp, &snap] {
            let _ = std::fs::remove_file(p);
        }
        let mut f = vfs.open_append(&log).unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b"-cached").unwrap();
        // A handle closed without an fsync flushed nothing.
        let mut g = vfs.open_append(&sealed).unwrap();
        g.append(b"sealed, never synced").unwrap();
        drop(g);
        // write + fsync + rename: the synced length follows the rename.
        vfs.write_file(&snap_tmp, b"snapshot").unwrap();
        vfs.sync_file(&snap_tmp).unwrap();
        vfs.rename(&snap_tmp, &snap).unwrap();
        assert_eq!(vfs.power_loss().unwrap(), 7 + 20);
        assert!(vfs.crashed(), "nothing runs after power loss");
        assert!(f.append(b"x").is_err());
        assert_eq!(std::fs::read(&log).unwrap(), b"durable");
        assert_eq!(std::fs::read(&sealed).unwrap(), b"");
        assert_eq!(std::fs::read(&snap).unwrap(), b"snapshot");
    }

    #[test]
    fn crash_blocks_every_later_op() {
        let vfs = FaultVfs::crash_at(1);
        let path = tmp("crash.bin");
        let _ = std::fs::remove_file(&path);
        vfs.write_file(&path, b"one").unwrap();
        assert!(vfs.write_file(&path, b"two").is_err());
        assert!(vfs.remove_file(&path).is_err());
        assert!(vfs.truncate(&path, 0).is_err());
        assert!(vfs.rename(&path, &tmp("other.bin")).is_err());
        // The pre-crash bytes survive untouched.
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
    }
}
