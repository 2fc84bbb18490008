//! The durable-write choke point: every byte the harness persists goes
//! through [`commit_file`] / [`commit_append`] on an injectable [`Fs`].
//!
//! Crash-safety discipline (ALICE-style): a campaign may be SIGKILLed at
//! any instruction, so no durable file may ever be observable in a torn
//! state. The two commit primitives guarantee that:
//!
//! - [`commit_file`] — *atomic replace*: write a uniquely-named temp file
//!   in the target directory, fsync it, rename it over the target, fsync
//!   the directory. Readers see either the old content or the new content,
//!   never a mixture; a crash at any point leaves at worst a stray
//!   `*.tmp.*` file. The temp name embeds the process id and a per-process
//!   counter, so two processes (or threads) committing the same target
//!   concurrently both succeed — last rename wins with a complete file.
//! - [`commit_append`] — *single durable append*: the record is written
//!   with one `O_APPEND` write and fsynced. A crash can tear at most the
//!   record being written, and only at the tail; the journal's per-record
//!   framing (`journal.rs`) detects exactly that.
//!
//! Production uses [`StdFs`]. Tests and the chaos harness inject
//! [`FaultyFs`], which fails deterministic operation indices with ENOSPC,
//! short (torn) writes or failed renames — the property locked by
//! `crates/harness/tests/crash_safety.rs` is that every injected fault
//! leaves the old state or the new state on re-read, never a torn one.
//!
//! **Enforcement:** no other module under `crates/harness/src` may call
//! `File::create`, `fs::write`, `fs::rename` or `OpenOptions` directly
//! (outside `#[cfg(test)]` code, which deliberately corrupts files). The
//! `fs/choke-point` rule of the workspace analyzer (docs/LINTS.md)
//! checks this at the token level (`crates/lint/tests/workspace_clean.rs`
//! holds the whole tree to it), and this file is the single
//! waived-by-scope exception.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Filesystem operations the harness needs for durable state. Implemented
/// by [`StdFs`] in production and [`FaultyFs`] under fault injection.
///
/// The trait captures *write-side* semantics precisely (what is durable
/// when) so the commit protocol can be tested against an adversarial
/// implementation; reads are included so corrupt-entry handling can be
/// driven through the same injector.
pub trait Fs: Send + Sync + std::fmt::Debug {
    /// Reads the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates/truncates `path`, writes `bytes`, fsyncs the file.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to `path` (creating it if needed) with a single
    /// `O_APPEND` write, then fsyncs the file.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` onto `to` (atomic replace on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs a directory so a preceding rename/create in it is durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Recursively creates a directory.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file; `Ok` if it does not exist.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production filesystem: real I/O with real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl Fs for StdFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX way
        // to make a rename in it durable. On platforms where directories
        // cannot be opened (Windows), skip — rename metadata is already
        // durable enough there.
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// The shared production instance, cloned into every component that does
/// not get an explicit [`Fs`] injected.
#[must_use]
pub fn std_fs() -> Arc<dyn Fs> {
    Arc::new(StdFs)
}

/// Per-process counter making concurrent temp names unique (two threads of
/// one process committing the same target must not collide either).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The unique temp path a [`commit_file`] for `path` uses.
fn tmp_path_for(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let file = path.file_name().map_or_else(
        || "commit".to_string(),
        |f| f.to_string_lossy().into_owned(),
    );
    path.with_file_name(format!(".{file}.tmp.{}.{n}", std::process::id()))
}

/// Atomically replaces `path` with `bytes`: unique temp file in the same
/// directory, fsync, rename over the target, fsync the directory. On any
/// error the temp file is removed (best effort) and `path` is untouched.
pub fn commit_file(fs: &dyn Fs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path_for(path);
    let commit = (|| {
        fs.write_file(&tmp, bytes)?;
        fs.rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs.sync_dir(parent)?;
            }
        }
        Ok(())
    })();
    if commit.is_err() {
        let _ = fs.remove_file(&tmp);
    }
    commit
}

/// Durably appends one record to `path` (single `O_APPEND` write + fsync).
/// A crash can tear at most this record, and only at the file's tail.
pub fn commit_append(fs: &dyn Fs, path: &Path, record: &[u8]) -> io::Result<()> {
    fs.append(path, record)
}

/// One injected filesystem fault, applied to a specific operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsFault {
    /// The operation fails up front (ENOSPC); no bytes reach the disk.
    Enospc,
    /// A write persists only the first `keep` bytes, then fails — the torn
    /// write a power cut mid-`write(2)` can leave.
    ShortWrite {
        /// Bytes that do land before the failure.
        keep: usize,
    },
    /// A rename fails after the temp file was written (crash between the
    /// `write` and the `rename`): the target keeps its old content and the
    /// temp file is left behind.
    FailRename,
}

/// Deterministic fault injector wrapping an inner [`Fs`].
///
/// Every mutating operation (write/append/rename) increments an operation
/// counter; when the counter matches a scheduled `(op_index, fault)` entry
/// the fault is applied instead. Reads, syncs and directory operations
/// pass through (they cannot tear state). The schedule is explicit data,
/// so a failing case replays exactly.
#[derive(Debug)]
pub struct FaultyFs {
    inner: Arc<dyn Fs>,
    schedule: Mutex<Vec<(u64, FsFault)>>,
    op: AtomicU64,
}

impl FaultyFs {
    /// Wraps `inner` with a fault schedule of `(operation index, fault)`
    /// pairs. Operation indices count mutating calls (write_file, append,
    /// rename) starting from 0.
    #[must_use]
    pub fn new(inner: Arc<dyn Fs>, schedule: Vec<(u64, FsFault)>) -> FaultyFs {
        FaultyFs {
            inner,
            schedule: Mutex::new(schedule),
            op: AtomicU64::new(0),
        }
    }

    /// Mutating operations performed (or faulted) so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }

    /// The fault scheduled for the current operation, if any.
    fn take_fault(&self) -> Option<FsFault> {
        let index = self.op.fetch_add(1, Ordering::Relaxed);
        let mut schedule = self.schedule.lock().unwrap_or_else(|e| e.into_inner());
        let at = schedule.iter().position(|(i, _)| *i == index)?;
        Some(schedule.swap_remove(at).1)
    }
}

fn enospc() -> io::Error {
    io::Error::new(io::ErrorKind::StorageFull, "injected: no space left")
}

impl Fs for FaultyFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.take_fault() {
            None => self.inner.write_file(path, bytes),
            Some(FsFault::Enospc | FsFault::FailRename) => Err(enospc()),
            Some(FsFault::ShortWrite { keep }) => {
                let keep = keep.min(bytes.len());
                let _ = self.inner.write_file(path, &bytes[..keep]);
                Err(enospc())
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.take_fault() {
            None => self.inner.append(path, bytes),
            Some(FsFault::Enospc | FsFault::FailRename) => Err(enospc()),
            Some(FsFault::ShortWrite { keep }) => {
                let keep = keep.min(bytes.len());
                let _ = self.inner.append(path, &bytes[..keep]);
                Err(enospc())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.take_fault() {
            None => self.inner.rename(from, to),
            // Any scheduled fault on a rename means the rename did not
            // happen: old target content survives, temp file remains.
            Some(_) => Err(enospc()),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("htpb-fs-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commit_file_replaces_atomically_and_leaves_no_tmp() {
        let dir = tmpdir("commit");
        let fs = StdFs;
        let target = dir.join("entry.json");
        commit_file(&fs, &target, b"old").unwrap();
        assert_eq!(fs.read(&target).unwrap(), b"old");
        commit_file(&fs, &target, b"new content").unwrap();
        assert_eq!(fs.read(&target).unwrap(), b"new content");
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "temp files left behind: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_commits_to_one_target_both_succeed() {
        let dir = tmpdir("race");
        let target = dir.join("entry.json");
        std::thread::scope(|scope| {
            for payload in [&b"aaaaaaaa"[..], &b"bbbbbbbb"[..]] {
                let target = target.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        commit_file(&StdFs, &target, payload).unwrap();
                    }
                });
            }
        });
        let last = StdFs.read(&target).unwrap();
        assert!(last == b"aaaaaaaa" || last == b"bbbbbbbb", "torn: {last:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_fs_applies_scheduled_faults_once() {
        let dir = tmpdir("faulty");
        let fs = FaultyFs::new(
            Arc::new(StdFs),
            vec![(0, FsFault::Enospc), (2, FsFault::ShortWrite { keep: 2 })],
        );
        let a = dir.join("a");
        assert!(fs.write_file(&a, b"first").is_err(), "op 0 faults");
        assert!(fs.write_file(&a, b"second").is_ok(), "op 1 clean");
        assert!(fs.write_file(&a, b"third").is_err(), "op 2 short-writes");
        assert_eq!(fs.read(&a).unwrap(), b"th", "short write left a torn file");
        assert!(fs.write_file(&a, b"fourth").is_ok(), "schedule exhausted");
        assert_eq!(fs.ops(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_keeps_old_target_and_cleans_tmp() {
        let dir = tmpdir("failrename");
        let target = dir.join("entry.json");
        commit_file(&StdFs, &target, b"old").unwrap();
        // Op 0 = temp write (clean), op 1 = rename (faulted).
        let fs = FaultyFs::new(Arc::new(StdFs), vec![(1, FsFault::FailRename)]);
        assert!(commit_file(&fs, &target, b"new").is_err());
        assert_eq!(StdFs.read(&target).unwrap(), b"old", "old state survives");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
