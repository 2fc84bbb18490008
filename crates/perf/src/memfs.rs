//! The null filesystem: an in-memory [`Fs`] with no fsync to wait for.
//!
//! Running the harness over it instead of [`htpb_harness::StdFs`] removes
//! every disk wait while keeping the journal framing, the cache codec and
//! the dispatch loop, so the difference between the two is the measured
//! price of crash safety.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use htpb_harness::Fs;

/// File contents by path. Directories are implicit.
#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<BTreeMap<PathBuf, Vec<u8>>>,
    syncs: AtomicU64,
}

impl MemFs {
    /// How many fsyncs a real filesystem would have done so far: one per
    /// file written, record appended and directory synced.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    fn count_sync(&self) {
        // A statistic: publishes no other data.
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        // Every update below is a single map operation, so the map is valid
        // even if a holder panicked.
        self.files.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl Fs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count_sync();
        self.files().insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.count_sync();
        self.files()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files();
        let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        self.count_sync();
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.files().remove(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpb_harness::{commit_append, commit_file};

    #[test]
    fn commit_protocol_round_trips() {
        let fs = MemFs::default();
        let path = Path::new("dir/a.json");
        commit_file(&fs, path, b"one").unwrap();
        commit_file(&fs, path, b"two").unwrap();
        assert_eq!(fs.read(path).unwrap(), b"two");
        // The temp file of the atomic replace is gone.
        assert_eq!(fs.files().len(), 1);
        commit_append(&fs, Path::new("log"), b"a").unwrap();
        commit_append(&fs, Path::new("log"), b"b").unwrap();
        assert_eq!(fs.read(Path::new("log")).unwrap(), b"ab");
        // Two replaces (file + directory each) and two appends.
        assert_eq!(fs.syncs(), 6);
        fs.remove_file(path).unwrap();
        assert_eq!(fs.read(path).unwrap_err().kind(), io::ErrorKind::NotFound);
    }
}
