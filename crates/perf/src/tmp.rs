//! Scratch directories under `target/perf-tmp/`, removed on exit.

use std::io;
use std::path::{Path, PathBuf};

use htpb_harness::{Fs, StdFs};

/// One process's scratch root, `target/perf-tmp/<pid>` below the current
/// directory. Dropping it removes everything beneath.
#[derive(Debug)]
pub struct TempRoot {
    root: PathBuf,
    next: u64,
}

impl TempRoot {
    /// Creates the root.
    pub fn new() -> io::Result<TempRoot> {
        let root = Path::new("target")
            .join("perf-tmp")
            .join(std::process::id().to_string());
        StdFs.create_dir_all(&root)?;
        Ok(TempRoot { root, next: 0 })
    }

    /// Creates a fresh, empty directory `<root>/<label>-<n>`.
    pub fn fresh(&mut self, label: &str) -> io::Result<PathBuf> {
        let dir = self.root.join(format!("{label}-{}", self.next));
        self.next += 1;
        StdFs.create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Removes a directory handed out by [`TempRoot::fresh`], keeping disk
    /// use flat over many iterations. Errors are ignored: the root's drop
    /// retries.
    pub fn discard(&self, dir: &Path) {
        if dir.starts_with(&self.root) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
