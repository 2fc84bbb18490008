//! Content-addressed on-disk result cache.
//!
//! Layout: one JSON file per completed job under `<outdir>/.cache/`, named
//! `<kind>-<key>.json` where `key` is the 16-hex-digit FNV-1a hash of the
//! job's canonical id string plus [`SCHEMA_VERSION`]. Because the id
//! encodes every result-affecting parameter, a cache hit is always safe to
//! reuse; changing any parameter (or bumping the schema) changes the key.
//!
//! Writes go through [`crate::fs::commit_file`] (unique temp file, fsync,
//! rename, dir-fsync), so an interrupted run never leaves a truncated
//! entry and two processes racing on the same entry both succeed. Each
//! entry carries an FNV-1a-64 checksum of its payload, verified on load;
//! corrupt, doctored or unreadable entries degrade to a miss and are
//! recomputed. [`ResultCache::invalidate`] removes an entry outright —
//! recovery uses it to distrust the on-disk state of jobs whose journal
//! shows a `job_start` with no `job_done`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::fs::{commit_file, std_fs, Fs};
use crate::hash::{fnv1a64, fnv1a64_parts};
use crate::job::{JobOutput, JobSpec};
use crate::json::{self, Value};

/// Bump when the meaning or encoding of any cached result changes; every
/// existing entry then misses and is recomputed. v2: entries are
/// checksummed and committed durably.
pub(crate) const SCHEMA_VERSION: u32 = 2;

/// Handle to a cache directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    fs: Arc<dyn Fs>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        ResultCache::open_with_fs(dir, std_fs())
    }

    /// Opens the cache on an explicit [`Fs`] (fault-injection tests).
    pub fn open_with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn Fs>) -> io::Result<ResultCache> {
        let dir = dir.into();
        fs.create_dir_all(&dir)?;
        Ok(ResultCache { dir, fs })
    }

    /// The conventional cache location for an output directory:
    /// `<outdir>/.cache`.
    pub fn for_outdir(outdir: &Path) -> io::Result<ResultCache> {
        ResultCache::open(outdir.join(".cache"))
    }

    /// The cache key of a spec: FNV-1a over (schema version, job id).
    #[must_use]
    pub fn key(spec: &JobSpec) -> u64 {
        fnv1a64_parts(&[&SCHEMA_VERSION.to_string(), &spec.id()])
    }

    /// The on-disk path an entry for `spec` would use.
    #[must_use]
    pub fn entry_path(&self, spec: &JobSpec) -> PathBuf {
        self.dir
            .join(format!("{}-{:016x}.json", spec.kind(), Self::key(spec)))
    }

    /// Loads a cached result. `None` on a miss *or* on a corrupt entry:
    /// bad JSON, a checksum mismatch, or a stored id that is not the
    /// spec's (hash-collision guard, and a hand-edited file for the wrong
    /// job can't be served).
    #[must_use]
    pub fn load(&self, spec: &JobSpec) -> Option<JobOutput> {
        let text = String::from_utf8(self.fs.read(&self.entry_path(spec)).ok()?).ok()?;
        let entry = json::parse(&text).ok()?;
        if entry.get("id")?.as_str()? != spec.id() {
            return None;
        }
        let output = entry.get("output")?;
        let stored = entry.get("fnv")?.as_str()?;
        if stored != format!("{:016x}", fnv1a64(output.render().as_bytes())) {
            return None;
        }
        JobOutput::from_json(output)
    }

    /// Stores a result durably via the commit protocol, as
    /// `{schema, id, fnv, output}` with `fnv` the FNV-1a-64 of the rendered
    /// output.
    pub fn store(&self, spec: &JobSpec, output: &JobOutput) -> io::Result<()> {
        let output = output.to_json();
        let digest = format!("{:016x}", fnv1a64(output.render().as_bytes()));
        let body = Value::obj(vec![
            ("schema", Value::Int(i64::from(SCHEMA_VERSION))),
            ("id", Value::Str(spec.id())),
            ("fnv", Value::Str(digest)),
            ("output", output),
        ]);
        commit_file(
            self.fs.as_ref(),
            &self.entry_path(spec),
            (body.render() + "\n").as_bytes(),
        )
    }

    /// Removes the entry for `spec`, if any. Recovery calls this for
    /// every interrupted job (`job_start` without `job_done`): state
    /// written by a process that died mid-job is never trusted, even if
    /// the entry happens to read back clean.
    pub fn invalidate(&self, spec: &JobSpec) -> io::Result<()> {
        self.fs.remove_file(&self.entry_path(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn spec(ht_count: usize) -> JobSpec {
        JobSpec::Fig3Point {
            nodes: 64,
            corner: false,
            ht_count,
            seeds: vec![0, 1, 2],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("htpb-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_is_stable_and_parameter_sensitive() {
        assert_eq!(ResultCache::key(&spec(5)), ResultCache::key(&spec(5)));
        assert_ne!(ResultCache::key(&spec(5)), ResultCache::key(&spec(6)));
    }

    #[test]
    fn store_load_roundtrip_and_miss_on_corruption() {
        let dir = tmpdir("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        let s = spec(5);
        assert_eq!(cache.load(&s), None);
        let out = JobOutput::Rate(0.25);
        cache.store(&s, &out).unwrap();
        assert_eq!(cache.load(&s), Some(out));
        // A different spec misses even with the directory populated.
        assert_eq!(cache.load(&spec(6)), None);
        // Corruption degrades to a miss, not an error.
        fs::write(cache.entry_path(&s), "{not json").unwrap();
        assert_eq!(cache.load(&s), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_guards_against_doctored_payload() {
        let dir = tmpdir("checksum");
        let cache = ResultCache::open(&dir).unwrap();
        let s = spec(5);
        cache.store(&s, &JobOutput::Rate(0.25)).unwrap();
        // Flip a payload digit while keeping the JSON valid: the embedded
        // checksum no longer matches, so the entry reads as a miss.
        let path = cache.entry_path(&s);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("0.25"));
        fs::write(&path, text.replace("0.25", "0.26")).unwrap();
        assert_eq!(cache.load(&s), None);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The entry format, byte for byte: what every `results/.cache/`
    /// written since schema 2 holds and what the codec must keep writing.
    #[test]
    fn stored_entry_bytes_are_pinned() {
        let dir = tmpdir("pin");
        let cache = ResultCache::open(&dir).unwrap();
        let s = spec(5);
        cache.store(&s, &JobOutput::Rate(0.25)).unwrap();
        assert_eq!(cache.entry_path(&s), dir.join("fig3-dcd7f5cf8ac36c4e.json"));
        assert_eq!(
            fs::read_to_string(cache.entry_path(&s)).unwrap(),
            "{\"schema\":2,\"id\":\"fig3-n64-center-ht5-s0.1.2\",\
             \"fnv\":\"d70c9b4a6f8646db\",\
             \"output\":{\"kind\":\"rate\",\"value\":0.25}}\n"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_forces_a_miss() {
        let dir = tmpdir("invalidate");
        let cache = ResultCache::open(&dir).unwrap();
        let s = spec(5);
        cache.store(&s, &JobOutput::Rate(0.5)).unwrap();
        assert!(cache.load(&s).is_some());
        cache.invalidate(&s).unwrap();
        assert_eq!(cache.load(&s), None);
        // Invalidating a missing entry is not an error.
        cache.invalidate(&s).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
