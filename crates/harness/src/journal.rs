//! Machine-readable run journal: framed, checksummed records, one per
//! line, readable back tolerantly.
//!
//! ## Record format
//!
//! Each JSON payload is framed so torn or bit-rotted records are
//! *detected*, not guessed at:
//!
//! ```text
//! v2|<len>|<fnv16>|<payload-json>\n
//! ```
//!
//! `len` is the payload's byte length in decimal; `fnv16` is the
//! 16-hex-digit FNV-1a-64 of the payload bytes. A record whose length or
//! checksum does not match is corrupt (typically the torn tail a SIGKILL
//! mid-append leaves) and is skipped with a warning. So is a line without
//! the frame, even one that is valid JSON: nothing vouches for its bytes.
//!
//! ## Events
//!
//! Every record carries `"event"`, `"ts_ms"` (Unix epoch milliseconds) and
//! `"epoch"` — the run epoch, i.e. 1 + the number of `run_start` records
//! already in the journal when this writer opened it. Recovery uses the
//! `job_start` / `job_done` pairing to distinguish three job states:
//!
//! | state | evidence | recovery action |
//! |---|---|---|
//! | never started | no events for the id | run it |
//! | started, died | `job_start` without a later `job_done` | distrust any cache entry; re-run |
//! | committed | `job_done` with `"ok":true,"cached":true` | serve from cache, never re-execute |
//!
//! | event | fields |
//! |---|---|
//! | `run_start` | `run`, `scale`, `workers`, `jobs` |
//! | `job_start` | `id`, `kind`, `worker`, `attempt` (always `1`: a job executes at most once per run) |
//! | `job_done` | `id`, `kind`, `worker`, `cache_hit`, `cached`, `ok`, `secs`, `error?` |
//! | `job_recovered` | `id` (an interrupted job whose cache entry was distrusted) |
//! | `artefact` | `path`, `bytes`, `fnv` |
//! | `stage` | `label`, `secs` |
//! | `run_end` | `run`, `secs`, `ok`, `failed`, `cache_hits` |
//!
//! The file is append-only across runs (a resumed campaign keeps its
//! history). Appends are serialised through a mutex and each record lands
//! with a single durable `O_APPEND` write via [`crate::fs::commit_append`],
//! so concurrent workers never interleave partial lines and a crash tears
//! at most the final record.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::fs::{commit_append, std_fs, Fs};
use crate::hash::fnv1a64;
use crate::json::Value;

/// Append-only journal, safe to share across worker threads.
pub struct Journal {
    sink: Mutex<Sink>,
    epoch: i64,
}

enum Sink {
    Disabled,
    File { fs: Arc<dyn Fs>, path: PathBuf },
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (appending) the journal at `path`, creating parent directories
    /// as needed, on the production filesystem.
    pub fn open(path: &Path) -> io::Result<Journal> {
        Journal::open_with_fs(path, std_fs())
    }

    /// Opens the journal on an explicit [`Fs`] (fault-injection tests).
    ///
    /// The new writer's run epoch is computed from the readable prefix of
    /// the existing file: 1 + the number of `run_start` records.
    pub fn open_with_fs(path: &Path, fs: Arc<dyn Fs>) -> io::Result<Journal> {
        Journal::resume(path, fs).map(|(journal, _)| journal)
    }

    /// [`Journal::open_with_fs`], also returning the [`History`] it folded
    /// before writing anything, which [`crate::Campaign::start`] recovers from.
    pub(crate) fn resume(path: &Path, fs: Arc<dyn Fs>) -> io::Result<(Journal, History)> {
        let history = History::read(path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs.create_dir_all(parent)?;
            }
        }
        // Touch the file so an opened journal exists even before the first
        // record (resume logic can then rely on the file's presence).
        commit_append(fs.as_ref(), path, b"")?;
        let journal = Journal {
            sink: Mutex::new(Sink::File {
                fs,
                path: path.to_path_buf(),
            }),
            epoch: history.epoch,
        };
        Ok((journal, history))
    }

    /// A journal that discards everything (for tests and `--no-journal`
    /// contexts).
    #[must_use]
    pub fn disabled() -> Journal {
        Journal {
            sink: Mutex::new(Sink::Disabled),
            epoch: 1,
        }
    }

    /// The run epoch this writer stamps on every record.
    #[must_use]
    pub fn epoch(&self) -> i64 {
        self.epoch
    }

    /// Appends one event line with the given payload fields.
    pub fn record(&self, event: &str, fields: Vec<(&str, Value)>) {
        let mut pairs = vec![
            ("event", Value::Str(event.to_string())),
            ("ts_ms", Value::Int(now_ms())),
            ("epoch", Value::Int(self.epoch)),
        ];
        pairs.extend(fields);
        let payload = Value::obj(pairs).render();
        let line = frame_v2(&payload);
        let sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if let Sink::File { fs, path } = &*sink {
            // Journal I/O failures must not abort a campaign; drop the line
            // (recovery treats a missing job_done as "re-run", never worse).
            let _ = commit_append(fs.as_ref(), path, line.as_bytes());
        }
    }

    /// Records that a worker is about to *execute* a job (not a cache hit).
    /// A `job_start` without a later `job_done` marks an interrupted job.
    /// The pool always passes `attempt` 1: a job executes at most once per
    /// run.
    pub fn job_start(&self, id: &str, kind: &str, worker: usize, attempt: u32) {
        self.record(
            "job_start",
            vec![
                ("id", Value::Str(id.to_string())),
                ("kind", Value::Str(kind.to_string())),
                ("worker", Value::Int(worker as i64)),
                ("attempt", Value::Int(i64::from(attempt))),
            ],
        );
    }

    /// Records the completion of one job. `cached` reports whether the
    /// result is durably in the cache (a hit, or a successful commit) —
    /// the predicate recovery uses to promise the job never re-executes.
    #[allow(clippy::too_many_arguments, clippy::fn_params_excessive_bools)]
    pub fn job_done(
        &self,
        id: &str,
        kind: &str,
        worker: usize,
        cache_hit: bool,
        cached: bool,
        ok: bool,
        secs: f64,
        error: Option<&str>,
    ) {
        let mut fields = vec![
            ("id", Value::Str(id.to_string())),
            ("kind", Value::Str(kind.to_string())),
            ("worker", Value::Int(worker as i64)),
            ("cache_hit", Value::Bool(cache_hit)),
            ("cached", Value::Bool(cached)),
            ("ok", Value::Bool(ok)),
            ("secs", Value::Num(secs)),
        ];
        if let Some(e) = error {
            fields.push(("error", Value::Str(e.to_string())));
        }
        self.record("job_done", fields);
    }

    /// Records a named pipeline stage's wall time (used by
    /// `Campaign::stage`).
    pub fn stage(&self, label: &str, secs: f64) {
        self.record(
            "stage",
            vec![
                ("label", Value::Str(label.to_string())),
                ("secs", Value::Num(secs)),
            ],
        );
    }

    /// Records a committed artefact's size and FNV-1a-64 digest.
    /// `repro_all --verify` replays these against the files on disk.
    pub fn artefact(&self, name: &str, bytes: &[u8]) {
        self.record(
            "artefact",
            vec![
                ("path", Value::Str(name.to_string())),
                ("bytes", Value::Int(bytes.len() as i64)),
                ("fnv", Value::Str(format!("{:016x}", fnv1a64(bytes)))),
            ],
        );
    }

    /// Parses one journal line: a framed record whose length and checksum
    /// verify. `None` for anything else — torn, bit-rotted or unframed.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<Value> {
        let rest = line.strip_prefix("v2|")?;
        let (len, rest) = rest.split_once('|')?;
        let (check, payload) = rest.split_once('|')?;
        let len: usize = len.parse().ok()?;
        if payload.len() != len {
            return None;
        }
        // Byte for byte against the 16 lower-case digits `frame_v2` writes.
        let digest = fnv1a64(payload.as_bytes());
        let hex = |i: usize| b"0123456789abcdef"[(digest >> (60 - 4 * i)) as usize & 0xf];
        if check.len() != 16 || check.bytes().enumerate().any(|(i, b)| b != hex(i)) {
            return None;
        }
        crate::json::parse(payload).ok()
    }

    /// Reads a journal file back as parsed events, in order. A missing
    /// file is an empty journal. Corrupt records — a torn trailing line
    /// left by a killed writer, a frame whose checksum fails, an unframed
    /// line — are skipped with a warning rather than failing the resume.
    pub fn read_events(path: &Path) -> io::Result<Vec<Value>> {
        Journal::read_events_stats(path).map(|(events, _)| events)
    }

    /// Like [`Journal::read_events`], also returning how many corrupt
    /// lines were skipped (the chaos harness bounds this by the number of
    /// kills a journal survived).
    pub fn read_events_stats(path: &Path) -> io::Result<(Vec<Value>, usize)> {
        let mut events = Vec::new();
        let corrupt = for_each_event(path, |e| events.push(e))?;
        Ok((events, corrupt))
    }

    /// The most recent recorded digest per artefact path: `(path, bytes,
    /// fnv16)` — what `--verify` checks the files on disk against.
    pub fn artefact_digests(path: &Path) -> io::Result<Vec<(String, i64, String)>> {
        let mut digests: Vec<(String, i64, String)> = Vec::new();
        for_each_event(path, |e| {
            if e.get("event").and_then(Value::as_str) != Some("artefact") {
                return;
            }
            let (Some(name), Some(bytes), Some(fnv)) = (
                e.get("path").and_then(Value::as_str),
                e.get("bytes").and_then(Value::as_i64),
                e.get("fnv").and_then(Value::as_str),
            ) else {
                return;
            };
            if let Some(existing) = digests.iter_mut().find(|(p, _, _)| p == name) {
                *existing = (name.to_string(), bytes, fnv.to_string());
            } else {
                digests.push((name.to_string(), bytes, fnv.to_string()));
            }
        })?;
        Ok(digests)
    }
}

/// Hands each intact record of the journal at `path` to `visit`, in order,
/// keeping none, and returns how many corrupt lines were skipped with a
/// warning ([`Journal::read_events`] has the rules).
fn for_each_event(path: &Path, mut visit: impl FnMut(Value)) -> io::Result<usize> {
    let bytes = match std_fs().read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut corrupt = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Journal::parse_line(line) {
            Some(v) => visit(v),
            None => {
                corrupt += 1;
                eprintln!(
                    "[harness] warning: skipping corrupt journal line {} in {}",
                    lineno + 1,
                    path.display()
                );
            }
        }
    }
    Ok(corrupt)
}

/// What recovery needs from a journal, folded in one pass over it.
#[derive(Default)]
pub(crate) struct History {
    /// The epoch a writer opening the journal stamps: 1 + its `run_start`s.
    pub(crate) epoch: i64,
    /// `job_done` records with `"ok":true` and an `id`.
    pub(crate) completed: usize,
    /// Jobs that died mid-execution — a `job_start` with no later
    /// `job_done` for the id — in first-start order. Recovery distrusts
    /// any state they left (cache entries included) and re-runs them.
    pub(crate) interrupted: Vec<String>,
    /// Per-kind `job_done` tallies across **all** epochs, sorted by kind:
    /// the timing detail a resumed epoch of cache hits would lose.
    pub(crate) tallies: Vec<StageTally>,
    /// Corrupt lines skipped.
    pub(crate) corrupt: usize,
}

impl History {
    /// Folds the journal at `path` (see [`for_each_event`]).
    pub(crate) fn read(path: &Path) -> io::Result<History> {
        let mut h = History::default();
        // Open job id -> start order; a finished job that restarts goes last.
        let mut open: HashMap<String, usize> = HashMap::new();
        let mut opened = 0;
        h.corrupt = for_each_event(path, |e| {
            let id = e.get("id").and_then(Value::as_str);
            match (e.get("event").and_then(Value::as_str), id) {
                (Some("run_start"), _) => h.epoch += 1,
                (Some("job_start"), Some(id)) if !open.contains_key(id) => {
                    open.insert(id.to_string(), opened);
                    opened += 1;
                }
                (Some("job_done"), _) => {
                    if let Some(id) = id {
                        open.remove(id);
                        h.completed += usize::from(e.get("ok") == Some(&Value::Bool(true)));
                    }
                    if let Some(kind) = e.get("kind").and_then(Value::as_str) {
                        h.tally(kind, &e);
                    }
                }
                _ => {}
            }
        })?;
        let by_start: BTreeMap<usize, String> = open.into_iter().map(|(id, at)| (at, id)).collect();
        h.interrupted = by_start.into_values().collect();
        h.tallies.sort_by(|a, b| a.kind.cmp(&b.kind));
        h.epoch += 1; // the opening writer's own run
        Ok(h)
    }

    /// Counts one `job_done` record into its kind's tally.
    fn tally(&mut self, kind: &str, done: &Value) {
        let t = match self.tallies.iter().position(|t| t.kind == kind) {
            Some(i) => &mut self.tallies[i],
            None => {
                self.tallies.push(StageTally {
                    kind: kind.to_string(),
                    jobs: 0,
                    executed: 0,
                    secs: 0.0,
                });
                self.tallies.last_mut().expect("just pushed")
            }
        };
        t.jobs += 1;
        t.executed += u64::from(done.get("cache_hit") != Some(&Value::Bool(true)));
        t.secs += done.get("secs").and_then(Value::as_f64).unwrap_or(0.0);
    }
}

/// Aggregated `job_done` history for one job kind (`fig3`, `sweep`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTally {
    /// The job kind ([`crate::JobSpec::kind`]).
    pub kind: String,
    /// `job_done` records seen for this kind (cache hits included).
    pub jobs: u64,
    /// Completions that actually executed (`"cache_hit":false`).
    pub executed: u64,
    /// Sum of the recorded per-job wall times, in seconds.
    pub secs: f64,
}

/// Frames a payload as a v2 record line.
fn frame_v2(payload: &str) -> String {
    format!(
        "v2|{}|{:016x}|{payload}\n",
        payload.len(),
        fnv1a64(payload.as_bytes())
    )
}

fn now_ms() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as i64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpfile(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("htpb-journal-{tag}-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn journal_lines_are_framed_and_parse_back() {
        let path = tmpfile("frame");
        let j = Journal::open(&path).unwrap();
        j.job_done(
            "fig3-n64-center-ht5-s0",
            "fig3",
            2,
            false,
            true,
            true,
            0.25,
            None,
        );
        j.stage("assemble", 0.01);
        j.record("run_end", vec![("ok", Value::Bool(true))]);
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with("v2|"), "v2 framing expected: {line}");
            let v = Journal::parse_line(line).expect("valid framed record");
            assert!(v.get("event").is_some());
            assert!(v.get("ts_ms").is_some());
            assert_eq!(v.get("epoch"), Some(&Value::Int(1)));
        }
        assert_eq!(
            Journal::parse_line(lines[0]).unwrap().get("worker"),
            Some(&Value::Int(2))
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn disabled_journal_is_a_no_op() {
        Journal::disabled().stage("x", 1.0);
    }

    #[test]
    fn epoch_counts_run_starts_across_reopens() {
        let path = tmpfile("epoch");
        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.epoch(), 1);
            j.record("run_start", vec![("run", Value::Str("x".into()))]);
            j.record("run_end", vec![]);
        }
        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.epoch(), 2, "second run is epoch 2");
            j.record("run_start", vec![("run", Value::Str("x".into()))]);
        }
        // Campaign::start's single scan and a plain open agree on the
        // third epoch.
        let (j, history) = Journal::resume(&path, std_fs()).unwrap();
        assert_eq!((j.epoch(), history.epoch), (3, 3));
        assert_eq!(Journal::open(&path).unwrap().epoch(), 3);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn read_back_tolerates_a_truncated_trailing_line() {
        let path = tmpfile("trunc");
        let j = Journal::open(&path).unwrap();
        j.job_done("fig3-a", "fig3", 0, false, true, true, 0.1, None);
        j.job_done("fig3-b", "fig3", 0, false, false, false, 0.1, Some("boom"));
        drop(j);
        // Simulate a writer killed mid-line: append half a framed record.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("v2|64|0123456789abcdef|{\"event\":\"job_done\",\"id\":\"fig3-c\",\"ok\":tr");
        fs::write(&path, text).unwrap();

        let (events, corrupt) = Journal::read_events_stats(&path).unwrap();
        assert_eq!(events.len(), 2, "the corrupt tail is skipped, not fatal");
        assert_eq!(corrupt, 1);
        let history = History::read(&path).unwrap();
        assert_eq!(
            (history.completed, history.corrupt),
            (1, 1),
            "only ok jobs count as completed"
        );
        let _ = fs::remove_file(&path);
    }

    /// A checksum mismatch (bit rot, not just truncation) is also caught.
    #[test]
    fn checksum_mismatch_is_detected() {
        let path = tmpfile("bitrot");
        let j = Journal::open(&path).unwrap();
        j.job_done("fig3-a", "fig3", 0, false, true, true, 0.1, None);
        drop(j);
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ok\":true"));
        // Flip payload bytes without touching the frame.
        fs::write(&path, text.replace("\"ok\":true", "\"ok\":tttt")).unwrap();
        let (events, corrupt) = Journal::read_events_stats(&path).unwrap();
        assert!(events.is_empty(), "doctored record must not parse");
        assert_eq!(corrupt, 1);
        let _ = fs::remove_file(&path);
    }

    /// Chosen behaviour for corruption *inside* the file (not just a
    /// truncated tail): the bad line is skipped with a warning and every
    /// valid line after it still parses. A resumed campaign therefore keeps
    /// all completions it can still read — it never discards the journal
    /// suffix behind a torn write, and never fails the resume.
    #[test]
    fn read_back_tolerates_a_corrupt_line_mid_file() {
        let path = tmpfile("midfile");
        let j = Journal::open(&path).unwrap();
        j.job_done("fig3-a", "fig3", 0, false, true, true, 0.1, None);
        drop(j);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("v2|12|deadbeefdeadbeef|{\"event\":\u{0}garbage\n");
        fs::write(&path, text).unwrap();
        let j = Journal::open(&path).unwrap();
        j.job_done("fig3-b", "fig3", 0, false, true, true, 0.1, None);
        j.job_done("fig3-c", "fig3", 0, false, false, false, 0.1, Some("boom"));
        drop(j);

        let events = Journal::read_events(&path).unwrap();
        assert_eq!(events.len(), 3, "valid lines on both sides are kept");
        assert_eq!(
            History::read(&path).unwrap().completed,
            2,
            "completions after the corrupt line are not lost"
        );
        let _ = fs::remove_file(&path);
    }

    /// The journal has one format: a line without the frame is corrupt
    /// even when it is valid JSON, and the records around it still replay.
    #[test]
    fn unframed_json_line_is_corrupt() {
        let path = tmpfile("unframed");
        let j = Journal::open(&path).unwrap();
        j.record("run_start", vec![("run", Value::Str("x".into()))]);
        drop(j);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"event\":\"job_done\",\"id\":\"fig3-a\",\"ok\":true}\n");
        text.push_str("{\"event\":\"run_start\",\"run\":\"x\"}\n");
        fs::write(&path, text).unwrap();
        let (events, corrupt) = Journal::read_events_stats(&path).unwrap();
        assert_eq!((events.len(), corrupt), (1, 2));
        assert_eq!(History::read(&path).unwrap().completed, 0);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.epoch(), 2, "an unframed run_start does not count");
        j.job_done("fig3-b", "fig3", 0, false, true, true, 0.1, None);
        drop(j);
        assert_eq!(History::read(&path).unwrap().completed, 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn interrupted_jobs_are_starts_without_dones() {
        let path = tmpfile("interrupted");
        let j = Journal::open(&path).unwrap();
        j.job_start("job-a", "fig3", 0, 1);
        j.job_done("job-a", "fig3", 0, false, true, true, 0.1, None);
        j.job_start("job-b", "fig3", 1, 1);
        j.job_start("job-c", "fig3", 0, 1);
        drop(j); // killed here: b and c never finished
        assert_eq!(
            History::read(&path).unwrap().interrupted,
            vec!["job-b".to_string(), "job-c".to_string()]
        );
        // The resumed epoch re-runs b; c stays interrupted until done.
        let j = Journal::open(&path).unwrap();
        j.job_start("job-b", "fig3", 0, 1);
        j.job_done("job-b", "fig3", 0, false, true, true, 0.1, None);
        drop(j);
        assert_eq!(
            History::read(&path).unwrap().interrupted,
            vec!["job-c".to_string()]
        );
        let _ = fs::remove_file(&path);
    }

    /// Satellite fix for `repro_all --resume`: a resumed epoch's own
    /// reports are all near-zero cache hits, so the per-stage timing
    /// detail must be recoverable from the prior epochs' `job_done`
    /// records.
    #[test]
    fn stage_tallies_recover_timing_detail_across_epochs() {
        let path = tmpfile("tallies");
        {
            // Epoch 1: two fig3 points and a sweep point execute for real,
            // then the process dies before the campaign finishes.
            let j = Journal::open(&path).unwrap();
            j.record("run_start", vec![("run", Value::Str("repro_all".into()))]);
            j.job_done("fig3-a", "fig3", 0, false, true, true, 1.5, None);
            j.job_done("fig3-b", "fig3", 1, false, true, true, 2.5, None);
            j.job_done("sweep-a", "sweep", 0, false, true, true, 4.0, None);
        }
        {
            // Epoch 2 (--resume): the finished points come back as cache
            // hits with ~zero wall time; one new point executes.
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.epoch(), 2, "fixture really spans two epochs");
            j.record("run_start", vec![("run", Value::Str("repro_all".into()))]);
            j.job_done("fig3-a", "fig3", 0, true, true, true, 0.0, None);
            j.job_done("fig3-b", "fig3", 0, true, true, true, 0.0, None);
            j.job_done("fig3-c", "fig3", 0, false, true, true, 3.0, None);
        }
        let tallies = History::read(&path).unwrap().tallies;
        assert_eq!(tallies.len(), 2, "{tallies:?}");
        assert_eq!(tallies[0].kind, "fig3");
        assert_eq!(tallies[0].jobs, 5, "hits and executions both count");
        assert_eq!(tallies[0].executed, 3, "cache hits are not executions");
        assert!((tallies[0].secs - 7.0).abs() < 1e-9, "{tallies:?}");
        assert_eq!(tallies[1].kind, "sweep");
        assert_eq!((tallies[1].jobs, tallies[1].executed), (1, 1));
        assert!((tallies[1].secs - 4.0).abs() < 1e-9);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn artefact_digests_keep_the_latest_record_per_path() {
        let path = tmpfile("artefact");
        let j = Journal::open(&path).unwrap();
        j.artefact("fig3_64.tsv", b"old bytes");
        j.artefact("SUMMARY.txt", b"summary");
        j.artefact("fig3_64.tsv", b"new bytes!");
        drop(j);
        let digests = Journal::artefact_digests(&path).unwrap();
        assert_eq!(digests.len(), 2);
        let fig3 = digests.iter().find(|(p, _, _)| p == "fig3_64.tsv").unwrap();
        assert_eq!(fig3.1, 10);
        assert_eq!(fig3.2, format!("{:016x}", fnv1a64(b"new bytes!")));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn read_back_of_missing_journal_is_empty() {
        let path = std::env::temp_dir().join("htpb-journal-does-not-exist.jsonl");
        assert!(Journal::read_events(&path).unwrap().is_empty());
        let history = History::read(&path).unwrap();
        assert_eq!(
            (history.epoch, history.completed, history.corrupt),
            (1, 0, 0)
        );
        assert!(history.interrupted.is_empty() && history.tallies.is_empty());
    }

    /// The frame check accepts exactly the 16 lower-case hex digits
    /// `frame_v2` writes, not the same number spelled another way.
    #[test]
    fn checksum_must_be_exactly_16_lowercase_hex_digits() {
        let digest = |p: &str| format!("{:016x}", fnv1a64(p.as_bytes()));
        // A leading 0 makes the 15- and 17-digit spellings the same number.
        let payload = (0..)
            .map(|i| format!("{{\"event\":\"probe\",\"n\":{i}}}"))
            .find(|p| {
                let d = digest(p);
                d.starts_with('0') && d.bytes().any(|b| b.is_ascii_lowercase())
            })
            .unwrap();
        let d = digest(&payload);
        let line = |check: &str| format!("v2|{}|{check}|{payload}", payload.len());
        assert!(Journal::parse_line(&line(&d)).is_some(), "the real digest");
        let wrong_last = format!("{}{}", &d[..15], if d.ends_with('0') { '1' } else { '0' });
        for check in [
            d.to_uppercase(),
            d[1..].to_string(),
            d[..15].to_string(),
            format!("0{d}"),
            format!("{d}0"),
            format!("+{}", &d[1..]),
            format!(" {}", &d[1..]),
            format!("{}g", &d[..15]),
            wrong_last,
        ] {
            assert_eq!(Journal::parse_line(&line(&check)), None, "{check:?}");
        }
    }

    // The four folds `History` replaced, verbatim: the model it must equal.

    fn epoch_in(history: &[Value]) -> i64 {
        1 + history
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("run_start"))
            .count() as i64
    }

    /// The ids of jobs some run *started but never finished*: a `job_start`
    /// with no later `job_done` for the same id. These jobs died
    /// mid-execution — recovery must distrust any state they left (cache
    /// entries included) and re-run them.
    #[must_use]
    pub(crate) fn interrupted_in(events: &[Value]) -> Vec<String> {
        let mut open: Vec<String> = Vec::new();
        for e in events {
            let Some(id) = e.get("id").and_then(Value::as_str) else {
                continue;
            };
            match e.get("event").and_then(Value::as_str) {
                Some("job_start") if !open.iter().any(|o| o == id) => {
                    open.push(id.to_string());
                }
                Some("job_done") => open.retain(|o| o != id),
                _ => {}
            }
        }
        open
    }

    /// Per-kind execution tallies aggregated from every `job_done` record
    /// across **all** epochs of the journal, sorted by kind — the per-stage
    /// timing detail a resumed campaign would otherwise lose (its own epoch
    /// sees only cache hits). Records without a `kind` field are skipped.
    #[must_use]
    pub(crate) fn stage_tallies_in(events: &[Value]) -> Vec<StageTally> {
        let mut tallies: Vec<StageTally> = Vec::new();
        for e in events {
            if e.get("event").and_then(Value::as_str) != Some("job_done") {
                continue;
            }
            let Some(kind) = e.get("kind").and_then(Value::as_str) else {
                continue;
            };
            let secs = e.get("secs").and_then(Value::as_f64).unwrap_or(0.0);
            let hit = e.get("cache_hit") == Some(&Value::Bool(true));
            let t = match tallies.iter_mut().find(|t| t.kind == kind) {
                Some(t) => t,
                None => {
                    tallies.push(StageTally {
                        kind: kind.to_string(),
                        jobs: 0,
                        executed: 0,
                        secs: 0.0,
                    });
                    tallies.last_mut().expect("just pushed")
                }
            };
            t.jobs += 1;
            if !hit {
                t.executed += 1;
            }
            t.secs += secs;
        }
        tallies.sort_by(|a, b| a.kind.cmp(&b.kind));
        tallies
    }

    /// The ids of jobs a prior (possibly interrupted) run already completed
    /// successfully: `job_done` records with `"ok":true`.
    #[must_use]
    pub(crate) fn completed_in(events: &[Value]) -> Vec<String> {
        events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("job_done"))
            .filter(|e| e.get("ok") == Some(&Value::Bool(true)))
            .filter_map(|e| e.get("id")?.as_str().map(ToString::to_string))
            .collect()
    }

    const EVENTS: &[&str] = &[
        "run_start",
        "job_start",
        "job_start",
        "job_done",
        "job_done",
        "job_done",
        "job_recovered",
        "stage",
    ];
    const IDS: &[&str] = &["a", "b", "c", "d", "fig3-é"];
    const KINDS: &[&str] = &["fig3", "sweep", "opt"];

    fn pick<T: Clone>(rng: &mut proptest::TestRng, xs: &[T]) -> T {
        xs[rng.below(xs.len() as u64) as usize].clone()
    }

    /// A record with a random event, and random (sometimes missing or
    /// mistyped) `id`, `kind`, `ok`, `cache_hit` and `secs`.
    fn arb_record(rng: &mut proptest::TestRng) -> Value {
        let event = pick(rng, EVENTS);
        let id = match rng.below(8) {
            0 => None,
            1 => Some(Value::Int(7)),
            _ => Some(Value::Str(pick(rng, IDS).into())),
        };
        let kind = (rng.below(6) != 0).then(|| Value::Str(pick(rng, KINDS).into()));
        let bools = [None, Some(Value::Bool(true)), Some(Value::Bool(false))];
        let ok = if rng.below(8) == 0 {
            Some(Value::Int(1))
        } else {
            pick(rng, &bools)
        };
        let cache_hit = pick(rng, &bools);
        let secs = match rng.below(3) {
            0 => None,
            1 => Some(Value::Int(2)),
            _ => Some(Value::Num(rng.unit_f64())),
        };
        let mut pairs = vec![
            ("event", Value::Str(event.into())),
            ("ts_ms", Value::Int(0)),
            ("epoch", Value::Int(1)),
        ];
        let fields = [
            ("id", id),
            ("kind", kind),
            ("ok", ok),
            ("cache_hit", cache_hit),
            ("secs", secs),
        ];
        pairs.extend(fields.into_iter().filter_map(|(k, v)| Some((k, v?))));
        Value::obj(pairs)
    }

    /// One journal line: mostly intact frames, else a torn frame, an
    /// unframed payload, a frame with one bit flipped, or a blank line.
    fn arb_line(rng: &mut proptest::TestRng) -> Vec<u8> {
        let payload = arb_record(rng).render();
        let mut line = frame_v2(&payload).into_bytes();
        match rng.below(10) {
            0 => {
                line.truncate(rng.below(line.len() as u64 - 1) as usize);
                line.push(b'\n');
            }
            1 => line = format!("{payload}\n").into_bytes(),
            2 => {
                let i = rng.below(line.len() as u64 - 1) as usize;
                line[i] ^= 1 << rng.below(7);
            }
            3 => line = b"  \n".to_vec(),
            _ => {}
        }
        line
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        #[test]
        fn history_equals_the_folds_it_replaced(
            seed in proptest::prelude::any::<u64>(),
            lines in 0u64..48,
        ) {
            let mut rng = proptest::TestRng::from_state(seed);
            let bytes: Vec<u8> = (0..lines).flat_map(|_| arb_line(&mut rng)).collect();
            let path = tmpfile("history-model");
            fs::write(&path, &bytes).unwrap();
            let (events, corrupt) = Journal::read_events_stats(&path).unwrap();
            let history = History::read(&path).unwrap();
            let _ = fs::remove_file(&path);
            proptest::prop_assert_eq!(history.epoch, epoch_in(&events));
            proptest::prop_assert_eq!(history.completed, completed_in(&events).len());
            proptest::prop_assert_eq!(&history.interrupted, &interrupted_in(&events));
            proptest::prop_assert_eq!(&history.tallies, &stage_tallies_in(&events));
            proptest::prop_assert_eq!(history.corrupt, corrupt);
        }
    }
}
