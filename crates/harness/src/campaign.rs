//! Crash-safe campaign lifecycle: journal-driven recovery, checkpointed
//! resume, durable artefact emission and post-run verification.
//!
//! [`Campaign::start`] is the single entry point every bench bin goes
//! through. It folds the journal in one streaming scan — into this run's
//! epoch and the job history — and applies the **recovery state machine**
//! before any job runs:
//!
//! 1. jobs with a committed `job_done` → served from the result cache,
//!    never re-executed;
//! 2. jobs with a `job_start` but no `job_done` — the process died while
//!    they ran — are *distrusted*: their cache entry (if any) is
//!    invalidated and the job re-executes from scratch (`job_recovered`
//!    events record each one);
//! 3. jobs with no history at all simply run.
//!
//! Artefacts go out through [`Campaign::emit_artefact`], which commits the
//! bytes durably ([`crate::fs::commit_file`]) and journals the file's size
//! and FNV-1a-64 digest; [`verify_artefacts`] replays those records
//! against the files on disk (`repro_all --verify`).

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::fs::{commit_file, Fs};
use crate::hash::fnv1a64;
use crate::job::JobSpec;
use crate::journal::Journal;
use crate::json::Value;
use crate::runner::{run_jobs, JobReport, RunOptions};

/// A running (or resumed) campaign: journal + output directory + the
/// durable-write choke point.
pub struct Campaign {
    journal: Journal,
    outdir: PathBuf,
    fs: Arc<dyn Fs>,
    run: String,
    started: Instant,
    recovered: usize,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("run", &self.run)
            .field("outdir", &self.outdir)
            .field("epoch", &self.journal.epoch())
            .field("recovered", &self.recovered)
            .finish_non_exhaustive()
    }
}

impl Campaign {
    /// Opens (or resumes) the campaign `run` in `outdir`, applying the
    /// recovery state machine against `jobs` and recording `run_start`.
    /// `extra` fields are appended to the `run_start` record.
    pub fn start(
        run: &str,
        outdir: &Path,
        jobs: &[JobSpec],
        opts: &RunOptions,
        fs: Arc<dyn Fs>,
        extra: Vec<(&str, Value)>,
    ) -> io::Result<Campaign> {
        fs.create_dir_all(outdir)?;
        let journal_path = outdir.join("journal.jsonl");

        // Recovery happens against the journal as the DYING process left
        // it, before this run appends anything.
        let (journal, history) = Journal::resume(&journal_path, Arc::clone(&fs))?;

        let mut recovered = 0;
        if let Some(cache) = &opts.cache {
            // Distrust everything an interrupted job may have half-written:
            // its cache entry goes away, so the pool re-executes it. Only
            // jobs in THIS plan matter; stale ids from other campaigns
            // sharing the journal are left alone. Each id renders once, and
            // only when some job was interrupted.
            let interrupted: HashSet<&str> =
                history.interrupted.iter().map(String::as_str).collect();
            for spec in jobs.iter().filter(|_| !interrupted.is_empty()) {
                let id = spec.id();
                if interrupted.contains(id.as_str()) {
                    cache.invalidate(spec)?;
                    journal.record("job_recovered", vec![("id", Value::Str(id))]);
                    recovered += 1;
                }
            }
            if history.completed > 0 || recovered > 0 {
                eprintln!(
                    "[harness] resuming (epoch {}): {} completed job(s) on record, \
                     {recovered} interrupted job(s) will re-run",
                    journal.epoch(),
                    history.completed,
                );
                // The resumed epoch will see little but cache hits, so the
                // per-stage timing detail of the work already done must be
                // recovered from the prior epochs' job_done records — this
                // used to be silently dropped.
                for t in &history.tallies {
                    eprintln!(
                        "[harness]   prior epochs: {}: {} job(s) ({} executed), {:.1}s",
                        t.kind, t.jobs, t.executed, t.secs
                    );
                }
            }
        }

        let mut fields = vec![
            ("run", Value::Str(run.to_string())),
            ("workers", Value::Int(opts.workers as i64)),
            ("jobs", Value::Int(jobs.len() as i64)),
        ];
        fields.extend(extra);
        journal.record("run_start", fields);
        Ok(Campaign {
            journal,
            outdir: outdir.to_path_buf(),
            fs,
            run: run.to_string(),
            started: Instant::now(),
            recovered,
        })
    }

    /// The campaign's journal (shared with the worker pool).
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The campaign's output directory.
    #[must_use]
    pub fn outdir(&self) -> &Path {
        &self.outdir
    }

    /// Interrupted jobs whose cache entries were invalidated at start.
    #[must_use]
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Executes the job list on the worker pool under this campaign's
    /// journal.
    #[must_use]
    pub fn execute(&self, jobs: &[JobSpec], opts: &RunOptions) -> Vec<JobReport> {
        run_jobs(jobs, opts, &self.journal)
    }

    /// Journals a completed pipeline stage (assembly, emission, ...).
    pub fn stage(&self, label: &str, secs: f64) {
        self.journal.stage(label, secs);
    }

    /// Commits `bytes` durably to `<outdir>/<name>` and journals the
    /// artefact's size and digest for later `--verify`.
    pub fn emit_artefact(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        commit_file(self.fs.as_ref(), &self.outdir.join(name), bytes)?;
        self.journal.artefact(name, bytes);
        Ok(())
    }

    /// Commits the Prometheus exposition of the global metric registry to
    /// `<outdir>/metrics.prom` (durably, digest-journalled like every
    /// artefact). Only [`htpb_obs::Class::Sim`] series are rendered, so the
    /// bytes are identical whatever `--jobs` count produced them.
    pub fn emit_metrics(&self) -> io::Result<()> {
        self.emit_artefact("metrics.prom", crate::obs::prom_text().as_bytes())
    }

    /// Records `run_end` with the campaign's wall time plus `extra`
    /// fields. With `--metrics` on, the full JSON snapshot of the metric
    /// registry (all classes) is embedded under a `"metrics"` key.
    pub fn finish(&self, ok: bool, extra: Vec<(&str, Value)>) {
        let mut fields = vec![
            ("run", Value::Str(self.run.clone())),
            ("secs", Value::Num(self.started.elapsed().as_secs_f64())),
            ("ok", Value::Bool(ok)),
        ];
        fields.extend(extra);
        if htpb_obs::enabled() {
            let metrics = crate::obs::metrics_json(&htpb_obs::global().snapshot());
            fields.push(("metrics", metrics));
        }
        self.journal.record("run_end", fields);
    }
}

/// The outcome of [`verify_artefacts`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Artefacts whose on-disk bytes matched their journalled digest.
    pub verified: usize,
    /// Human-readable descriptions of every mismatch (missing file, size
    /// drift, digest drift).
    pub mismatches: Vec<String>,
}

impl VerifyReport {
    /// True when every journalled artefact matched.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Re-checksums every artefact the journal in `outdir` records (latest
/// record per path) against the file on disk. `repro_all --verify` exits
/// non-zero unless the report is clean.
pub fn verify_artefacts(outdir: &Path) -> io::Result<VerifyReport> {
    let digests = Journal::artefact_digests(&outdir.join("journal.jsonl"))?;
    let mut report = VerifyReport::default();
    for (name, bytes, fnv) in digests {
        let path = outdir.join(&name);
        match crate::fs::std_fs().read(&path) {
            Err(e) => report.mismatches.push(format!("{name}: unreadable ({e})")),
            Ok(data) => {
                let actual = format!("{:016x}", fnv1a64(&data));
                if data.len() as i64 != bytes {
                    report
                        .mismatches
                        .push(format!("{name}: size {} != journalled {bytes}", data.len()));
                } else if actual != fnv {
                    report
                        .mismatches
                        .push(format!("{name}: digest {actual} != journalled {fnv}"));
                } else {
                    report.verified += 1;
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::fs::std_fs;
    use std::fs;

    fn spec(ht_count: usize) -> JobSpec {
        JobSpec::Fig3Point {
            nodes: 16,
            corner: false,
            ht_count,
            seeds: vec![0, 1],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("htpb-campaign-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recovery_invalidates_interrupted_jobs_only() {
        let dir = tmpdir("recover");
        let jobs = vec![spec(0), spec(1), spec(2)];
        let cache = ResultCache::open(dir.join(".cache")).unwrap();
        // Simulate a prior epoch that completed job 0, then died inside
        // job 1 AFTER its cache entry landed (the dangerous window: entry
        // looks clean but the journal never confirmed it).
        {
            let j = Journal::open(&dir.join("journal.jsonl")).unwrap();
            j.job_start(&jobs[0].id(), jobs[0].kind(), 0, 1);
            let out0 = jobs[0].execute();
            cache.store(&jobs[0], &out0).unwrap();
            j.job_done(
                &jobs[0].id(),
                jobs[0].kind(),
                0,
                false,
                true,
                true,
                0.1,
                None,
            );
            j.job_start(&jobs[1].id(), jobs[1].kind(), 0, 1);
            let out1 = jobs[1].execute();
            cache.store(&jobs[1], &out1).unwrap();
            // ... SIGKILL here: no job_done for job 1.
        }
        assert!(cache.load(&jobs[1]).is_some(), "precondition: entry exists");
        let opts = RunOptions {
            cache: Some(cache.clone()),
            ..RunOptions::sequential()
        };
        let campaign = Campaign::start("test", &dir, &jobs, &opts, std_fs(), vec![]).unwrap();
        assert_eq!(campaign.recovered(), 1);
        assert!(
            cache.load(&jobs[0]).is_some(),
            "committed job keeps its entry"
        );
        assert!(
            cache.load(&jobs[1]).is_none(),
            "interrupted job's entry is distrusted"
        );
        // The resumed pool serves job 0 from cache and re-runs 1 and 2.
        let reports = campaign.execute(&jobs, &opts);
        assert!(reports[0].cache_hit);
        assert!(!reports[1].cache_hit);
        assert!(!reports[2].cache_hit);
        assert!(reports.iter().all(|r| r.output.is_ok()));
        campaign.finish(true, vec![]);
        let text = fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        assert_eq!(text.matches("\"event\":\"job_recovered\"").count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// 40 of 60 planned jobs died mid-run, started in reverse plan order
    /// and some of them twice: each is recovered once, in plan order.
    #[test]
    fn every_interrupted_job_is_recovered_once_in_plan_order() {
        let dir = tmpdir("recover-many");
        let jobs: Vec<JobSpec> = (0..60)
            .map(|seed| JobSpec::Conformance { scenarios: 0, seed })
            .collect();
        let interrupted: Vec<&JobSpec> = (0..60).filter(|i| i % 3 != 0).map(|i| &jobs[i]).collect();
        let cache = ResultCache::open(dir.join(".cache")).unwrap();
        {
            let j = Journal::open(&dir.join("journal.jsonl")).unwrap();
            for spec in &jobs {
                cache.store(spec, &spec.execute()).unwrap();
            }
            for spec in interrupted.iter().rev() {
                j.job_start(&spec.id(), spec.kind(), 0, 1);
            }
            for spec in interrupted.iter().step_by(4) {
                j.job_start(&spec.id(), spec.kind(), 1, 1);
            }
        }
        let opts = RunOptions {
            cache: Some(cache.clone()),
            ..RunOptions::sequential()
        };
        let campaign = Campaign::start("test", &dir, &jobs, &opts, std_fs(), vec![]).unwrap();
        assert_eq!(campaign.recovered(), 40);
        let recovered: Vec<String> = Journal::read_events(&dir.join("journal.jsonl"))
            .unwrap()
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("job_recovered"))
            .filter_map(|e| e.get("id")?.as_str().map(ToString::to_string))
            .collect();
        let want: Vec<String> = interrupted.iter().map(|s| s.id()).collect();
        assert_eq!(recovered, want);
        for spec in &jobs {
            let kept = !interrupted.iter().any(|s| s.id() == spec.id());
            assert_eq!(cache.load(spec).is_some(), kept, "{}", spec.id());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn emitted_artefacts_verify_and_tampering_is_caught() {
        let dir = tmpdir("verify");
        let opts = RunOptions::sequential();
        let campaign = Campaign::start("test", &dir, &[], &opts, std_fs(), vec![]).unwrap();
        campaign.emit_artefact("a.tsv", b"1\t2\n").unwrap();
        campaign.emit_artefact("b.tsv", b"3\t4\n").unwrap();
        campaign.finish(true, vec![]);
        let report = verify_artefacts(&dir).unwrap();
        assert!(report.ok(), "{:?}", report.mismatches);
        assert_eq!(report.verified, 2);
        // Re-emitting supersedes the old digest record.
        let campaign2 = Campaign::start("test", &dir, &[], &opts, std_fs(), vec![]).unwrap();
        campaign2.emit_artefact("a.tsv", b"5\t6\n").unwrap();
        campaign2.finish(true, vec![]);
        assert!(verify_artefacts(&dir).unwrap().ok());
        // Tampering after the run is caught.
        fs::write(dir.join("b.tsv"), b"doctored").unwrap();
        let report = verify_artefacts(&dir).unwrap();
        assert_eq!(report.mismatches.len(), 1);
        assert!(report.mismatches[0].starts_with("b.tsv:"), "{report:?}");
        fs::remove_file(dir.join("a.tsv")).unwrap();
        let report = verify_artefacts(&dir).unwrap();
        assert_eq!(report.mismatches.len(), 2, "missing file also flagged");
        let _ = fs::remove_dir_all(&dir);
    }
}
