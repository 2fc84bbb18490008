//! Fixed-size worker pool executing [`JobSpec`]s.
//!
//! Scheduling is a shared atomic work index over an immutable job slice:
//! workers (the calling thread and `workers - 1` scoped threads) claim the
//! next unclaimed job, execute it (or serve it from the cache) and write
//! the report into that job's slot. Results are returned **in job order**,
//! regardless of which worker finished when — combined with per-job
//! determinism this makes parallel campaigns byte-identical to sequential
//! ones.
//!
//! Each job runs under [`std::panic::catch_unwind`], so one panicking
//! scenario records a failure and the rest of the campaign continues.
//!
//! A job runs at most once per call: it is served from the cache or
//! executed once. It is a pure function of its spec, so running it again
//! could only repeat the outcome. A failure is journalled as `job_done`
//! with `"ok":false`; rerunning the campaign re-executes only the failed
//! and missing jobs.
//!
//! ## Crash-safety contract
//!
//! Every *executed* job is bracketed by journal `job_start` /
//! `job_done` records (cache hits skip `job_start` — nothing ran). The
//! cache store happens **before** `job_done`, so by the time a completion
//! is journalled the result is durable; a crash between the two re-runs
//! the job (`job_start` without `job_done`), which is safe because
//! recovery also distrusts its cache entry. `job_done` carries
//! `"cached":true` only when the result is durably in the cache — the
//! predicate under which a resumed campaign promises never to re-execute
//! the job.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use crate::baseline::BaselineCache;
use crate::cache::ResultCache;
use crate::job::{JobOutput, JobSpec};
use crate::journal::Journal;
use crate::json::Value;

/// Pool configuration.
#[derive(Debug)]
pub struct RunOptions {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Result cache; `None` disables caching entirely (`--no-cache`).
    pub cache: Option<ResultCache>,
    /// Clean-baseline memoization shared by all workers; `None` computes
    /// baselines inline per job (bit-identical, just slower).
    pub baselines: Option<Arc<BaselineCache>>,
    /// Emit a progress/ETA line on stderr while running.
    pub progress: bool,
}

impl RunOptions {
    /// Sequential, uncached, quiet — the baseline configuration tests use.
    #[must_use]
    pub fn sequential() -> RunOptions {
        RunOptions {
            workers: 1,
            cache: None,
            baselines: None,
            progress: false,
        }
    }

    /// The number of workers `--jobs 0` / no flag resolves to: one per
    /// available core.
    #[must_use]
    pub(crate) fn default_workers() -> usize {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// The outcome of one job.
#[derive(Debug)]
pub struct JobReport {
    /// The executed spec.
    pub spec: JobSpec,
    /// The result, or the panic message if the job's scenario panicked.
    pub output: Result<JobOutput, String>,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Baseline-cache use: `None` for jobs without a shared clean baseline
    /// (or when no [`BaselineCache`] was configured, or on a result-cache
    /// hit), otherwise whether the baseline was served from the cache.
    pub baseline: Option<bool>,
    /// Wall time of this job (near zero for cache hits).
    pub secs: f64,
    /// Index of the worker that ran the job.
    pub worker: usize,
}

impl JobReport {
    /// The output, panicking with the job id on a failed job. Campaign
    /// assembly uses this for artefacts that cannot tolerate holes.
    #[must_use]
    pub(crate) fn expect_output(&self) -> &JobOutput {
        match &self.output {
            Ok(out) => out,
            Err(e) => panic!("job {} failed: {e}", self.spec.id()),
        }
    }
}

/// One job's result as [`execute_one`] hands it to the pool.
struct Outcome {
    output: Result<JobOutput, String>,
    cache_hit: bool,
    baseline: Option<bool>,
    /// The result is durably committed to the result cache (a hit, or a
    /// successful store).
    cached: bool,
}

/// Executes `jobs` on the pool and returns one report per job, in job
/// order. Journal entries are appended as jobs complete (completion
/// order); pass [`Journal::disabled`] to skip journalling.
pub fn run_jobs(jobs: &[JobSpec], opts: &RunOptions, journal: &Journal) -> Vec<JobReport> {
    let total = jobs.len();
    let workers = opts.workers.max(1).min(total.max(1));
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobReport>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let started = Instant::now();
    let metrics = htpb_obs::enabled().then(crate::obs::harness_metrics);
    if let Some(m) = metrics {
        m.queue_depth.set(total as i64);
    }

    let work = |worker: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            break;
        }
        let spec = &jobs[i];
        let t0 = Instant::now();
        let outcome = execute_one(spec, opts, journal, worker);
        let secs = t0.elapsed().as_secs_f64();
        journal.job_done(
            &spec.id(),
            spec.kind(),
            worker,
            outcome.cache_hit,
            outcome.cached,
            outcome.output.is_ok(),
            secs,
            outcome.output.as_ref().err().map(String::as_str),
        );
        if let Some(hit) = outcome.baseline {
            journal.record(
                if hit { "baseline_hit" } else { "baseline_miss" },
                vec![("id", Value::Str(spec.id()))],
            );
        }
        if let Some(m) = metrics {
            m.jobs_total.inc();
            m.job_ms.observe((secs * 1000.0) as u64);
            if outcome.cache_hit {
                m.cache_hits_total.inc();
            } else {
                m.cache_misses_total.inc();
            }
            match outcome.baseline {
                Some(true) => m.baseline_hits_total.inc(),
                Some(false) => m.baseline_misses_total.inc(),
                None => {}
            }
            if outcome.output.is_err() {
                m.failures_total.inc();
            }
            m.queue_depth.add(-1);
        }
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(JobReport {
            spec: spec.clone(),
            output: outcome.output,
            cache_hit: outcome.cache_hit,
            baseline: outcome.baseline,
            secs,
            worker,
        });
        if outcome.cache_hit {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if opts.progress {
            print_progress(finished, total, hits.load(Ordering::Relaxed), &started);
        }
    };
    // The calling thread is worker 0, so a one-worker pool starts no
    // thread. Handing the whole run to a fresh thread and sleeping until it
    // ends moves the work to another CPU and back once per call; on a
    // shared two-CPU host that cost a 1 000-hit campaign 0.5 to 3 ms of its
    // 11 ms, a different amount each run.
    thread::scope(|scope| {
        for worker in 1..workers {
            let work = &work;
            scope.spawn(move || work(worker));
        }
        work(0);
    });

    if opts.progress && total > 0 {
        eprintln!();
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every claimed job writes its slot")
        })
        .collect()
}

/// Runs one job: a cache hit, or one execution under `catch_unwind`. An
/// *executed* job is announced with a journal `job_start` first, so a
/// crash mid-execution leaves the start/done pair visibly unbalanced.
fn execute_one(spec: &JobSpec, opts: &RunOptions, journal: &Journal, worker: usize) -> Outcome {
    let cache = opts.cache.as_ref();
    if let Some(cache) = cache {
        if let Some(output) = cache.load(spec) {
            // A result-cache hit never touches the baseline layer, and
            // never re-executes: no job_start.
            return Outcome {
                output: Ok(output),
                cache_hit: true,
                baseline: None,
                cached: true,
            };
        }
    }
    journal.job_start(&spec.id(), spec.kind(), worker, 1);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        spec.execute_with(opts.baselines.as_deref())
    }))
    .map_err(|payload| panic_message(payload.as_ref()));
    match result {
        Ok((output, baseline)) => {
            // Commit the result BEFORE job_done is journalled: once a
            // completion is visible in the journal, the bytes backing it
            // are already durable.
            let mut cached = false;
            if let Some(cache) = cache {
                match cache.store(spec, &output) {
                    Ok(()) => cached = true,
                    Err(e) => eprintln!(
                        "[harness] warning: cache write for {} failed: {e}",
                        spec.id()
                    ),
                }
            }
            Outcome {
                output: Ok(output),
                cache_hit: false,
                baseline,
                cached,
            }
        }
        Err(e) => Outcome {
            output: Err(e),
            cache_hit: false,
            baseline: None,
            cached: false,
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn print_progress(done: usize, total: usize, hits: usize, started: &Instant) {
    let elapsed = started.elapsed().as_secs_f64();
    let eta = if done > 0 {
        elapsed / done as f64 * (total - done) as f64
    } else {
        0.0
    };
    eprint!(
        "\r[harness] {done}/{total} jobs ({hits} cached) elapsed {elapsed:.1}s eta {eta:.1}s   "
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_jobs() -> Vec<JobSpec> {
        (0..4)
            .map(|m| JobSpec::Fig3Point {
                nodes: 16,
                corner: m % 2 == 1,
                ht_count: m,
                seeds: vec![0, 1],
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let jobs = tiny_jobs();
        let seq = run_jobs(&jobs, &RunOptions::sequential(), &Journal::disabled());
        let par = run_jobs(
            &jobs,
            &RunOptions {
                workers: 4,
                ..RunOptions::sequential()
            },
            &Journal::disabled(),
        );
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.output.as_ref().unwrap(), b.output.as_ref().unwrap());
        }
    }

    #[test]
    fn baseline_cache_keeps_outputs_identical_and_journals_use() {
        use crate::job::CampaignScale;
        use htpb_attack::Mix;
        let jobs: Vec<JobSpec> = [0u32, 3, 6]
            .iter()
            .map(|&duty_tenths| JobSpec::SweepPoint {
                mix: Mix::Mix1,
                scale: CampaignScale::Tiny,
                duty_tenths,
            })
            .collect();
        let plain = run_jobs(&jobs, &RunOptions::sequential(), &Journal::disabled());
        let journal_path =
            std::env::temp_dir().join(format!("htpb-runner-baseline-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal_path);
        let journal = Journal::open(&journal_path).unwrap();
        let cache = Arc::new(BaselineCache::in_memory());
        let cached = run_jobs(
            &jobs,
            &RunOptions {
                baselines: Some(Arc::clone(&cache)),
                ..RunOptions::sequential()
            },
            &journal,
        );
        for (a, b) in plain.iter().zip(&cached) {
            // Memoized baselines are bit-identical to inline ones.
            assert_eq!(a.output.as_ref().unwrap(), b.output.as_ref().unwrap());
            assert_eq!(a.baseline, None, "no cache configured, nothing to report");
            assert!(b.baseline.is_some(), "sweep jobs report baseline use");
        }
        // All three duty points share one config: one computation, two hits.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        let text = std::fs::read_to_string(&journal_path).unwrap();
        assert_eq!(text.matches("\"event\":\"baseline_miss\"").count(), 1);
        assert_eq!(text.matches("\"event\":\"baseline_hit\"").count(), 2);
        let _ = std::fs::remove_file(&journal_path);
    }

    #[test]
    fn executed_jobs_bracket_start_and_done() {
        let journal_path =
            std::env::temp_dir().join(format!("htpb-runner-bracket-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal_path);
        let journal = Journal::open(&journal_path).unwrap();
        let jobs = tiny_jobs();
        run_jobs(&jobs, &RunOptions::sequential(), &journal);
        let text = std::fs::read_to_string(&journal_path).unwrap();
        assert_eq!(text.matches("\"event\":\"job_start\"").count(), jobs.len());
        assert_eq!(text.matches("\"event\":\"job_done\"").count(), jobs.len());
        assert!(
            crate::journal::History::read(&journal_path)
                .unwrap()
                .interrupted
                .is_empty(),
            "a clean run leaves no unbalanced starts"
        );
        // Cache hits skip job_start entirely.
        let dir =
            std::env::temp_dir().join(format!("htpb-runner-bracket-c-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            cache: Some(ResultCache::open(&dir).unwrap()),
            ..RunOptions::sequential()
        };
        run_jobs(&jobs, &opts, &Journal::disabled());
        let hit_path =
            std::env::temp_dir().join(format!("htpb-runner-bracket2-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&hit_path);
        let hit_journal = Journal::open(&hit_path).unwrap();
        let reports = run_jobs(&jobs, &opts, &hit_journal);
        assert!(reports.iter().all(|r| r.cache_hit));
        let text = std::fs::read_to_string(&hit_path).unwrap();
        assert_eq!(text.matches("\"event\":\"job_start\"").count(), 0);
        assert_eq!(
            text.matches("\"cached\":true").count(),
            jobs.len(),
            "hits report the result as durably cached"
        );
        let _ = std::fs::remove_file(&journal_path);
        let _ = std::fs::remove_file(&hit_path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_job_is_isolated() {
        // nodes = 0 makes Mesh2d::with_nodes fail and the experiment
        // constructor panic; the other jobs must still complete.
        let mut jobs = tiny_jobs();
        jobs.insert(
            1,
            JobSpec::Fig3Point {
                nodes: 0,
                corner: false,
                ht_count: 1,
                seeds: vec![0],
            },
        );
        let reports = run_jobs(
            &jobs,
            &RunOptions {
                workers: 2,
                ..RunOptions::sequential()
            },
            &Journal::disabled(),
        );
        assert_eq!(reports.len(), 5);
        assert!(reports[1].output.is_err(), "bad job must fail");
        for (i, r) in reports.iter().enumerate() {
            if i != 1 {
                assert!(r.output.is_ok(), "job {i} should survive the panic");
            }
        }
    }
}
