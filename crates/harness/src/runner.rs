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
//! With [`RunOptions::job_timeout`] set, each job additionally runs on a
//! detached thread bounded by a wall-clock limit: a hung scenario times
//! out (leaking its thread rather than wedging the pool), is retried up to
//! [`RunOptions::retries`] times, and finally records a failure. Retries
//! back off exponentially with a deterministic, seed-derived jitter
//! (`FNV(seed, job id, attempt)`), so retry timing is reproducible from
//! the journal alone. Timeouts and retries land in the journal as
//! `job_timeout` / `job_retry` events (the latter carries the computed
//! `delay_ms`).
//!
//! ## Crash-safety contract
//!
//! Every *executed* attempt is bracketed by journal `job_start` /
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
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::baseline::BaselineCache;
use crate::cache::ResultCache;
use crate::hash::fnv1a64_parts;
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
    /// Per-job wall-clock limit; `None` (the default) lets jobs run
    /// unbounded on the worker thread itself.
    pub job_timeout: Option<Duration>,
    /// How many times a timed-out or failed job is retried before it is
    /// recorded as failed (`--retries`, default 1).
    pub retries: u32,
    /// Seed folded into the deterministic retry-backoff jitter.
    pub retry_seed: u64,
    /// Base backoff unit in milliseconds: retry `n` sleeps
    /// `base * 2^(n-1) + FNV(seed, id, n) % base`. `0` disables backoff
    /// (immediate re-queue, the pre-backoff behaviour).
    pub retry_base_ms: u64,
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
            job_timeout: None,
            retries: 1,
            retry_seed: 0,
            retry_base_ms: 25,
        }
    }

    /// The number of workers `--jobs 0` / no flag resolves to: one per
    /// available core.
    #[must_use]
    pub(crate) fn default_workers() -> usize {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// The deterministic backoff delay before retry `attempt` (1-based) of
/// `job_id`: exponential in the attempt with an FNV-derived jitter, so two
/// workers retrying the same moment spread out, yet the schedule is fully
/// reproducible from (seed, id, attempt).
#[must_use]
pub(crate) fn retry_delay_ms(seed: u64, job_id: &str, attempt: u32, base_ms: u64) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let shift = (attempt.saturating_sub(1)).min(10);
    let jitter = fnv1a64_parts(&[&seed.to_string(), job_id, &attempt.to_string()]) % base_ms;
    base_ms.saturating_mul(1 << shift).saturating_add(jitter)
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

/// One attempt's result, private to the retry loop.
struct Attempt {
    output: Result<JobOutput, String>,
    cache_hit: bool,
    baseline: Option<bool>,
    timed_out: bool,
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
        let attempt = execute_with_retries(spec, opts, journal, worker);
        let secs = t0.elapsed().as_secs_f64();
        journal.job_done(
            &spec.id(),
            spec.kind(),
            worker,
            attempt.cache_hit,
            attempt.cached,
            attempt.output.is_ok(),
            secs,
            attempt.output.as_ref().err().map(String::as_str),
        );
        if let Some(hit) = attempt.baseline {
            journal.record(
                if hit { "baseline_hit" } else { "baseline_miss" },
                vec![("id", Value::Str(spec.id()))],
            );
        }
        if let Some(m) = metrics {
            m.jobs_total.inc();
            m.job_ms.observe((secs * 1000.0) as u64);
            if attempt.cache_hit {
                m.cache_hits_total.inc();
            } else {
                m.cache_misses_total.inc();
            }
            match attempt.baseline {
                Some(true) => m.baseline_hits_total.inc(),
                Some(false) => m.baseline_misses_total.inc(),
                None => {}
            }
            if attempt.output.is_err() {
                m.failures_total.inc();
            }
            m.queue_depth.add(-1);
        }
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(JobReport {
            spec: spec.clone(),
            output: attempt.output,
            cache_hit: attempt.cache_hit,
            baseline: attempt.baseline,
            secs,
            worker,
        });
        if attempt.cache_hit {
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

/// Runs one job under the pool's timeout/retry policy. A timed-out attempt
/// is journalled (`job_timeout`) and retried (`job_retry`) until the retry
/// budget runs out; a failed (panicking) attempt is likewise retried — a
/// crashed worker machine and a hung one are the same event to a campaign.
/// Each retry sleeps the deterministic [`retry_delay_ms`] first. The final
/// attempt's outcome is returned. Cache hits are never retried (they are
/// `Ok` by construction).
fn execute_with_retries(
    spec: &JobSpec,
    opts: &RunOptions,
    journal: &Journal,
    worker: usize,
) -> Attempt {
    let mut retry: u32 = 0;
    let metrics = htpb_obs::enabled().then(crate::obs::harness_metrics);
    loop {
        let attempt = execute_one(spec, opts, journal, worker, retry + 1);
        if attempt.timed_out {
            if let Some(m) = metrics {
                m.timeouts_total.inc();
            }
            journal.record(
                "job_timeout",
                vec![
                    ("id", Value::Str(spec.id())),
                    ("attempt", Value::Int(i64::from(retry) + 1)),
                    (
                        "limit_secs",
                        Value::Num(opts.job_timeout.map_or(0.0, |d| d.as_secs_f64())),
                    ),
                ],
            );
        }
        let retryable = attempt.timed_out || (!attempt.cache_hit && attempt.output.is_err());
        if retryable && retry < opts.retries {
            retry += 1;
            if let Some(m) = metrics {
                m.retries_total.inc();
            }
            let delay_ms = retry_delay_ms(opts.retry_seed, &spec.id(), retry, opts.retry_base_ms);
            journal.record(
                "job_retry",
                vec![
                    ("id", Value::Str(spec.id())),
                    ("attempt", Value::Int(i64::from(retry) + 1)),
                    ("delay_ms", Value::Int(delay_ms as i64)),
                ],
            );
            if delay_ms > 0 {
                thread::sleep(Duration::from_millis(delay_ms));
            }
            continue;
        }
        return attempt;
    }
}

/// Runs one attempt. An *executed* attempt (anything past the cache
/// check) is announced with a journal `job_start` first, so a crash
/// mid-execution leaves the start/done pair visibly unbalanced.
fn execute_one(
    spec: &JobSpec,
    opts: &RunOptions,
    journal: &Journal,
    worker: usize,
    attempt: u32,
) -> Attempt {
    let cache = opts.cache.as_ref();
    let baselines = opts.baselines.as_ref();
    if let Some(cache) = cache {
        if let Some(output) = cache.load(spec) {
            // A result-cache hit never touches the baseline layer, and
            // never re-executes: no job_start.
            return Attempt {
                output: Ok(output),
                cache_hit: true,
                baseline: None,
                timed_out: false,
                cached: true,
            };
        }
    }
    journal.job_start(&spec.id(), spec.kind(), worker, attempt);
    let result = match opts.job_timeout {
        None => panic::catch_unwind(AssertUnwindSafe(|| {
            spec.execute_with(baselines.map(Arc::as_ref))
        }))
        .map_err(|payload| panic_message(payload.as_ref())),
        Some(limit) => {
            // The job runs on a detached thread so a hung scenario cannot
            // wedge the worker: on timeout the thread is leaked (it parks
            // on a disconnected channel when it eventually finishes) and
            // the pool moves on. The limit is a hard wall-clock budget:
            // a result that arrives late (the scheduler can run the job
            // to completion before this thread ever blocks on the
            // channel) still counts as a timeout, so the outcome does not
            // depend on scheduling order.
            let started = Instant::now();
            let (tx, rx) = mpsc::channel();
            let owned = spec.clone();
            let shared = baselines.map(Arc::clone);
            let spawned = thread::Builder::new()
                .name(format!("job-{}", owned.id()))
                .spawn(move || {
                    let r = panic::catch_unwind(AssertUnwindSafe(|| {
                        owned.execute_with(shared.as_deref())
                    }))
                    .map_err(|payload| panic_message(payload.as_ref()));
                    let _ = tx.send(r);
                });
            match spawned {
                Err(e) => Err(format!("failed to spawn job thread: {e}")),
                Ok(_) => match rx.recv_timeout(limit) {
                    Ok(r) if started.elapsed() <= limit => r,
                    Ok(_) | Err(_) => {
                        return Attempt {
                            output: Err(format!("timed out after {:.1}s", limit.as_secs_f64())),
                            cache_hit: false,
                            baseline: None,
                            timed_out: true,
                            cached: false,
                        }
                    }
                },
            }
        }
    };
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
            Attempt {
                output: Ok(output),
                cache_hit: false,
                baseline,
                timed_out: false,
                cached,
            }
        }
        Err(e) => Attempt {
            output: Err(e),
            cache_hit: false,
            baseline: None,
            timed_out: false,
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
    fn retry_delay_is_deterministic_exponential_and_jittered() {
        let d1 = retry_delay_ms(7, "fig3-a", 1, 25);
        let d2 = retry_delay_ms(7, "fig3-a", 2, 25);
        let d3 = retry_delay_ms(7, "fig3-a", 3, 25);
        assert_eq!(d1, retry_delay_ms(7, "fig3-a", 1, 25), "reproducible");
        // Exponential envelope: base*2^(n-1) <= delay < base*2^(n-1)+base.
        assert!((25..50).contains(&d1), "{d1}");
        assert!((50..75).contains(&d2), "{d2}");
        assert!((100..125).contains(&d3), "{d3}");
        // Jitter separates jobs and seeds.
        assert_ne!(
            retry_delay_ms(7, "fig3-a", 1, 1000),
            retry_delay_ms(7, "fig3-b", 1, 1000)
        );
        assert_ne!(
            retry_delay_ms(7, "fig3-a", 1, 1000),
            retry_delay_ms(8, "fig3-a", 1, 1000)
        );
        // base 0 disables backoff; the shift saturates far out.
        assert_eq!(retry_delay_ms(7, "x", 5, 0), 0);
        assert!(retry_delay_ms(7, "x", 40, 25) >= 25 * 1024);
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
            crate::journal::interrupted_in(&Journal::read_events(&journal_path).unwrap())
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

    #[test]
    fn generous_timeout_matches_untimed_run() {
        let jobs = tiny_jobs();
        let untimed = run_jobs(&jobs, &RunOptions::sequential(), &Journal::disabled());
        let timed = run_jobs(
            &jobs,
            &RunOptions {
                job_timeout: Some(Duration::from_secs(600)),
                ..RunOptions::sequential()
            },
            &Journal::disabled(),
        );
        for (a, b) in untimed.iter().zip(&timed) {
            assert_eq!(a.output.as_ref().unwrap(), b.output.as_ref().unwrap());
        }
    }

    #[test]
    fn timed_out_job_retries_then_fails_without_wedging_the_pool() {
        let path =
            std::env::temp_dir().join(format!("htpb-runner-timeout-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        // A 1ns budget cannot cover a real simulation (milliseconds), so
        // every job deterministically times out twice (initial attempt +
        // one retry) and the pool must still drain. Jobs need ht_count > 0:
        // the zero-Trojan shortcut is fast enough to win the recv race.
        let jobs: Vec<JobSpec> = (1..4)
            .map(|m| JobSpec::Fig3Point {
                nodes: 16,
                corner: false,
                ht_count: m,
                seeds: vec![0, 1],
            })
            .collect();
        let reports = run_jobs(
            &jobs,
            &RunOptions {
                workers: 2,
                job_timeout: Some(Duration::from_nanos(1)),
                retries: 1,
                retry_base_ms: 1,
                ..RunOptions::sequential()
            },
            &journal,
        );
        assert_eq!(reports.len(), jobs.len(), "pool must not wedge");
        for r in &reports {
            let err = r.output.as_ref().unwrap_err();
            assert!(err.contains("timed out"), "unexpected error: {err}");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let timeouts = text.matches("\"event\":\"job_timeout\"").count();
        let retries = text.matches("\"event\":\"job_retry\"").count();
        assert_eq!(
            timeouts,
            2 * jobs.len(),
            "each job: initial attempt + one retry both time out\n{text}"
        );
        assert_eq!(retries, jobs.len(), "exactly one retry per job\n{text}");
        assert_eq!(
            text.matches("\"delay_ms\":").count(),
            jobs.len(),
            "every retry journals its computed backoff\n{text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failing_job_is_retried_and_recovers() {
        let pid = std::process::id();
        let marker = std::env::temp_dir().join(format!("htpb-runner-flaky-{pid}.marker"));
        let journal_path = std::env::temp_dir().join(format!("htpb-runner-flaky-{pid}.jsonl"));
        let _ = std::fs::remove_file(&marker);
        let _ = std::fs::remove_file(&journal_path);
        let journal = Journal::open(&journal_path).unwrap();
        // The probe panics on its first attempt (and drops a marker file),
        // then succeeds; with one retry the pool must deliver the success.
        let jobs = vec![JobSpec::FlakyProbe {
            marker: marker.to_string_lossy().into_owned(),
        }];
        let reports = run_jobs(
            &jobs,
            &RunOptions {
                retries: 1,
                retry_base_ms: 1,
                ..RunOptions::sequential()
            },
            &journal,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].output.as_ref().unwrap(),
            &JobOutput::Rate(1.0),
            "retry must recover the flaky job"
        );
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let retry_at = text
            .find("\"event\":\"job_retry\"")
            .expect("journal records the retry");
        let ok_at = text
            .find("\"ok\":true")
            .expect("journal records the eventual success");
        assert!(
            retry_at < ok_at,
            "retry must be journalled before the success\n{text}"
        );
        assert_eq!(
            text.matches("\"event\":\"job_retry\"").count(),
            1,
            "exactly one retry\n{text}"
        );
        assert_eq!(
            text.matches("\"event\":\"job_timeout\"").count(),
            0,
            "a plain failure is not a timeout\n{text}"
        );
        assert_eq!(
            text.matches("\"event\":\"job_start\"").count(),
            2,
            "both executed attempts announce a job_start\n{text}"
        );
        let _ = std::fs::remove_file(&marker);
        let _ = std::fs::remove_file(&journal_path);
    }
}
