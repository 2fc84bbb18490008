//! Shared command-line flag parsing for the harness-driven binaries.
//!
//! Every binary that runs campaigns through the pool accepts the same
//! flags; a valued flag is spelled `--flag V` or `--flag=V`
//! ([`flag_value`], the one grammar every bin in the workspace uses):
//!
//! - `--jobs N` — worker threads (default: one per core; `0` also means
//!   one per core);
//! - `--no-cache` — recompute everything, don't read or write the cache;
//! - `--resume` — explicitly request cache reuse (the default; overrides
//!   an earlier `--no-cache`);
//! - `--job-timeout SECS` — per-job wall-clock limit (`0` or absent =
//!   unbounded); a timed-out job is retried, then recorded as failed;
//! - `--retries N` — retries per timed-out job (default 1);
//! - `--retry-base-ms N` — base unit of the deterministic exponential
//!   retry backoff (default 25; `0` = immediate re-queue);
//! - `--retry-seed N` — seed folded into the backoff jitter (default 0);
//! - `--metrics` — enable runtime metric collection (`htpb-obs`): writes
//!   `results/metrics.prom`, embeds a JSON snapshot in the journal's
//!   `run_end` record and prints a summary block on stderr.
//!
//! Binary-specific flags are returned untouched in [`HarnessArgs::rest`].

use std::io;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use crate::baseline::BaselineCache;
use crate::cache::ResultCache;
use crate::runner::RunOptions;

/// Matches `arg` against the valued flag `flag` in either spelling:
/// `--flag V` (the value is taken from `rest`) or `--flag=V`. `None` when
/// `arg` is a different flag; otherwise the parsed value, or a usage
/// message for a missing or unparsable one.
pub fn flag_value<T: FromStr>(
    flag: &str,
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<Result<T, String>> {
    let text = if arg == flag {
        match rest.next() {
            Some(text) => text,
            None => return Some(Err(format!("{flag} requires a value"))),
        }
    } else {
        arg.strip_prefix(flag)?.strip_prefix('=')?.to_string()
    };
    Some(
        text.parse()
            .map_err(|_| format!("{flag}: invalid value `{text}`")),
    )
}

/// Parsed harness flags plus the arguments the binary handles itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Worker threads requested (`None` = one per core).
    pub jobs: Option<usize>,
    /// Whether the cache is enabled.
    pub use_cache: bool,
    /// Per-job wall-clock limit in seconds (`None` = unbounded).
    pub job_timeout_secs: Option<u64>,
    /// Retries per timed-out job.
    pub retries: u32,
    /// Base unit (ms) of the deterministic exponential retry backoff.
    pub retry_base_ms: u64,
    /// Seed folded into the retry-backoff jitter.
    pub retry_seed: u64,
    /// Whether `--metrics` collection was requested.
    pub metrics: bool,
    /// Arguments not consumed by the harness.
    pub rest: Vec<String>,
}

impl HarnessArgs {
    /// Parses harness flags out of an argument iterator (without the
    /// program name). `Err` carries a usage message.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<HarnessArgs, String> {
        let mut parsed = HarnessArgs {
            jobs: None,
            use_cache: true,
            job_timeout_secs: None,
            retries: 1,
            retry_base_ms: 25,
            retry_seed: 0,
            metrics: false,
            rest: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if let Some(v) = flag_value("--jobs", &arg, &mut it) {
                parsed.jobs = Some(v?);
            } else if let Some(v) = flag_value("--job-timeout", &arg, &mut it) {
                parsed.job_timeout_secs = Some(v?);
            } else if let Some(v) = flag_value("--retries", &arg, &mut it) {
                parsed.retries = v?;
            } else if let Some(v) = flag_value("--retry-base-ms", &arg, &mut it) {
                parsed.retry_base_ms = v?;
            } else if let Some(v) = flag_value("--retry-seed", &arg, &mut it) {
                parsed.retry_seed = v?;
            } else {
                match arg.as_str() {
                    "--no-cache" => parsed.use_cache = false,
                    "--resume" => parsed.use_cache = true,
                    "--metrics" => parsed.metrics = true,
                    _ => parsed.rest.push(arg),
                }
            }
        }
        Ok(parsed)
    }

    /// The per-job wall-clock limit this invocation resolves to (`0`
    /// seconds also means unbounded).
    #[must_use]
    pub(crate) fn job_timeout(&self) -> Option<Duration> {
        match self.job_timeout_secs {
            None | Some(0) => None,
            Some(secs) => Some(Duration::from_secs(secs)),
        }
    }

    /// The worker count this invocation resolves to.
    #[must_use]
    pub fn workers(&self) -> usize {
        match self.jobs {
            Some(0) | None => RunOptions::default_workers(),
            Some(n) => n,
        }
    }

    /// The pool configuration this invocation resolves to for a campaign
    /// writing into `outdir`: with the cache on, results and clean
    /// baselines persist under `<outdir>/.cache`; with `--no-cache`
    /// nothing is read or written there and baselines are shared in memory
    /// only.
    pub fn run_options(&self, outdir: &Path) -> io::Result<RunOptions> {
        let (cache, baselines) = if self.use_cache {
            let dir = outdir.join(".cache");
            (Some(ResultCache::open(&dir)?), BaselineCache::with_dir(dir))
        } else {
            (None, BaselineCache::in_memory())
        };
        Ok(RunOptions {
            workers: self.workers(),
            cache,
            baselines: Some(Arc::new(baselines)),
            progress: true,
            job_timeout: self.job_timeout(),
            retries: self.retries,
            retry_seed: self.retry_seed,
            retry_base_ms: self.retry_base_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::parse(args.iter().map(ToString::to_string)).unwrap()
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&[]);
        assert_eq!(a.jobs, None);
        assert!(a.use_cache);
        assert!(!a.metrics, "metrics collection is opt-in");
        assert!(a.rest.is_empty());

        let a = parse(&["--metrics", "--quick"]);
        assert!(a.metrics);
        assert_eq!(a.rest, vec!["--quick".to_string()]);

        let a = parse(&["--quick", "--jobs", "4", "--no-cache"]);
        assert_eq!(a.jobs, Some(4));
        assert!(!a.use_cache);
        assert_eq!(a.rest, vec!["--quick".to_string()]);
        assert_eq!(a.workers(), 4);

        let a = parse(&["--jobs=2", "--no-cache", "--resume"]);
        assert_eq!(a.jobs, Some(2));
        assert!(a.use_cache, "--resume re-enables the cache");
    }

    #[test]
    fn timeout_and_retry_flags() {
        let a = parse(&[]);
        assert_eq!(a.job_timeout(), None);
        assert_eq!(a.retries, 1);

        let a = parse(&["--job-timeout", "30", "--retries", "2"]);
        assert_eq!(a.job_timeout(), Some(Duration::from_secs(30)));
        assert_eq!(a.retries, 2);

        let a = parse(&["--job-timeout=0", "--retries=0"]);
        assert_eq!(a.job_timeout(), None, "0 seconds means unbounded");
        assert_eq!(a.retries, 0);
    }

    #[test]
    fn backoff_flags() {
        let a = parse(&[]);
        assert_eq!(a.retry_base_ms, 25);
        assert_eq!(a.retry_seed, 0);
        let a = parse(&["--retry-base-ms", "100", "--retry-seed=7"]);
        assert_eq!(a.retry_base_ms, 100);
        assert_eq!(a.retry_seed, 7);
        let a = parse(&["--retry-base-ms=0"]);
        assert_eq!(a.retry_base_ms, 0, "0 disables backoff");
        assert!(HarnessArgs::parse(vec!["--retry-seed".to_string()]).is_err());
    }

    /// The one flag grammar, over every valued flag of the workspace's
    /// bins: both spellings, a missing value, a non-number. (The tests
    /// around this one drive the same cases through `HarnessArgs::parse`.)
    #[test]
    fn flag_value_grammar_for_every_valued_flag() {
        let harness = [
            "--jobs",
            "--job-timeout",
            "--retries",
            "--retry-base-ms",
            "--retry-seed",
        ];
        let chaos = ["--trials", "--fs-trials", "--seed"];
        let conformance = ["--scenarios", "--seed", "--jobs", "--out"];
        for flag in harness.iter().chain(&chaos).chain(&conformance) {
            let value = |args: &[&str]| {
                let mut it = args.iter().map(ToString::to_string);
                let arg = it.next().unwrap();
                (flag_value::<u64>(flag, &arg, &mut it), it.next())
            };
            let next = Some("next".to_string());
            assert_eq!(value(&[flag, "7", "next"]), (Some(Ok(7)), next.clone()));
            assert_eq!(
                value(&[&format!("{flag}=7"), "next"]),
                (Some(Ok(7)), next.clone())
            );
            assert!(matches!(value(&[flag]), (Some(Err(_)), None)));
            assert!(matches!(value(&[flag, "x"]), (Some(Err(_)), None)));
            assert!(matches!(
                value(&[&format!("{flag}=x")]),
                (Some(Err(_)), None)
            ));
            // A longer flag sharing the prefix is a different flag.
            assert_eq!(
                value(&[&format!("{flag}-more=7"), "next"]),
                (None, next.clone())
            );
            assert_eq!(value(&["--metrics", "next"]), (None, next));
        }
        // A path-valued flag takes any text.
        let mut none = std::iter::empty();
        assert_eq!(
            flag_value::<String>("--out", "--out=results/x", &mut none),
            Some(Ok("results/x".to_string()))
        );
    }

    #[test]
    fn rejects_bad_jobs() {
        assert!(HarnessArgs::parse(vec!["--jobs".to_string()]).is_err());
        assert!(HarnessArgs::parse(vec!["--jobs".to_string(), "x".to_string()]).is_err());
        assert!(HarnessArgs::parse(vec!["--job-timeout".to_string()]).is_err());
        assert!(HarnessArgs::parse(vec!["--retries=x".to_string()]).is_err());
    }
}
