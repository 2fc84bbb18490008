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
//! - `--metrics` — enable runtime metric collection (`htpb-obs`): writes
//!   `results/metrics.prom`, embeds a JSON snapshot in the journal's
//!   `run_end` record and prints a summary block on stderr.
//!
//! Binary-specific flags are returned untouched in [`HarnessArgs::rest`].

use std::io;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

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
            metrics: false,
            rest: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if let Some(v) = flag_value("--jobs", &arg, &mut it) {
                parsed.jobs = Some(v?);
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

    /// The one flag grammar, over every valued flag of the workspace's
    /// bins: both spellings, a missing value, a non-number. (The tests
    /// around this one drive the same cases through `HarnessArgs::parse`.)
    #[test]
    fn flag_value_grammar_for_every_valued_flag() {
        let harness = ["--jobs"];
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
    }
}
