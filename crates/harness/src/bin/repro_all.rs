//! One-shot reproduction harness: regenerates **every** table and figure of
//! the paper and writes each artefact's series to `results/<artefact>.tsv`,
//! plus a `results/SUMMARY.txt` with the shape checks.
//!
//! Usage:
//! `cargo run --release --bin repro_all [-- FLAGS]`
//!
//! - `--quick`      shrink the platforms (64 nodes, fewer seeds) for a fast
//!   smoke-reproduction (~1 min); default is paper scale;
//! - `--tiny`       seconds-scale smoke run (integration-test scale);
//! - `--jobs N`     run experiment points on N worker threads (default: one
//!   per core; deterministic — the artefact bytes do not depend on N);
//! - `--no-cache`   recompute every point, ignore `results/.cache/`;
//! - `--resume`     reuse cached points (the default) — an interrupted or
//!   crashed run picks up where it left off: jobs the journal shows as
//!   started-but-died are distrusted and re-run, committed ones are served
//!   from cache, and the final artefacts are byte-identical to an
//!   uninterrupted run;
//! - `--verify`     after the run, re-checksum every emitted artefact
//!   against the digests recorded in the journal; exit non-zero on any
//!   mismatch;
//! - `--metrics`    collect runtime metrics (`htpb-obs`): writes
//!   `results/metrics.prom`, embeds a JSON snapshot in the journal's
//!   `run_end` record and prints a summary block on stderr. Proven not to
//!   perturb the simulation (see `docs/OBSERVABILITY.md`).
//!
//! Every run appends framed, checksummed per-job lifecycle events and
//! per-stage timings to `results/journal.jsonl` (see
//! `docs/CRASH_SAFETY.md`).

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use htpb_harness::{run_repro, verify_artefacts, HarnessArgs, ReproScale};

fn main() -> ExitCode {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repro_all: {e}");
            return ExitCode::FAILURE;
        }
    };
    htpb_obs::set_enabled(args.metrics);
    let mut scale = ReproScale::Paper;
    let mut verify = false;
    for arg in &args.rest {
        match arg.as_str() {
            "--quick" => scale = ReproScale::Quick,
            "--tiny" => scale = ReproScale::Tiny,
            "--verify" => verify = true,
            other => {
                eprintln!("repro_all: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let outdir = Path::new("results");
    let result = args
        .run_options(outdir)
        .and_then(|opts| run_repro(scale, outdir, &opts));
    let run_ok = match result {
        Ok(outcome) if outcome.failed == 0 => {
            eprintln!(
                "[harness] {} jobs, {} from cache",
                outcome.jobs, outcome.cache_hits
            );
            eprintln!(
                "[harness] baselines: {} shared, {} computed",
                outcome.baseline_hits, outcome.baseline_misses
            );
            true
        }
        Ok(outcome) => {
            eprintln!(
                "repro_all: {} job(s) failed; see results/journal.jsonl",
                outcome.failed
            );
            false
        }
        Err(e) => {
            eprintln!("repro_all: {e}");
            false
        }
    };
    if args.metrics {
        eprint!("{}", htpb_harness::obs::summary_text());
    }
    if verify {
        match verify_artefacts(outdir) {
            Ok(report) if report.ok() => {
                eprintln!(
                    "[harness] verify: {} artefact(s) match their journalled digests",
                    report.verified
                );
            }
            Ok(report) => {
                for m in &report.mismatches {
                    eprintln!("repro_all: verify: {m}");
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("repro_all: verify: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if run_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
