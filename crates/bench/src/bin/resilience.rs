//! Resilience campaign driver: attack effect under injected transport
//! faults, swept over *fault rate × allocator policy × hardening × duty*.
//!
//! Usage:
//! `cargo run --release -p htpb-bench --bin resilience [-- FLAGS]`
//!
//! - `--quick`        the default: small campaigns (64 nodes, fewer epochs);
//! - `--tiny`         seconds-scale smoke run (CI / integration scale);
//! - `--paper`        full paper-scale campaigns;
//! - `--jobs N`       worker threads (default: one per core);
//! - `--no-cache` / `--resume`   as in `repro_all`; a failed cell is
//!   journalled once, and rerunning re-executes only failed and missing
//!   cells;
//! - `--metrics`      collect runtime metrics: `results/metrics.prom`,
//!   a JSON snapshot in the journal's `run_end`, and a stderr summary.
//!
//! Writes `results/resilience.tsv` (one row per swept cell) and
//! `results/RESILIENCE.txt` (graceful-degradation and attack-effect shape
//! checks); per-job timings land in `results/journal.jsonl`.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use htpb_harness::{run_resilience_sweep, HarnessArgs, ReproScale};

fn main() -> ExitCode {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("resilience: {e}");
            return ExitCode::FAILURE;
        }
    };
    htpb_obs::set_enabled(args.metrics);
    let mut scale = ReproScale::Quick;
    for arg in &args.rest {
        match arg.as_str() {
            "--quick" => scale = ReproScale::Quick,
            "--tiny" => scale = ReproScale::Tiny,
            "--paper" => scale = ReproScale::Paper,
            other => {
                eprintln!("resilience: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let outdir = Path::new("results");
    let result = args
        .run_options(outdir)
        .and_then(|opts| run_resilience_sweep(scale, outdir, &opts));
    if args.metrics {
        eprint!("{}", htpb_harness::obs::summary_text());
    }
    match result {
        Ok(outcome) if outcome.failed == 0 => {
            eprintln!(
                "[harness] {} jobs, {} from cache",
                outcome.jobs, outcome.cache_hits
            );
            ExitCode::SUCCESS
        }
        Ok(outcome) => {
            eprintln!(
                "resilience: {} job(s) failed; see results/journal.jsonl",
                outcome.failed
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("resilience: {e}");
            ExitCode::FAILURE
        }
    }
}
