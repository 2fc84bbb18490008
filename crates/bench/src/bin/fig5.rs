//! Regenerates **Fig. 5** of the paper: attack effect Q(Δ, Γ) vs. infection
//! rate for the four benchmark mixes of Table III, each application
//! multi-threaded on a 256-core chip with the manager at the center.
//!
//! Paper shapes to reproduce: Q grows with the infection rate for every
//! mix, and mix-4 (three attackers, one victim) peaks highest — 6.89 at
//! 0.9 infection in the paper.
//!
//! Each (mix, duty) campaign is an independent harness job; `--jobs N`
//! parallelises them, `--no-cache` / `--resume` control `results/.cache/`
//! reuse.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use htpb_bench::{banner, timed_stage};
use htpb_core::{Mix, Series};
use htpb_harness::{std_fs, Campaign, CampaignScale, HarnessArgs, JobOutput, JobSpec};

fn main() -> ExitCode {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(args) if args.rest.is_empty() => args,
        Ok(args) => {
            eprintln!("fig5: unknown flag `{}`", args.rest[0]);
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("fig5: {e}");
            return ExitCode::FAILURE;
        }
    };
    banner("Fig. 5", "attack effect Q vs. infection rate per mix");
    let outdir = Path::new("results");
    let opts = match args.run_options(outdir) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fig5: opening cache: {e}");
            return ExitCode::FAILURE;
        }
    };

    // One job per (mix, duty): a full campaign, its clean baseline shared
    // per mix through the baseline cache (deterministic, so bit-equal to
    // an inline-baseline sweep).
    let duty_tenths: Vec<u32> = (0..=9).collect();
    let mut jobs = Vec::new();
    for mix in Mix::ALL {
        for &duty_tenths in &duty_tenths {
            jobs.push(JobSpec::SweepPoint {
                mix,
                scale: CampaignScale::Paper,
                duty_tenths,
            });
        }
    }
    // Campaign::start recovers from a crashed prior run: started-but-died
    // jobs are distrusted and re-executed, committed ones come from cache.
    let campaign = match Campaign::start("fig5", outdir, &jobs, &opts, std_fs(), vec![]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fig5: opening campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    let journal = campaign.journal();
    let reports = campaign.execute(&jobs, &opts);
    if reports.iter().any(|r| r.output.is_err()) {
        campaign.finish(false, vec![]);
        eprintln!("fig5: a job failed; see results/journal.jsonl");
        return ExitCode::FAILURE;
    }

    let mut peak: (f64, &str) = (0.0, "");
    let mut tables = Vec::new();
    let mut next = 0usize;
    for mix in Mix::ALL {
        let series = timed_stage(Some(journal), &format!("fig5 {}", mix.name()), || {
            let mut series = Series::new(mix.name());
            for _ in &duty_tenths {
                let JobOutput::Sweep { infection, q, .. } = reports[next].expect_output() else {
                    unreachable!("fig5 jobs produce sweep points")
                };
                series.push(*infection, *q);
                next += 1;
            }
            series
        });
        if let Some((_, q)) = series.points.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            if *q > peak.0 {
                peak = (*q, mix.name());
            }
        }
        println!(
            "shape: {} Q rises from {:.2} to {:.2} (monotonic-ish = {})",
            mix.name(),
            series.points.first().map_or(0.0, |p| p.1),
            series.last_y().unwrap_or(0.0),
            series.is_monotonic_nondecreasing(),
        );
        tables.push(series);
    }
    println!("\n--- Fig. 5 data (x = measured infection rate, y = Q) ---");
    for s in &tables {
        print!("{}", s.to_table());
    }
    println!(
        "shape: peak Q = {:.2} on {} (paper: 6.89 on mix-4 at 0.9 infection)",
        peak.0, peak.1
    );
    campaign.finish(true, vec![]);
    ExitCode::SUCCESS
}
