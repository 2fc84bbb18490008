//! Regenerates **Fig. 3** of the paper: infection rate vs. number of
//! randomly placed hardware Trojans, for the global manager at the chip's
//! center vs. at one corner, on 64-node (a) and 512-node (b) chips.
//!
//! Paper shapes to reproduce:
//! - infection rate rises monotonically with the number of HTs;
//! - the corner-manager curve sits above the center-manager curve (the
//!   paper reports >20% higher beyond ~10 HTs) because requests travel
//!   farther and cross more routers.
//!
//! Points are computed as independent harness jobs; `--jobs N` parallelises
//! them, `--no-cache` / `--resume` control `results/.cache/` reuse.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use htpb_bench::{banner, timed_stage};
use htpb_core::{fig3_label, ManagerLocation, Series};
use htpb_harness::{std_fs, Campaign, HarnessArgs, JobOutput, JobSpec};

fn counts_for(nodes: u32) -> Vec<usize> {
    // Paper: 0..30 HTs for 64 nodes, 0..60 for 512.
    let max = if nodes <= 64 { 30 } else { 60 };
    (0..=max).step_by(5).collect()
}

fn main() -> ExitCode {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(args) if args.rest.is_empty() => args,
        Ok(args) => {
            eprintln!("fig3: unknown flag `{}`", args.rest[0]);
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("fig3: {e}");
            return ExitCode::FAILURE;
        }
    };
    banner(
        "Fig. 3",
        "infection rate vs. #HTs, manager at center vs. corner",
    );
    let outdir = Path::new("results");
    let opts = match args.run_options(outdir) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fig3: opening cache: {e}");
            return ExitCode::FAILURE;
        }
    };

    let seeds: Vec<u64> = (0..8).collect();
    let sizes = [64u32, 512];
    // One job per (size, location, count); order matches assembly below.
    let mut jobs = Vec::new();
    for &nodes in &sizes {
        for corner in [false, true] {
            for ht_count in counts_for(nodes) {
                jobs.push(JobSpec::Fig3Point {
                    nodes,
                    corner,
                    ht_count,
                    seeds: seeds.clone(),
                });
            }
        }
    }
    // Campaign::start recovers from a crashed prior run: started-but-died
    // jobs are distrusted and re-executed, committed ones come from cache.
    let campaign = match Campaign::start("fig3", outdir, &jobs, &opts, std_fs(), vec![]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fig3: opening campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    let journal = campaign.journal();
    let reports = campaign.execute(&jobs, &opts);
    if reports.iter().any(|r| r.output.is_err()) {
        campaign.finish(false, vec![]);
        eprintln!("fig3: a job failed; see results/journal.jsonl");
        return ExitCode::FAILURE;
    }

    let mut next = 0usize;
    let mut curve = |nodes: u32, corner: bool| -> Series {
        let loc = if corner {
            ManagerLocation::Corner
        } else {
            ManagerLocation::Center
        };
        let mut s = Series::new(fig3_label(loc));
        for m in counts_for(nodes) {
            let JobOutput::Rate(rate) = reports[next].expect_output() else {
                unreachable!("fig3 jobs produce rates")
            };
            s.push(m as f64, *rate);
            next += 1;
        }
        s
    };
    for (panel, nodes) in [("(a)", 64u32), ("(b)", 512u32)] {
        let (center, corner) = timed_stage(
            Some(journal),
            &format!("fig3 panel {panel} ({nodes} nodes)"),
            || (curve(nodes, false), curve(nodes, true)),
        );
        println!("\n--- Fig. 3 {panel}: system size = {nodes} ---");
        print!("{}", center.to_table());
        print!("{}", corner.to_table());

        // Shape checks.
        let mono = center.is_monotonic_nondecreasing() && corner.is_monotonic_nondecreasing();
        println!("shape: monotonic-in-#HTs = {mono}");
        let advantage: Vec<f64> = center
            .points
            .iter()
            .zip(&corner.points)
            .filter(|((_, c), _)| *c > 0.0)
            .map(|((_, c), (_, k))| k / c - 1.0)
            .collect();
        if let Some(max_adv) = advantage
            .iter()
            .cloned()
            .fold(None::<f64>, |a, b| Some(a.map_or(b, |a| a.max(b))))
        {
            println!(
                "shape: corner manager advantage up to {:+.0}% (paper: >20% beyond ~10 HTs)",
                max_adv * 100.0
            );
        }
    }
    campaign.finish(true, vec![]);
    ExitCode::SUCCESS
}
