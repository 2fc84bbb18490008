//! Differential-conformance driver: replays the checked-in regression
//! corpus, then sweeps random scenarios through the optimized network and
//! the dense reference oracle in lock-step.
//!
//! Every divergence is shrunk to a minimal replayable spec, printed, and
//! appended to `results/conformance_failures.txt` so CI can upload the
//! artifact; the process exits non-zero if anything diverged.
//!
//! The random sweep dispatches [`JobSpec::Conformance`] batches through the
//! harness worker pool, so campaigns get the same panic isolation,
//! journalling and parallelism as every other experiment job.
//!
//! Usage: `conformance [--smoke] [--scenarios N] [--seed S] [--jobs N] [--out DIR] [--metrics]`
//! (valued flags also as `--flag=V`; an unknown flag is a usage error)
//!   --smoke        200 scenarios (CI budget, well under a minute in release)
//!   --scenarios N  explicit scenario count (default 1000)
//!   --seed S       master seed, `0x`-prefixed hex or decimal (default 0x5EED)
//!   --jobs N       worker threads for the random sweep (default 1)
//!   --out DIR      output directory for the failure artifact (default results)
//!   --metrics      collect runtime metrics and print the stderr summary
//!
//! Independently of `--metrics`, every corpus replay also runs the
//! metrics-identity oracle: the scenario re-executes with live NoC metrics
//! on and its fingerprints must equal the metrics-off ones (the
//! observability layer's non-perturbation contract, docs/OBSERVABILITY.md).

#![forbid(unsafe_code)]

use std::path::PathBuf;

use htpb_harness::cli::flag_value;
use htpb_harness::{run_jobs, JobOutput, JobSpec, Journal, RunOptions};
use htpb_noc::spec_u64;
use htpb_testkit::{run_differential, run_metrics_identity, DiffConfig, Scenario};

fn usage(e: String) -> ! {
    eprintln!("conformance: {e}");
    std::process::exit(1)
}

fn main() {
    let (mut smoke, mut metrics, mut scenarios) = (false, false, None);
    let (mut seed, mut workers, mut outdir) = (0x5EED_u64, 1usize, PathBuf::from("results"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = flag_value::<u64>("--scenarios", &arg, &mut args) {
            scenarios = Some(v.unwrap_or_else(|e| usage(e)));
        } else if let Some(v) = flag_value::<String>("--seed", &arg, &mut args) {
            let text = v.unwrap_or_else(|e| usage(e));
            seed =
                spec_u64(&text).unwrap_or_else(|| usage(format!("--seed: invalid value `{text}`")));
        } else if let Some(v) = flag_value("--jobs", &arg, &mut args) {
            workers = v.unwrap_or_else(|e| usage(e));
        } else if let Some(v) = flag_value("--out", &arg, &mut args) {
            outdir = v.unwrap_or_else(|e| usage(e));
        } else {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--metrics" => metrics = true,
                other => usage(format!("unknown flag `{other}`")),
            }
        }
    }
    htpb_obs::set_enabled(metrics);
    let count = scenarios.unwrap_or(if smoke { 200 } else { 1000 });
    let workers = workers.max(1);

    let config = DiffConfig::default();
    let mut failures: Vec<(String, String)> = Vec::new();

    // Phase 1: the regression corpus — every shrunk failure ever found.
    // Each scenario replays through the differential oracle AND through the
    // metrics-identity oracle (metrics-on vs metrics-off fingerprints must
    // be bit-identical — the observability layer's non-perturbation
    // contract).
    let corpus = include_str!("../../../testkit/corpus/conformance.txt");
    let mut corpus_n = 0u64;
    for line in corpus.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        corpus_n += 1;
        let scenario = match Scenario::from_spec(line) {
            Ok(s) => s,
            Err(e) => {
                failures.push((
                    line.to_string(),
                    format!("corpus spec failed to parse: {e}"),
                ));
                continue;
            }
        };
        if let Some(d) = run_differential(&scenario, &config) {
            failures.push((line.to_string(), format!("corpus replay diverged: {d}")));
        }
        if let Some(why) = run_metrics_identity(&scenario, &config) {
            failures.push((line.to_string(), format!("metrics identity broken: {why}")));
        }
    }
    println!("corpus: {corpus_n} scenarios, {} failures", failures.len());

    // Phase 2: random sweep as harness jobs. Scenario i of the sweep uses
    // seed + i regardless of chunking, so any worker count explores the
    // identical scenario set; each job shrinks its own divergences.
    const CHUNK: u64 = 100;
    let jobs: Vec<JobSpec> = (0..count)
        .step_by(CHUNK as usize)
        .map(|offset| JobSpec::Conformance {
            scenarios: CHUNK.min(count - offset),
            seed: seed.wrapping_add(offset),
        })
        .collect();
    let opts = RunOptions {
        workers,
        ..RunOptions::sequential()
    };
    let mut passed = 0u64;
    for report in run_jobs(&jobs, &opts, &Journal::disabled()) {
        match report.output {
            Ok(JobOutput::Conformance {
                passed: p,
                failures: shrunk,
            }) => {
                passed += p;
                for spec in shrunk {
                    let detail = run_differential(
                        &Scenario::from_spec(&spec).expect("job outputs valid specs"),
                        &config,
                    )
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "shrunk scenario stopped reproducing".to_string());
                    eprintln!("divergence (job {}): {spec}\n  {detail}", report.spec.id());
                    failures.push((spec, detail));
                }
            }
            Ok(other) => failures.push((
                report.spec.id(),
                format!("conformance job returned wrong output variant: {other:?}"),
            )),
            Err(e) => failures.push((report.spec.id(), format!("conformance job crashed: {e}"))),
        }
    }
    println!("random sweep: {passed}/{count} scenarios agreed (seed {seed:#x})");

    if metrics {
        eprint!("{}", htpb_harness::obs::summary_text());
    }
    if failures.is_empty() {
        println!("conformance: PASS");
        return;
    }
    std::fs::create_dir_all(&outdir).expect("create output dir");
    let path = outdir.join("conformance_failures.txt");
    let mut doc = format!(
        "# Shrunk divergence specs (seed {seed:#x}, {count} scenarios).\n\
         # Replay: add the spec line to crates/testkit/corpus/conformance.txt\n\
         # or feed it to Scenario::from_spec; see docs/TESTING.md.\n"
    );
    for (spec, detail) in &failures {
        doc.push_str(&format!("{spec}\n# ^ {detail}\n"));
    }
    htpb_harness::commit_file(&htpb_harness::StdFs, &path, doc.as_bytes())
        .expect("write failure artifact");
    eprintln!(
        "conformance: FAIL — {} divergences, specs written to {}",
        failures.len(),
        path.display()
    );
    std::process::exit(1);
}
