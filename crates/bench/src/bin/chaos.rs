//! Process-level chaos harness for the crash-safe campaign machinery.
//!
//! Jepsen-style discipline: run the real `repro_all` binary as a child
//! process, SIGKILL it at a deterministic, seed-derived journal offset,
//! resume it, and assert that crash + resume is indistinguishable from an
//! uninterrupted run:
//!
//! - **(a) artefact identity** — every emitted artefact (`*.tsv`,
//!   `SUMMARY.txt`, `plot.gp`) is byte-identical to an uninterrupted
//!   reference run;
//! - **(b) no recomputation of committed work** — once a `job_done` with
//!   `ok:true, cached:true` is journalled, no later epoch may record a
//!   `job_start` for that job id;
//! - **(c) durable state stays readable** — the journal parses with at
//!   most one corrupt (torn-tail) record per kill, and the resumed run's
//!   `--verify` pass exits zero.
//!
//! A second battery injects filesystem faults (ENOSPC, short writes,
//! failed renames) *in-process* through [`FaultyFs`] at seed-derived
//! operation indices, then re-runs clean and asserts convergence.
//!
//! Usage:
//! `cargo run --release -p htpb-bench --bin chaos [-- FLAGS]`
//!
//! - `--trials N`    SIGKILL trials (default 50);
//! - `--fs-trials N` in-process fault-injection trials (default 12);
//! - `--smoke`       CI mode: 8 kill trials, 4 fs trials;
//! - `--tiny` / `--quick`   child campaign scale (default tiny);
//! - `--seed N`      base seed for kill offsets and fault schedules;
//! - `--keep`        keep per-trial work directories on success.
//!
//! On a failed trial the work directory (child journal, artefacts, logs
//! and a `FAILURE.txt` diagnosis) is left under `results/chaos/` and the
//! exit code is non-zero.

#![forbid(unsafe_code)]

use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use htpb_harness::cli::flag_value;
use htpb_harness::hash::fnv1a64_parts;
use htpb_harness::json::Value;
use htpb_harness::{
    std_fs, Campaign, FaultyFs, FsFault, JobSpec, Journal, ReproPlan, ReproScale, ResultCache,
    RunOptions,
};

/// Wall-clock guard per child invocation; a hung child fails the trial.
const CHILD_TIMEOUT: Duration = Duration::from_secs(600);

struct ChaosArgs {
    trials: u64,
    fs_trials: u64,
    scale: ReproScale,
    seed: u64,
    keep: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<ChaosArgs, String> {
    let mut parsed = ChaosArgs {
        trials: 50,
        fs_trials: 12,
        scale: ReproScale::Tiny,
        seed: 0xC4A0_5EED,
        keep: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if let Some(v) = flag_value("--trials", &arg, &mut it) {
            parsed.trials = v?;
        } else if let Some(v) = flag_value("--fs-trials", &arg, &mut it) {
            parsed.fs_trials = v?;
        } else if let Some(v) = flag_value("--seed", &arg, &mut it) {
            parsed.seed = v?;
        } else {
            match arg.as_str() {
                "--smoke" => {
                    parsed.trials = 8;
                    parsed.fs_trials = 4;
                }
                "--tiny" => parsed.scale = ReproScale::Tiny,
                "--quick" => parsed.scale = ReproScale::Quick,
                "--keep" => parsed.keep = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
    }
    Ok(parsed)
}

/// Artefact files the reproduction emits (mirrors the harness emit list).
fn is_artefact(name: &str) -> bool {
    name.ends_with(".tsv") || name == "SUMMARY.txt" || name == "plot.gp"
}

fn read_artefacts(outdir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(outdir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            is_artefact(&name).then(|| {
                let bytes = fs::read(e.path()).unwrap_or_default();
                (name, bytes)
            })
        })
        .collect();
    files.sort();
    files
}

/// How a child run ended.
enum Child {
    /// Ran to completion; whether it exited zero.
    Finished(bool),
    /// SIGKILLed once its journal reached the kill offset.
    Killed,
}

/// Runs `repro_all` in `dir` (artefacts land in `dir/results/`), with
/// stdout/stderr teed to log files for post-mortem. With `kill_at`, the
/// child is SIGKILLed once its journal reaches that many bytes; it may
/// finish first if the offset lands past the end of the run. `Err` on
/// spawn failure / hang.
fn run_child(
    exe: &Path,
    dir: &Path,
    scale: ReproScale,
    verify: bool,
    kill_at: Option<u64>,
) -> Result<Child, String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let log = |name: &str| -> Stdio {
        // htpb-lint: allow(fs/choke-point) -- live child Stdio handle, not a durable artefact; atomicity is meaningless for a tee'd log
        fs::File::create(dir.join(name)).map_or_else(|_| Stdio::null(), Stdio::from)
    };
    let mut cmd = Command::new(exe);
    cmd.arg(scale_flag(scale))
        .args(["--jobs", "2", "--resume"])
        .current_dir(dir)
        .stdout(log("stdout.log"))
        .stderr(log("stderr.log"));
    if verify {
        cmd.arg("--verify");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawning child: {e}"))?;
    let journal = dir.join("results").join("journal.jsonl");
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(Child::Finished(status.success()));
        }
        if start.elapsed() > CHILD_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err("child exceeded wall-clock guard".into());
        }
        if kill_at.is_some_and(|offset| fs::metadata(&journal).map_or(0, |m| m.len()) >= offset) {
            child.kill().map_err(|e| format!("kill: {e}"))?;
            let _ = child.wait();
            return Ok(Child::Killed);
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

fn scale_flag(scale: ReproScale) -> &'static str {
    match scale {
        ReproScale::Quick => "--quick",
        _ => "--tiny",
    }
}

/// Assertion (b): once a job is journalled `job_done ok:true cached:true`
/// (its result durably committed to the cache), no later epoch may start
/// it again. Returns the violating job ids.
fn recomputed_committed_jobs(events: &[Value]) -> Vec<String> {
    let mut committed: Vec<(String, i64)> = Vec::new();
    for e in events {
        let done = e.get("event").and_then(Value::as_str) == Some("job_done");
        let ok = matches!(e.get("ok"), Some(Value::Bool(true)));
        let cached = matches!(e.get("cached"), Some(Value::Bool(true)));
        if done && ok && cached {
            if let Some(id) = e.get("id").and_then(Value::as_str) {
                let epoch = e.get("epoch").and_then(Value::as_i64).unwrap_or(1);
                if !committed.iter().any(|(i, _)| i == id) {
                    committed.push((id.to_string(), epoch));
                }
            }
        }
    }
    let mut violations = Vec::new();
    for e in events {
        if e.get("event").and_then(Value::as_str) != Some("job_start") {
            continue;
        }
        let (Some(id), Some(epoch)) = (
            e.get("id").and_then(Value::as_str),
            e.get("epoch").and_then(Value::as_i64),
        ) else {
            continue;
        };
        if committed
            .iter()
            .any(|(i, committed_epoch)| i == id && epoch > *committed_epoch)
            && !violations.iter().any(|v| v == id)
        {
            violations.push(id.to_string());
        }
    }
    violations
}

/// One SIGKILL trial. Returns a failure description, or `None` on pass.
fn kill_trial(
    exe: &Path,
    dir: &Path,
    scale: ReproScale,
    offset: u64,
    reference: &[(String, Vec<u8>)],
) -> Option<String> {
    let killed = match run_child(exe, dir, scale, false, Some(offset)) {
        Ok(child) => matches!(child, Child::Killed),
        Err(e) => return Some(format!("interrupted run: {e}")),
    };
    // Resume; the child re-runs only uncommitted work and re-verifies
    // every artefact digest against the journal before exiting.
    match run_child(exe, dir, scale, true, None) {
        Ok(Child::Finished(true)) => {}
        Ok(_) => return Some("resumed run exited non-zero".into()),
        Err(e) => return Some(format!("resumed run: {e}")),
    }
    let outdir = dir.join("results");
    // (a) byte-identical artefacts.
    let artefacts = read_artefacts(&outdir);
    let names =
        |set: &[(String, Vec<u8>)]| -> Vec<String> { set.iter().map(|(n, _)| n.clone()).collect() };
    if names(&artefacts) != names(reference) {
        return Some(format!(
            "artefact sets differ: {:?} vs reference {:?}",
            names(&artefacts),
            names(reference)
        ));
    }
    for ((name, bytes), (_, expected)) in artefacts.iter().zip(reference) {
        if bytes != expected {
            return Some(format!("artefact {name} differs from the reference run"));
        }
    }
    // (c) the journal replays; at most the killed append is torn.
    let (events, corrupt) = match Journal::read_events_stats(&outdir.join("journal.jsonl")) {
        Ok(stats) => stats,
        Err(e) => return Some(format!("journal unreadable after resume: {e}")),
    };
    let allowed = usize::from(killed);
    if corrupt > allowed {
        return Some(format!(
            "{corrupt} corrupt journal records (at most {allowed} torn tail expected)"
        ));
    }
    // (b) committed jobs are never recomputed.
    let violations = recomputed_committed_jobs(&events);
    if !violations.is_empty() {
        return Some(format!(
            "committed jobs re-executed after resume: {violations:?}"
        ));
    }
    None
}

/// One in-process fault-injection trial: run a small campaign over a
/// [`FaultyFs`] that fails one seed-derived operation, then re-run clean
/// and require full convergence.
fn fs_trial(dir: &Path, seed: u64, trial: u64, jobs: &[JobSpec]) -> Option<String> {
    let fault = match trial % 3 {
        0 => FsFault::Enospc,
        1 => FsFault::ShortWrite {
            keep: (trial % 7) as usize,
        },
        _ => FsFault::FailRename,
    };
    let op = fnv1a64_parts(&[&seed.to_string(), "fsop", &trial.to_string()]) % 40;
    let faulty: Arc<FaultyFs> = Arc::new(FaultyFs::new(std_fs(), vec![(op, fault)]));
    let cache_dir = dir.join(".cache");
    let faulted_opts = RunOptions {
        workers: 2,
        cache: ResultCache::open_with_fs(&cache_dir, faulty.clone()).ok(),
        ..RunOptions::sequential()
    };
    // The faulted pass may fail anywhere (including while opening the
    // campaign); whatever it leaves behind must not poison the clean pass.
    if let Ok(campaign) = Campaign::start("chaos_fs", dir, jobs, &faulted_opts, faulty, vec![]) {
        let reports = campaign.execute(jobs, &faulted_opts);
        campaign.finish(reports.iter().all(|r| r.output.is_ok()), vec![]);
    }
    let clean_opts = RunOptions {
        workers: 2,
        cache: match ResultCache::open_with_fs(&cache_dir, std_fs()) {
            Ok(cache) => Some(cache),
            Err(e) => return Some(format!("clean cache open failed: {e}")),
        },
        ..RunOptions::sequential()
    };
    let campaign = match Campaign::start("chaos_fs", dir, jobs, &clean_opts, std_fs(), vec![]) {
        Ok(c) => c,
        Err(e) => return Some(format!("clean campaign open failed: {e}")),
    };
    let reports = campaign.execute(jobs, &clean_opts);
    campaign.finish(true, vec![]);
    for (report, spec) in reports.iter().zip(jobs) {
        match &report.output {
            Err(e) => return Some(format!("{} failed on the clean pass: {e}", spec.id())),
            Ok(output) if *output != spec.execute() => {
                return Some(format!(
                    "{} converged to a wrong result after fault {fault:?}@op{op}",
                    spec.id()
                ));
            }
            Ok(_) => {}
        }
    }
    let (events, corrupt) = match Journal::read_events_stats(&dir.join("journal.jsonl")) {
        Ok(stats) => stats,
        Err(e) => return Some(format!("journal unreadable: {e}")),
    };
    if corrupt > 1 {
        return Some(format!("{corrupt} corrupt journal records from one fault"));
    }
    let violations = recomputed_committed_jobs(&events);
    if !violations.is_empty() {
        return Some(format!("committed jobs re-executed: {violations:?}"));
    }
    None
}

fn fail_trial(dir: &Path, label: &str, why: &str) -> ExitCode {
    let report = format!(
        "chaos {label} FAILED: {why}\nwork dir kept for post-mortem: {}\n",
        dir.display()
    );
    let _ = htpb_harness::commit_file(
        &htpb_harness::StdFs,
        &dir.join("FAILURE.txt"),
        report.as_bytes(),
    );
    eprint!("{report}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exe = match std::env::current_exe()
        .ok()
        .and_then(|p| {
            Some(
                p.parent()?
                    .join(format!("repro_all{}", std::env::consts::EXE_SUFFIX)),
            )
        })
        .filter(|p| p.exists())
    {
        Some(exe) => exe,
        None => {
            eprintln!("chaos: repro_all binary not found next to chaos; build it first");
            return ExitCode::FAILURE;
        }
    };
    let workdir = Path::new("results").join("chaos");
    let _ = fs::remove_dir_all(&workdir);
    if let Err(e) = fs::create_dir_all(&workdir) {
        eprintln!("chaos: creating {}: {e}", workdir.display());
        return ExitCode::FAILURE;
    }

    // Uninterrupted reference run: the ground truth every crashed-and-
    // resumed trial must be byte-identical to.
    eprintln!("[chaos] reference run ({})...", scale_flag(args.scale));
    let refdir = workdir.join("reference");
    match run_child(&exe, &refdir, args.scale, true, None) {
        Ok(Child::Finished(true)) => {}
        Ok(_) => return fail_trial(&refdir, "reference", "reference run exited non-zero"),
        Err(e) => return fail_trial(&refdir, "reference", &e),
    }
    let reference = read_artefacts(&refdir.join("results"));
    if reference.is_empty() {
        return fail_trial(&refdir, "reference", "reference run produced no artefacts");
    }
    let ref_journal_len =
        fs::metadata(refdir.join("results").join("journal.jsonl")).map_or(0, |m| m.len());
    eprintln!(
        "[chaos] reference: {} artefacts, {ref_journal_len}-byte journal",
        reference.len()
    );

    let mut kills = 0u64;
    for trial in 0..args.trials {
        // Seed-derived kill point, spread past the journal's end so some
        // trials exercise the no-kill and kill-at-zero edges too.
        let span = ref_journal_len + ref_journal_len / 4 + 1;
        let offset = fnv1a64_parts(&[&args.seed.to_string(), "kill", &trial.to_string()]) % span;
        let dir = workdir.join(format!("trial-{trial:03}"));
        if let Some(why) = kill_trial(&exe, &dir, args.scale, offset, &reference) {
            return fail_trial(&dir, &format!("kill trial {trial} (offset {offset})"), &why);
        }
        kills += 1;
        eprintln!("[chaos] kill trial {trial}: offset {offset} ok");
        if !args.keep {
            let _ = fs::remove_dir_all(&dir);
        }
    }

    // In-process filesystem fault battery over a cheap job subset.
    let plan = ReproPlan::plan(ReproScale::Tiny);
    let jobs: Vec<JobSpec> = plan
        .jobs
        .iter()
        .filter(|j| matches!(j, JobSpec::Fig3Point { .. }))
        .take(4)
        .cloned()
        .collect();
    for trial in 0..args.fs_trials {
        let dir = workdir.join(format!("fs-trial-{trial:03}"));
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("chaos: creating {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        if let Some(why) = fs_trial(&dir, args.seed, trial, &jobs) {
            return fail_trial(&dir, &format!("fs trial {trial}"), &why);
        }
        eprintln!("[chaos] fs trial {trial} ok");
        if !args.keep {
            let _ = fs::remove_dir_all(&dir);
        }
    }

    if !args.keep {
        let _ = fs::remove_dir_all(workdir.join("reference"));
    }
    eprintln!(
        "[chaos] PASS: {kills} SIGKILL trials + {} fault-injection trials, \
         artefacts byte-identical, no committed job recomputed, journal intact",
        args.fs_trials
    );
    ExitCode::SUCCESS
}
