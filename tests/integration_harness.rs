//! End-to-end tests of the `htpb-harness` orchestration subsystem: the
//! reproduction must emit the committed artefact manifest **byte for byte**
//! at any worker count, cold or warm; interrupted runs must resume from the
//! cache; and a panicking job must not take the campaign down.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use htpb_harness::json::Value;
use htpb_harness::{
    run_jobs, run_repro, std_fs, verify_artefacts, BaselineCache, Campaign, JobSpec, Journal,
    ReproOutcome, ReproPlan, ReproScale, ResultCache, RunOptions,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htpb-harness-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `tests/fixtures/repro_tiny.manifest`: one `name:bytes:fnv16` line per
/// artefact of the tiny reproduction, in emission order, recorded from the
/// whole-series sequential drivers before they were removed. Never
/// re-record it to make this test pass: a diff means the artefact bytes
/// changed.
const TINY_MANIFEST: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/repro_tiny.manifest"
));

/// `tests/fixtures/repro_paper.manifest`: the same lines for the
/// paper-scale reproduction (`repro_all --jobs 2`), i.e. every number the
/// published artefacts state. A change that moves one re-records this
/// file on purpose and says why; never re-record it to get green.
const PAPER_MANIFEST: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/repro_paper.manifest"
));

/// Runs the reproduction at `scale` into `dir` on `workers` workers, with
/// the result cache on and (for a real pool) clean baselines shared on
/// disk, as the bins run.
fn repro_into(scale: ReproScale, dir: &Path, workers: usize) -> ReproOutcome {
    let opts = RunOptions {
        workers,
        cache: Some(ResultCache::for_outdir(dir).unwrap()),
        baselines: (workers > 1).then(|| Arc::new(BaselineCache::with_dir(dir.join(".cache")))),
        ..RunOptions::sequential()
    };
    let outcome = run_repro(scale, dir, &opts).expect("harness repro");
    assert_eq!(outcome.failed, 0);
    outcome
}

/// The manifest of the campaign journalled in `dir`, one `name:bytes:fnv16`
/// line per artefact in emission order, after checking that the files on
/// disk match the journalled digests.
fn manifest_in(dir: &Path) -> String {
    let mut manifest = String::new();
    for (name, bytes, fnv) in Journal::artefact_digests(&dir.join("journal.jsonl")).unwrap() {
        manifest.push_str(&format!("{name}:{bytes}:{fnv}\n"));
    }
    let verify = verify_artefacts(dir).unwrap();
    assert!(verify.ok(), "{:?}", verify.mismatches);
    assert_eq!(verify.verified, manifest.lines().count());
    manifest
}

#[test]
fn repro_tiny_matches_committed_manifest() {
    let one = tmpdir("manifest-1");
    let four = tmpdir("manifest-4");
    // 1 worker cold, 4 workers cold, then the same directory again, warm.
    for (dir, workers, warm) in [(&one, 1, false), (&four, 4, false), (&four, 4, true)] {
        let outcome = repro_into(ReproScale::Tiny, dir, workers);
        assert_eq!(outcome.cache_hits, if warm { outcome.jobs } else { 0 });
        assert_eq!(
            manifest_in(dir),
            TINY_MANIFEST,
            "{workers} worker(s), warm = {warm}"
        );

        if !warm {
            // The journal recorded every job plus run bookkeeping.
            let journal = fs::read_to_string(dir.join("journal.jsonl")).unwrap();
            let job_lines = journal
                .lines()
                .filter(|l| l.contains("\"event\":\"job_done\""))
                .count();
            assert_eq!(job_lines, outcome.jobs);
            assert!(journal.contains("\"event\":\"run_start\""));
            assert!(journal.contains("\"event\":\"run_end\""));
            let stage = journal.lines().find(|l| l.contains("\"event\":\"stage\""));
            assert!(stage.is_some_and(|l| l.contains("\"label\":\"assemble\"")));
        }
    }
    let _ = fs::remove_dir_all(&one);
    let _ = fs::remove_dir_all(&four);
}

#[test]
#[ignore = "paper scale takes about 20 s in release and minutes in debug; CI runs it in release"]
fn repro_paper_matches_committed_manifest() {
    let dir = tmpdir("manifest-paper");
    repro_into(ReproScale::Paper, &dir, 2);
    assert_eq!(manifest_in(&dir), PAPER_MANIFEST);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_resumes_only_missing_jobs() {
    let dir = tmpdir("resume");
    let cache = ResultCache::for_outdir(&dir).unwrap();
    let plan = ReproPlan::plan(ReproScale::Tiny);
    // The cheap fig3 section stands in for the whole campaign.
    let jobs: Vec<JobSpec> = plan
        .jobs
        .iter()
        .filter(|j| matches!(j, JobSpec::Fig3Point { .. }))
        .cloned()
        .collect();
    assert!(jobs.len() >= 4);
    let k = jobs.len() / 2;

    // "Kill" the run after k jobs: only those made it into the cache.
    let opts = |cache: ResultCache| RunOptions {
        workers: 2,
        cache: Some(cache),
        ..RunOptions::sequential()
    };
    let first = run_jobs(&jobs[..k], &opts(cache.clone()), &Journal::disabled());
    assert!(first.iter().all(|r| !r.cache_hit));

    // The rerun executes exactly the n-k missing jobs.
    let second = run_jobs(&jobs, &opts(cache.clone()), &Journal::disabled());
    let hits = second.iter().filter(|r| r.cache_hit).count();
    assert_eq!(hits, k, "completed jobs must be served from the cache");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.output.as_ref().unwrap(),
            b.output.as_ref().unwrap(),
            "cached result differs from computed result"
        );
    }

    // A third run is all hits.
    let third = run_jobs(&jobs, &opts(cache), &Journal::disabled());
    assert!(third.iter().all(|r| r.cache_hit));

    let _ = fs::remove_dir_all(&dir);
}

/// The failure policy: a job runs once. A panicking job is journalled as
/// one `job_start` and one failed, uncached `job_done`, and the rest of the
/// campaign completes; rerunning the campaign executes only that job again.
#[test]
fn panicking_job_fails_alone_and_is_journalled() {
    let dir = tmpdir("panic");
    let journal_path = dir.join("journal.jsonl");
    let jobs = vec![
        JobSpec::Fig3Point {
            nodes: 16,
            corner: false,
            ht_count: 2,
            seeds: vec![0],
        },
        // 0 nodes is an invalid mesh: the experiment constructor panics.
        JobSpec::Fig3Point {
            nodes: 0,
            corner: false,
            ht_count: 2,
            seeds: vec![0],
        },
        JobSpec::Fig3Point {
            nodes: 16,
            corner: true,
            ht_count: 2,
            seeds: vec![0],
        },
    ];
    let bad = jobs[1].id();
    assert!(bad.starts_with("fig3-n0-"), "{bad}");
    let opts = RunOptions {
        workers: 2,
        cache: Some(ResultCache::for_outdir(&dir).unwrap()),
        ..RunOptions::sequential()
    };
    for epoch in [1, 2] {
        let campaign = Campaign::start("panic", &dir, &jobs, &opts, std_fs(), vec![]).unwrap();
        let reports = campaign.execute(&jobs, &opts);
        campaign.finish(false, vec![]);
        assert!(reports[0].output.is_ok());
        assert!(reports[1].output.is_err());
        assert!(reports[2].output.is_ok());
        let rerun = epoch == 2;
        let hits: Vec<bool> = reports.iter().map(|r| r.cache_hit).collect();
        assert_eq!(hits, [rerun, false, rerun], "pass {epoch}");

        let events = Journal::read_events(&journal_path).unwrap();
        let this_pass: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("epoch") == Some(&Value::Int(epoch)))
            .collect();
        let field = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_string);
        let started: Vec<String> = this_pass
            .iter()
            .filter(|e| field(e, "event").as_deref() == Some("job_start"))
            .filter_map(|e| field(e, "id"))
            .collect();
        if rerun {
            assert_eq!(started, [bad.as_str()], "only the failed job re-executes");
        } else {
            assert_eq!(started.len(), jobs.len());
        }
        let bad_events: Vec<&Value> = this_pass
            .into_iter()
            .filter(|e| field(e, "id").as_ref() == Some(&bad))
            .collect();
        let kinds: Vec<String> = bad_events
            .iter()
            .filter_map(|e| field(e, "event"))
            .collect();
        assert_eq!(kinds, ["job_start", "job_done"], "pass {epoch}");
        let done = bad_events[1];
        assert_eq!(done.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(done.get("cached"), Some(&Value::Bool(false)));
        assert!(field(done, "error").is_some(), "{done:?}");
    }

    let _ = fs::remove_dir_all(&dir);
}
