//! End-to-end tests of the `htpb-harness` orchestration subsystem: the
//! reproduction must emit the committed artefact manifest **byte for byte**
//! at any worker count, cold or warm; interrupted runs must resume from the
//! cache; and a panicking job must not take the campaign down.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use htpb_harness::{
    run_jobs, run_repro, verify_artefacts, BaselineCache, JobSpec, Journal, ReproPlan, ReproScale,
    ResultCache, RunOptions,
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
const MANIFEST: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/repro_tiny.manifest"
));

#[test]
fn repro_tiny_matches_committed_manifest() {
    let one = tmpdir("manifest-1");
    let four = tmpdir("manifest-4");
    // 1 worker cold, 4 workers cold (baselines shared on disk, as the bins
    // run), then the same directory again, warm.
    for (dir, workers, warm) in [(&one, 1, false), (&four, 4, false), (&four, 4, true)] {
        let opts = RunOptions {
            workers,
            cache: Some(ResultCache::for_outdir(dir).unwrap()),
            baselines: (workers > 1).then(|| Arc::new(BaselineCache::with_dir(dir.join(".cache")))),
            ..RunOptions::sequential()
        };
        let outcome = run_repro(ReproScale::Tiny, dir, &opts).expect("harness repro");
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.cache_hits, if warm { outcome.jobs } else { 0 });

        let mut manifest = String::new();
        for (name, bytes, fnv) in Journal::artefact_digests(&dir.join("journal.jsonl")).unwrap() {
            manifest.push_str(&format!("{name}:{bytes}:{fnv}\n"));
        }
        assert_eq!(manifest, MANIFEST, "{workers} worker(s), warm = {warm}");
        // The digests are the journal's; the files on disk must match them.
        let verify = verify_artefacts(dir).unwrap();
        assert!(verify.ok(), "{:?}", verify.mismatches);
        assert_eq!(verify.verified, MANIFEST.lines().count());

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

#[test]
fn panicking_job_fails_alone_and_is_journalled() {
    let dir = tmpdir("panic");
    let journal_path = dir.join("journal.jsonl");
    let journal = Journal::open(&journal_path).unwrap();
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
    let reports = run_jobs(
        &jobs,
        &RunOptions {
            workers: 2,
            ..RunOptions::sequential()
        },
        &journal,
    );
    assert!(reports[0].output.is_ok());
    assert!(reports[1].output.is_err());
    assert!(reports[2].output.is_ok());

    let journal = fs::read_to_string(&journal_path).unwrap();
    let failed_line = journal
        .lines()
        .find(|l| l.contains("\"ok\":false"))
        .expect("failed job must be journalled");
    assert!(failed_line.contains("fig3-n0-"), "{failed_line}");
    assert!(failed_line.contains("\"error\":"), "{failed_line}");

    let _ = fs::remove_dir_all(&dir);
}
