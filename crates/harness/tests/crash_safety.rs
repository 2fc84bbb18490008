//! Crash-consistency tests for the harness's durable-write machinery.
//!
//! ALICE-style discipline: every durable artefact of a campaign — result
//! cache entries, baseline entries, journal records, emitted artefacts —
//! must survive an injected filesystem fault (ENOSPC, torn short write,
//! failed rename) at *any* operation index in the **old state or the new
//! state, never a torn one**. Property tests drive [`FaultyFs`] over each
//! write path and arbitrary bytes into the journal's frame reader; a
//! two-process test exercises the baseline-cache store race the commit
//! protocol exists to fix.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use proptest::prelude::*;

use htpb_core::Mix;
use htpb_harness::baseline::report_to_json;
use htpb_harness::hash::fnv1a64;
use htpb_harness::json::{self, Value};
use htpb_harness::{
    commit_file, std_fs, BaselineCache, Campaign, CampaignScale, FaultyFs, Fs, FsFault, JobOutput,
    JobSpec, Journal, ResultCache, RunOptions,
};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htpb-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The alphabet the JSON totality property draws structured inputs from.
const JSON_CHARS: [char; 18] = [
    '[', ']', '{', '}', '"', ':', ',', '\\', 'u', '0', '9', '-', '.', 'e', 't', 'n', ' ', 'é',
];

fn fault_kind(kind: usize, keep: usize) -> FsFault {
    match kind {
        0 => FsFault::Enospc,
        1 => FsFault::ShortWrite { keep },
        _ => FsFault::FailRename,
    }
}

fn faulty(op: u64, fault: FsFault) -> Arc<dyn Fs> {
    Arc::new(FaultyFs::new(std_fs(), vec![(op, fault)]))
}

fn spec() -> JobSpec {
    JobSpec::Fig3Point {
        nodes: 16,
        corner: false,
        ht_count: 2,
        seeds: vec![0],
    }
}

/// No `*.tmp.*` litter may survive a failed commit.
fn tmp_litter(dir: &Path) -> Vec<String> {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect()
}

#[test]
fn commit_file_is_old_or_new_under_every_fault_point() {
    // A commit_file is two mutating ops (temp write, rename); probe both,
    // plus an index past the end (no fault) as a control.
    for op in 0..3u64 {
        for kind in 0..3usize {
            for keep in [0usize, 1, 7] {
                let dir = tmpdir(&format!("commit-{op}-{kind}-{keep}"));
                let target = dir.join("state.json");
                commit_file(std_fs().as_ref(), &target, b"old state").unwrap();
                let fs_in = faulty(op, fault_kind(kind, keep));
                let result = commit_file(fs_in.as_ref(), &target, b"new state");
                let bytes = fs::read(&target).unwrap();
                if result.is_ok() {
                    assert_eq!(bytes, b"new state");
                } else {
                    assert_eq!(bytes, b"old state", "fault {kind}@op{op} tore the target");
                }
                assert_eq!(tmp_litter(&dir), Vec::<String>::new());
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A result-cache store interrupted by any single filesystem fault
    /// leaves the entry loadable as the old output or the new output —
    /// never a torn file, never checksum-valid garbage.
    #[test]
    fn cache_store_is_old_or_new_under_any_fault(
        op in 0u64..6,
        kind in 0usize..3,
        keep in 0usize..96,
    ) {
        let dir = tmpdir(&format!("cache-{op}-{kind}-{keep}"));
        let spec = spec();
        let old = JobOutput::Rate(0.25);
        let new = JobOutput::Rate(0.75);

        let clean = ResultCache::open_with_fs(dir.join("clean"), std_fs()).unwrap();
        clean.store(&spec, &old).unwrap();
        let old_bytes = fs::read(clean.entry_path(&spec)).unwrap();
        clean.store(&spec, &new).unwrap();
        let new_bytes = fs::read(clean.entry_path(&spec)).unwrap();

        let cache_dir = dir.join("cache");
        let seeded = ResultCache::open_with_fs(&cache_dir, std_fs()).unwrap();
        seeded.store(&spec, &old).unwrap();
        let injected = ResultCache::open_with_fs(&cache_dir, faulty(op, fault_kind(kind, keep)));
        if let Ok(cache) = injected {
            let _ = cache.store(&spec, &new);
        }

        let survivor = ResultCache::open_with_fs(&cache_dir, std_fs()).unwrap();
        let entry = fs::read(survivor.entry_path(&spec)).unwrap();
        prop_assert!(
            entry == old_bytes || entry == new_bytes,
            "entry bytes are neither the old nor the new committed state"
        );
        let loaded = survivor.load(&spec);
        prop_assert!(loaded == Some(old) || loaded == Some(new));
        prop_assert_eq!(tmp_litter(&cache_dir), Vec::<String>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A journal append interrupted by any single fault loses at most the
    /// faulted record (plus the one merged into its torn tail); everything
    /// else replays, in order, and the file never becomes unreadable.
    #[test]
    fn journal_append_is_prefix_safe_under_any_fault(
        op in 0u64..9,
        kind in 0usize..3,
        keep in 0usize..48,
    ) {
        let dir = tmpdir(&format!("journal-{op}-{kind}-{keep}"));
        let path = dir.join("journal.jsonl");
        let total = 6i64;
        // Op 0 is the open()'s create-touch append; records follow. A
        // fault there fails the open itself — the journal must then be
        // absent or empty, and nothing else is asserted.
        match Journal::open_with_fs(&path, faulty(op, fault_kind(kind, keep))) {
            Ok(journal) => {
                for i in 0..total {
                    journal.record("probe", vec![("i", Value::Int(i))]);
                }
            }
            Err(_) => {
                let (events, corrupt) =
                    Journal::read_events_stats(&path).unwrap_or((Vec::new(), 0));
                prop_assert_eq!(corrupt, 0);
                prop_assert!(events.is_empty());
                let _ = fs::remove_dir_all(&dir);
                return Ok(());
            }
        }
        let (events, corrupt) = Journal::read_events_stats(&path).unwrap_or((Vec::new(), 0));
        prop_assert!(corrupt <= 1, "one fault tore {corrupt} records");
        let probes: Vec<i64> = events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("probe"))
            .filter_map(|e| e.get("i").and_then(Value::as_i64))
            .collect();
        prop_assert!(probes.len() as i64 >= total - 2);
        prop_assert!(probes.windows(2).all(|w| w[0] < w[1]), "replay out of order");
        let _ = fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The frame reader is total: arbitrary bytes (with and without the
    /// frame prefix) read back as a record or as `None`, never a panic.
    #[test]
    fn journal_parse_line_is_total_on_arbitrary_bytes(
        framed in any::<bool>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut line = if framed { b"v2|".to_vec() } else { Vec::new() };
        line.extend(bytes);
        let _ = Journal::parse_line(&String::from_utf8_lossy(&line));
    }

    /// The JSON parser behind cache entries and journal records is total:
    /// arbitrary text — raw bytes, or strings over JSON's own punctuation —
    /// parses to a value or an error, never a panic.
    #[test]
    fn json_parse_is_total_on_arbitrary_strings(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        picks in proptest::collection::vec(0usize..JSON_CHARS.len(), 0..256),
    ) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
        let _ = json::parse(&picks.iter().map(|&i| JSON_CHARS[i]).collect::<String>());
    }

    /// Any single-byte edit of a framed record — prefix, length, checksum,
    /// separators or payload — is detected: the record reads as corrupt.
    #[test]
    fn any_single_byte_edit_of_a_framed_record_is_detected(
        id in proptest::collection::vec(0x20u8..0x7f, 0..24),
        secs in 0u32..100_000,
        at in 0usize..4096,
        byte in any::<u8>(),
    ) {
        let payload = Value::obj(vec![
            ("event", Value::Str("job_done".into())),
            ("id", Value::Str(String::from_utf8(id).unwrap())),
            ("secs", Value::Num(f64::from(secs) / 8.0)),
        ])
        .render();
        let line = format!("v2|{}|{:016x}|{payload}", payload.len(), fnv1a64(payload.as_bytes()));
        prop_assert_eq!(
            Journal::parse_line(&line).and_then(|v| v.get("secs").and_then(Value::as_f64)),
            Some(f64::from(secs) / 8.0)
        );
        let mut edited = line.into_bytes();
        let at = at % edited.len();
        prop_assume!(edited[at] != byte);
        edited[at] = byte;
        prop_assert_eq!(Journal::parse_line(&String::from_utf8_lossy(&edited)), None);
    }
}

#[test]
fn artefact_emission_is_old_or_new_under_every_fault_point() {
    // Campaign::start performs the journal touch + run_start appends
    // (ops 0-1); each emit_artefact is a temp write + rename + an
    // artefact-digest append. Sweep a fault across all of them.
    for op in 0..8u64 {
        for kind in 0..3usize {
            let dir = tmpdir(&format!("emit-{op}-{kind}"));
            let opts = RunOptions::sequential();
            let started = Campaign::start(
                "chaos_emit",
                &dir,
                &[],
                &opts,
                faulty(op, fault_kind(kind, 3)),
                vec![],
            );
            if let Ok(campaign) = started {
                let _ = campaign.emit_artefact("series.tsv", b"x\ty\n0\t0.1\n");
                let _ = campaign.emit_artefact("series.tsv", b"x\ty\n0\t0.2\n");
                campaign.finish(true, vec![]);
            }
            match fs::read(dir.join("series.tsv")) {
                Ok(bytes) => assert!(
                    bytes == b"x\ty\n0\t0.1\n" || bytes == b"x\ty\n0\t0.2\n",
                    "fault {kind}@op{op} left a torn artefact: {bytes:?}"
                ),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            }
            let (_, corrupt) =
                Journal::read_events_stats(&dir.join("journal.jsonl")).unwrap_or((Vec::new(), 0));
            assert!(
                corrupt <= 1,
                "fault {kind}@op{op}: {corrupt} corrupt records"
            );
            assert_eq!(tmp_litter(&dir), Vec::<String>::new());
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// `--metrics` makes `metrics.prom` a first-class artefact: a fault at any
/// operation index of [`Campaign::emit_metrics`] — journal touch,
/// `run_start` append, temp write, rename, digest append — leaves the old
/// exposition or the new one on disk, never a torn file.
///
/// The probe counter is this binary's only `Class::Sim` series (the test
/// deliberately leaves the global enable flag off so no simulator absorbs
/// metrics concurrently), which makes both expositions deterministic.
#[test]
fn metrics_prom_commit_is_old_or_new_under_every_fault_point() {
    let probe = htpb_obs::global().counter(
        "htpb_test_crash_probe_total",
        "crash-safety probe",
        htpb_obs::Class::Sim,
    );
    for op in 0..8u64 {
        for kind in 0..3usize {
            let dir = tmpdir(&format!("metrics-{op}-{kind}"));
            let opts = RunOptions::sequential();
            // Epoch 1 commits the "old" exposition on a healthy filesystem.
            let clean =
                Campaign::start("metrics_emit", &dir, &[], &opts, std_fs(), vec![]).unwrap();
            let old = htpb_harness::obs::prom_text();
            clean.emit_metrics().unwrap();
            clean.finish(true, vec![]);
            // Advance the registry so the "new" exposition differs, then
            // re-emit with a fault injected somewhere in the commit path.
            probe.inc();
            let new = htpb_harness::obs::prom_text();
            assert_ne!(old, new, "probe increment must change the exposition");
            if let Ok(campaign) = Campaign::start(
                "metrics_emit",
                &dir,
                &[],
                &opts,
                faulty(op, fault_kind(kind, 9)),
                vec![],
            ) {
                let _ = campaign.emit_metrics();
                campaign.finish(true, vec![]);
            }
            let bytes = fs::read(dir.join("metrics.prom")).unwrap();
            assert!(
                bytes == old.as_bytes() || bytes == new.as_bytes(),
                "fault {kind}@op{op} tore metrics.prom"
            );
            assert_eq!(tmp_litter(&dir), Vec::<String>::new());
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn baseline_store_under_faults_converges_on_retry() {
    let cfg = CampaignScale::Tiny.config(Mix::Mix1);
    let reference = {
        let (report, _) = BaselineCache::in_memory().get_or_compute(&cfg);
        report_to_json(&report).render()
    };
    // The store is one commit_file: temp write (op 0) then rename (op 1).
    for op in 0..2u64 {
        for kind in 0..3usize {
            let dir = tmpdir(&format!("baseline-{op}-{kind}"));
            let injected = BaselineCache::with_dir_fs(&dir, faulty(op, fault_kind(kind, 5)));
            let (report, hit) = injected.get_or_compute(&cfg);
            assert!(!hit, "cold cache must compute");
            assert_eq!(report_to_json(&report).render(), reference);
            // Whatever the fault left on disk, a fresh cache either loads
            // the committed entry or silently recomputes the same report.
            let recovered = BaselineCache::with_dir(&dir);
            let (report, _) = recovered.get_or_compute(&cfg);
            assert_eq!(
                report_to_json(&report).render(),
                reference,
                "fault {kind}@op{op} poisoned the baseline entry"
            );
            assert_eq!(tmp_litter(&dir), Vec::<String>::new());
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Two processes computing and storing the same baseline entry must both
/// succeed and leave a complete, loadable file — the unique-temp-name
/// commit protocol makes the concurrent renames safe (last writer wins
/// with identical bytes). The test re-invokes its own binary as the two
/// racing processes.
#[test]
fn baseline_cache_survives_a_two_process_store_race() {
    const ENV_DIR: &str = "HTPB_BASELINE_RACE_DIR";
    let cfg = CampaignScale::Tiny.config(Mix::Mix1);
    if let Ok(dir) = std::env::var(ENV_DIR) {
        // Child mode: compute + store against the shared directory.
        let cache = BaselineCache::with_dir(&dir);
        let _ = cache.get_or_compute(&cfg);
        return;
    }
    let dir = tmpdir("race");
    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = (0..2)
        .map(|_| {
            Command::new(&exe)
                .args([
                    "--exact",
                    "baseline_cache_survives_a_two_process_store_race",
                    "--test-threads=1",
                ])
                .env(ENV_DIR, &dir)
                .spawn()
                .expect("spawn racing child")
        })
        .collect();
    for mut child in children {
        assert!(child.wait().unwrap().success(), "racing child failed");
    }
    // The racing stores must have left a complete committed entry...
    let cache = BaselineCache::with_dir(&dir);
    let (report, hit) = cache.get_or_compute(&cfg);
    assert!(hit, "the raced entry must load from disk");
    // ...with the canonical deterministic content.
    let (expected, _) = BaselineCache::in_memory().get_or_compute(&cfg);
    assert_eq!(
        report_to_json(&report).render(),
        report_to_json(&expected).render()
    );
    assert_eq!(tmp_litter(&dir), Vec::<String>::new());
    let _ = fs::remove_dir_all(&dir);
}

/// The durable-write choke point, enforced by the real analyzer instead of
/// a substring grep: outside `fs.rs`, no production code in this crate may
/// call the raw creating/renaming std APIs — everything routes through
/// `commit_file()`/`commit_append()`. The token-level engine ignores
/// strings, comments and `#[cfg(test)]` modules, so the old grep's
/// false-positive/false-negative classes (names in doc comments, patterns
/// split across lines) are gone. The workspace-wide sweep lives in
/// `crates/lint/tests/workspace_clean.rs`; this test pins the contract
/// where the crash-safety machinery is defined.
#[test]
fn choke_point_enforced() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = htpb_lint::analyze_workspace(&root).expect("scan workspace");
    let breaches: Vec<String> = report
        .violations
        .iter()
        .filter(|v| v.rule == "fs/choke-point" && v.file.starts_with("crates/harness/"))
        .map(htpb_lint::Violation::render)
        .collect();
    assert!(
        breaches.is_empty(),
        "raw durable-write APIs outside fs.rs:\n{}",
        breaches.join("\n")
    );
    // The choke point itself must have been scanned (and exempted), or the
    // rule is not actually guarding anything.
    assert!(
        report.files_scanned > 0
            && std::fs::metadata(root.join("crates/harness/src/fs.rs")).is_ok(),
        "walker missed the choke-point file"
    );
}
