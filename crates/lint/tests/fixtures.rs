//! Drives the fixture corpus under `tests/fixtures/` through the engine:
//! every rule in the catalog must fire on its `_fire` fixture and stay
//! quiet on its `_clean` twin. [`CASES`] is the one table of fixtures,
//! rules and paths: the per-source tests hand each fixture to
//! `analyze_source` with a context built here, and
//! `fixture_trees_through_the_workspace_walker` writes the same pairs into
//! scratch trees so `analyze_workspace`'s walker and path classification
//! are exercised too.

use std::path::Path;

use htpb_lint::{analyze_source, analyze_workspace, FileCtx, RULES};

fn ctx(path: &'static str, in_test_dir: bool) -> FileCtx<'static> {
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
        .unwrap_or("core");
    FileCtx {
        path,
        crate_name,
        in_test_dir,
        is_crate_root: path.ends_with("src/lib.rs")
            || path.ends_with("src/main.rs")
            || path.contains("/src/bin/"),
    }
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()))
}

/// (fire fixture, clean fixture, rule id, context path the rule scopes to).
const CASES: &[(&str, &str, &str, &str)] = &[
    (
        "std_hash_fire.rs",
        "std_hash_clean.rs",
        "determinism/std-hash",
        "crates/noc/src/seeded.rs",
    ),
    (
        "wall_clock_fire.rs",
        "wall_clock_clean.rs",
        "determinism/wall-clock",
        "crates/power/src/seeded.rs",
    ),
    (
        "entropy_fire.rs",
        "entropy_clean.rs",
        "determinism/entropy",
        "crates/manycore/src/seeded.rs",
    ),
    (
        "hot_alloc_fire.rs",
        "hot_alloc_clean.rs",
        "alloc/hot-loop",
        "crates/trojan/src/seeded.rs",
    ),
    (
        "choke_fire.rs",
        "choke_clean.rs",
        "fs/choke-point",
        "crates/harness/src/emit.rs",
    ),
    (
        "class_explicit_fire.rs",
        "class_explicit_clean.rs",
        "obs/class-explicit",
        "crates/defense/src/seeded.rs",
    ),
    (
        "sim_placement_fire.rs",
        "sim_placement_clean.rs",
        "obs/sim-placement",
        "crates/harness/src/seeded.rs",
    ),
    (
        "panic_fire.rs",
        "panic_clean.rs",
        "panic/recovery-path",
        "crates/harness/src/campaign.rs",
    ),
    (
        "forbid_unsafe_fire.rs",
        "forbid_unsafe_clean.rs",
        "unsafe/forbid-missing",
        "crates/attack/src/lib.rs",
    ),
    (
        "waiver_unjustified_fire.rs",
        "waiver_ok.rs",
        "lint/marker",
        "crates/noc/src/waived.rs",
    ),
];

#[test]
fn every_fire_fixture_fires_its_rule() {
    for (fire, _, rule, path) in CASES {
        let report = analyze_source(&ctx(path, false), &fixture(fire));
        assert!(
            report.violations.iter().any(|v| v.rule == *rule),
            "{fire}: expected [{rule}] to fire, got {:?}",
            report
                .violations
                .iter()
                .map(htpb_lint::Violation::render)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn every_clean_fixture_stays_quiet() {
    for (_, clean, rule, path) in CASES {
        let report = analyze_source(&ctx(path, false), &fixture(clean));
        assert!(
            report.violations.is_empty(),
            "{clean}: expected silence for [{rule}], got {:?}",
            report
                .violations
                .iter()
                .map(htpb_lint::Violation::render)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn fixture_corpus_covers_the_whole_catalog() {
    for info in RULES {
        assert!(
            CASES.iter().any(|(_, _, rule, _)| rule == &info.id),
            "rule [{}] has no fixture pair",
            info.id
        );
    }
}

#[test]
fn lexer_tricky_fixture_is_silent_in_the_strictest_context() {
    // core is a sim crate, so every determinism rule is armed; nothing in
    // the fixture is a real token, so nothing may fire.
    let report = analyze_source(
        &ctx("crates/core/src/seeded.rs", false),
        &fixture("lexer_tricky_clean.rs"),
    );
    assert!(
        report.violations.is_empty(),
        "{:?}",
        report
            .violations
            .iter()
            .map(htpb_lint::Violation::render)
            .collect::<Vec<_>>()
    );
}

#[test]
fn justified_waivers_suppress_and_tally() {
    let report = analyze_source(
        &ctx("crates/noc/src/waived.rs", false),
        &fixture("waiver_ok.rs"),
    );
    assert!(report.violations.is_empty());
    assert_eq!(report.waived.len(), 2, "both HashSet mentions waived");
    assert_eq!(report.waivers.len(), 2);
    for w in &report.waivers {
        assert!(w.justification.contains("contains-only"));
    }
}

#[test]
fn unjustified_waiver_leaves_the_finding_live() {
    let report = analyze_source(
        &ctx("crates/noc/src/waived.rs", false),
        &fixture("waiver_unjustified_fire.rs"),
    );
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"lint/marker"), "{rules:?}");
    assert!(
        rules.contains(&"fs/choke-point"),
        "the underlying finding must stay live: {rules:?}"
    );
}

#[test]
fn fire_fixtures_are_quiet_in_test_context() {
    // Test directories are exempt from the scoped rules (tests corrupt
    // files and use std maps on purpose); only region/marker rules and
    // the crate-root check stay armed.
    for (fire, _, rule, path) in CASES {
        if matches!(
            *rule,
            "lint/marker" | "alloc/hot-loop" | "unsafe/forbid-missing"
        ) {
            continue;
        }
        let report = analyze_source(&ctx(path, true), &fixture(fire));
        let scoped: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == *rule)
            .collect();
        assert!(
            scoped.is_empty(),
            "{fire}: [{rule}] must not fire in test context"
        );
    }
}

/// Writes `files` (workspace path, fixture name) under `root` and scans it
/// with the workspace walker, which classifies each file from its path.
fn scan_tree(root: &Path, files: &[(&str, &str)]) -> htpb_lint::Report {
    let _ = std::fs::remove_dir_all(root);
    for (path, name) in files {
        let dest = root.join(path);
        std::fs::create_dir_all(dest.parent().expect("fixture path has a parent"))
            .expect("create scratch dir");
        std::fs::write(&dest, fixture(name)).expect("write scratch fixture");
    }
    let report = analyze_workspace(root).expect("scan scratch tree");
    assert_eq!(report.files_scanned, files.len());
    report
}

#[test]
fn fixture_trees_through_the_workspace_walker() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("htpb-lint-fixture-trees");

    // Every seeded violation fires at its own path, so every rule fires.
    let dirty: Vec<(&str, &str)> = CASES
        .iter()
        .map(|(fire, _, _, path)| (*path, *fire))
        .collect();
    let report = scan_tree(&scratch.join("dirty"), &dirty);
    for (fire, _, rule, path) in CASES {
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == *rule && v.file == *path),
            "{fire} at {path} did not fire [{rule}]"
        );
    }

    // The clean twins, plus the lexer torture file, stay quiet, and the
    // justified waivers are tallied.
    let mut clean: Vec<(&str, &str)> = CASES
        .iter()
        .map(|(_, clean, _, path)| (*path, *clean))
        .collect();
    clean.push(("crates/core/src/lexer_tricky.rs", "lexer_tricky_clean.rs"));
    let report = scan_tree(&scratch.join("clean"), &clean);
    assert!(
        report.violations.is_empty(),
        "{:?}",
        report
            .violations
            .iter()
            .map(htpb_lint::Violation::render)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.waivers.len(), 2, "waiver_ok.rs waivers not tallied");

    let _ = std::fs::remove_dir_all(&scratch);
}
