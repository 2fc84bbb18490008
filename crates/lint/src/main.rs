//! The `htpb-lint` binary: the CI gate over [`htpb_lint::analyze_workspace`].
//!
//! ```text
//! htpb-lint [--root PATH] [--check] [--self-check]
//! ```
//!
//! * default — scan the workspace, print violations and the waiver tally,
//!   exit 0 (report mode).
//! * `--check` — same scan, but exit 1 on any violation (unjustified or
//!   unused waivers are violations themselves, so they fail too).
//! * `--self-check` — inject the seeded violation fixtures into a scratch
//!   tree and verify every rule in the catalog fires there and stays
//!   quiet on the clean fixtures; exits 1 on any miss. Run in CI before
//!   `--check` so a silently broken rule can never wave a dirty tree
//!   through.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use htpb_lint::{analyze_workspace, Report, RULES};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut check = false;
    let mut self_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--self-check" => self_check = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("htpb-lint: --root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: htpb-lint [--root PATH] [--check] [--self-check]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("htpb-lint: unknown flag {other}; see --help");
                return ExitCode::FAILURE;
            }
        }
    }

    if self_check && !run_self_check() {
        return ExitCode::FAILURE;
    }
    if self_check && !check {
        return ExitCode::SUCCESS;
    }

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("htpb-lint: scanning {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    print_report(&report);
    if check && !report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_report(report: &Report) {
    for v in &report.violations {
        println!("{}", v.render());
    }
    print!("{}", report.waiver_tally());
    println!(
        "htpb-lint: {} files, {} violations, {} waived findings ({} waivers)",
        report.files_scanned,
        report.violations.len(),
        report.waived.len(),
        report.waivers.len()
    );
}

/// One seeded firing fixture per rule, placed at a path that puts it in
/// the rule's scope, plus the clean twin that must stay quiet. Embedded at
/// compile time so the binary self-tests without needing the source tree.
const FIRING: &[(&str, &str, &str)] = &[
    (
        "crates/noc/src/seeded.rs",
        "determinism/std-hash",
        include_str!("../tests/fixtures/std_hash_fire.rs"),
    ),
    (
        "crates/power/src/seeded.rs",
        "determinism/wall-clock",
        include_str!("../tests/fixtures/wall_clock_fire.rs"),
    ),
    (
        "crates/manycore/src/seeded.rs",
        "determinism/entropy",
        include_str!("../tests/fixtures/entropy_fire.rs"),
    ),
    (
        "crates/trojan/src/seeded.rs",
        "alloc/hot-loop",
        include_str!("../tests/fixtures/hot_alloc_fire.rs"),
    ),
    (
        "crates/harness/src/emit.rs",
        "fs/choke-point",
        include_str!("../tests/fixtures/choke_fire.rs"),
    ),
    (
        "crates/defense/src/seeded.rs",
        "obs/class-explicit",
        include_str!("../tests/fixtures/class_explicit_fire.rs"),
    ),
    (
        "crates/harness/src/seeded.rs",
        "obs/sim-placement",
        include_str!("../tests/fixtures/sim_placement_fire.rs"),
    ),
    (
        "crates/harness/src/campaign.rs",
        "panic/recovery-path",
        include_str!("../tests/fixtures/panic_fire.rs"),
    ),
    (
        "crates/attack/src/lib.rs",
        "unsafe/forbid-missing",
        include_str!("../tests/fixtures/forbid_unsafe_fire.rs"),
    ),
    (
        "crates/noc/src/waived.rs",
        "lint/marker",
        include_str!("../tests/fixtures/waiver_unjustified_fire.rs"),
    ),
];

const CLEAN: &[(&str, &str)] = &[
    (
        "crates/noc/src/a.rs",
        include_str!("../tests/fixtures/std_hash_clean.rs"),
    ),
    (
        "crates/power/src/a.rs",
        include_str!("../tests/fixtures/wall_clock_clean.rs"),
    ),
    (
        "crates/manycore/src/a.rs",
        include_str!("../tests/fixtures/entropy_clean.rs"),
    ),
    (
        "crates/trojan/src/a.rs",
        include_str!("../tests/fixtures/hot_alloc_clean.rs"),
    ),
    (
        "crates/harness/src/emit.rs",
        include_str!("../tests/fixtures/choke_clean.rs"),
    ),
    (
        "crates/defense/src/a.rs",
        include_str!("../tests/fixtures/class_explicit_clean.rs"),
    ),
    (
        "crates/harness/src/a.rs",
        include_str!("../tests/fixtures/sim_placement_clean.rs"),
    ),
    (
        "crates/harness/src/campaign.rs",
        include_str!("../tests/fixtures/panic_clean.rs"),
    ),
    (
        "crates/attack/src/lib.rs",
        include_str!("../tests/fixtures/forbid_unsafe_clean.rs"),
    ),
    (
        "crates/noc/src/waived.rs",
        include_str!("../tests/fixtures/waiver_ok.rs"),
    ),
    (
        "crates/core/src/a.rs",
        include_str!("../tests/fixtures/lexer_tricky_clean.rs"),
    ),
];

/// Builds the seeded scratch tree, asserts every catalog rule fires on its
/// fixture, then asserts the clean twins produce zero violations. The
/// scratch tree is the self-check's working area, not a durable artefact,
/// hence the waived raw filesystem calls.
fn run_self_check() -> bool {
    let scratch = std::env::temp_dir().join(format!("htpb-lint-selfcheck-{}", std::process::id()));
    let mut ok = true;

    // Phase 1: seeded violations must all fire.
    let dirty = scratch.join("dirty");
    for (path, _, content) in FIRING {
        if let Err(e) = write_fixture(&dirty.join(path), content) {
            eprintln!("self-check: writing {path}: {e}");
            return false;
        }
    }
    match analyze_workspace(&dirty) {
        Ok(report) => {
            for (path, rule, _) in FIRING {
                let hit = report
                    .violations
                    .iter()
                    .any(|v| v.rule == *rule && v.file == *path);
                if !hit {
                    eprintln!("self-check: seeded violation at {path} did not fire [{rule}]");
                    ok = false;
                }
            }
            // Catalog coverage: every rule must have fired somewhere.
            for info in RULES {
                if !report.violations.iter().any(|v| v.rule == info.id) {
                    eprintln!("self-check: rule [{}] has no firing fixture", info.id);
                    ok = false;
                }
            }
        }
        Err(e) => {
            eprintln!("self-check: scanning dirty tree: {e}");
            ok = false;
        }
    }

    // Phase 2: the clean twins must stay quiet.
    let clean = scratch.join("clean");
    for (path, content) in CLEAN {
        if let Err(e) = write_fixture(&clean.join(path), content) {
            eprintln!("self-check: writing {path}: {e}");
            return false;
        }
    }
    match analyze_workspace(&clean) {
        Ok(report) => {
            for v in &report.violations {
                eprintln!("self-check: clean fixture fired: {}", v.render());
                ok = false;
            }
            if report.waivers.is_empty() {
                eprintln!("self-check: waiver fixture was not tallied");
                ok = false;
            }
        }
        Err(e) => {
            eprintln!("self-check: scanning clean tree: {e}");
            ok = false;
        }
    }

    let _ = std::fs::remove_dir_all(&scratch);
    if ok {
        println!(
            "htpb-lint: self-check PASS ({} rules verified)",
            RULES.len()
        );
    }
    ok
}

fn write_fixture(path: &Path, content: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    // htpb-lint: allow(fs/choke-point) -- self-check scratch fixture, deleted before exit; not a durable artefact
    std::fs::write(path, content)
}
