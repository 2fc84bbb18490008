//! `htpb-lint` — a workspace-wide static invariant analyzer.
//!
//! Every quantitative claim in this reproduction rests on source-level
//! invariants: sim crates must be deterministic (no SipHash maps, wall
//! clocks or entropy), the NoC hot loop must not allocate, every durable
//! write must go through the `crates/harness/src/fs.rs` choke point,
//! observability series must carry an explicit determinism class, and the
//! crash-recovery paths must not panic. This crate enforces all of them
//! mechanically on every PR — see `docs/LINTS.md` for the rule catalog,
//! rationale and waiver grammar.
//!
//! The analyzer is fully self-contained (hand-rolled lexer, no
//! dependencies; the workspace builds offline) and exposes a library API
//! so tests elsewhere — e.g. the harness crash-safety suite — can call
//! the *same* engine instead of keeping a private grep:
//!
//! ```no_run
//! let report = htpb_lint::analyze_workspace(std::path::Path::new(".")).unwrap();
//! assert!(report.violations.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
mod rules;

use std::io;
use std::path::{Path, PathBuf};

pub use rules::{analyze_source, rule, FileCtx, FileReport, RuleInfo, Violation, Waiver, RULES};

/// The aggregate result of analyzing a workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Live violations across all files, in path order.
    pub violations: Vec<Violation>,
    /// Violations suppressed by justified waivers (the tally).
    pub waived: Vec<Violation>,
    /// Every justified waiver found.
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean: no live violations (waived findings
    /// and their justified waivers are fine — that is what waivers are
    /// for; *unjustified* waivers surface as `lint/marker` violations and
    /// therefore fail this predicate).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The waiver tally, one line per waiver, grouped by rule — printed by
    /// the CI gate so every standing exception stays visible in the log.
    #[must_use]
    pub fn waiver_tally(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("waivers: {}\n", self.waivers.len()));
        for info in RULES {
            let of_rule: Vec<&Waiver> = self
                .waivers
                .iter()
                .filter(|w| w.rules.iter().any(|r| r == info.id))
                .collect();
            if of_rule.is_empty() {
                continue;
            }
            out.push_str(&format!("  {} ({}):\n", info.id, of_rule.len()));
            for w in of_rule {
                out.push_str(&format!(
                    "    {}:{} -- {}\n",
                    w.file, w.line, w.justification
                ));
            }
        }
        out
    }
}

/// Analyzes every Rust source in the workspace rooted at `root`: all of
/// `crates/*/`, plus the top-level `tests/` and `examples/` trees (which
/// belong to `htpb-core` targets). `vendor/` is out of scope — it holds
/// API stand-ins for external crates, not this project's invariants — and
/// so is the lint fixture corpus (`crates/lint/tests/fixtures/`), which
/// exists precisely to contain violations.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} has no crates/ directory", root.display()),
        ));
    }
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&crates_dir, &mut files)?;
    for top in ["tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let ctx = classify(&rel);
        let file_report = analyze_source(&ctx, &src);
        report.violations.extend(file_report.violations);
        report.waived.extend(file_report.waived);
        report.waivers.extend(file_report.waivers);
        report.files_scanned += 1;
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Derives the analysis context from a workspace-relative path.
#[must_use]
pub(crate) fn classify(rel: &str) -> FileCtx<'_> {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1]
    } else {
        // Top-level tests/ and examples/ compile as htpb-core targets.
        "core"
    };
    let in_test_dir = parts.first() == Some(&"tests")
        || parts.first() == Some(&"examples")
        || parts
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples"));
    let is_crate_root = rel.ends_with("src/lib.rs")
        || rel.ends_with("src/main.rs")
        || (rel.contains("/src/bin/") && rel.ends_with(".rs"));
    FileCtx {
        path: rel_leak(rel),
        crate_name: rel_leak(crate_name),
        in_test_dir,
        is_crate_root,
    }
}

/// `FileCtx` borrows `&str`s; when classifying owned paths from the
/// walker the tiny per-file strings are simply leaked (the process is a
/// short-lived analyzer — bounded by the number of files it scans).
fn rel_leak(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}

/// Recursively collects `.rs` files, skipping fixture corpora and build
/// output.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "fixtures" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_contexts() {
        let c = classify("crates/noc/src/network.rs");
        assert_eq!(c.crate_name, "noc");
        assert!(!c.in_test_dir);
        assert!(!c.is_crate_root);

        let c = classify("crates/harness/tests/crash_safety.rs");
        assert!(c.in_test_dir);

        let c = classify("crates/harness/src/bin/repro_all.rs");
        assert_eq!(c.crate_name, "harness");
        assert!(c.is_crate_root);
        assert!(!c.in_test_dir);

        let c = classify("tests/integration_noc.rs");
        assert_eq!(c.crate_name, "core");
        assert!(c.in_test_dir);

        let c = classify("crates/lint/src/lib.rs");
        assert!(c.is_crate_root);
    }

    #[test]
    fn waiver_tally_groups_by_rule() {
        let mut report = Report::default();
        report.waivers.push(Waiver {
            file: "crates/x/src/a.rs".into(),
            line: 3,
            target_line: 3,
            rules: vec!["fs/choke-point".into()],
            justification: "child stdio log".into(),
        });
        let tally = report.waiver_tally();
        assert!(tally.contains("waivers: 1"));
        assert!(tally.contains("fs/choke-point (1):"));
        assert!(tally.contains("crates/x/src/a.rs:3 -- child stdio log"));
    }
}
