//! The `htpb-lint` binary: the CI gate over [`htpb_lint::analyze_workspace`].
//!
//! ```text
//! htpb-lint [--root PATH] [--check]
//! ```
//!
//! * default — scan the workspace, print violations and the waiver tally,
//!   exit 0 (report mode).
//! * `--check` — same scan, but exit 1 on any violation (unjustified or
//!   unused waivers are violations themselves, so they fail too).
//!
//! That every rule still fires is checked by `tests/fixtures.rs`, which
//! also runs the fixture corpus through [`analyze_workspace`] in a scratch
//! tree.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use htpb_lint::{analyze_workspace, Report};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("htpb-lint: --root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: htpb-lint [--root PATH] [--check]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("htpb-lint: unknown flag {other}; see --help");
                return ExitCode::FAILURE;
            }
        }
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
