//! The benchmark's command line.
//!
//! ```text
//! perf run   [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out FILE]
//! perf trace [--workload W] ...        the same with --trace 1
//! perf compare A.json B.json           apply the bounds; exit 1 on a regression
//! ```
//!
//! `run` prints every metric by name with unit, direction and bound,
//! checks the outputs, writes the full document to `--out` and prints the
//! driver's result object as the last line of stdout. Without
//! `--workload` it runs every workload, each in a process of its own, and
//! `--out` gets the set.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use htpb_harness::json::{self, Value};
use htpb_harness::{commit_file, StdFs};
use htpb_perf::compare::compare;
use htpb_perf::run::{run_workload, RunArgs};
use htpb_perf::spec::{self, WORKLOADS};
use htpb_perf::tmp::TempRoot;

const USAGE: &str = "usage: perf run|trace [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1] [--smoke] [--out FILE] | perf compare A.json B.json";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(trace: bool, args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: bad number `{v}`"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if let Some(w) = &cli.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(" ")
            ));
        }
    }
    Ok(cli)
}

fn write_doc(path: &Path, doc: &Value) -> Result<(), String> {
    commit_file(&StdFs, path, (doc.render() + "\n").as_bytes())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_doc(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// One workload in this process.
fn run_one(cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        trace: cli.trace,
    };
    let doc = run_workload(&args).map_err(|e| format!("{workload}: {e}"))?;
    if let Some(out) = &cli.out {
        write_doc(out, &doc.to_json())?;
    }
    print!("{}", doc.table());
    println!("{}", doc.contract_line());
    Ok(doc.correct())
}

/// Every workload, one child process each, nothing concurrent.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let mut tmp = TempRoot::new().map_err(|e| format!("scratch directory: {e}"))?;
    let dir = tmp
        .fresh("set")
        .map_err(|e| format!("scratch directory: {e}"))?;
    let mut runs = Vec::new();
    for w in WORKLOADS {
        let out = dir.join(format!("{}.json", w.name));
        let mut child = Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", w.name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out);
        if cli.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("{}: {status}", w.name));
        }
        runs.push(read_doc(&out)?);
    }
    let sum = |key: &str| -> i64 {
        runs.iter()
            .filter_map(|r| r.get(key).and_then(Value::as_i64))
            .sum()
    };
    let (attempted, failed) = (sum("attempted"), sum("failed"));
    if let Some(out) = &cli.out {
        let set = Value::obj(vec![
            ("bench", Value::Str("htpb-perf".into())),
            ("runs", Value::Arr(runs)),
        ]);
        write_doc(out, &set)?;
    }
    println!(
        "{}",
        Value::obj(vec![
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::Int(attempted)),
            ("failed", Value::Int(failed)),
            ("workloads", Value::Int(WORKLOADS.len() as i64)),
        ])
        .render()
    );
    Ok(failed == 0)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" => {
            let cli = parse(cmd == "trace", rest)?;
            match &cli.workload {
                Some(w) => run_one(&cli, w),
                None => run_all(&cli),
            }
        }
        Some((cmd, [a, b])) if cmd == "compare" => {
            let (table, ok) = compare(&read_doc(Path::new(a))?, &read_doc(Path::new(b))?)?;
            print!("{table}");
            println!("{}", if ok { "PASS" } else { "FAIL" });
            Ok(ok)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
