//! Runs the benchmark end to end at smoke scale and holds it to
//! `BENCHMARK.json`: every workload and metric listed there is emitted,
//! nothing else is, and the traced per-layer table sums to its wall.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use htpb_harness::json::{self, Value};
use htpb_perf::spec::{self, MetricDef};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `perf` from the workspace root; returns (success, stdout).
fn perf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("perf starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

/// Where this test's documents go: cargo's per-target scratch directory.
fn out_path(name: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("scratch directory");
    dir.join(name).to_string_lossy().into_owned()
}

fn names(defs: &[MetricDef]) -> BTreeSet<String> {
    defs.iter().map(|d| d.name.clone()).collect()
}

fn keys(obj: &Value) -> BTreeSet<String> {
    match obj {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let bench = read_json(&root().join("BENCHMARK.json"));
    assert_eq!(
        keys(&bench),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
        .map(String::from)
        .into()
    );
    assert_eq!(
        bench.get("paths"),
        Some(&Value::Arr(vec![Value::Str("crates/perf".into())]))
    );

    let listed: Vec<(&str, &str)> = bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Value::as_str).expect("name"),
                w.get("why").and_then(Value::as_str).expect("why"),
            )
        })
        .collect();
    let catalogue: Vec<(&str, &str)> = spec::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, catalogue);

    for (key, defs) in [
        ("end_to_end", spec::end_to_end()),
        ("per_layer", spec::per_layer()),
    ] {
        let listed = bench.get(key).and_then(Value::as_arr).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(&defs) {
            assert!(well_formed(&def.name), "{}", def.name);
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(&*def.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
    assert!(spec::end_to_end().len() <= 16 && spec::per_layer().len() <= 128);
}

/// Checks one run document and the driver's result line against the
/// catalogue; returns the document's `sim_digest`.
fn check_run(doc: &Value, expected: &[MetricDef], may_be_zero: impl Fn(&str) -> bool) -> String {
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .expect("workload");
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{workload}");
    assert_eq!(
        doc.get("failed").and_then(Value::as_i64),
        Some(0),
        "{workload}"
    );
    assert_eq!(
        doc.get("fail_ratio").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        doc.get("attempted")
            .and_then(Value::as_i64)
            .expect("attempted")
            >= 1
    );
    let metrics = doc.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), names(expected), "{workload}");
    for def in expected {
        let value = metrics
            .get(&def.name)
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{workload}: {} has no finite value", def.name));
        assert!(value.is_finite(), "{workload}: {} = {value}", def.name);
        if !may_be_zero(&def.name) {
            assert!(value > 0.0, "{workload}: {} = {value}", def.name);
        }
    }
    doc.get("sim_digest")
        .and_then(Value::as_str)
        .expect("sim_digest")
        .to_string()
}

/// The driver's result line: exactly four keys, every metric with a value
/// and a unit.
fn check_contract_line(stdout: &str, expected: &[MetricDef]) {
    let line = json::parse(stdout.trim_end().lines().last().expect("a last line")).expect("JSON");
    assert_eq!(
        keys(&line),
        ["attempted", "correct", "failed", "metrics"]
            .map(String::from)
            .into()
    );
    let metrics = line.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), names(expected));
    for def in expected {
        let m = metrics.get(&def.name).expect("listed");
        assert_eq!(keys(m), ["unit", "value"].map(String::from).into());
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
    }
}

fn runs(set: &Value) -> &[Value] {
    let runs = set
        .get("runs")
        .and_then(Value::as_arr)
        .expect("a set of runs");
    let listed: Vec<&str> = runs
        .iter()
        .map(|r| r.get("workload").and_then(Value::as_str).expect("workload"))
        .collect();
    let catalogue: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, catalogue, "every workload, nothing else");
    runs
}

#[test]
fn timed_smoke_emits_the_end_to_end_metrics_and_digests_follow_the_seed() {
    let e2e = spec::end_to_end();
    let set = out_path("timed.json");
    let (ok, _) = perf(&["run", "--smoke", "--seed", "1", "--out", &set]);
    assert!(ok, "perf run --smoke");
    let first: Vec<String> = runs(&read_json(Path::new(&set)))
        .iter()
        .map(|doc| check_run(doc, &e2e, |_| false))
        .collect();

    // One workload prints the driver's line last, and its digest follows
    // the seed: two runs of one seed agree, another seed differs. (The
    // campaigns' outputs do not depend on the seed, which only moves the
    // memory traffic; the reproduction plan fixes its seeds.)
    for (i, w) in spec::WORKLOADS.iter().enumerate() {
        if !["infection512", "harness_cold", "harness_warm"].contains(&w.name) {
            continue;
        }
        let digest = |seed: &str| {
            let out = out_path(&format!("timed-{}-{seed}.json", w.name));
            let (ok, stdout) = perf(&[
                "run",
                "--workload",
                w.name,
                "--smoke",
                "--trace",
                "0",
                "--seed",
                seed,
                "--out",
                &out,
            ]);
            assert!(ok, "{} --seed {seed}", w.name);
            check_contract_line(&stdout, &e2e);
            check_run(&read_json(Path::new(&out)), &e2e, |_| false)
        };
        assert_eq!(digest("1"), first[i], "{}: one seed, one digest", w.name);
        assert_ne!(
            digest("2"),
            first[i],
            "{}: another seed, other inputs",
            w.name
        );
    }

    // A set compared with itself is unchanged everywhere.
    let (ok, table) = perf(&["compare", &set, &set]);
    assert!(
        ok && table.contains("unchanged") && table.ends_with("PASS\n"),
        "{table}"
    );
    assert!(
        !table.contains("regressed") && !table.contains("differ"),
        "{table}"
    );
}

#[test]
fn traced_smoke_emits_the_per_layer_metrics_and_its_table_sums_to_the_wall() {
    let per_layer = spec::per_layer();
    let out = out_path("traced.json");
    let (ok, _) = perf(&["trace", "--smoke", "--out", &out]);
    assert!(ok, "perf trace --smoke");
    for doc in runs(&read_json(Path::new(&out))) {
        // A layer without a span in this workload has no self time, and
        // the residual is a difference of two timings.
        check_run(doc, &per_layer, |name| {
            name.starts_with("trace.self_s.") || name == "trace.residual_s"
        });
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .expect("workload");
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("trace.wall_s"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("trace.wall_s");
        let layers = doc.get("layers").and_then(Value::as_arr).expect("layers");
        let own: f64 = layers
            .iter()
            .map(|r| r.get("self_s").and_then(Value::as_f64).expect("self_s"))
            .sum();
        assert!(
            (own - wall).abs() <= 0.01 * wall,
            "{workload}: {own} vs {wall}"
        );
        assert_eq!(
            doc.get("top_layer"),
            layers[0].get("layer"),
            "{workload}: the top layer is named"
        );
        let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
        assert!(spans.len() > 1, "{workload}");
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
    }

    let (ok, stdout) = perf(&[
        "run",
        "--workload",
        "campaign256",
        "--smoke",
        "--trace",
        "1",
    ]);
    assert!(ok);
    check_contract_line(&stdout, &per_layer);
}

#[test]
fn bad_usage_exits_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let (ok, stdout) = perf(args);
        assert!(!ok && stdout.is_empty(), "{args:?}: {stdout}");
    }
}
