//! `perf compare A.json B.json`: applies the bounds.
//!
//! One row per (end-to-end metric, workload) present in both documents.
//! A document is what `perf run --out` wrote: one run, or a set of runs.

use std::fmt::Write as _;

use htpb_harness::json::Value;

use crate::spec::Better;
use crate::stats::Summary;

/// How B's value stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Outside the bound, but A's own interquartile spread exceeds the
    /// bound and the two sides' quartile ranges interleave.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for a metric with the given direction and bound.
#[must_use]
pub fn verdict(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    // Positive = worse, as a share of A's value.
    let worse = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    if worse.abs() <= bound {
        return Verdict::Unchanged;
    }
    let interleave = a.q1 <= b.q3 && b.q1 <= a.q3;
    if a.spread() > bound && interleave {
        Verdict::Unresolved
    } else if worse > 0.0 {
        Verdict::Regressed
    } else {
        Verdict::Improved
    }
}

/// The runs of a document: itself, or the members of a set.
fn runs(doc: &Value) -> Vec<&Value> {
    match doc.get("runs").and_then(Value::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

fn summary(metric: &Value) -> Option<Summary> {
    Some(Summary {
        value: metric.get("value")?.as_f64()?,
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_i64()? as usize,
    })
}

fn fail_ratio(run: &Value) -> f64 {
    run.get("fail_ratio").and_then(Value::as_f64).unwrap_or(0.0)
}

/// The comparison table and whether it passes: no `regressed` row and no
/// higher `fail_ratio`. `Err` when the documents share no run.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut ok = true;
    let mut rows = 0;
    let _ = writeln!(
        out,
        "{:<22} {:<12} {:>14} {:>14} {:>8} {:>6}  {:<10} A q1..q3 | B q1..q3",
        "workload", "metric", "A value", "B value", "B/A", "bound", "verdict"
    );
    for run_a in runs(a) {
        let name = run_a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let trace = run_a.get("trace");
        let Some(run_b) = runs(b).into_iter().find(|r| {
            r.get("workload").and_then(Value::as_str) == Some(name) && r.get("trace") == trace
        }) else {
            continue;
        };
        let Some(Value::Obj(metrics_a)) = run_a.get("metrics") else {
            continue;
        };
        let mut counts_differ = Vec::new();
        for (metric, entry_a) in metrics_a {
            let Some(entry_b) = run_b.get("metrics").and_then(|m| m.get(metric)) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (summary(entry_a), summary(entry_b)) else {
                continue;
            };
            let unit = entry_a.get("unit").and_then(Value::as_str).unwrap_or("");
            // Counts are exact: they must repeat bit for bit.
            if unit == "count" && sa.value != sb.value {
                counts_differ.push(metric.as_str());
            }
            let (Some(bound), Some(better)) = (
                entry_a.get("bound").and_then(Value::as_f64),
                entry_a
                    .get("better")
                    .and_then(Value::as_str)
                    .and_then(Better::parse),
            ) else {
                continue;
            };
            let v = verdict(better, bound, &sa, &sb);
            ok &= v != Verdict::Regressed;
            rows += 1;
            let _ = writeln!(
                out,
                "{:<22} {:<12} {:>14.6} {:>14.6} {:>8.4} {:>5.0}%  {:<10} {:.6}..{:.6} | {:.6}..{:.6} {}",
                name,
                metric,
                sa.value,
                sb.value,
                sb.value / sa.value,
                bound * 100.0,
                v.as_str(),
                sa.q1,
                sa.q3,
                sb.q1,
                sb.q3,
                unit
            );
        }
        let (fa, fb) = (fail_ratio(run_a), fail_ratio(run_b));
        let digests = run_a.get("sim_digest") == run_b.get("sim_digest");
        let _ = writeln!(
            out,
            "{:<22} fail_ratio {fa} -> {fb}{}; sim_digest {}; counts {}",
            name,
            if fb > fa { " HIGHER" } else { "" },
            if digests { "identical" } else { "differs" },
            if counts_differ.is_empty() {
                "identical".to_string()
            } else {
                format!("differ: {}", counts_differ.join(" "))
            }
        );
        ok &= fb <= fa;
        rows += 1;
    }
    if rows == 0 {
        return Err("the two documents share no workload".into());
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            value: median,
            median,
            q1,
            q3,
            n: 9,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = s(0.99, 1.0, 1.01);
        assert_eq!(
            verdict(Better::Lower, 0.1, &a, &s(1.04, 1.05, 1.06)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, &a, &s(1.19, 1.2, 1.21)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Lower, 0.1, &a, &s(0.79, 0.8, 0.81)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(Better::Higher, 0.1, &a, &s(0.79, 0.8, 0.81)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(Better::Higher, 0.1, &a, &s(1.19, 1.2, 1.21)),
            Verdict::Improved
        );
        // A noisy base whose quartile range reaches into B's: not decidable.
        let noisy = s(0.9, 1.0, 1.25);
        assert_eq!(
            verdict(Better::Lower, 0.1, &noisy, &s(1.1, 1.2, 1.3)),
            Verdict::Unresolved
        );
        // The same noise, but the sides do not interleave.
        assert_eq!(
            verdict(Better::Lower, 0.1, &noisy, &s(1.4, 1.5, 1.6)),
            Verdict::Regressed
        );
    }

    fn doc(wall: f64, failed: f64) -> Value {
        Value::obj(vec![
            ("workload", Value::Str("w".into())),
            ("trace", Value::Bool(false)),
            ("fail_ratio", Value::Num(failed)),
            ("sim_digest", Value::Str("00".into())),
            (
                "metrics",
                Value::obj(vec![(
                    "wall_s",
                    Value::obj(vec![
                        ("value", Value::Num(wall)),
                        ("unit", Value::Str("s".into())),
                        ("better", Value::Str("lower".into())),
                        ("bound", Value::Num(0.1)),
                        ("median", Value::Num(wall)),
                        ("q1", Value::Num(wall * 0.99)),
                        ("q3", Value::Num(wall * 1.01)),
                        ("n", Value::Int(9)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_fails_on_regression_or_more_failures() {
        let set = |d: Value| Value::obj(vec![("runs", Value::Arr(vec![d]))]);
        assert!(compare(&doc(1.0, 0.0), &doc(1.05, 0.0)).unwrap().1);
        assert!(!compare(&doc(1.0, 0.0), &doc(1.3, 0.0)).unwrap().1);
        assert!(!compare(&doc(1.0, 0.0), &doc(1.0, 0.1)).unwrap().1);
        // A set on one side, a single run on the other.
        let (table, ok) = compare(&set(doc(1.0, 0.0)), &doc(0.7, 0.0)).unwrap();
        assert!(ok && table.contains("improved"), "{table}");
        let other = Value::obj(vec![("workload", Value::Str("x".into()))]);
        assert!(compare(&doc(1.0, 0.0), &other).is_err());
    }
}
