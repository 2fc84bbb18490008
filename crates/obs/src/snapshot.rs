//! Point-in-time snapshots and the two text expositions.
//!
//! One [`Snapshot`] (sorted by name, then numeric-aware label values) feeds
//! every output format, so they can never disagree about what was
//! measured:
//!
//! * [`Snapshot::to_prom`] — Prometheus text format, **[`Class::Sim`]
//!   series only**, byte-deterministic across worker counts;
//! * [`Snapshot::to_summary`] — the human `--metrics` stderr block.
//!
//! The journal's `run_end` JSON (all classes) is built from
//! [`Snapshot::series`] by the harness, which owns the JSON encoder.

use std::fmt::Write as _;

use crate::histogram::HistogramSnapshot;
use crate::registry::Class;

/// The value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram buckets and sum.
    Histogram(HistogramSnapshot),
}

impl SeriesValue {
    /// Stable kind name used by TYPE lines and the JSON snapshot.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SeriesValue::Counter(_) => "counter",
            SeriesValue::Gauge(_) => "gauge",
            SeriesValue::Histogram(_) => "histogram",
        }
    }
}

/// One series: a metric name, its label pairs, and a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Metric (family) name, e.g. `htpb_noc_flits_delivered_total`.
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// One-line help text.
    pub help: String,
    /// Determinism class.
    pub class: Class,
    /// The observed value.
    pub value: SeriesValue,
}

/// A sorted point-in-time copy of a whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All series, sorted by name then numeric-aware label values.
    pub series: Vec<Series>,
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a Prometheus HELP text (`\` and newline).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders a label set as `{k="v",...}`, with `extra` appended last (used
/// for the histogram `le` label); empty sets render as nothing.
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl Snapshot {
    /// Renders the Prometheus text exposition.
    ///
    /// Grammar (locked by `tests/fixtures/metrics.prom.golden` and
    /// documented in `docs/OBSERVABILITY.md`): per family one `# HELP` and
    /// one `# TYPE` line, then one sample line per series; histograms
    /// expand to cumulative `_bucket{le=...}` lines plus `_sum` and
    /// `_count`. **Only [`Class::Sim`] series are included**, which is what
    /// makes the output byte-deterministic across `--jobs` settings.
    #[must_use]
    pub fn to_prom(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for s in self.series.iter().filter(|s| s.class == Class::Sim) {
            if last_family != Some(s.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", s.name, escape_help(&s.help));
                let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind());
                last_family = Some(s.name.as_str());
            }
            match &s.value {
                SeriesValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, render_labels(&s.labels, None));
                }
                SeriesValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", s.name, render_labels(&s.labels, None));
                }
                SeriesValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, c) in h.counts.iter().enumerate() {
                        cumulative += c;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            s.name,
                            render_labels(&s.labels, Some(("le", &le)))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        render_labels(&s.labels, None),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {cumulative}",
                        s.name,
                        render_labels(&s.labels, None)
                    );
                }
            }
        }
        out
    }

    /// Renders the human `--metrics` stderr block: one line per series,
    /// zero-valued series elided, histograms summarised as count/mean.
    #[must_use]
    pub fn to_summary(&self) -> String {
        let mut out = String::from("-- metrics --\n");
        for s in &self.series {
            let labels = render_labels(&s.labels, None);
            match &s.value {
                SeriesValue::Counter(0) => {}
                SeriesValue::Counter(v) => {
                    let _ = writeln!(out, "  {}{labels} {v}", s.name);
                }
                SeriesValue::Gauge(v) => {
                    let _ = writeln!(out, "  {}{labels} {v}", s.name);
                }
                SeriesValue::Histogram(h) => {
                    let count = h.count();
                    if count == 0 {
                        continue;
                    }
                    let mean = h.sum as f64 / count as f64;
                    let _ = writeln!(out, "  {}{labels} count={count} mean={mean:.2}", s.name);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("b_total", "second", Class::Sim).add(2);
        r.counter("a_total", "first", Class::Sim).add(1);
        r.gauge("t_depth", "timing-only", Class::Timing).set(5);
        r.histogram("h_cycles", &[1, 4], "hist", Class::Sim)
            .observe_n(3, 2);
        r.snapshot()
    }

    #[test]
    fn prom_excludes_timing_series() {
        let prom = sample().to_prom();
        assert!(prom.contains("a_total 1"));
        assert!(prom.contains("b_total 2"));
        assert!(!prom.contains("t_depth"), "timing series leaked:\n{prom}");
    }

    #[test]
    fn prom_histogram_is_cumulative() {
        let prom = sample().to_prom();
        assert!(prom.contains("h_cycles_bucket{le=\"1\"} 0"));
        assert!(prom.contains("h_cycles_bucket{le=\"4\"} 2"));
        assert!(prom.contains("h_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(prom.contains("h_cycles_sum 6"));
        assert!(prom.contains("h_cycles_count 2"));
    }

    #[test]
    fn summary_elides_zero_counters() {
        let r = Registry::new();
        r.counter("quiet_total", "never incremented", Class::Sim);
        r.counter("loud_total", "incremented", Class::Sim).inc();
        let s = r.snapshot().to_summary();
        assert!(s.contains("loud_total 1"));
        assert!(!s.contains("quiet_total"));
    }
}
