//! Harness-side observability: worker-pool metrics and the three
//! exposition paths the `--metrics` flag turns on.
//!
//! Everything the pool measures — job latency, queue depth, cache and
//! baseline hit rates — depends on wall-clock time or scheduling, so
//! every instrument here is [`Class::Timing`]: present in
//! the JSON snapshot embedded in the journal's `run_end` record and in the
//! stderr summary, **excluded from `metrics.prom` by construction**. That
//! exclusion is what keeps the Prometheus artefact byte-deterministic
//! across `--jobs 1` vs `--jobs N` (locked by `tests/obs_exposition.rs`).
//!
//! The handles are registered once in a `OnceLock` and shared by every
//! worker; recording is lock-free and allocation-free (see
//! `crates/obs/tests/alloc_regression.rs`).

use std::sync::{Arc, OnceLock};

use htpb_obs::{global, Class, Counter, Gauge, Histogram, SeriesValue, Snapshot};

use crate::json::Value;

/// Bucket bounds for job wall time in milliseconds: power-of-two up to
/// ~2^14 ms (16s), everything slower in the `+Inf` bucket.
const JOB_MS_BUCKETS: usize = 16;

/// Shared handles to every pool-level instrument.
#[derive(Debug)]
pub struct HarnessMetrics {
    /// Jobs completed (any outcome, cache hits included).
    pub jobs_total: Arc<Counter>,
    /// Jobs that failed (panicked).
    pub failures_total: Arc<Counter>,
    /// Jobs served from the result cache.
    pub cache_hits_total: Arc<Counter>,
    /// Jobs that had to execute (cache miss or no cache).
    pub cache_misses_total: Arc<Counter>,
    /// Jobs whose clean baseline came from the baseline cache.
    pub baseline_hits_total: Arc<Counter>,
    /// Jobs that computed their clean baseline.
    pub baseline_misses_total: Arc<Counter>,
    /// Jobs not yet finished in the currently running pool invocation.
    pub queue_depth: Arc<Gauge>,
    /// Per-job wall time in milliseconds.
    pub job_ms: Arc<Histogram>,
}

/// The process-wide pool instruments, registered on first use.
pub fn harness_metrics() -> &'static HarnessMetrics {
    static METRICS: OnceLock<HarnessMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        HarnessMetrics {
            jobs_total: r.counter("htpb_harness_jobs_total", "Jobs completed", Class::Timing),
            failures_total: r.counter(
                "htpb_harness_job_failures_total",
                "Jobs that failed",
                Class::Timing,
            ),
            cache_hits_total: r.counter(
                "htpb_harness_cache_hits_total",
                "Jobs served from the result cache",
                Class::Timing,
            ),
            cache_misses_total: r.counter(
                "htpb_harness_cache_misses_total",
                "Jobs that executed (result-cache miss)",
                Class::Timing,
            ),
            baseline_hits_total: r.counter(
                "htpb_harness_baseline_hits_total",
                "Jobs whose clean baseline was memoized",
                Class::Timing,
            ),
            baseline_misses_total: r.counter(
                "htpb_harness_baseline_misses_total",
                "Jobs that computed their clean baseline",
                Class::Timing,
            ),
            queue_depth: r.gauge(
                "htpb_harness_queue_depth",
                "Jobs not yet finished in the running pool invocation",
                Class::Timing,
            ),
            job_ms: r.histogram(
                "htpb_harness_job_wall_ms",
                &htpb_obs::pow2_bounds(JOB_MS_BUCKETS),
                "Per-job wall time in milliseconds",
                Class::Timing,
            ),
        }
    })
}

/// The Prometheus text exposition of the global registry:
/// [`Class::Sim`] series only, byte-deterministic across worker counts.
/// This is exactly what `results/metrics.prom` contains.
#[must_use]
pub fn prom_text() -> String {
    global().snapshot().to_prom()
}

/// A registry snapshot (all classes) as the journal [`Value`] embedded in
/// the `run_end` record by [`crate::Campaign`]:
/// `{"series":[{name, labels, class, kind, value | bounds, counts, sum}]}`,
/// in snapshot order. Integer-valued throughout, so it round-trips
/// bit-exactly through the journal.
#[must_use]
pub(crate) fn metrics_json(snapshot: &Snapshot) -> Value {
    let int = |x: u64| Value::Int(x as i64);
    let ints = |xs: &[u64]| Value::Arr(xs.iter().map(|&x| int(x)).collect());
    let series = snapshot.series.iter().map(|s| {
        let labels = s
            .labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())));
        let mut fields = vec![
            ("name", Value::Str(s.name.clone())),
            ("labels", Value::Obj(labels.collect())),
            ("class", Value::Str(s.class.as_str().into())),
            ("kind", Value::Str(s.value.kind().into())),
        ];
        match &s.value {
            SeriesValue::Counter(v) => fields.push(("value", int(*v))),
            SeriesValue::Gauge(v) => fields.push(("value", Value::Int(*v))),
            SeriesValue::Histogram(h) => fields.extend([
                ("bounds", ints(&h.bounds)),
                ("counts", ints(&h.counts)),
                ("sum", int(h.sum)),
            ]),
        }
        Value::obj(fields)
    });
    Value::obj(vec![("series", Value::Arr(series.collect()))])
}

/// The human `--metrics` stderr block.
#[must_use]
pub fn summary_text() -> String {
    global().snapshot().to_summary()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_metrics_are_timing_class_and_never_reach_prom() {
        htpb_obs::set_enabled(true);
        let m = harness_metrics();
        m.jobs_total.inc();
        m.job_ms.observe(12);
        m.queue_depth.set(3);
        let prom = prom_text();
        assert!(
            !prom.contains("htpb_harness_"),
            "Timing-class pool metrics leaked into the Prometheus exposition:\n{prom}"
        );
        let json = metrics_json(&global().snapshot()).render();
        assert!(json.contains("htpb_harness_jobs_total"));
        assert!(summary_text().contains("htpb_harness_jobs_total"));
        htpb_obs::set_enabled(false);
    }

    #[test]
    fn snapshot_json_parses_as_journal_value() {
        let v = metrics_json(&global().snapshot());
        let series = v.get("series").and_then(Value::as_arr).expect("series key");
        for s in series {
            assert!(s.get("name").and_then(Value::as_str).is_some());
            assert!(s.get("class").and_then(Value::as_str).is_some());
        }
    }

    /// `crates/obs/tests/golden_prom.rs`'s sample registry renders to the
    /// exact bytes the journal's `run_end` record has always carried: all
    /// classes, the timing series included, label values sorted
    /// numerically, histograms as raw (non-cumulative) bucket counts.
    #[test]
    fn json_snapshot_is_stable_and_complete() {
        let r = htpb_obs::Registry::new();
        r.counter("htpb_noc_flits_delivered_total", "", Class::Sim)
            .add(12_345);
        for (router, n) in [("10", 7), ("2", 40), ("0", 3)] {
            let labels = [("router", router)];
            r.counter_with(
                "htpb_noc_router_flits_forwarded_total",
                &labels,
                "",
                Class::Sim,
            )
            .add(n);
        }
        r.gauge("htpb_power_budget_mw", "", Class::Sim).set(4_200);
        let h = r.histogram(
            "htpb_noc_packet_latency_cycles",
            &[1, 2, 4, 8],
            "",
            Class::Sim,
        );
        h.observe_n(3, 2);
        h.observe(100);
        r.counter("htpb_harness_retries_total", "", Class::Timing)
            .add(9);
        assert_eq!(
            metrics_json(&r.snapshot()).render(),
            concat!(
                r#"{"series":[{"name":"htpb_harness_retries_total","labels":{},"class":"timing","kind":"counter","value":9},"#,
                r#"{"name":"htpb_noc_flits_delivered_total","labels":{},"class":"sim","kind":"counter","value":12345},"#,
                r#"{"name":"htpb_noc_packet_latency_cycles","labels":{},"class":"sim","kind":"histogram","bounds":[1,2,4,8],"counts":[0,0,2,0,1],"sum":106},"#,
                r#"{"name":"htpb_noc_router_flits_forwarded_total","labels":{"router":"0"},"class":"sim","kind":"counter","value":3},"#,
                r#"{"name":"htpb_noc_router_flits_forwarded_total","labels":{"router":"2"},"class":"sim","kind":"counter","value":40},"#,
                r#"{"name":"htpb_noc_router_flits_forwarded_total","labels":{"router":"10"},"class":"sim","kind":"counter","value":7},"#,
                r#"{"name":"htpb_power_budget_mw","labels":{},"class":"sim","kind":"gauge","value":4200}]}"#,
            )
        );
    }
}
