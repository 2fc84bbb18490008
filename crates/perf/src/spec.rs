//! The catalogue: every workload and every metric the benchmark emits,
//! with unit, direction and bound. `BENCHMARK.json` repeats this list for
//! the driver; `tests/smoke.rs` holds the two equal.

use htpb_power::AllocatorKind;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`Better::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the base median by which the metric
    /// may worsen before it is a regression.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// One workload: name, the reason it exists, and what `work_per_s` counts
/// on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name.
    pub name: &'static str,
    /// One line: why it was chosen.
    pub why: &'static str,
    /// The unit of work behind `work_per_s`.
    pub work_unit: &'static str,
}

/// The six workloads.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "repro_quick",
        why: "run_repro(Quick), cache off: all 16 artefacts a user waits for, every layer in its real proportion",
        work_unit: "jobs",
    },
    WorkloadDef {
        name: "campaign256",
        why: "run_campaign on the 16x16 paper chip: manycore+noc+trojan do all the work, harness bypassed",
        work_unit: "simulated system cycles",
    },
    WorkloadDef {
        name: "campaign256_detailed",
        why: "same chip with detailed_caches: tick_detailed, directory traffic, MSHR-limited injection",
        work_unit: "simulated system cycles",
    },
    WorkloadDef {
        name: "infection512",
        why: "26 Fig. 3 points at 512 nodes: noc+trojan+placement only, no tiles, no allocator, no harness",
        work_unit: "Fig. 3 points",
    },
    WorkloadDef {
        name: "harness_cold",
        why: "1000 no-op jobs through journal+cache into an empty directory: the harness write path, no simulation",
        work_unit: "jobs durably committed",
    },
    WorkloadDef {
        name: "harness_warm",
        why: "resume scan plus the same 1000 jobs served from the result cache: the harness read path",
        work_unit: "jobs served from the cache",
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metrics, emitted by every workload with tracing off.
#[must_use]
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("wall_s", "s", Better::Lower, 0.20),
        bounded("work_per_s", "1/s", Better::Higher, 0.20),
        bounded("peak_rss_mb", "MB", Better::Lower, 0.20),
        bounded("setup_s", "s", Better::Lower, 0.25),
    ]
}

/// Layers that can own a span, in the order the trace metrics list them.
/// `perf` is the benchmark's own loop around the layer calls.
pub const TRACE_LAYERS: [&str; 7] = [
    "noc", "trojan", "manycore", "attack", "core", "harness", "perf",
];

/// Requester counts of the allocator series.
pub const ALLOC_SIZES: [usize; 3] = [64, 256, 1024];

/// The per-layer metrics, emitted by every workload with tracing on.
#[must_use]
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = Vec::new();
    for scenario in [
        "uniform16_r001",
        "uniform16_r005",
        "hotspot16_epoch2k",
        "idle16",
    ] {
        m.push(def(format!("noc.step_ns.{scenario}"), "ns", Lower));
    }
    m.push(def("noc.ns_per_flit_hop.uniform16_r005", "ns", Lower));
    m.push(def("noc.drain_ns_per_pkt.hotspot8_trojan", "ns", Lower));
    m.push(def("noc.new_ms.16x16", "ms", Lower));
    for chip in ["campaign256", "campaign256_detailed"] {
        m.push(def(
            format!("noc.delivered_packets.{chip}"),
            "count",
            Higher,
        ));
        m.push(def(format!("noc.total_hops.{chip}"), "count", Lower));
    }

    m.push(def("trojan.inspect_ns", "ns", Lower));
    m.push(def("trojan.configure_all_us.n256", "us", Lower));
    m.push(def(
        "trojan.modified_power_requests.campaign256",
        "count",
        Higher,
    ));

    for kind in AllocatorKind::ALL {
        for n in ALLOC_SIZES {
            m.push(def(
                format!("power.alloc_ns.{}.n{n}", kind.name()),
                "ns",
                Lower,
            ));
        }
    }
    m.push(def("power.run_epoch_us.fair-share.n256", "us", Lower));

    m.push(def("manycore.build_ms.n64", "ms", Lower));
    m.push(def("manycore.build_ms.n256", "ms", Lower));
    for chip in [
        "n64.analytic",
        "n256.analytic",
        "n64.detailed",
        "n256.detailed",
    ] {
        m.push(def(
            format!("manycore.run_ns_per_cycle.{chip}"),
            "ns",
            Lower,
        ));
    }
    m.push(def("manycore.idle_run_ns_per_cycle.n256", "ns", Lower));
    m.push(def("manycore.report_us.n256", "us", Lower));
    m.push(def("manycore.cycles.campaign256", "count", Higher));
    m.push(def("manycore.epochs.campaign256", "count", Higher));

    m.push(def("attack.compare_us", "us", Lower));
    m.push(def("attack.placement_us.cluster.n256", "us", Lower));
    m.push(def("attack.placement_us.random.n256", "us", Lower));
    m.push(def("attack.optimize_ms.n64.m8", "ms", Lower));
    m.push(def("attack.model_fit_us", "us", Lower));

    m.push(def("core.run_campaign_ms.n64", "ms", Lower));
    m.push(def("core.run_campaign_ms.n256", "ms", Lower));
    m.push(def("core.fig3_point_ms.n512", "ms", Lower));
    m.push(def("core.optimal_vs_random_ms.small", "ms", Lower));
    m.push(def("core.regression_dataset_ms.n64", "ms", Lower));

    m.push(def("harness.commit_file_us.4k", "us", Lower));
    m.push(def("harness.commit_append_us", "us", Lower));
    m.push(def("harness.journal_record_us", "us", Lower));
    m.push(def("harness.journal_read_ms.10k", "ms", Lower));
    m.push(def("harness.cache_store_us", "us", Lower));
    m.push(def("harness.cache_load_us", "us", Lower));
    m.push(def("harness.json_render_ns_per_kb", "ns", Lower));
    m.push(def("harness.json_parse_ns_per_kb", "ns", Lower));
    m.push(def("harness.dispatch_us_per_job", "us", Lower));
    m.push(def("harness.campaign_start_ms.resume1k", "ms", Lower));
    m.push(def("harness.baseline_hit_ns", "ns", Lower));
    m.push(def("harness.disk_jobs_per_s", "1/s", Higher));
    m.push(def("harness.job_p99_us", "us", Lower));
    m.push(def("harness.fsyncs_per_job", "count", Lower));

    m.push(def("obs.counter_inc_ns", "ns", Lower));
    m.push(def("obs.histogram_observe_ns", "ns", Lower));
    m.push(def("obs.snapshot_us", "us", Lower));
    m.push(def("obs.enabled_overhead_ratio.n64", "ratio", Lower));

    m.push(def("trace.wall_s", "s", Lower));
    m.push(def("trace.overhead_ratio", "ratio", Lower));
    m.push(def("trace.residual_s", "s", Lower));
    m.push(def("trace.spans", "count", Lower));
    for layer in TRACE_LAYERS {
        m.push(def(format!("trace.self_s.{layer}"), "s", Lower));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!(e2e.len() <= 16 && layer.len() <= 128);
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert_eq!(WORKLOADS.len(), 6);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
