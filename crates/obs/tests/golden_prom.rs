//! Golden-file lock on the Prometheus exposition grammar.
//!
//! A fixed registry is populated with one representative of every shape
//! (counter, labelled counter family, gauge, histogram, plus a
//! [`Class::Timing`] series that must be *excluded*) and the rendered text
//! is compared byte-for-byte against `fixtures/metrics.prom.golden`. Any
//! change to the exposition — ordering, escaping, cumulative buckets,
//! HELP/TYPE placement — shows up as a diff against a reviewed fixture.

use htpb_obs::{Class, Registry};

const GOLDEN: &str = include_str!("fixtures/metrics.prom.golden");

fn sample_registry() -> Registry {
    let r = Registry::new();
    r.counter(
        "htpb_noc_flits_delivered_total",
        "Flits ejected at their destination",
        Class::Sim,
    )
    .add(12_345);
    // Registered out of numeric order on purpose: the exposition must sort
    // label values numerically (2 before 10), not lexicographically.
    for (router, n) in [(10u16, 7u64), (2, 40), (0, 3)] {
        r.counter_with(
            "htpb_noc_router_flits_forwarded_total",
            &[("router", &router.to_string())],
            "Flits crossing each router's switch",
            Class::Sim,
        )
        .add(n);
    }
    r.gauge(
        "htpb_power_budget_mw",
        "Manager power budget in mW",
        Class::Sim,
    )
    .set(4_200);
    let h = r.histogram(
        "htpb_noc_packet_latency_cycles",
        &[1, 2, 4, 8],
        "End-to-end packet latency",
        Class::Sim,
    );
    h.observe_n(3, 2);
    h.observe(100);
    // Timing-class series: present in the registry, absent from the
    // exposition (wall-clock values are not deterministic across workers).
    r.counter("htpb_harness_retries_total", "Job retries", Class::Timing)
        .add(9);
    r
}

#[test]
fn prom_exposition_matches_golden() {
    let prom = sample_registry().snapshot().to_prom();
    assert_eq!(
        prom, GOLDEN,
        "Prometheus exposition drifted from fixtures/metrics.prom.golden.\n\
         If the change is intentional, review and update the fixture.\n\
         --- rendered ---\n{prom}"
    );
}
