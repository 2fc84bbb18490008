//! Bridge from the simulators' plain, write-only metric structs to the
//! shared `htpb-obs` registry.
//!
//! The hot layers (`htpb-noc`'s pipeline, this crate's epoch loop) tally
//! into plain integers with zero synchronization; this module is the single
//! place where those tallies — plus the counters the simulators keep for
//! their own statistics anyway — are folded into the global registry,
//! *after* the simulation work is done. Every absorbed value is an integer
//! and every registry instrument is commutative under addition, so absorbing
//! N runs from 1 worker or 4 workers yields bit-identical totals (the
//! `metrics.prom` byte-determinism contract).
//!
//! All series absorbed here are [`Class::Sim`]: pure functions of simulation
//! state, independent of wall-clock time and scheduling.

use htpb_noc::{LatencyHistogram, Network, PacketInspector};
use htpb_obs::{global, Class};
use htpb_power::GlobalManager;

use crate::metrics::{SysMetrics, UTIL_DECILES};
use crate::system::ManyCoreSystem;

/// Upper-inclusive bucket bounds matching [`LatencyHistogram`]'s layout:
/// its bucket `i` holds `2^i <= l < 2^(i+1)` (bucket 0 also holds 0), i.e.
/// upper bound `2^(i+1) - 1`; its last bucket becomes the registry
/// histogram's `+Inf` bucket.
fn latency_bounds() -> Vec<u64> {
    (0..31).map(|i| (1u64 << (i + 1)) - 1).collect()
}

/// Folds a [`LatencyHistogram`] into a registry histogram of the same name.
fn absorb_latency(name: &str, help: &str, lat: &LatencyHistogram) {
    let h = global().histogram(name, &latency_bounds(), help, Class::Sim);
    h.merge_counts(lat.buckets(), lat.sum());
}

/// Absorbs a finished (or paused) network's statistics and live metrics.
///
/// Safe to call with metrics disabled: the always-on [`htpb_noc::NetworkStats`]
/// counters are absorbed regardless; the opt-in occupancy/utilization
/// tallies only when [`Network::enable_metrics`] was active.
pub fn absorb_network<I: PacketInspector>(net: &Network<I>) {
    let reg = global();
    let s = net.stats();
    reg.counter(
        "htpb_noc_packets_injected_total",
        "Packets accepted into injection queues",
        Class::Sim,
    )
    .add(s.injected_packets());
    reg.counter(
        "htpb_noc_packets_delivered_total",
        "Packets fully ejected at their destination",
        Class::Sim,
    )
    .add(s.delivered_packets());
    reg.counter(
        "htpb_noc_flits_delivered_total",
        "Flits delivered across all packets",
        Class::Sim,
    )
    .add(s.delivered_flits());
    reg.counter(
        "htpb_noc_packets_dropped_total",
        "Packets dropped by fault injection",
        Class::Sim,
    )
    .add(s.dropped_packets());
    reg.counter(
        "htpb_noc_packets_modified_total",
        "Packets delivered with in-flight tampering",
        Class::Sim,
    )
    .add(s.modified_packets());
    absorb_latency(
        "htpb_noc_packet_latency_cycles",
        "End-to-end packet latency, injection to tail ejection",
        s.latency(),
    );

    // Per-router flit throughput: the simulator maintains this map for its
    // own diagnostics, so pulling it here costs the hot loop nothing.
    let mut label = String::new();
    for (i, forwarded) in net.utilization_map().into_iter().enumerate() {
        if forwarded == 0 {
            continue;
        }
        use std::fmt::Write as _;
        label.clear();
        let _ = write!(label, "{i}");
        reg.counter_with(
            "htpb_noc_router_flits_forwarded_total",
            &[("router", &label)],
            "Flits forwarded per router",
            Class::Sim,
        )
        .add(forwarded);
    }

    let Some(m) = net.metrics() else { return };
    reg.counter(
        "htpb_noc_active_router_cycles_total",
        "Time-integral of routers holding at least one flit",
        Class::Sim,
    )
    .add(m.active_router_cycles);
    reg.counter(
        "htpb_noc_busy_link_cycles_total",
        "Time-integral of occupied link slots",
        Class::Sim,
    )
    .add(m.busy_link_cycles);
    reg.counter(
        "htpb_noc_queued_flit_cycles_total",
        "Time-integral of flits waiting in injection queues",
        Class::Sim,
    )
    .add(m.queued_flit_cycles);
    reg.counter(
        "htpb_noc_stalled_router_cycles_total",
        "Router-cycles lost to fault-injected stalls",
        Class::Sim,
    )
    .add(m.stalled_router_cycles);
    // Occupancy bucket i holds pushes that left i+1 flits in the VC, so the
    // finite upper bounds are 1..=7 flits and the last bucket is +Inf. The
    // sum uses each bucket's exact occupancy (finite buckets are one value
    // wide); the +Inf bucket contributes its lower bound, making the sum a
    // tight lower bound rather than an estimate.
    let h = global().histogram(
        "htpb_noc_vc_occupancy_flits",
        &[1, 2, 3, 4, 5, 6, 7],
        "VC buffer occupancy after each flit push",
        Class::Sim,
    );
    let sum: u64 = m
        .vc_occupancy
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64 + 1) * c)
        .sum();
    h.merge_counts(&m.vc_occupancy, sum);
}

/// Absorbs the global manager's budget, epoch count and degradation
/// counters (PR 3's graceful-degradation hardening made executable as
/// metrics).
pub(crate) fn absorb_manager(mgr: &GlobalManager) {
    let reg = global();
    reg.gauge("htpb_power_budget_mw", "Chip power budget", Class::Sim)
        .set(mgr.budget_mw().round() as i64);
    reg.counter(
        "htpb_power_epochs_total",
        "Budgeting epochs the manager has run",
        Class::Sim,
    )
    .add(mgr.epochs_run());
    let d = mgr.degradation();
    reg.counter(
        "htpb_power_requests_timeout_total",
        "Silent cores covered by hold-last-grant synthesis",
        Class::Sim,
    )
    .add(d.timeouts);
    reg.counter(
        "htpb_power_requests_clamped_total",
        "Requests clamped by plausibility hardening",
        Class::Sim,
    )
    .add(d.clamps);
    reg.counter(
        "htpb_power_requests_rejected_total",
        "Requests discarded by checksum authentication",
        Class::Sim,
    )
    .add(d.rejects);
}

/// Absorbs the epoch-loop tallies ([`SysMetrics`]).
pub(crate) fn absorb_sys_metrics(m: &SysMetrics) {
    let reg = global();
    absorb_latency(
        "htpb_power_grant_latency_cycles",
        "POWER_GRANT end-to-end latency, manager to core",
        &m.grant_latency,
    );
    // Decile bucket i covers [i*100, (i+1)*100) milli-units; the last
    // covers >= 900, i.e. finite upper bounds 99..=899 then +Inf.
    let bounds: Vec<u64> = (1..UTIL_DECILES as u64).map(|i| i * 100 - 1).collect();
    let h = reg.histogram(
        "htpb_power_budget_utilization_milli",
        &bounds,
        "Per-epoch granted/budget ratio in milli-units",
        Class::Sim,
    );
    h.merge_counts(&m.util_decile, m.util_milli_sum);
}

/// Absorbs everything a finished system knows: its network, its manager
/// and its epoch-loop tallies. Called automatically when a metrics-enabled
/// [`ManyCoreSystem`] is dropped; call it directly to absorb earlier.
pub(crate) fn absorb_system<I: PacketInspector>(sys: &ManyCoreSystem<I>) {
    absorb_network(sys.network());
    absorb_manager(sys.manager());
    if let Some(m) = sys.sys_metrics() {
        absorb_sys_metrics(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_bounds_match_histogram_layout() {
        let b = latency_bounds();
        assert_eq!(b.len(), 31);
        assert_eq!(b[0], 1); // bucket 0: latencies 0 and 1
        assert_eq!(b[1], 3); // bucket 1: 2..=3
        assert_eq!(b[30], (1u64 << 31) - 1);

        // A LatencyHistogram's 32 counts line up with 31 finite bounds + Inf.
        let mut lat = LatencyHistogram::new();
        for v in [0, 1, 2, 3, 4, 100, 1u64 << 40] {
            lat.record(v);
        }
        let h = htpb_obs::Histogram::new(&b);
        h.merge_counts(lat.buckets(), lat.sum());
        let snap = h.snapshot();
        assert_eq!(snap.count(), lat.count());
        assert_eq!(snap.sum, lat.sum());
        // 0 and 1 in the first bucket, u64::MAX in +Inf.
        assert_eq!(snap.counts[0], 2);
        assert_eq!(snap.counts[31], 1);
    }
}
