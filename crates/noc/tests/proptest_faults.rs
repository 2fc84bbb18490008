//! Property tests for the fault layer. Its zero-overhead contract: a
//! seeded but **empty** `FaultPlan`, installed on the network, must leave
//! its observable behaviour bit-identical to a network with no plan at all
//! — for any seed and traffic shape. This is the guard on the `is_empty`
//! fast path that also keeps the NoC golden digests valid. And a
//! non-empty plan of all four fault families must still conserve packets.

use proptest::prelude::*;

use htpb_noc::{
    FaultPlan, HotspotTraffic, Mesh2d, Network, NetworkConfig, PacketKind, TrafficPattern,
    UniformTraffic,
};

/// Runs `cycles` of traffic plus a bounded drain, returning the stats
/// fingerprint (counters, latency histogram) and final cycle.
fn run_fingerprint(
    mut net: Network,
    mut traffic: impl TrafficPattern,
    cycles: u64,
) -> (u64, u64, u64) {
    for cycle in 0..cycles {
        for p in traffic.generate(cycle) {
            let _ = net.inject(p);
        }
        net.step();
    }
    let mut spin = 0u64;
    while !net.is_idle() {
        net.step();
        spin += 1;
        assert!(spin < 1_000_000, "network failed to drain");
    }
    (
        net.stats().fingerprint(),
        net.cycle(),
        net.stats().delivered_packets(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Empty plan ⇒ bit-identical `NetworkStats::fingerprint()` to the
    /// network without a plan, under uniform traffic.
    #[test]
    fn empty_plan_is_invisible_uniform(
        seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        w in 2u16..=6,
        h in 2u16..=6,
        rate in 1u32..=60,
    ) {
        let mesh = Mesh2d::new(w, h).expect("valid dims");
        let traffic = || UniformTraffic::new(
            mesh,
            f64::from(rate) / 1_000.0,
            PacketKind::Data,
            traffic_seed,
        );

        let bare = run_fingerprint(Network::new(NetworkConfig::new(mesh)), traffic(), 400);

        let mut planned_net = Network::new(NetworkConfig::new(mesh));
        planned_net.set_fault_plan(FaultPlan::new(seed));
        let planned = run_fingerprint(planned_net, traffic(), 400);

        prop_assert_eq!(bare, planned);
    }

    /// Same equivalence under hotspot (manager-bound) traffic — the shape
    /// the power-budgeting loop actually produces.
    #[test]
    fn empty_plan_is_invisible_hotspot(
        seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        w in 2u16..=6,
        h in 2u16..=6,
    ) {
        let mesh = Mesh2d::new(w, h).expect("valid dims");
        let traffic = || HotspotTraffic::new(mesh, mesh.center(), 300, 60, traffic_seed);

        let bare = run_fingerprint(Network::new(NetworkConfig::new(mesh)), traffic(), 900);

        let mut planned_net = Network::new(NetworkConfig::new(mesh));
        planned_net.set_fault_plan(FaultPlan::new(seed));
        let planned = run_fingerprint(planned_net, traffic(), 900);

        prop_assert_eq!(bare, planned);
    }

    /// A non-empty plan still conserves packets: everything injected is
    /// delivered or counted dropped, and the network fully drains — under
    /// drops, flips, link outages and router stalls together.
    #[test]
    fn faulty_network_conserves_packets(
        seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        drop_ppm in 0u32..=200_000,
        flip_ppm in 0u32..=200_000,
        link_ppm in 0u32..=200_000,
        link_granularity in 1u64..=200,
        stall_ppm in 0u32..=200_000,
        stall_granularity in 1u64..=100,
    ) {
        let mesh = Mesh2d::new(4, 4).expect("valid dims");
        let mut net = Network::new(NetworkConfig::new(mesh));
        net.set_fault_plan(
            FaultPlan::new(seed)
                .with_drops(drop_ppm)
                .with_flips(flip_ppm)
                .with_link_down(link_ppm, link_granularity)
                .with_stalls(stall_ppm, stall_granularity),
        );
        let mut traffic = UniformTraffic::new(mesh, 0.05, PacketKind::Data, traffic_seed);
        for cycle in 0..300 {
            for p in traffic.generate(cycle) {
                let _ = net.inject(p);
            }
            net.step();
        }
        prop_assert!(net.run_until_idle(1_000_000), "faulty network failed to drain");
        let stats = net.stats();
        prop_assert_eq!(
            stats.delivered_packets() + stats.dropped_packets(),
            stats.injected_packets(),
            "conservation violated under faults"
        );
        let applied = net.fault_plan().expect("plan installed").counters();
        prop_assert_eq!(stats.dropped_packets(), applied.packet_drops);
    }
}
