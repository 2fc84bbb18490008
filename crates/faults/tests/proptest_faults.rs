//! Property tests for the fault layer's zero-overhead contract: a seeded
//! but **empty** `FaultPlan`, installed as a live hook, must leave the
//! network's observable behaviour bit-identical to a build with no hook at
//! all — for any seed, traffic shape and schedule. This is the guard on the
//! `any_faults_at` fast path that also keeps the NoC golden digests valid.

use proptest::prelude::*;

use htpb_faults::FaultPlan;
use htpb_noc::{
    HotspotTraffic, Mesh2d, Network, NetworkConfig, PacketKind, TrafficPattern, UniformTraffic,
};
use htpb_trojan::ActivationSchedule;

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

fn arb_schedule() -> impl Strategy<Value = ActivationSchedule> {
    prop_oneof![
        Just(ActivationSchedule::AlwaysOn),
        (0u64..200, 1u64..200)
            .prop_map(|(on, period)| ActivationSchedule::DutyCycle { on, period }),
        (0u64..500, 0u64..500).prop_map(|(start, len)| ActivationSchedule::Window {
            start,
            end: start + len
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Empty plan ⇒ bit-identical `NetworkStats::fingerprint()` to the
    /// no-hook build, under uniform traffic.
    #[test]
    fn empty_plan_is_invisible_uniform(
        seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        schedule in arb_schedule(),
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

        let mut hooked_net = Network::new(NetworkConfig::new(mesh));
        hooked_net.set_fault_hook(Box::new(FaultPlan::new(seed).with_schedule(schedule)));
        let hooked = run_fingerprint(hooked_net, traffic(), 400);

        prop_assert_eq!(bare, hooked);
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

        let mut hooked_net = Network::new(NetworkConfig::new(mesh));
        hooked_net.set_fault_hook(Box::new(FaultPlan::new(seed)));
        let hooked = run_fingerprint(hooked_net, traffic(), 900);

        prop_assert_eq!(bare, hooked);
    }

    /// Spec strings round-trip for arbitrary configurations.
    #[test]
    fn spec_roundtrips(
        seed in any::<u64>(),
        link in any::<u32>(),
        link_gran in 1u64..10_000,
        stall in any::<u32>(),
        stall_gran in 1u64..10_000,
        flip in any::<u32>(),
        drop in any::<u32>(),
        schedule in arb_schedule(),
    ) {
        let plan = FaultPlan::new(seed)
            .with_link_down(link, link_gran)
            .with_stalls(stall, stall_gran)
            .with_flips(flip)
            .with_drops(drop)
            .with_schedule(schedule);
        let parsed = FaultPlan::from_spec(&plan.to_spec()).expect("roundtrip");
        prop_assert_eq!(parsed, plan);
    }

    /// A non-empty plan still conserves packets: everything injected is
    /// delivered or counted dropped, and the network fully drains.
    #[test]
    fn faulty_network_conserves_packets(
        seed in any::<u64>(),
        traffic_seed in any::<u64>(),
        drop_ppm in 0u32..=200_000,
        flip_ppm in 0u32..=200_000,
    ) {
        let mesh = Mesh2d::new(4, 4).expect("valid dims");
        let mut net = Network::new(NetworkConfig::new(mesh));
        net.set_fault_hook(Box::new(
            FaultPlan::new(seed).with_drops(drop_ppm).with_flips(flip_ppm),
        ));
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The spec parser is total: a valid spec with one byte overwritten,
    /// or arbitrary bytes, parses to a plan or an error, never a panic.
    #[test]
    fn from_spec_is_total(
        schedule in arb_schedule(),
        at in 0usize..256,
        byte in any::<u8>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let plan = FaultPlan::new(7).with_link_down(500, 200).with_schedule(schedule);
        let mut edited = plan.to_spec().into_bytes();
        let at = at % edited.len();
        edited[at] = byte;
        let _ = FaultPlan::from_spec(&String::from_utf8_lossy(&edited));
        let _ = FaultPlan::from_spec(&String::from_utf8_lossy(&bytes));
    }
}
