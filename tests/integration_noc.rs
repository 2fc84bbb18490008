//! Cross-crate integration tests of the NoC substrate: protocol packets
//! and Trojan configuration flowing through the cycle-accurate network.

use htpb_core::{
    ActivationSignal, Direction, Mesh2d, Network, NetworkConfig, NodeId, Packet, PacketKind,
    RoutingKind, TamperRule, TrojanFleet,
};
use htpb_noc::{TrafficPattern, UniformTraffic};

#[test]
fn config_broadcast_reaches_every_trojan_in_band() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let attacker = NodeId(63);
    let manager = mesh.center();
    let trojan_nodes: Vec<NodeId> = vec![NodeId(3), NodeId(17), NodeId(42), NodeId(60)];
    let fleet = TrojanFleet::new(&trojan_nodes, TamperRule::Zero);
    let mut net = Network::with_inspector(NetworkConfig::new(mesh), fleet);

    for cfg in TrojanFleet::config_broadcast(mesh, attacker, manager, ActivationSignal::On) {
        net.inject(cfg).unwrap();
    }
    assert!(net.run_until_idle(100_000), "broadcast failed to drain");
    for node in trojan_nodes {
        let ht = net.inspector().trojan(node).unwrap();
        assert!(ht.state().active, "trojan at {node} not armed");
        assert_eq!(ht.state().manager, Some(manager));
        assert!(ht.state().is_attacker(attacker));
    }
}

#[test]
fn deactivation_broadcast_disarms_in_band() {
    let mesh = Mesh2d::new(4, 4).unwrap();
    let attacker = NodeId(15);
    let manager = NodeId(0);
    let fleet = TrojanFleet::new(&[NodeId(5)], TamperRule::Zero);
    let mut net = Network::with_inspector(NetworkConfig::new(mesh), fleet);

    for cfg in TrojanFleet::config_broadcast(mesh, attacker, manager, ActivationSignal::On) {
        net.inject(cfg).unwrap();
    }
    net.run_until_idle(50_000);
    assert!(net.inspector().trojan(NodeId(5)).unwrap().state().active);

    for cfg in TrojanFleet::config_broadcast(mesh, attacker, manager, ActivationSignal::Off) {
        net.inject(cfg).unwrap();
    }
    net.run_until_idle(50_000);
    assert!(!net.inspector().trojan(NodeId(5)).unwrap().state().active);

    // Disarmed: a victim request through node 5 passes untouched.
    net.drain_ejected();
    net.inject(Packet::power_request(NodeId(6), manager, 777))
        .unwrap();
    net.run_until_idle(50_000);
    let out = net.drain_ejected();
    let req = out
        .iter()
        .find(|d| matches!(d.packet.kind(), PacketKind::PowerReq))
        .unwrap();
    assert!(!req.modified);
    assert_eq!(req.packet.payload(), 777);
}

#[test]
fn tampering_counted_once_per_packet_despite_many_trojans() {
    // Zeroing is idempotent; the stats must count the packet once.
    let mesh = Mesh2d::new(8, 1).unwrap();
    let manager = NodeId(0);
    let nodes: Vec<NodeId> = (1..8).map(NodeId).collect();
    let mut fleet = TrojanFleet::new(&nodes, TamperRule::Zero);
    fleet.configure_all(&[], manager, true);
    let mut net = Network::with_inspector(NetworkConfig::new(mesh), fleet);
    net.inject(Packet::power_request(NodeId(7), manager, 9_999))
        .unwrap();
    assert!(net.run_until_idle(10_000));
    assert_eq!(net.stats().modified_power_requests(), 1);
    assert_eq!(net.stats().delivered_power_requests(), 1);
    let out = net.drain_ejected();
    assert_eq!(out[0].packet.payload(), 0);
    // Only the first trojan on the path did a rewrite; the others saw an
    // already-zero payload and left it be.
    let fleet_stats = net.inspector().stats();
    assert_eq!(fleet_stats.packets_modified, 1);
}

#[test]
fn scale_rule_compounds_across_hops() {
    // A ScalePercent trojan modifies repeatedly along the path — each
    // infected hop shaves the request again. A property of the functional
    // module worth pinning down.
    let mesh = Mesh2d::new(5, 1).unwrap();
    let manager = NodeId(0);
    let mut fleet = TrojanFleet::new(&[NodeId(1), NodeId(2)], TamperRule::ScalePercent(50));
    fleet.configure_all(&[], manager, true);
    let mut net = Network::with_inspector(NetworkConfig::new(mesh), fleet);
    net.inject(Packet::power_request(NodeId(4), manager, 1_000))
        .unwrap();
    assert!(net.run_until_idle(10_000));
    let out = net.drain_ejected();
    assert_eq!(out[0].packet.payload(), 250, "halved twice");
}

#[test]
fn adaptive_routing_still_infected_by_manager_ring() {
    // Odd-even may route around congestion, but every request must funnel
    // into the manager's router; a trojan ring around it catches all.
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    let ring: Vec<NodeId> = Direction::ALL
        .into_iter()
        .filter_map(|d| mesh.neighbor(manager, d))
        .collect();
    assert_eq!(ring.len(), 4);
    let mut fleet = TrojanFleet::new(&ring, TamperRule::Zero);
    fleet.configure_all(&[], manager, true);
    let mut net = Network::with_inspector(
        NetworkConfig::new(mesh).with_routing(RoutingKind::OddEven),
        fleet,
    );
    for src in mesh.iter_nodes() {
        if src != manager {
            net.inject(Packet::power_request(src, manager, 500))
                .unwrap();
        }
    }
    assert!(net.run_until_idle(200_000));
    assert!(
        net.stats().infection_rate() > 0.99,
        "ring missed traffic: {}",
        net.stats().infection_rate()
    );
}

#[test]
fn grants_and_data_never_tampered_even_under_full_infection() {
    let mesh = Mesh2d::new(4, 4).unwrap();
    let manager = NodeId(5);
    let all: Vec<NodeId> = mesh.iter_nodes().collect();
    let mut fleet = TrojanFleet::new(&all, TamperRule::Zero);
    fleet.configure_all(&[], manager, true);
    let mut net = Network::with_inspector(NetworkConfig::new(mesh), fleet);
    net.inject(Packet::power_grant(manager, NodeId(10), 1_234))
        .unwrap();
    net.inject(Packet::new(NodeId(2), manager, PacketKind::Data, 5_678))
        .unwrap();
    assert!(net.run_until_idle(10_000));
    let out = net.drain_ejected();
    assert_eq!(out.len(), 2);
    for d in out {
        assert!(!d.modified, "{:?} was tampered", d.packet.kind());
        assert!(d.packet.payload() == 1_234 || d.packet.payload() == 5_678);
    }
}

#[test]
fn saturating_bursts_preserve_every_packet() {
    // Four epochs of full-chip request bursts back to back, with memory
    // traffic mixed in: nothing is lost or duplicated.
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    let mut net = Network::new(NetworkConfig::new(mesh));
    let mut injected = 0u64;
    for epoch in 0..4 {
        for src in mesh.iter_nodes() {
            if src == manager {
                continue;
            }
            net.inject(Packet::power_request(src, manager, 100 + epoch))
                .unwrap();
            injected += 1;
            if src.0 % 3 == 0 {
                net.inject(Packet::new(src, NodeId(src.0 / 2), PacketKind::Data, 1))
                    .unwrap();
                injected += 1;
            }
        }
        net.step_n(200);
    }
    assert!(net.run_until_idle(500_000));
    assert_eq!(net.stats().delivered_packets(), injected);
}

/// Uniform-random traffic (seed 99) at `rate` packets/node/cycle for
/// 3000 cycles on an 8x8 mesh, then drained. Returns (mean latency,
/// delivered fraction of injected packets); a full injection queue sheds
/// the packet instead of counting it as injected.
fn load_latency(routing: RoutingKind, rate: f64) -> (f64, f64) {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let mut net = Network::new(NetworkConfig::new(mesh).with_routing(routing));
    let mut traffic = UniformTraffic::new(mesh, rate, PacketKind::Meta, 99);
    for cycle in 0..3_000 {
        for packet in traffic.generate(cycle) {
            let _ = net.inject(packet);
        }
        net.step();
    }
    assert!(
        net.run_until_idle(1_000_000),
        "{routing:?} @ {rate} failed to drain"
    );
    let stats = net.stats();
    let delivered = stats.delivered_packets() as f64 / stats.injected_packets() as f64;
    (stats.latency().mean(), delivered)
}

#[test]
fn load_latency_is_flat_at_low_load_and_knees_toward_saturation() {
    // Substrate validation: a wormhole mesh sits at the zero-load bound
    // (mean hops x 3-cycle router pipeline) at low load and bends upward
    // as offered load nears saturation. Measured XY / odd-even /
    // west-first: 16.7 / 16.7 / 16.7 cycles at 0.01, 20.5 / 20.5 / 21.1 at
    // 0.2, 40.2 / 42.7 / 56.6 at 0.4, every packet delivered.
    // Mean XY hop count over all ordered pairs of an 8x8 mesh:
    // 2 x (8^2 - 1) / (3 x 8).
    let zero_load_bound = 3.0 * 5.25;
    for routing in RoutingKind::ALL {
        let [low, mid, high] = [0.01, 0.2, 0.4].map(|rate| {
            let (latency, delivered) = load_latency(routing, rate);
            assert_eq!(delivered, 1.0, "{routing:?} @ {rate} lost packets");
            latency
        });
        assert!(
            (zero_load_bound..=zero_load_bound + 2.0).contains(&low),
            "{routing:?}: latency {low} at 0.01 is off the zero-load bound"
        );
        assert!(
            mid <= 1.3 * low,
            "{routing:?}: {mid} at 0.2 vs {low} at 0.01"
        );
        assert!(
            high >= 2.0 * low,
            "{routing:?}: {high} at 0.4 vs {low} at 0.01"
        );
    }
}
