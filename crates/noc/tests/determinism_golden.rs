//! Cross-implementation determinism lock: golden digests of the NoC
//! pipeline's observable behaviour.
//!
//! Each scenario steps a network cycle by cycle and folds, per cycle, the
//! full [`NetworkStats`] fingerprint and every packet delivered that cycle
//! (order included) into one FNV-1a digest; the trace-buffer fingerprint is
//! folded at the end. The expected values below were recorded from the
//! original dense-scan pipeline (pre active-set optimisation, PR 2) — any
//! later rework of `Network::step` must reproduce them bit for bit, which
//! pins stage ordering, round-robin state, ejection order, stats and traces
//! all at once. If one of these tests fails after a simulator change, the
//! change altered semantics, not just speed: fix the change, do NOT
//! re-record the golden value unless the semantic change is intentional
//! and reviewed.

use htpb_noc::{
    Digest, HotspotTraffic, InspectOutcome, Mesh2d, Network, NetworkConfig, NodeId, Packet,
    PacketInspector, PacketKind, TrafficPattern, UniformTraffic,
};

/// A deterministic false-data Trojan: at each listed router, the payload of
/// every power request bound for the manager is zeroed (the paper's
/// `TamperRule::Zero` shape, reimplemented here so the NoC crate's tests
/// stay dependency-free).
#[derive(Debug)]
struct ZeroTrojans {
    nodes: Vec<NodeId>,
    manager: NodeId,
}

impl PacketInspector for ZeroTrojans {
    fn inspect(&mut self, router: NodeId, _cycle: u64, packet: &mut Packet) -> InspectOutcome {
        if self.nodes.contains(&router)
            && packet.dst() == self.manager
            && matches!(packet.kind(), PacketKind::PowerReq)
            && packet.payload() != 0
        {
            packet.set_payload(0);
            return InspectOutcome::tampered();
        }
        InspectOutcome::untouched()
    }
}

/// Folds one delivered packet (with delivery order preserved by the caller)
/// into the digest.
fn fold_delivered(d: &mut Digest, p: &htpb_noc::DeliveredPacket) {
    d.u64(u64::from(p.packet.src().0))
        .u64(u64::from(p.packet.dst().0))
        .u64(u64::from(p.packet.payload()))
        .u64(u64::from(p.packet.kind().to_type_word()))
        .u64(p.latency)
        .u64(u64::from(p.hops))
        .u64(u64::from(p.modified));
}

/// Drives `net` for `cycles` cycles with per-cycle traffic, then drains it,
/// digesting stats and deliveries every cycle and the trace at the end.
fn run_digest<I: PacketInspector>(
    mut net: Network<I>,
    mut traffic: impl TrafficPattern,
    cycles: u64,
) -> u64 {
    let mut d = Digest::new();
    let step = |net: &mut Network<I>, d: &mut Digest| {
        net.step();
        d.u64(net.stats().fingerprint());
        for p in net.drain_ejected() {
            fold_delivered(d, &p);
        }
    };
    for cycle in 0..cycles {
        for p in traffic.generate(cycle) {
            let _ = net.inject(p);
        }
        step(&mut net, &mut d);
    }
    let mut spin = 0u64;
    while !net.is_idle() {
        step(&mut net, &mut d);
        spin += 1;
        assert!(spin < 1_000_000, "network failed to drain");
    }
    d.u64(net.cycle());
    if let Some(trace) = net.trace() {
        d.u64(trace.fingerprint());
    }
    d.finish()
}

fn traced(mesh: Mesh2d) -> NetworkConfig {
    NetworkConfig::new(mesh).with_tracing(4_096)
}

fn trojans_for(mesh: Mesh2d) -> ZeroTrojans {
    // A diagonal band of Trojans plus the manager's west neighbour: stable
    // across mesh sizes, never on the manager itself.
    let manager = mesh.center();
    let nodes = (0..mesh.nodes())
        .filter(|i| i % 7 == 3)
        .map(|i| NodeId(i as u16))
        .filter(|n| *n != manager)
        .collect();
    ZeroTrojans { nodes, manager }
}

fn hotspot_digest(w: u16, h: u16, metrics: bool) -> u64 {
    let mesh = Mesh2d::new(w, h).unwrap();
    let mut net = Network::new(traced(mesh));
    if metrics {
        net.enable_metrics();
    }
    let traffic = HotspotTraffic::new(mesh, mesh.center(), 600, 120, 11);
    run_digest(net, traffic, 2_400)
}

fn uniform_digest(w: u16, h: u16, metrics: bool) -> u64 {
    let mesh = Mesh2d::new(w, h).unwrap();
    let mut net = Network::new(traced(mesh));
    if metrics {
        net.enable_metrics();
    }
    let traffic = UniformTraffic::new(mesh, 0.03, PacketKind::Data, 23);
    run_digest(net, traffic, 1_500)
}

/// The regime Fig. 3 runs: every node of a 512-node mesh sends one power
/// request to a corner manager in cycle 0 and the network drains, with 60
/// always-on Trojans on the way. Unlike the six scenarios above this one
/// is a single saturating burst (deep injection backlog at every node, the
/// manager's two input links as the bottleneck), not a paced stream.
struct Burst {
    mesh: Mesh2d,
    manager: NodeId,
}

impl TrafficPattern for Burst {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        if cycle != 0 {
            return Vec::new();
        }
        self.mesh
            .iter_nodes()
            .filter(|&src| src != self.manager)
            .map(|src| Packet::power_request(src, self.manager, 1_000 + u32::from(src.0)))
            .collect()
    }
}

fn drain512_digest(metrics: bool) -> u64 {
    let mesh = Mesh2d::with_nodes(512).unwrap();
    let manager = NodeId(0);
    // 60 Trojans spread by a stride coprime to the mesh width, never on the
    // manager.
    let nodes: Vec<NodeId> = (1..=60u16).map(|i| NodeId(i * 37 % 511 + 1)).collect();
    assert_eq!(nodes.len(), 60);
    let mut net = Network::with_inspector(traced(mesh), ZeroTrojans { nodes, manager });
    if metrics {
        net.enable_metrics();
    }
    run_digest(net, Burst { mesh, manager }, 1)
}

fn trojan_digest(w: u16, h: u16, metrics: bool) -> u64 {
    let mesh = Mesh2d::new(w, h).unwrap();
    let mut net = Network::with_inspector(traced(mesh), trojans_for(mesh));
    if metrics {
        net.enable_metrics();
    }
    let traffic = HotspotTraffic::new(mesh, mesh.center(), 500, 80, 5);
    run_digest(net, traffic, 2_000)
}

// Every golden value is asserted twice: metrics off (the original recorded
// configuration) and metrics on. The second assertion is the
// non-perturbation contract of `htpb-obs` made executable — collecting the
// full live metric set must leave stats, delivery order, cycle count and
// traces bit-identical.

#[test]
fn golden_hotspot_8x8() {
    assert_eq!(hotspot_digest(8, 8, false), 10974665365203148897);
    assert_eq!(hotspot_digest(8, 8, true), 10974665365203148897);
}

#[test]
fn golden_hotspot_16x16() {
    assert_eq!(hotspot_digest(16, 16, false), 6746930467982697151);
    assert_eq!(hotspot_digest(16, 16, true), 6746930467982697151);
}

#[test]
fn golden_uniform_8x8() {
    assert_eq!(uniform_digest(8, 8, false), 18339930570319748036);
    assert_eq!(uniform_digest(8, 8, true), 18339930570319748036);
}

#[test]
fn golden_uniform_16x16() {
    assert_eq!(uniform_digest(16, 16, false), 7876670920061007167);
    assert_eq!(uniform_digest(16, 16, true), 7876670920061007167);
}

#[test]
fn golden_trojan_8x8() {
    assert_eq!(trojan_digest(8, 8, false), 7134810773300823719);
    assert_eq!(trojan_digest(8, 8, true), 7134810773300823719);
}

#[test]
fn golden_trojan_16x16() {
    assert_eq!(trojan_digest(16, 16, false), 9836475051372867626);
    assert_eq!(trojan_digest(16, 16, true), 9836475051372867626);
}

/// Recorded from the `Vec`-per-router layout of PR 5 (parent of the
/// round-3 slab layout), before any layout change.
#[test]
fn golden_drain_512_corner_60_trojans() {
    assert_eq!(drain512_digest(false), 10431778353058420335);
    assert_eq!(drain512_digest(true), 10431778353058420335);
}
