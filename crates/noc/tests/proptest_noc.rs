//! Property-based tests of the NoC simulator's end-to-end invariants:
//! conservation (every injected packet is delivered exactly once), payload
//! integrity on a clean network, minimal routing, and `Network::reset`
//! leaving nothing behind.

use proptest::prelude::*;

use htpb_noc::{
    Digest, Direction, InspectOutcome, Mesh2d, Network, NetworkConfig, NodeId, Packet,
    PacketInspector, PacketKind, PacketStore, RoutingKind,
};

/// Drops every packet whose id hash lands under the threshold, at one node.
#[derive(Debug)]
struct RandomDropper {
    node: NodeId,
    threshold: u32,
}

impl PacketInspector for RandomDropper {
    fn inspect(&mut self, router: NodeId, _cycle: u64, packet: &mut Packet) -> InspectOutcome {
        if router == self.node && packet.payload().wrapping_mul(0x9E3779B9) >> 16 < self.threshold {
            InspectOutcome::dropped()
        } else {
            InspectOutcome::untouched()
        }
    }
}

/// A false-data Trojan fleet for the reset property: zeroes every power
/// request bound for `manager` at the infected routers, and sinks every
/// packet with an odd payload at `drop_at`.
#[derive(Debug)]
struct Trojans {
    infected: Vec<NodeId>,
    drop_at: Option<NodeId>,
    manager: NodeId,
}

impl PacketInspector for Trojans {
    fn inspect(&mut self, router: NodeId, _cycle: u64, packet: &mut Packet) -> InspectOutcome {
        if self.drop_at == Some(router) && packet.payload() & 1 == 1 {
            return InspectOutcome::dropped();
        }
        if self.infected.contains(&router)
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

/// One run of the reset property: a Trojan fleet (infected routers, drop
/// point, manager) and extra sends on top of the burst to the manager.
type Run = (Vec<u16>, Option<u16>, u16, Vec<(u16, u16, PacketKind, u32)>);

fn trojans_for(mesh: Mesh2d, (infected, drop_at, manager, _): &Run) -> Trojans {
    let node = |n: u16| NodeId((u32::from(n) % mesh.nodes()) as u16);
    Trojans {
        infected: infected.iter().map(|&n| node(n)).collect(),
        drop_at: drop_at.map(node),
        manager: node(*manager),
    }
}

/// Burst-drains one run on `net` — every node sends a power request to the
/// manager in cycle 0, plus the run's extra sends — and digests, per cycle,
/// the stats fingerprint, every delivery in order and every input VC's
/// snapshot; then the cycle count, the utilization map and the trace.
fn burst_drain_digest(net: &mut Network<Trojans>, mesh: Mesh2d, run: &Run) -> u64 {
    let nodes = mesh.nodes();
    let node = |n: u16| NodeId((u32::from(n) % nodes) as u16);
    let manager = node(run.2);
    for src in mesh.iter_nodes().filter(|&s| s != manager) {
        net.inject(Packet::power_request(
            src,
            manager,
            1_000 + u32::from(src.0),
        ))
        .expect("inject");
    }
    for &(s, d, kind, payload) in &run.3 {
        net.inject(Packet::new(node(s), node(d), kind, payload))
            .expect("inject");
    }
    let vcs = net.router(NodeId(0)).config().vcs;
    let mut d = Digest::new();
    let mut spin = 0u32;
    while !net.is_idle() {
        net.step();
        spin += 1;
        assert!(spin < 200_000, "network failed to drain");
        d.u64(net.stats().fingerprint());
        for p in net.drain_ejected() {
            d.u64(u64::from(p.packet.src().0))
                .u64(u64::from(p.packet.dst().0))
                .u64(u64::from(p.packet.payload()))
                .u64(p.latency)
                .u64(u64::from(p.hops))
                .u64(u64::from(p.modified));
        }
        for n in mesh.iter_nodes() {
            let router = net.router(n);
            for port in 0..Direction::ALL.len() {
                for vc in 0..vcs {
                    let v = router.vc_snapshot(port, vc);
                    d.u64(v.occupancy as u64)
                        .u64(v.front_packet.unwrap_or(u64::MAX))
                        .u64(v.front_arrived_at.unwrap_or(u64::MAX))
                        .u64(v.route.map_or(9, |r| r.index() as u64))
                        .u64(v.out_vc.map_or(u64::MAX, |o| o as u64))
                        .u64(u64::from(v.inspected))
                        .u64(u64::from(v.dropping));
                }
            }
        }
    }
    d.u64(net.cycle());
    for u in net.utilization_map() {
        d.u64(u);
    }
    d.u64(net.trace().expect("tracing on").fingerprint());
    d.finish()
}

fn arb_mesh() -> impl Strategy<Value = Mesh2d> {
    (2u16..=8, 2u16..=8).prop_map(|(w, h)| Mesh2d::new(w, h).expect("valid dims"))
}

fn arb_kind() -> impl Strategy<Value = PacketKind> {
    prop_oneof![
        Just(PacketKind::PowerReq),
        Just(PacketKind::PowerGrant),
        Just(PacketKind::Data),
        Just(PacketKind::Meta),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every injected packet is delivered exactly once, with the payload it
    /// was injected with, regardless of traffic shape or routing algorithm.
    #[test]
    fn conservation_and_integrity(
        mesh in arb_mesh(),
        routing in prop_oneof![Just(RoutingKind::Xy), Just(RoutingKind::OddEven)],
        sends in proptest::collection::vec((0u32..64, 0u32..64, arb_kind(), any::<u32>()), 1..40),
    ) {
        let nodes = mesh.nodes();
        let mut net = Network::new(NetworkConfig::new(mesh).with_routing(routing));
        let mut expected = Vec::new();
        for (s, d, kind, payload) in sends {
            let src = NodeId((s % nodes) as u16);
            let dst = NodeId((d % nodes) as u16);
            net.inject(Packet::new(src, dst, kind, payload)).expect("inject");
            expected.push((src, dst, payload));
        }
        prop_assert!(net.run_until_idle(1_000_000), "network failed to drain");
        let mut out = net.drain_ejected();
        prop_assert_eq!(out.len(), expected.len());
        // Match up multiset-style: sort both by (src, dst, payload).
        let mut got: Vec<_> = out
            .drain(..)
            .map(|d| (d.packet.src(), d.packet.dst(), d.packet.payload()))
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(net.stats().modified_packets(), 0);
        prop_assert_eq!(net.stats().infection_rate(), 0.0);
    }

    /// On an uncontended network, XY-routed packets take exactly the
    /// Manhattan-distance number of hops.
    #[test]
    fn xy_hops_are_minimal(mesh in arb_mesh(), s in any::<u16>(), d in any::<u16>()) {
        let nodes = mesh.nodes() as u16;
        let src = NodeId(s % nodes);
        let dst = NodeId(d % nodes);
        let mut net = Network::new(NetworkConfig::new(mesh));
        net.inject(Packet::power_request(src, dst, 1)).expect("inject");
        prop_assert!(net.run_until_idle(10_000));
        let out = net.drain_ejected();
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(out[0].hops, mesh.distance(src, dst));
    }

    /// Adaptive routing is also minimal in hop count (odd-even only offers
    /// minimal candidates).
    #[test]
    fn odd_even_hops_are_minimal(mesh in arb_mesh(), s in any::<u16>(), d in any::<u16>()) {
        let nodes = mesh.nodes() as u16;
        let src = NodeId(s % nodes);
        let dst = NodeId(d % nodes);
        let mut net = Network::new(NetworkConfig::new(mesh).with_routing(RoutingKind::OddEven));
        net.inject(Packet::power_request(src, dst, 1)).expect("inject");
        prop_assert!(net.run_until_idle(10_000));
        let out = net.drain_ejected();
        prop_assert_eq!(out[0].hops, mesh.distance(src, dst));
    }

    /// Conservation under drops: every injected packet is either delivered
    /// or counted dropped — never both, never lost — and the network
    /// returns to a fully idle state.
    #[test]
    fn conservation_with_dropping_inspector(
        mesh in arb_mesh(),
        drop_node in any::<u16>(),
        threshold in 0u32..0xFFFF,
        sends in proptest::collection::vec((0u32..64, 0u32..64, arb_kind(), any::<u32>()), 1..40),
    ) {
        let nodes = mesh.nodes();
        let dropper = RandomDropper {
            node: NodeId((u32::from(drop_node) % nodes) as u16),
            threshold,
        };
        let mut net = Network::with_inspector(NetworkConfig::new(mesh), dropper);
        let mut injected = 0u64;
        for (s, d, kind, payload) in sends {
            let src = NodeId((s % nodes) as u16);
            let dst = NodeId((d % nodes) as u16);
            net.inject(Packet::new(src, dst, kind, payload)).expect("inject");
            injected += 1;
        }
        prop_assert!(net.run_until_idle(1_000_000), "network failed to drain");
        let stats = net.stats();
        prop_assert_eq!(
            stats.delivered_packets() + stats.dropped_packets(),
            injected,
            "conservation violated"
        );
        for n in mesh.iter_nodes() {
            prop_assert!(net.router(n).is_idle(), "router {} not idle", n);
        }
    }

    /// [`PacketStore`] recycling never aliases a live packet: under an
    /// arbitrary interleaving of allocations, frees and in-place rewrites,
    /// `alloc` never hands out a slot that a live packet still occupies,
    /// every live slot keeps the id, frame, hop count and tamper flag its
    /// own packet accumulated, and a recycled slot starts from the new
    /// packet's frame with zero hops and a clear tamper flag — never the
    /// previous tenant's.
    #[test]
    fn packet_store_recycling_never_aliases_live_packets(
        ops in proptest::collection::vec((0u8..4, any::<u32>()), 1..256),
    ) {
        // Model of one live packet: (slot, id, payload, hops, modified).
        let mut store = PacketStore::new();
        let mut live: Vec<(u32, u64, u32, u32, bool)> = Vec::new();
        let mut next_id = 0u64;
        for (op, pick) in ops {
            match op {
                0 if !live.is_empty() => {
                    let (slot, id, ..) = live.swap_remove(pick as usize % live.len());
                    prop_assert_eq!(store.packet_id(slot), id);
                    store.free(slot);
                    prop_assert!(!store.is_live(slot));
                }
                1 if !live.is_empty() => {
                    // An inspector rewrites the frame in place at some hop.
                    let i = pick as usize % live.len();
                    let entry = &mut live[i];
                    entry.2 ^= pick | 1;
                    entry.4 = true;
                    store.packet_mut(entry.0).set_payload(entry.2);
                    store.set_modified(entry.0);
                }
                2 if !live.is_empty() => {
                    let i = pick as usize % live.len();
                    let entry = &mut live[i];
                    entry.3 += 1;
                    store.bump_hops(entry.0);
                }
                _ => {
                    let id = next_id;
                    next_id += 1;
                    let frame = Packet::new(NodeId(0), NodeId(1), PacketKind::Data, pick);
                    let slot = store.alloc(frame, id, id);
                    prop_assert!(
                        live.iter().all(|e| e.0 != slot),
                        "alloc returned slot {} which is still live", slot
                    );
                    prop_assert!(store.is_live(slot));
                    prop_assert_eq!(*store.packet(slot), frame);
                    prop_assert_eq!(store.hops(slot), 0);
                    prop_assert!(!store.modified(slot));
                    live.push((slot, id, pick, 0, false));
                }
            }
        }
        prop_assert_eq!(store.live(), live.len());
        for &(slot, id, payload, hops, modified) in &live {
            prop_assert_eq!(store.packet_id(slot), id);
            prop_assert_eq!(store.injected_at(slot), id);
            prop_assert_eq!(store.packet(slot).payload(), payload);
            prop_assert_eq!(store.hops(slot), hops);
            prop_assert_eq!(store.modified(slot), modified);
        }
    }

    /// The frame lives once, in the packet store: a payload rewritten at
    /// hop `k` is what `DeliveredPacket.packet` carries; a packet dropped
    /// at hop `j` is never delivered and frees its frame (the network goes
    /// idle); and a second wave through the recycled slots is delivered
    /// clean — right payload, right hop count, no stale tamper flag.
    #[test]
    fn rewritten_frames_are_delivered_and_dropped_frames_are_freed(
        len in 3u16..=10,
        rewrite_at in any::<u16>(),
        drop_at in any::<u16>(),
        mask in 1u32..=u32::MAX,
        sends in proptest::collection::vec((any::<u16>(), arb_kind(), any::<u32>()), 1..30),
    ) {
        /// XORs `mask` into every payload at `rewrite_at`; drops odd
        /// payloads at `drop_at`. Switched off for the second wave.
        #[derive(Debug)]
        struct RewriteAndDrop { rewrite_at: NodeId, drop_at: NodeId, mask: u32, armed: bool }
        impl PacketInspector for RewriteAndDrop {
            fn inspect(&mut self, router: NodeId, _cycle: u64, packet: &mut Packet) -> InspectOutcome {
                if !self.armed {
                    return InspectOutcome::untouched();
                }
                if router == self.drop_at && packet.payload() & 1 == 1 {
                    return InspectOutcome::dropped();
                }
                if router == self.rewrite_at {
                    packet.set_payload(packet.payload() ^ self.mask);
                    return InspectOutcome::tampered();
                }
                InspectOutcome::untouched()
            }
        }
        // A line: every packet travels west to node 0, so hop k is node
        // `src - k` and the path is unambiguous.
        let mesh = Mesh2d::new(len, 1).expect("valid dims");
        let rewrite_at = NodeId(rewrite_at % len);
        let drop_at = NodeId(drop_at % len);
        let inspector = RewriteAndDrop { rewrite_at, drop_at, mask, armed: true };
        let mut net = Network::with_inspector(NetworkConfig::new(mesh), inspector);
        let mut delivered_expect = Vec::new();
        let mut dropped_expect = 0u64;
        for &(s, kind, payload) in &sends {
            let src = NodeId(s % len);
            net.inject(Packet::new(src, NodeId(0), kind, payload)).expect("inject");
            // Walk the path the way the routers will see the packet.
            let (mut p, mut modified, mut dropped) = (payload, false, false);
            for node in (0..=src.0).rev().map(NodeId) {
                if node == drop_at && p & 1 == 1 {
                    dropped = true;
                    break;
                }
                if node == rewrite_at {
                    p ^= mask;
                    modified = true;
                }
            }
            if dropped {
                dropped_expect += 1;
            } else {
                delivered_expect.push((src, p, u32::from(src.0), modified));
            }
        }
        prop_assert!(net.run_until_idle(1_000_000), "a frame leaked: network never went idle");
        prop_assert_eq!(net.stats().dropped_packets(), dropped_expect);
        let mut got: Vec<_> = net
            .drain_ejected()
            .iter()
            .map(|d| (d.packet.src(), d.packet.payload(), d.hops, d.modified))
            .collect();
        got.sort_unstable();
        delivered_expect.sort_unstable();
        prop_assert_eq!(got, delivered_expect);

        // Second wave through the recycled slots, inspector disarmed.
        net.inspector_mut().armed = false;
        for &(s, kind, payload) in &sends {
            net.inject(Packet::new(NodeId(s % len), NodeId(0), kind, !payload)).expect("inject");
        }
        prop_assert!(net.run_until_idle(1_000_000));
        let mut got: Vec<_> = net
            .drain_ejected()
            .iter()
            .map(|d| (d.packet.src(), d.packet.payload(), d.hops, d.modified))
            .collect();
        got.sort_unstable();
        let mut expect: Vec<_> = sends
            .iter()
            .map(|&(s, _, payload)| (NodeId(s % len), !payload, u32::from(s % len), false))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// A network `reset` between runs observes exactly what a new network
    /// per run does: same per-cycle stats, delivery order and VC
    /// snapshots, same utilization map, cycle count and trace. Leftover
    /// round-robin pointers, counters, credits, packet ids or trace events
    /// from an earlier run would show up as a difference.
    #[test]
    fn reset_network_matches_a_new_one_per_run(
        dims in (2u16..=6, 1u16..=6),
        routing in prop_oneof![
            Just(RoutingKind::Xy),
            Just(RoutingKind::OddEven),
            Just(RoutingKind::WestFirst),
        ],
        runs in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u16>(), 0..8),
                proptest::option::of(any::<u16>()),
                any::<u16>(),
                proptest::collection::vec((any::<u16>(), any::<u16>(), arb_kind(), any::<u32>()), 0..20),
            ),
            2..4,
        ),
    ) {
        let mesh = Mesh2d::new(dims.0, dims.1).expect("valid dims");
        let config = NetworkConfig::new(mesh).with_routing(routing).with_tracing(64);
        let fresh: Vec<u64> = runs
            .iter()
            .map(|run| {
                let mut net = Network::with_inspector(config.clone(), trojans_for(mesh, run));
                burst_drain_digest(&mut net, mesh, run)
            })
            .collect();
        let mut net: Option<Network<Trojans>> = None;
        let reused: Vec<u64> = runs
            .iter()
            .map(|run| {
                let inspector = trojans_for(mesh, run);
                let net = match net.as_mut() {
                    Some(net) => {
                        net.reset(inspector);
                        net
                    }
                    None => net.insert(Network::with_inspector(config.clone(), inspector)),
                };
                burst_drain_digest(net, mesh, run)
            })
            .collect();
        prop_assert_eq!(fresh, reused);
    }
}
