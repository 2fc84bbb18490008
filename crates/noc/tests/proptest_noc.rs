//! Property-based tests of the NoC simulator's end-to-end invariants:
//! conservation (every injected packet is delivered exactly once), payload
//! integrity on a clean network, and minimal routing.

use proptest::prelude::*;

use htpb_noc::{
    InspectOutcome, Mesh2d, Network, NetworkConfig, NodeId, Packet, PacketInspector, PacketKind,
    PacketStore, RawPacket, RoutingKind,
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

    /// Decoding arbitrary wire words never panics: it either yields a valid
    /// packet (which re-encodes to the same prefix) or a structured error.
    #[test]
    fn decode_is_total(words in proptest::array::uniform4(any::<u32>()), len in 0usize..=4) {
        let raw = RawPacket { words, len };
        if let Ok(p) = Packet::decode(&raw) {
            let re = p.encode();
            prop_assert_eq!(re.words[0], words[0]);
            prop_assert_eq!(re.words[2], words[2]);
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

    /// Packet wire encoding round-trips for every representable frame.
    #[test]
    fn packet_encode_decode_roundtrip(
        s in any::<u16>(),
        d in any::<u16>(),
        kind in arb_kind(),
        payload in any::<u32>(),
        opt in proptest::option::of(any::<u32>()),
    ) {
        let mut p = Packet::new(NodeId(s), NodeId(d), kind, payload);
        if let Some(o) = opt {
            p = p.with_options(o);
        }
        let q = Packet::decode(&p.encode()).expect("decode");
        prop_assert_eq!(p, q);
    }
}
