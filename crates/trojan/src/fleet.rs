use htpb_noc::{ActivationSignal, InspectOutcome, Mesh2d, NodeId, Packet, PacketInspector};

use crate::circuit::{BoostRule, HardwareTrojan, TamperRule, TrojanMode};
use crate::schedule::ActivationSchedule;

/// Aggregate counters over a whole fleet of implanted Trojans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Packet headers scanned across all Trojans (one per packet per
    /// infected hop).
    pub packets_seen: u64,
    /// Payload rewrites across all Trojans.
    pub packets_modified: u64,
    /// Configuration packets absorbed across all Trojans.
    pub configs_received: u64,
}

/// A set of hardware Trojans implanted at chosen routers, driving them as a
/// single [`PacketInspector`] for [`htpb_noc::Network::with_inspector`].
///
/// The fleet also carries an [`ActivationSchedule`] gating all its Trojans,
/// modelling the attacker's ON/OFF configuration-packet stream
/// (Section III-B) without simulating each packet.
#[derive(Debug, Clone)]
pub struct TrojanFleet {
    /// The Trojans, sorted by node, one per node.
    trojans: Vec<HardwareTrojan>,
    /// `at[node]`: index into `trojans` of the Trojan implanted at `node`,
    /// or [`CLEAN`]; nodes above the highest infected one are out of range.
    /// [`PacketInspector::inspect`] runs at every router for every packet,
    /// so the lookup is a bounds check and a load.
    at: Vec<u32>,
    schedule: ActivationSchedule,
}

/// `TrojanFleet::at` entry of a router with no Trojan.
const CLEAN: u32 = u32::MAX;

impl TrojanFleet {
    /// Implants one Trojan (all sharing `rule`) at each node in `nodes`.
    /// Duplicate nodes collapse to a single Trojan.
    #[must_use]
    pub fn new(nodes: &[NodeId], rule: TamperRule) -> Self {
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut at = vec![CLEAN; sorted.last().map_or(0, |n| usize::from(n.0) + 1)];
        for (i, n) in sorted.iter().enumerate() {
            at[usize::from(n.0)] = i as u32;
        }
        TrojanFleet {
            trojans: sorted
                .into_iter()
                .map(|n| HardwareTrojan::new(n, rule))
                .collect(),
            at,
            schedule: ActivationSchedule::AlwaysOn,
        }
    }

    /// An empty fleet — a clean chip.
    #[must_use]
    pub fn clean() -> Self {
        TrojanFleet::new(&[], TamperRule::Zero)
    }

    /// Replaces the activation schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: ActivationSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Adds the attacker-side boost extension to every Trojan in the fleet
    /// (see [`BoostRule`]).
    #[must_use]
    pub fn with_boost(mut self, boost: BoostRule) -> Self {
        for ht in &mut self.trojans {
            *ht = ht.clone().with_boost(boost);
        }
        self
    }

    /// Selects the DoS class for every Trojan in the fleet (see
    /// [`TrojanMode`]).
    #[must_use]
    pub fn with_mode(mut self, mode: TrojanMode) -> Self {
        for ht in &mut self.trojans {
            *ht = ht.clone().with_mode(mode);
        }
        self
    }

    /// The active schedule.
    #[must_use]
    pub fn schedule(&self) -> ActivationSchedule {
        self.schedule
    }

    /// Number of implanted Trojans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trojans.len()
    }

    /// Whether the fleet is empty (clean chip).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trojans.is_empty()
    }

    /// The infected router ids, in ascending order.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeId> {
        self.trojans.iter().map(HardwareTrojan::node).collect()
    }

    /// Index into `trojans` of the Trojan at `node`, if there is one.
    #[inline]
    fn index(&self, node: NodeId) -> Option<usize> {
        match self.at.get(usize::from(node.0)) {
            Some(&i) if i != CLEAN => Some(i as usize),
            _ => None,
        }
    }

    /// Whether `node` hosts a Trojan.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.index(node).is_some()
    }

    /// Read access to one Trojan.
    #[must_use]
    pub fn trojan(&self, node: NodeId) -> Option<&HardwareTrojan> {
        self.index(node).map(|i| &self.trojans[i])
    }

    /// Directly configures every Trojan's registers, bypassing the in-band
    /// `CONFIG_CMD` broadcast: each agent in `attackers` is registered with
    /// every Trojan. Convenient for experiments that do not need to simulate
    /// the configuration phase; the in-band path is exercised by
    /// [`TrojanFleet::config_broadcast`] + network delivery.
    pub fn configure_all(&mut self, attackers: &[NodeId], manager: NodeId, active: bool) {
        let signal = if active {
            ActivationSignal::On
        } else {
            ActivationSignal::Off
        };
        for ht in &mut self.trojans {
            let node = ht.node();
            for attacker in attackers {
                let mut cfg = Packet::config_command(*attacker, node, manager, signal);
                ht.scan(&mut cfg, true);
            }
            if attackers.is_empty() {
                // Manager-as-agent placeholder keeps the Trojan armable even
                // with no spared sources (pure infection-rate experiments).
                let mut cfg = Packet::config_command(manager, node, manager, signal);
                ht.scan(&mut cfg, true);
            }
        }
    }

    /// Builds the broadcast of `CONFIG_CMD` packets the attacker sends to
    /// set up the attack (Section III-B: "it broadcasts the configuration
    /// packet"): one unicast copy per node of `mesh`.
    #[must_use]
    pub fn config_broadcast(
        mesh: Mesh2d,
        attacker: NodeId,
        manager: NodeId,
        signal: ActivationSignal,
    ) -> Vec<Packet> {
        mesh.iter_nodes()
            .filter(|n| *n != attacker)
            .map(|n| Packet::config_command(attacker, n, manager, signal))
            .collect()
    }

    /// Aggregate counters over the fleet.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        let mut s = FleetStats::default();
        for ht in &self.trojans {
            s.packets_seen += ht.packets_seen();
            s.packets_modified += ht.packets_modified();
            s.configs_received += ht.configs_received();
        }
        s
    }
}

impl PacketInspector for TrojanFleet {
    fn inspect(&mut self, router: NodeId, cycle: u64, packet: &mut Packet) -> InspectOutcome {
        let Some(i) = self.index(router) else {
            return InspectOutcome::untouched();
        };
        self.trojans[i].scan(packet, self.schedule.active_at(cycle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpb_noc::{Network, NetworkConfig, PacketKind};

    const MANAGER: NodeId = NodeId(0);
    const ATTACKER: NodeId = NodeId(15);

    #[test]
    fn fleet_builds_and_dedups() {
        let fleet = TrojanFleet::new(&[NodeId(1), NodeId(2), NodeId(1)], TamperRule::Zero);
        assert_eq!(fleet.len(), 2);
        assert!(fleet.contains(NodeId(1)));
        assert!(!fleet.contains(NodeId(3)));
        assert_eq!(fleet.nodes(), vec![NodeId(1), NodeId(2)]);
        assert!(TrojanFleet::clean().is_empty());
    }

    #[test]
    fn dense_index_collapses_duplicates_and_keeps_nodes_ascending() {
        let fleet = TrojanFleet::new(
            &[NodeId(9), NodeId(3), NodeId(9), NodeId(0), NodeId(3)],
            TamperRule::Zero,
        );
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.nodes(), vec![NodeId(0), NodeId(3), NodeId(9)]);
        for node in fleet.nodes() {
            assert_eq!(fleet.trojan(node).map(HardwareTrojan::node), Some(node));
        }
        assert!(fleet.trojan(NodeId(4)).is_none());
    }

    #[test]
    fn inspect_above_the_highest_trojan_and_on_an_empty_fleet_is_untouched() {
        let mut fleet = TrojanFleet::new(&[NodeId(2), NodeId(5)], TamperRule::Zero);
        fleet.configure_all(&[ATTACKER], MANAGER, true);
        let mut clean = TrojanFleet::clean();
        clean.configure_all(&[ATTACKER], MANAGER, true);
        for router in [NodeId(6), NodeId(63), NodeId(u16::MAX)] {
            for fleet in [&mut fleet, &mut clean] {
                let mut req = Packet::power_request(NodeId(3), MANAGER, 1_000);
                assert_eq!(
                    fleet.inspect(router, 0, &mut req),
                    InspectOutcome::untouched()
                );
                assert_eq!(req.payload(), 1_000);
                assert!(!fleet.contains(router));
            }
        }
        // The infected routers still bite, and only they saw the packets.
        let mut req = Packet::power_request(NodeId(3), MANAGER, 1_000);
        assert!(fleet.inspect(NodeId(5), 0, &mut req).modified);
        assert_eq!(fleet.stats().packets_seen, 2 + 1);
        assert_eq!(clean.stats(), FleetStats::default());
    }

    #[test]
    fn in_band_configuration_then_attack() {
        // End-to-end through a real network: the attacker broadcasts
        // CONFIG_CMD packets, then a victim's POWER_REQ through an infected
        // router gets zeroed.
        let mesh = Mesh2d::new(4, 4).unwrap();
        let fleet = TrojanFleet::new(&[NodeId(1), NodeId(2)], TamperRule::Zero);
        let mut net = Network::with_inspector(NetworkConfig::new(mesh), fleet);

        for cfg in TrojanFleet::config_broadcast(mesh, ATTACKER, MANAGER, ActivationSignal::On) {
            net.inject(cfg).unwrap();
        }
        assert!(net.run_until_idle(10_000));
        net.drain_ejected();
        for node in [NodeId(1), NodeId(2)] {
            let ht = net.inspector().trojan(node).unwrap();
            assert_eq!(ht.state().manager, Some(MANAGER));
            assert!(ht.state().is_attacker(ATTACKER));
            assert!(ht.state().active);
        }

        // Victim at node 3 routes 3 -> 2 -> 1 -> 0 under XY: infected.
        net.inject(Packet::power_request(NodeId(3), MANAGER, 4_000))
            .unwrap();
        // Attacker's own request passes through node 14..12? XY from 15 to 0
        // passes row 3 then column 0; pick a clean-path victim check via the
        // delivered flags instead.
        net.inject(Packet::power_request(ATTACKER, MANAGER, 4_000))
            .unwrap();
        assert!(net.run_until_idle(10_000));
        let out = net.drain_ejected();
        let victim = out
            .iter()
            .find(|d| d.packet.src() == NodeId(3))
            .expect("victim packet delivered");
        assert!(victim.modified);
        assert_eq!(victim.packet.payload(), 0);
        let attacker = out
            .iter()
            .find(|d| d.packet.src() == ATTACKER)
            .expect("attacker packet delivered");
        assert!(!attacker.modified);
        assert_eq!(attacker.packet.payload(), 4_000);
    }

    #[test]
    fn schedule_gates_the_whole_fleet() {
        let mut fleet = TrojanFleet::new(&[NodeId(1)], TamperRule::Zero).with_schedule(
            ActivationSchedule::DutyCycle {
                on: 100,
                period: 200,
            },
        );
        fleet.configure_all(&[ATTACKER], MANAGER, true);
        let mut req = Packet::power_request(NodeId(3), MANAGER, 1_000);
        assert!(!fleet.inspect(NodeId(1), 150, &mut req).modified);
        assert!(fleet.inspect(NodeId(1), 250, &mut req).modified);
        assert_eq!(req.payload(), 0);
    }

    #[test]
    fn configure_all_bypasses_network() {
        let mut fleet = TrojanFleet::new(&[NodeId(4), NodeId(5)], TamperRule::ScalePercent(10));
        fleet.configure_all(&[ATTACKER], MANAGER, true);
        for node in fleet.nodes() {
            let st = fleet.trojan(node).unwrap().state();
            assert_eq!(st.manager, Some(MANAGER));
            assert!(st.is_attacker(ATTACKER));
            assert!(st.active);
        }
        assert_eq!(fleet.stats().configs_received, 2);
    }

    #[test]
    fn stats_aggregate_across_trojans() {
        let mut fleet = TrojanFleet::new(&[NodeId(1), NodeId(2)], TamperRule::Zero);
        fleet.configure_all(&[ATTACKER], MANAGER, true);
        let mut req = Packet::power_request(NodeId(3), MANAGER, 1_000);
        fleet.inspect(NodeId(1), 0, &mut req);
        let mut req2 = Packet::power_request(NodeId(3), MANAGER, 1_000);
        fleet.inspect(NodeId(2), 0, &mut req2);
        let s = fleet.stats();
        assert_eq!(s.packets_modified, 2);
        // 2 configs + 2 power requests scanned.
        assert_eq!(s.packets_seen, 4);
    }

    #[test]
    fn broadcast_covers_all_other_nodes() {
        let mesh = Mesh2d::new(4, 4).unwrap();
        let pkts = TrojanFleet::config_broadcast(mesh, ATTACKER, MANAGER, ActivationSignal::On);
        assert_eq!(pkts.len() as u32, mesh.nodes() - 1);
        assert!(pkts.iter().all(|p| p.src() == ATTACKER));
        assert!(pkts
            .iter()
            .all(|p| matches!(p.kind(), PacketKind::ConfigCmd(_))));
    }

    #[test]
    fn fleet_boost_applies_at_every_trojan() {
        let mut fleet =
            TrojanFleet::new(&[NodeId(1)], TamperRule::Zero).with_boost(BoostRule::new(150));
        fleet.configure_all(&[ATTACKER], MANAGER, true);
        let mut req = Packet::power_request(ATTACKER, MANAGER, 1_000);
        assert!(fleet.inspect(NodeId(1), 0, &mut req).modified);
        assert_eq!(req.payload(), 1_500);
    }

    #[test]
    fn uninfected_router_inspection_is_noop() {
        let mut fleet = TrojanFleet::new(&[NodeId(1)], TamperRule::Zero);
        fleet.configure_all(&[ATTACKER], MANAGER, true);
        let mut req = Packet::power_request(NodeId(3), MANAGER, 1_000);
        assert!(!fleet.inspect(NodeId(7), 0, &mut req).modified);
        assert_eq!(req.payload(), 1_000);
    }
}
