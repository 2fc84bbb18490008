//! Deterministic fault injection for the power-budgeting pipeline.
//!
//! The paper's attack model assumes a *perfect* NoC: every `POWER_REQ`
//! either arrives intact or was tampered with by a Trojan. Real silicon is
//! noisier — links go down, routers stall under voltage droop, buffers flip
//! bits, packets are lost — and any claim about detecting the Trojan is only
//! credible against that noisy baseline. This module provides the noise:
//!
//! * [`FaultPlan`] — a seeded description of *which* faults occur *when*,
//!   implementing [`FaultHook`]. Every decision is a pure hash of
//!   `(seed, entity, time)`, so the same plan replays the same faults bit
//!   for bit, independently of call order or platform.
//! * [`FaultCounters`] — ground-truth tallies of the faults actually applied
//!   during a run, read back with [`FaultPlan::counters`] (via
//!   [`crate::Network::take_fault_hook`]).
//!
//! An **empty** plan (all rates zero — [`FaultPlan::new`]) reports "no
//! faults" from its per-cycle gate, which keeps the simulator's fault path
//! to a single branch and the network bit-identical to a build with no hook
//! installed. That equivalence is locked by `tests/proptest_faults.rs` and
//! the NoC golden digests.
//!
//! ```
//! use htpb_noc::{FaultPlan, Mesh2d, Network, NetworkConfig, NodeId, Packet};
//!
//! let plan = FaultPlan::new(0xFA_017).with_drops(10_000); // 1% of packets
//! let mesh = Mesh2d::new(4, 4).unwrap();
//! let mut net = Network::new(NetworkConfig::new(mesh));
//! net.set_fault_hook(Box::new(plan));
//! net.inject(Packet::power_request(NodeId(0), NodeId(15), 1500)).unwrap();
//! net.run_until_idle(10_000);
//! ```

use std::sync::{Arc, Mutex};

use crate::fault::{FaultAction, FaultHook};
use crate::packet::Packet;
use crate::topology::{Direction, NodeId};

/// Rates are expressed in parts per million: `1_000_000` = always,
/// `10_000` = 1%, `0` = never.
pub(crate) const PPM_SCALE: u64 = 1_000_000;

/// Hash domains, one per fault mode, so decisions in different modes are
/// statistically independent even for the same entity and cycle.
const DOMAIN_LINK: u64 = 0x11;
const DOMAIN_STALL: u64 = 0x22;
const DOMAIN_DROP: u64 = 0x33;
const DOMAIN_FLIP: u64 = 0x44;

/// Ground-truth tallies of faults applied by a [`FaultPlan`] during a run.
///
/// These count *effective* faults — decisions the pipeline actually asked
/// about and acted on — not scheduled ones: a link declared down while no
/// flit wanted it never shows up here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Switch-arbitration attempts refused because the output link was down.
    pub link_denials: u64,
    /// (router, cycle) pairs in which the router was stalled while holding
    /// flits.
    pub stall_cycles: u64,
    /// Payload words hit by a single-bit flip.
    pub bit_flips: u64,
    /// Whole packets sunk by a drop fault.
    pub packet_drops: u64,
}

impl FaultCounters {
    /// Total fault events of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.link_denials + self.stall_cycles + self.bit_flips + self.packet_drops
    }
}

/// A handle onto a [`FaultPlan`]'s live counters.
///
/// [`crate::Network::set_fault_hook`] takes the plan by `Box<dyn
/// FaultHook>`, which cannot be downcast back; grab a handle with
/// [`FaultPlan::counter_handle`] *before* installing the plan and read the
/// tallies any time, including mid-run.
#[derive(Debug, Clone)]
pub struct FaultCounterHandle(Arc<Mutex<FaultCounters>>);

impl FaultCounterHandle {
    /// Snapshot of the counters at this moment.
    ///
    /// # Panics
    ///
    /// Panics if a previous reader panicked while holding the lock (cannot
    /// happen from this crate's code, which never panics under the lock).
    #[must_use]
    pub fn get(&self) -> FaultCounters {
        *self.0.lock().expect("fault counter lock poisoned")
    }
}

/// A deterministic, seeded fault-injection plan.
///
/// Each fault mode fires with a configured probability (in parts per
/// million), decided by hashing `(seed, mode, entity, time)` — never by a
/// stateful RNG — so the plan is a pure function: replaying the same plan
/// against the same traffic reproduces the same faults regardless of how
/// many times or in what order the simulator consults it.
///
/// * **Link outages** and **router stalls** are decided per *window* of
///   `granularity` cycles, modelling sustained outages rather than
///   single-cycle glitches.
/// * **Bit flips** and **packet drops** are decided per packet per router,
///   at the inspection point of the pipeline.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    link_down_ppm: u32,
    link_granularity: u64,
    stall_ppm: u32,
    stall_granularity: u64,
    flip_ppm: u32,
    drop_ppm: u32,
    /// Shared with any [`FaultCounterHandle`]s; a [`FaultPlan::clone`]
    /// shares the same tallies.
    counters: Arc<Mutex<FaultCounters>>,
}

impl FaultPlan {
    /// A plan with every fault rate at zero (inert until configured).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            link_down_ppm: 0,
            link_granularity: 200,
            stall_ppm: 0,
            stall_granularity: 50,
            flip_ppm: 0,
            drop_ppm: 0,
            counters: Arc::new(Mutex::new(FaultCounters::default())),
        }
    }

    /// Takes each link down with probability `ppm`/million per window of
    /// `granularity` cycles.
    #[must_use]
    pub fn with_link_down(mut self, ppm: u32, granularity: u64) -> Self {
        self.link_down_ppm = ppm;
        self.link_granularity = granularity.max(1);
        self
    }

    /// Stalls each router with probability `ppm`/million per window of
    /// `granularity` cycles.
    #[must_use]
    pub fn with_stalls(mut self, ppm: u32, granularity: u64) -> Self {
        self.stall_ppm = ppm;
        self.stall_granularity = granularity.max(1);
        self
    }

    /// Flips one payload bit in `ppm`/million of per-router packet
    /// inspections.
    #[must_use]
    pub fn with_flips(mut self, ppm: u32) -> Self {
        self.flip_ppm = ppm;
        self
    }

    /// Drops `ppm`/million of packets at each router they transit.
    #[must_use]
    pub fn with_drops(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm;
        self
    }

    /// Whether every fault rate is zero (the plan can never fire).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.link_down_ppm == 0 && self.stall_ppm == 0 && self.flip_ppm == 0 && self.drop_ppm == 0
    }

    /// Tallies of the faults applied so far.
    ///
    /// # Panics
    ///
    /// See [`FaultCounterHandle::get`].
    #[must_use]
    pub fn counters(&self) -> FaultCounters {
        *self.counters.lock().expect("fault counter lock poisoned")
    }

    /// A handle onto the live counters that survives installing the plan
    /// into a network as a boxed hook.
    #[must_use]
    pub fn counter_handle(&self) -> FaultCounterHandle {
        FaultCounterHandle(Arc::clone(&self.counters))
    }

    /// A copy of this plan (same seed and rates — so the same
    /// fault decisions) with its own zeroed counters, detached from this
    /// plan's. `clone()` shares the counter cell; use this when running the
    /// same plan in several networks whose tallies must stay separate.
    #[must_use]
    pub fn with_fresh_counters(&self) -> FaultPlan {
        let mut plan = self.clone();
        plan.counters = Arc::new(Mutex::new(FaultCounters::default()));
        plan
    }

    fn tally(&self, bump: impl FnOnce(&mut FaultCounters)) {
        bump(&mut self.counters.lock().expect("fault counter lock poisoned"));
    }

    /// One decision: hash `(seed, domain, a, b)` and compare against `ppm`.
    /// Returns the hash for callers that need extra bits (e.g. which bit to
    /// flip), or `None` when the fault does not fire.
    fn decide(&self, domain: u64, a: u64, b: u64, ppm: u32) -> Option<u64> {
        if ppm == 0 {
            return None;
        }
        let mut x = self
            .seed
            .wrapping_add(domain.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x ^= a.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= b.wrapping_mul(0x94D0_49BB_1331_11EB);
        // splitmix64 finalizer: full avalanche so per-mille thresholds are
        // unbiased across entities and windows.
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % PPM_SCALE < u64::from(ppm)).then_some(x)
    }

    /// Identity of a packet for fault decisions: source, destination and
    /// kind — deliberately *not* the payload, so a flip at one router does
    /// not perturb decisions at later routers.
    fn packet_entity(packet: &Packet) -> u64 {
        (u64::from(packet.src().0) << 32)
            | (u64::from(packet.dst().0) << 16)
            | u64::from(packet.kind().to_type_word())
    }
}

impl FaultHook for FaultPlan {
    fn any_faults_at(&mut self, _cycle: u64) -> bool {
        !self.is_empty()
    }

    fn link_down(&mut self, node: NodeId, dir: Direction, cycle: u64) -> bool {
        let entity = u64::from(node.0) * 4 + dir.index() as u64;
        let window = cycle / self.link_granularity;
        let down = self
            .decide(DOMAIN_LINK, entity, window, self.link_down_ppm)
            .is_some();
        if down {
            self.tally(|c| c.link_denials += 1);
        }
        down
    }

    fn router_stalled(&mut self, node: NodeId, cycle: u64) -> bool {
        let window = cycle / self.stall_granularity;
        let stalled = self
            .decide(DOMAIN_STALL, u64::from(node.0), window, self.stall_ppm)
            .is_some();
        if stalled {
            self.tally(|c| c.stall_cycles += 1);
        }
        stalled
    }

    fn packet_fault(&mut self, node: NodeId, cycle: u64, packet: &Packet) -> FaultAction {
        let entity = Self::packet_entity(packet) ^ (u64::from(node.0) << 48);
        if self
            .decide(DOMAIN_DROP, entity, cycle, self.drop_ppm)
            .is_some()
        {
            self.tally(|c| c.packet_drops += 1);
            return FaultAction::drop_packet();
        }
        if let Some(hash) = self.decide(DOMAIN_FLIP, entity, cycle, self.flip_ppm) {
            self.tally(|c| c.bit_flips += 1);
            // The flipped bit position comes from untouched high hash bits.
            return FaultAction::flip(1 << ((hash >> 32) % 32));
        }
        FaultAction::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketKind;

    #[test]
    fn empty_plan_never_engages() {
        let mut plan = FaultPlan::new(0xDEAD_BEEF);
        for cycle in [0u64, 1, 999, u64::MAX] {
            assert!(!plan.any_faults_at(cycle));
        }
        assert!(plan.is_empty());
        assert_eq!(plan.counters(), FaultCounters::default());
    }

    #[test]
    fn decisions_are_deterministic() {
        let build = || {
            FaultPlan::new(123)
                .with_link_down(300_000, 10)
                .with_stalls(300_000, 10)
                .with_drops(300_000)
                .with_flips(300_000)
        };
        let mut a = build();
        let mut b = build();
        let packet = Packet::power_request(NodeId(3), NodeId(9), 1234);
        for cycle in 0..2_000u64 {
            assert_eq!(
                a.link_down(NodeId(5), Direction::East, cycle),
                b.link_down(NodeId(5), Direction::East, cycle)
            );
            assert_eq!(
                a.router_stalled(NodeId(7), cycle),
                b.router_stalled(NodeId(7), cycle)
            );
            assert_eq!(
                a.packet_fault(NodeId(2), cycle, &packet),
                b.packet_fault(NodeId(2), cycle, &packet)
            );
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().total() > 0, "30% rates must fire somewhere");
    }

    #[test]
    fn rates_land_near_target() {
        let mut plan = FaultPlan::new(99).with_drops(100_000); // 10%
        let mut fired = 0u64;
        let trials = 20_000u64;
        for cycle in 0..trials {
            let p = Packet::new(
                NodeId((cycle % 64) as u16),
                NodeId(((cycle * 7) % 64) as u16),
                PacketKind::Data,
                1,
            );
            if !plan.packet_fault(NodeId(0), cycle, &p).is_none() {
                fired += 1;
            }
        }
        let rate = fired as f64 / trials as f64;
        assert!((rate - 0.10).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn outage_windows_are_sustained() {
        // Within one granularity window the decision must not change.
        let mut plan = FaultPlan::new(5).with_link_down(500_000, 100);
        for window in 0..50u64 {
            let first = plan.link_down(NodeId(8), Direction::North, window * 100);
            for offset in 1..100 {
                assert_eq!(
                    plan.link_down(NodeId(8), Direction::North, window * 100 + offset),
                    first,
                    "window {window} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn counters_track_applied_faults() {
        let mut plan = FaultPlan::new(11)
            .with_drops(1_000_000)
            .with_flips(1_000_000);
        let p = Packet::power_request(NodeId(0), NodeId(1), 500);
        let action = plan.packet_fault(NodeId(0), 0, &p);
        assert!(action.drop, "drop wins over flip");
        assert_eq!(plan.counters().packet_drops, 1);
        assert_eq!(plan.counters().bit_flips, 0);
    }

    #[test]
    fn full_drop_plan_sinks_all_traffic() {
        use crate::{Mesh2d, Network, NetworkConfig};
        let mesh = Mesh2d::new(4, 4).unwrap();
        let plan = FaultPlan::new(3).with_drops(1_000_000);
        let counters = plan.counter_handle();
        let mut net = Network::new(NetworkConfig::new(mesh));
        net.set_fault_hook(Box::new(plan));
        for i in 0..8u16 {
            net.inject(Packet::power_request(NodeId(i), NodeId(15), 100))
                .unwrap();
        }
        assert!(net.run_until_idle(100_000));
        assert_eq!(net.stats().delivered_packets(), 0);
        assert_eq!(net.stats().dropped_packets(), 8);
        // The handle still sees the tallies of the boxed, installed plan.
        assert_eq!(counters.get().packet_drops, 8);
        assert!(net.take_fault_hook().is_some());
    }
}
