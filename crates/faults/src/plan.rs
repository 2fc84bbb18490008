use std::fmt;
use std::sync::{Arc, Mutex};

use htpb_noc::{
    spec_fields, spec_rate, spec_u64, Direction, FaultAction, FaultHook, NodeId, Packet,
};
use htpb_trojan::ActivationSchedule;

/// Rates are expressed in parts per million: `1_000_000` = always,
/// `10_000` = 1%, `0` = never.
pub const PPM_SCALE: u64 = 1_000_000;

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
/// [`htpb_noc::Network::set_fault_hook`] takes the plan by `Box<dyn
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
///
/// The plan is gated by an [`ActivationSchedule`] (default: always on), and
/// serializes to a compact `key=value` spec string via
/// [`FaultPlan::to_spec`] / [`FaultPlan::from_spec`] so harness jobs can
/// carry plans in their cache keys and journals.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    schedule: ActivationSchedule,
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

/// Configuration equality only — two plans are equal when they would inject
/// the same faults, regardless of how many they already have.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.schedule == other.schedule
            && self.link_down_ppm == other.link_down_ppm
            && self.link_granularity == other.link_granularity
            && self.stall_ppm == other.stall_ppm
            && self.stall_granularity == other.stall_granularity
            && self.flip_ppm == other.flip_ppm
            && self.drop_ppm == other.drop_ppm
    }
}

impl Eq for FaultPlan {}

impl FaultPlan {
    /// A plan with every fault rate at zero (inert until configured).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            schedule: ActivationSchedule::AlwaysOn,
            link_down_ppm: 0,
            link_granularity: 200,
            stall_ppm: 0,
            stall_granularity: 50,
            flip_ppm: 0,
            drop_ppm: 0,
            counters: Arc::new(Mutex::new(FaultCounters::default())),
        }
    }

    /// Gates all fault modes with `schedule` (default: always on).
    #[must_use]
    pub fn with_schedule(mut self, schedule: ActivationSchedule) -> Self {
        self.schedule = schedule;
        self
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

    /// The seed all fault decisions derive from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schedule gating all fault modes.
    #[must_use]
    pub fn schedule(&self) -> ActivationSchedule {
        self.schedule
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

    /// A copy of this plan (same seed, schedule and rates — so the same
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

    /// Serializes the plan (configuration, not counters) to a compact,
    /// order-stable spec string, e.g.
    /// `seed=0xfa017;sched=duty:30/100;link=500@200;stall=100@50;flip=0;drop=10000`.
    #[must_use]
    pub fn to_spec(&self) -> String {
        let sched = match self.schedule {
            ActivationSchedule::AlwaysOn => "always".to_string(),
            ActivationSchedule::DutyCycle { on, period } => format!("duty:{on}/{period}"),
            ActivationSchedule::Window { start, end } => format!("window:{start}..{end}"),
        };
        format!(
            "seed={:#x};sched={};link={}@{};stall={}@{};flip={};drop={}",
            self.seed,
            sched,
            self.link_down_ppm,
            self.link_granularity,
            self.stall_ppm,
            self.stall_granularity,
            self.flip_ppm,
            self.drop_ppm,
        )
    }

    /// Parses a spec string produced by [`FaultPlan::to_spec`]. Fields may
    /// appear in any order; missing fields keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] on unknown keys or malformed values.
    pub fn from_spec(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = FaultPlan::new(0);
        for field in spec_fields(spec) {
            let (key, value) = field.map_err(|f| FaultSpecError::Malformed(f.to_string()))?;
            match key {
                "seed" => plan.seed = parse_u64(value)?,
                "sched" => plan.schedule = parse_schedule(value)?,
                "link" => (plan.link_down_ppm, plan.link_granularity) = parse_rate(value)?,
                "stall" => (plan.stall_ppm, plan.stall_granularity) = parse_rate(value)?,
                "flip" => plan.flip_ppm = parse_ppm(value)?,
                "drop" => plan.drop_ppm = parse_ppm(value)?,
                other => return Err(FaultSpecError::UnknownKey(other.to_string())),
            }
        }
        Ok(plan)
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
    fn any_faults_at(&mut self, cycle: u64) -> bool {
        !self.is_empty() && self.schedule.active_at(cycle)
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

/// Why a fault-plan spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// A field without a `key=value` shape.
    Malformed(String),
    /// A key this version does not know.
    UnknownKey(String),
    /// A value that does not parse as the expected number or schedule.
    BadValue(String),
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::Malformed(field) => write!(f, "malformed fault spec field {field:?}"),
            FaultSpecError::UnknownKey(key) => write!(f, "unknown fault spec key {key:?}"),
            FaultSpecError::BadValue(value) => write!(f, "bad fault spec value {value:?}"),
        }
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_u64(value: &str) -> Result<u64, FaultSpecError> {
    spec_u64(value).ok_or_else(|| FaultSpecError::BadValue(value.to_string()))
}

fn parse_ppm(value: &str) -> Result<u32, FaultSpecError> {
    u32::try_from(parse_u64(value)?).map_err(|_| FaultSpecError::BadValue(value.to_string()))
}

fn parse_rate(value: &str) -> Result<(u32, u64), FaultSpecError> {
    let (ppm, granularity) =
        spec_rate(value).ok_or_else(|| FaultSpecError::BadValue(value.to_string()))?;
    Ok((ppm, granularity.max(1)))
}

fn parse_schedule(value: &str) -> Result<ActivationSchedule, FaultSpecError> {
    if value == "always" {
        return Ok(ActivationSchedule::AlwaysOn);
    }
    if let Some(rest) = value.strip_prefix("duty:") {
        let (on, period) = rest
            .split_once('/')
            .ok_or_else(|| FaultSpecError::BadValue(value.to_string()))?;
        return Ok(ActivationSchedule::DutyCycle {
            on: parse_u64(on)?,
            period: parse_u64(period)?,
        });
    }
    if let Some(rest) = value.strip_prefix("window:") {
        let (start, end) = rest
            .split_once("..")
            .ok_or_else(|| FaultSpecError::BadValue(value.to_string()))?;
        return Ok(ActivationSchedule::Window {
            start: parse_u64(start)?,
            end: parse_u64(end)?,
        });
    }
    Err(FaultSpecError::BadValue(value.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpb_noc::PacketKind;

    fn sample_plans() -> Vec<FaultPlan> {
        vec![
            FaultPlan::new(0),
            FaultPlan::new(0xFA_017)
                .with_link_down(500, 200)
                .with_stalls(100, 50)
                .with_flips(42)
                .with_drops(10_000),
            FaultPlan::new(u64::MAX).with_schedule(ActivationSchedule::DutyCycle {
                on: 30,
                period: 100,
            }),
            FaultPlan::new(7)
                .with_schedule(ActivationSchedule::Window { start: 10, end: 99 })
                .with_drops(1_000_000),
        ]
    }

    #[test]
    fn spec_roundtrip() {
        for plan in sample_plans() {
            let spec = plan.to_spec();
            let parsed = FaultPlan::from_spec(&spec).expect("roundtrip parse");
            assert_eq!(parsed, plan, "spec {spec}");
        }
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(matches!(
            FaultPlan::from_spec("bogus"),
            Err(FaultSpecError::Malformed(_))
        ));
        assert!(matches!(
            FaultPlan::from_spec("turbo=9"),
            Err(FaultSpecError::UnknownKey(_))
        ));
        assert!(matches!(
            FaultPlan::from_spec("drop=many"),
            Err(FaultSpecError::BadValue(_))
        ));
        assert!(matches!(
            FaultPlan::from_spec("sched=duty:nope"),
            Err(FaultSpecError::BadValue(_))
        ));
        assert!(matches!(
            FaultPlan::from_spec("link=5"),
            Err(FaultSpecError::BadValue(_))
        ));
    }

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
    fn schedule_gates_the_plan() {
        let mut plan = FaultPlan::new(1)
            .with_drops(1_000_000)
            .with_schedule(ActivationSchedule::Window { start: 10, end: 20 });
        assert!(!plan.any_faults_at(9));
        assert!(plan.any_faults_at(10));
        assert!(plan.any_faults_at(19));
        assert!(!plan.any_faults_at(20));
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
        use htpb_noc::{Mesh2d, Network, NetworkConfig};
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
