//! Serializable conformance scenarios: everything a differential run needs,
//! in one small struct with a compact single-line spec string.
//!
//! The spec format is the unit of exchange for the whole testkit: failing
//! scenarios are shrunk and appended to the checked-in regression corpus as
//! spec lines, CI prints spec lines for any divergence it finds, and
//! `Scenario::from_spec` replays them exactly.
//!
//! ```
//! use htpb_testkit::Scenario;
//!
//! let s = Scenario::random(42);
//! let round = Scenario::from_spec(&s.to_spec()).unwrap();
//! assert_eq!(s, round);
//! ```

use htpb_noc::{
    spec_fields, spec_rate, spec_u64, FaultPlan, Mesh2d, NetworkConfig, NodeId, Packet, PacketKind,
    RoutingKind,
};
use htpb_trojan::{ActivationSchedule, TamperRule};

/// A self-contained description of one differential-conformance run:
/// topology, routing, traffic, Trojan placement and fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Mesh width (columns).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
    /// Routing algorithm both implementations use.
    pub routing: RoutingKind,
    /// Cycles of traffic generation (both networks then drain).
    pub cycles: u64,
    /// Per-node injection probability in permille (0..=1000).
    pub rate_permille: u32,
    /// Share of injected packets that are power requests, in percent; the
    /// rest are data packets to random destinations.
    pub power_req_pct: u32,
    /// Seed of the traffic generator.
    pub seed: u64,
    /// Routers hosting a payload-zeroing Trojan.
    pub trojans: Vec<u16>,
    /// Trojan duty in tenths (0 = never active, 10 = always on; anything in
    /// between duty-cycles over a 20-cycle period).
    pub duty_tenths: u32,
    /// Node id of the global manager (destination of power requests and the
    /// address the Trojans match on).
    pub manager: u16,
    /// Seed of the fault plan (only meaningful when any ppm below is > 0).
    pub fault_seed: u64,
    /// Link-down probability, ppm per (link, window).
    pub link_ppm: u32,
    /// Link-fault window granularity in cycles.
    pub link_gran: u32,
    /// Router-stall probability, ppm per (router, window).
    pub stall_ppm: u32,
    /// Stall window granularity in cycles.
    pub stall_gran: u32,
    /// Payload bit-flip probability, ppm per (packet, router).
    pub flip_ppm: u32,
    /// Whole-packet drop probability, ppm per (packet, router).
    pub drop_ppm: u32,
}

fn routing_tag(kind: RoutingKind) -> &'static str {
    match kind {
        RoutingKind::Xy => "xy",
        RoutingKind::OddEven => "oe",
        RoutingKind::WestFirst => "wf",
    }
}

fn routing_from_tag(tag: &str) -> Option<RoutingKind> {
    match tag {
        "xy" => Some(RoutingKind::Xy),
        "oe" => Some(RoutingKind::OddEven),
        "wf" => Some(RoutingKind::WestFirst),
        _ => None,
    }
}

/// SplitMix64: tiny, high-quality, and stable across platforms — the
/// generator behind all scenario randomness so spec strings replay exactly.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

impl Scenario {
    /// Number of nodes in the scenario's mesh.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        u32::from(self.width) * u32::from(self.height)
    }

    /// Whether the fault plan would inject anything.
    #[must_use]
    pub(crate) fn has_faults(&self) -> bool {
        self.link_ppm > 0 || self.stall_ppm > 0 || self.flip_ppm > 0 || self.drop_ppm > 0
    }

    /// The mesh this scenario runs on.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are invalid; scenario constructors and the
    /// shrinker only ever produce valid dimensions.
    #[must_use]
    pub fn mesh(&self) -> Mesh2d {
        Mesh2d::new(self.width, self.height).expect("scenario mesh dimensions are valid")
    }

    /// The network configuration both the optimized and reference networks
    /// are built from: Table-I router defaults, scenario routing, and a
    /// trace buffer large enough that no conformance-sized run ever evicts
    /// (eviction would make trace fingerprints order-sensitive in a way the
    /// diff does not intend to test).
    #[must_use]
    pub(crate) fn network_config(&self) -> NetworkConfig {
        NetworkConfig::new(self.mesh())
            .with_routing(self.routing)
            .with_tracing(1 << 16)
    }

    /// The Trojan activation schedule encoded by `duty_tenths`.
    #[must_use]
    pub(crate) fn trojan_schedule(&self) -> ActivationSchedule {
        match self.duty_tenths {
            0 => ActivationSchedule::duty(0.0, 20),
            10.. => ActivationSchedule::AlwaysOn,
            d => ActivationSchedule::duty(f64::from(d) / 10.0, 20),
        }
    }

    /// The payload rewrite the scenario's Trojans apply — zeroing, the
    /// paper's strongest starvation attack.
    #[must_use]
    pub fn tamper_rule(&self) -> TamperRule {
        TamperRule::Zero
    }

    /// Builds the scenario's fault plan (empty when all ppm are zero, which
    /// [`FaultPlan::is_empty`] reports, keeping the no-fault path
    /// hook-free).
    #[must_use]
    pub(crate) fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.fault_seed);
        if self.link_ppm > 0 {
            plan = plan.with_link_down(self.link_ppm, u64::from(self.link_gran.max(1)));
        }
        if self.stall_ppm > 0 {
            plan = plan.with_stalls(self.stall_ppm, u64::from(self.stall_gran.max(1)));
        }
        if self.flip_ppm > 0 {
            plan = plan.with_flips(self.flip_ppm);
        }
        if self.drop_ppm > 0 {
            plan = plan.with_drops(self.drop_ppm);
        }
        plan
    }

    /// The packet (if any) node `src` injects this cycle, drawn from `rng`.
    ///
    /// Exactly one `rng` consumption pattern per call, so the traffic stream
    /// is a pure function of (seed, call order) — the diff runner calls this
    /// once per node per cycle for both networks from a single generator.
    #[must_use]
    pub(crate) fn traffic_for(&self, rng: &mut SplitMix64, src: u32) -> Option<Packet> {
        if rng.below(1000) >= u64::from(self.rate_permille) {
            return None;
        }
        let src = NodeId(src as u16);
        let kind_roll = rng.below(100);
        let payload = (rng.next_u64() & 0xFFFF) as u32;
        let dst_roll = rng.below(u64::from(self.nodes()));
        if kind_roll < u64::from(self.power_req_pct) {
            Some(Packet::power_request(src, NodeId(self.manager), payload))
        } else {
            let dst = NodeId(dst_roll as u16);
            Some(Packet::new(src, dst, PacketKind::Data, payload))
        }
    }

    /// Generates a random scenario from a seed. Meshes are tiny (at most
    /// 4×4) so a single run costs microseconds and thousands fit in a CI
    /// smoke budget; roughly half the scenarios carry faults.
    #[must_use]
    pub fn random(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let width = rng.range(2, 4) as u16;
        let height = rng.range(1, 4) as u16;
        let nodes = u64::from(width) * u64::from(height);
        let manager = rng.below(nodes) as u16;
        let n_trojans = rng.below(3);
        let mut trojans = Vec::new();
        for _ in 0..n_trojans {
            let t = rng.below(nodes) as u16;
            if !trojans.contains(&t) {
                trojans.push(t);
            }
        }
        trojans.sort_unstable();
        let with_faults = rng.below(2) == 1;
        let (link_ppm, stall_ppm, flip_ppm, drop_ppm) = if with_faults {
            (
                rng.below(30_000) as u32,
                rng.below(30_000) as u32,
                rng.below(30_000) as u32,
                rng.below(30_000) as u32,
            )
        } else {
            (0, 0, 0, 0)
        };
        Scenario {
            width,
            height,
            routing: RoutingKind::ALL[rng.below(3) as usize],
            cycles: rng.range(40, 260),
            rate_permille: rng.range(50, 450) as u32,
            power_req_pct: rng.range(0, 100) as u32,
            seed: rng.next_u64(),
            trojans,
            duty_tenths: rng.range(0, 10) as u32,
            manager,
            fault_seed: rng.next_u64(),
            link_ppm,
            link_gran: [16, 32, 64][rng.below(3) as usize],
            stall_ppm,
            stall_gran: [16, 32, 64][rng.below(3) as usize],
            flip_ppm,
            drop_ppm,
        }
    }

    /// Encodes the scenario as a compact one-line spec string.
    #[must_use]
    pub fn to_spec(&self) -> String {
        let trojans = self
            .trojans
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(".");
        format!(
            "mesh={}x{};routing={};cycles={};rate={};pr={};seed={:#x};trojans={};duty={};manager={};fseed={:#x};link={}@{};stall={}@{};flip={};drop={}",
            self.width,
            self.height,
            routing_tag(self.routing),
            self.cycles,
            self.rate_permille,
            self.power_req_pct,
            self.seed,
            trojans,
            self.duty_tenths,
            self.manager,
            self.fault_seed,
            self.link_ppm,
            self.link_gran,
            self.stall_ppm,
            self.stall_gran,
            self.flip_ppm,
            self.drop_ppm,
        )
    }

    /// Decodes a spec string produced by [`Scenario::to_spec`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        // Every number must fit its field: `mesh=65538x1` is an error, not
        // a 2x1 mesh.
        fn num<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
            spec_u64(v)
                .and_then(|x| T::try_from(x).ok())
                .ok_or_else(|| format!("bad or out-of-range number {v:?}"))
        }
        let mut out = Scenario {
            width: 0,
            height: 0,
            routing: RoutingKind::Xy,
            cycles: 0,
            rate_permille: 0,
            power_req_pct: 0,
            seed: 0,
            trojans: Vec::new(),
            duty_tenths: 10,
            manager: 0,
            fault_seed: 0,
            link_ppm: 0,
            link_gran: 64,
            stall_ppm: 0,
            stall_gran: 64,
            flip_ppm: 0,
            drop_ppm: 0,
        };
        let mut saw_mesh = false;
        for field in spec_fields(spec) {
            let (key, value) = field.map_err(|f| format!("field {f:?} is not key=value"))?;
            match key {
                "mesh" => {
                    let (w, h) = value
                        .split_once('x')
                        .ok_or_else(|| format!("bad mesh {value:?}"))?;
                    out.width = num(w)?;
                    out.height = num(h)?;
                    saw_mesh = true;
                }
                "routing" => {
                    out.routing = routing_from_tag(value)
                        .ok_or_else(|| format!("unknown routing {value:?}"))?;
                }
                "cycles" => out.cycles = num(value)?,
                "rate" => out.rate_permille = num(value)?,
                "pr" => out.power_req_pct = num(value)?,
                "seed" => out.seed = num(value)?,
                "trojans" => {
                    out.trojans = value
                        .split('.')
                        .filter(|s| !s.is_empty())
                        .map(num)
                        .collect::<Result<_, _>>()?;
                }
                "duty" => out.duty_tenths = num(value)?,
                "manager" => out.manager = num(value)?,
                "fseed" => out.fault_seed = num(value)?,
                "link" | "stall" => {
                    let (ppm, gran) = spec_rate(value)
                        .and_then(|(ppm, gran)| Some((ppm, u32::try_from(gran).ok()?)))
                        .ok_or_else(|| format!("bad {key} {value:?} (want ppm@gran)"))?;
                    if key == "link" {
                        out.link_ppm = ppm;
                        out.link_gran = gran;
                    } else {
                        out.stall_ppm = ppm;
                        out.stall_gran = gran;
                    }
                }
                "flip" => out.flip_ppm = num(value)?,
                "drop" => out.drop_ppm = num(value)?,
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        if !saw_mesh {
            return Err("spec missing mesh=WxH".to_string());
        }
        Mesh2d::new(out.width, out.height)
            .map_err(|_| format!("invalid mesh {}x{}", out.width, out.height))?;
        let nodes = out.nodes();
        if u32::from(out.manager) >= nodes {
            return Err(format!("manager {} outside mesh", out.manager));
        }
        if let Some(t) = out.trojans.iter().find(|&&t| u32::from(t) >= nodes) {
            return Err(format!("trojan {t} outside mesh"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_random_scenarios() {
        for seed in 0..200 {
            let s = Scenario::random(seed);
            let spec = s.to_spec();
            let back = Scenario::from_spec(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(s, back, "{spec}");
            assert_eq!(back.to_spec(), spec, "re-encoding is byte-identical");
        }
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(Scenario::from_spec("").is_err());
        assert!(Scenario::from_spec("mesh=0x3").is_err());
        assert!(Scenario::from_spec("mesh=3x3;routing=zz").is_err());
        assert!(Scenario::from_spec("mesh=2x2;manager=9").is_err());
        assert!(Scenario::from_spec("mesh=2x2;trojans=9").is_err());
        assert!(Scenario::from_spec("nonsense").is_err());
        // Out-of-range numbers are rejected, never truncated.
        assert!(Scenario::from_spec("mesh=65538x1").is_err());
        assert!(Scenario::from_spec("mesh=2x2;manager=65536").is_err());
        assert!(Scenario::from_spec("mesh=2x2;link=1@4294967296").is_err());
        assert!(Scenario::from_spec("mesh=512x512").is_err());
    }

    #[test]
    fn random_scenarios_are_well_formed() {
        for seed in 0..500 {
            let s = Scenario::random(seed);
            let nodes = s.nodes();
            assert!((2..=16).contains(&nodes), "seed {seed}");
            assert!(u32::from(s.manager) < nodes, "seed {seed}");
            assert!(
                s.trojans.iter().all(|&t| u32::from(t) < nodes),
                "seed {seed}"
            );
            assert!(s.cycles >= 40 && s.cycles <= 260, "seed {seed}");
        }
    }

    #[test]
    fn traffic_is_deterministic_per_seed() {
        let s = Scenario::random(7);
        let mut a = SplitMix64::new(s.seed);
        let mut b = SplitMix64::new(s.seed);
        for src in 0..s.nodes() {
            assert_eq!(s.traffic_for(&mut a, src), s.traffic_for(&mut b, src));
        }
    }

    #[test]
    fn duty_schedule_edges() {
        let mut s = Scenario::random(1);
        s.duty_tenths = 0;
        assert!(!s.trojan_schedule().active_at(0));
        s.duty_tenths = 10;
        assert!(s.trojan_schedule().active_at(0));
    }
}
