//! Drivers for every experiment in the paper's evaluation (Section V).

use htpb_attack::{
    sensitivity_phi, xy_route_touches, AttackOutcome, AttackSample, Mix, Placement,
    PlacementOptimizer, PlacementStrategy,
};
use htpb_manycore::{AppRole, ManyCoreSystem, PerformanceReport, SystemBuilder};
use htpb_noc::{FaultPlan, Mesh2d, Network, NetworkConfig, NodeId, Packet, RoutingKind};
use htpb_power::{AllocatorKind, DegradationCounters, DvfsTable, HardeningConfig};
use htpb_trojan::{ActivationSchedule, BoostRule, TamperRule, TrojanFleet, TrojanMode};

/// Where the global manager sits — the locations compared in Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerLocation {
    /// The node closest to the chip's geometric center.
    Center,
    /// The (0, 0) corner node.
    Corner,
    /// An explicit node.
    At(NodeId),
}

impl ManagerLocation {
    /// Resolves the location on a concrete mesh.
    #[must_use]
    pub fn resolve(self, mesh: Mesh2d) -> NodeId {
        match self {
            ManagerLocation::Center => mesh.center(),
            ManagerLocation::Corner => mesh.corner(),
            ManagerLocation::At(n) => n,
        }
    }
}

/// The infection-rate measurement rig used by Fig. 3 and Fig. 4: every
/// non-manager node sends power requests to the manager through a NoC with
/// implanted, always-on Trojans, and the infection rate is the fraction of
/// delivered requests that arrived tampered (Section V-B).
#[derive(Debug, Clone)]
pub struct InfectionExperiment {
    mesh: Mesh2d,
    manager: NodeId,
}

impl InfectionExperiment {
    /// Creates the rig for a chip of `nodes` nodes (64/128/256/512 in the
    /// paper), manager at the center, XY routing, one request round.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` cannot form a mesh (zero or > 65536).
    #[must_use]
    pub fn new(nodes: u32) -> Self {
        let mesh = Mesh2d::with_nodes(nodes).expect("valid node count");
        InfectionExperiment {
            mesh,
            manager: mesh.center(),
        }
    }

    /// Places the manager.
    #[must_use]
    pub fn manager(mut self, at: ManagerLocation) -> Self {
        self.manager = at.resolve(self.mesh);
        self
    }

    /// The mesh in use.
    #[must_use]
    pub fn mesh(&self) -> Mesh2d {
        self.mesh
    }

    /// The manager node in use.
    #[must_use]
    pub fn manager_node(&self) -> NodeId {
        self.manager
    }

    /// Materialises a placement of `m` Trojans, never on the manager's own
    /// router (an attacker would not waste silicon where detection risk is
    /// highest; Fig. 3/4 sweep HTs across worker routers).
    #[must_use]
    pub fn placement(&self, m: usize, strategy: &PlacementStrategy) -> Placement {
        Placement::generate(self.mesh, m, strategy, &[self.manager])
    }

    /// Runs the rig and returns the measured infection rate.
    #[must_use]
    pub fn measure(&self, placement: &Placement) -> f64 {
        self.measure_on(&mut None, placement)
    }

    /// Averages [`InfectionExperiment::measure`] over random placements,
    /// draining every placement on one network.
    #[must_use]
    pub(crate) fn measure_random_avg(&self, m: usize, seeds: &[u64]) -> f64 {
        if seeds.is_empty() {
            return 0.0;
        }
        let mut net = None;
        let sum: f64 = seeds
            .iter()
            .map(|&seed| {
                self.measure_on(
                    &mut net,
                    &self.placement(m, &PlacementStrategy::Random { seed }),
                )
            })
            .sum();
        sum / seeds.len() as f64
    }

    /// [`InfectionExperiment::measure`] on `net`: builds the network on
    /// first use and [`Network::reset`]s it for every later placement, which
    /// observes exactly what a new network would.
    fn measure_on(&self, net: &mut Option<Network<TrojanFleet>>, placement: &Placement) -> f64 {
        let mut fleet = TrojanFleet::new(placement.nodes(), TamperRule::Zero);
        fleet.configure_all(&[], self.manager, true);
        let net = match net {
            Some(net) => {
                net.reset(fleet);
                net
            }
            None => net.insert(Network::with_inspector(
                NetworkConfig::new(self.mesh),
                fleet,
            )),
        };
        for src in self.mesh.iter_nodes() {
            if src == self.manager {
                continue;
            }
            let payload = 1_000 + u32::from(src.0);
            net.inject(Packet::power_request(src, self.manager, payload))
                .expect("infection rig injection");
        }
        assert!(
            net.run_until_idle(4_000_000),
            "infection rig failed to drain"
        );
        net.stats().infection_rate()
    }
}

/// One data point of a Fig. 3 curve: the random-placement-averaged
/// infection rate for `ht_count` Trojans. Points are independent of each
/// other, so a job scheduler may compute them in any order or in parallel
/// and still reassemble the exact sequential curve.
#[must_use]
pub fn fig3_point(nodes: u32, manager: ManagerLocation, ht_count: usize, seeds: &[u64]) -> f64 {
    InfectionExperiment::new(nodes)
        .manager(manager)
        .measure_random_avg(ht_count, seeds)
}

/// One data point of a Fig. 4 curve: the infection rate on a chip of
/// `nodes` nodes with `nodes / denominator` Trojans placed by `strategy`,
/// manager at the center. A [`PlacementStrategy::Random`] strategy is
/// averaged over `seeds` (its own seed is ignored); deterministic
/// strategies ignore `seeds`. Independent per point — see [`fig3_point`].
#[must_use]
pub fn fig4_point(
    nodes: u32,
    strategy: &PlacementStrategy,
    denominator: u32,
    seeds: &[u64],
) -> f64 {
    let exp = InfectionExperiment::new(nodes).manager(ManagerLocation::Center);
    let m = (nodes / denominator).max(1) as usize;
    match strategy {
        PlacementStrategy::Random { .. } => exp.measure_random_avg(m, seeds),
        _ => exp.measure(&exp.placement(m, strategy)),
    }
}

/// Configuration of a full attack campaign (the Fig. 5 / Fig. 6 rig): a
/// benchmark mix on a many-core chip with a Trojan fleet, compared against
/// the same chip clean.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Chip size in nodes (the paper uses 256 for Section V-C).
    pub nodes: u32,
    /// The benchmark mix (Table III).
    pub mix: Mix,
    /// Manager location.
    pub manager: ManagerLocation,
    /// Allocation policy.
    pub allocator: AllocatorKind,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// Budgeting epoch length in cycles; `None` picks `max(1000, 4·nodes)`.
    pub epoch_cycles: Option<u64>,
    /// Chip budget as a fraction of honest demand.
    pub budget_fraction: f64,
    /// Epochs of warm-up before measurement.
    pub warmup_epochs: u64,
    /// Epochs measured. Keep it a multiple of 10 so duty-cycled activation
    /// covers whole schedule periods.
    pub measure_epochs: u64,
    /// Trojan payload rewrite rule.
    pub tamper_rule: TamperRule,
    /// Optional attacker-side boost extension: infected routers also
    /// inflate the attacker's own requests (paper intro: malicious
    /// requests "will be increased"). `None` reproduces the Fig. 2 circuit
    /// exactly.
    pub ht_boost: Option<BoostRule>,
    /// DoS class of the implanted Trojans: the paper's false-data rewrite
    /// (default), or the Section II-B packet-drop baseline.
    pub ht_mode: TrojanMode,
    /// Trojan placement; `None` places a tight 5-Trojan cluster on the
    /// manager's neighbourhood (full route coverage).
    pub placement: Option<Placement>,
    /// Background memory traffic on/off.
    pub memory_traffic: bool,
    /// Detailed cache/coherence model instead of the rate-based one.
    pub detailed_caches: bool,
    /// RNG seed.
    pub seed: u64,
}

impl CampaignConfig {
    /// Defaults mirroring Section V-C: 256 nodes, manager at the center,
    /// fair-share allocation (the policy family the attack subverts most
    /// visibly), XY routing, scarce (60%) budget.
    #[must_use]
    pub fn new(mix: Mix) -> Self {
        CampaignConfig {
            nodes: 256,
            mix,
            manager: ManagerLocation::Center,
            allocator: AllocatorKind::FairShare,
            routing: RoutingKind::Xy,
            epoch_cycles: None,
            budget_fraction: 0.6,
            warmup_epochs: 2,
            measure_epochs: 10,
            tamper_rule: TamperRule::Zero,
            ht_boost: None,
            ht_mode: TrojanMode::FalseData,
            placement: None,
            memory_traffic: true,
            detailed_caches: false,
            seed: 0xA77AC,
        }
    }

    /// Shrinks the rig for fast tests: a 64-node chip and shorter epochs.
    #[must_use]
    pub fn small(mix: Mix) -> Self {
        let mut c = CampaignConfig::new(mix);
        c.nodes = 64;
        c.epoch_cycles = Some(600);
        c
    }

    /// The smallest meaningful rig (32 nodes, short epochs, 5 measured
    /// epochs at the cost of duty-cycle resolution) — for microbenchmarks
    /// where wall-clock per iteration matters more than fidelity.
    #[must_use]
    pub fn tiny(mix: Mix) -> Self {
        let mut c = CampaignConfig::new(mix);
        c.nodes = 32;
        c.epoch_cycles = Some(400);
        c.warmup_epochs = 1;
        c.measure_epochs = 5;
        c
    }

    fn epoch(&self) -> u64 {
        self.epoch_cycles
            .unwrap_or_else(|| (4 * u64::from(self.nodes)).max(1_000))
    }

    /// Canonical id of this configuration's **clean baseline**: a stable
    /// string over exactly the fields that determine the Trojan-free run
    /// (Λ of Definition 2). Attack-side knobs — `tamper_rule`, `ht_boost`,
    /// `ht_mode`, `placement` — are deliberately excluded: they cannot
    /// influence a fleet-free chip, so every duty point and placement
    /// variant of one configuration shares a single baseline. The harness
    /// keys its in-process baseline memo on this id.
    #[must_use]
    pub fn baseline_id(&self) -> String {
        let manager = match self.manager {
            ManagerLocation::Center => "center".to_string(),
            ManagerLocation::Corner => "corner".to_string(),
            ManagerLocation::At(n) => format!("at{}", n.0),
        };
        let routing = match self.routing {
            RoutingKind::Xy => "xy",
            RoutingKind::OddEven => "oddeven",
            RoutingKind::WestFirst => "westfirst",
        };
        format!(
            "baseline-n{}-{}-{}-{}-{}-e{}-b{:016x}-w{}-m{}-mem{}-dc{}-s{:x}",
            self.nodes,
            self.mix.name(),
            manager,
            self.allocator.name(),
            routing,
            self.epoch(),
            // Bit pattern, not a decimal rendering: two fractions that
            // print alike but differ in the last ulp must not share a
            // baseline.
            self.budget_fraction.to_bits(),
            self.warmup_epochs,
            self.measure_epochs,
            u8::from(self.memory_traffic),
            u8::from(self.detailed_caches),
            self.seed,
        )
    }

    /// The mesh this configuration's node count resolves to.
    ///
    /// # Panics
    /// Panics if `nodes` does not form a valid 2-D mesh.
    #[must_use]
    pub fn mesh(&self) -> Mesh2d {
        Mesh2d::with_nodes(self.nodes).expect("valid node count")
    }

    fn default_placement(&self, mesh: Mesh2d, manager: NodeId) -> Placement {
        Placement::generate(
            mesh,
            5,
            &PlacementStrategy::ClusterAround { anchor: manager },
            &[],
        )
    }
}

/// The outcome of one campaign: the clean baseline, the attacked run and
/// the derived attack metrics.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Performance on the clean chip (the paper's Λ values).
    pub clean: PerformanceReport,
    /// Performance under attack (the paper's θ values).
    pub attacked: PerformanceReport,
    /// Derived Θ per application plus Q(Δ, Γ).
    pub outcome: AttackOutcome,
}

fn build_system(cfg: &CampaignConfig, fleet: TrojanFleet) -> ManyCoreSystem<TrojanFleet> {
    build_system_opts(cfg, fleet, None)
}

fn build_system_opts(
    cfg: &CampaignConfig,
    fleet: TrojanFleet,
    hardening: Option<HardeningConfig>,
) -> ManyCoreSystem<TrojanFleet> {
    let mesh = cfg.mesh();
    let manager = cfg.manager.resolve(mesh);
    let mut builder = SystemBuilder::new(mesh)
        .manager(manager)
        .workload(cfg.mix.workload_for_mesh(mesh))
        .allocator(cfg.allocator)
        .routing(cfg.routing)
        .epoch_cycles(cfg.epoch())
        .budget_fraction(cfg.budget_fraction)
        .memory_traffic(cfg.memory_traffic)
        .detailed_caches(cfg.detailed_caches)
        .seed(cfg.seed);
    if let Some(h) = hardening {
        builder = builder.hardening(h);
    }
    builder
        .build_with_inspector(fleet)
        .expect("campaign configuration is internally consistent")
}

fn run_to_report(
    cfg: &CampaignConfig,
    system: &mut ManyCoreSystem<TrojanFleet>,
) -> PerformanceReport {
    system.run_epochs(cfg.warmup_epochs);
    system.begin_measurement();
    system.run_epochs(cfg.measure_epochs);
    system.performance_report()
}

/// Runs the clean (Trojan-free) baseline for a campaign configuration —
/// the Λ values of Definition 2. Expensive; reuse it across duty points and
/// placements via [`run_campaign_with_baseline`].
#[must_use]
pub fn run_clean_baseline(cfg: &CampaignConfig) -> PerformanceReport {
    let mut clean_sys = build_system(cfg, TrojanFleet::clean());
    run_to_report(cfg, &mut clean_sys)
}

/// Runs one campaign at a given Trojan duty fraction (1.0 = always on,
/// 0.0 = Trojans dormant) against a clean baseline, returning both reports
/// and the attack metrics.
///
/// The duty cycle models the attacker's alternating ON/OFF `CONFIG_CMD`
/// stream (Section III-B): the schedule period spans 10 budgeting epochs,
/// so a duty of 0.3 attacks ~3 epochs in 10 and the measured infection rate
/// lands near 0.3.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig, duty: f64) -> CampaignResult {
    let clean = run_clean_baseline(cfg);
    run_campaign_with_baseline(cfg, duty, &clean)
}

/// Like [`run_campaign`] but reusing a precomputed clean baseline (the
/// baseline depends on the configuration, not on the placement or duty).
/// Borrowed, not owned: sweeps and regression drivers share one baseline
/// across every duty point and placement without cloning per point.
#[must_use]
pub fn run_campaign_with_baseline(
    cfg: &CampaignConfig,
    duty: f64,
    clean: &PerformanceReport,
) -> CampaignResult {
    let mut attacked_sys = build_attacked_system(cfg, duty, None);
    let attacked = if fleet_is_inert(cfg, &attacked_sys) {
        clean.clone()
    } else {
        run_to_report(cfg, &mut attacked_sys)
    };

    let outcome = AttackOutcome::compare(&attacked, clean)
        .expect("mixes always contain attackers and victims with live baselines");
    CampaignResult {
        clean: clean.clone(),
        attacked,
        outcome,
    }
}

/// Builds the attacked chip for a campaign: Trojan fleet placed and
/// configured, agents registered, optional manager hardening installed.
fn build_attacked_system(
    cfg: &CampaignConfig,
    duty: f64,
    hardening: Option<HardeningConfig>,
) -> ManyCoreSystem<TrojanFleet> {
    let mesh = cfg.mesh();
    let manager = cfg.manager.resolve(mesh);
    let placement = cfg
        .placement
        .clone()
        .unwrap_or_else(|| cfg.default_placement(mesh, manager));
    let schedule = if duty >= 1.0 {
        ActivationSchedule::AlwaysOn
    } else {
        ActivationSchedule::duty(duty, 10 * cfg.epoch())
    };
    let mut fleet = TrojanFleet::new(placement.nodes(), cfg.tamper_rule)
        .with_schedule(schedule)
        .with_mode(cfg.ht_mode);
    if let Some(boost) = cfg.ht_boost {
        fleet = fleet.with_boost(boost);
    }
    let mut attacked_sys = build_system_opts(cfg, fleet, hardening);
    // Register every attacker-application core as an agent (the attacker
    // broadcasts one CONFIG_CMD per agent core; DESIGN.md §4).
    let agents: Vec<NodeId> = attacked_sys
        .tiles()
        .iter()
        .filter(|t| t.assignment().is_some_and(|a| a.role == AppRole::Malicious))
        .map(|t| t.node())
        .collect();
    attacked_sys
        .inspector_mut()
        .configure_all(&agents, manager, true);
    attacked_sys
}

/// Whether the built attacked chip's Trojan fleet can never change a
/// packet, so that the chip would run bit-identically to its clean baseline.
///
/// A Trojan rewrites or drops nothing but `POWER_REQ`s addressed to the
/// manager it was configured with, and only while the fleet's schedule arms
/// it (`HardwareTrojan::scan`); every other packet passes untouched, and
/// inspection costs no cycle. A fleet that never acts therefore leaves
/// every flit, grant and retired instruction as on the clean chip. It never
/// acts if either
/// - (a) its schedule never arms ([`ActivationSchedule::never_arms`]), or
/// - (b) routing is XY, so a request's route depends only on its source
///   and destination (paper §IV; [`htpb_attack::analytic_infection_rate`]
///   predicts the simulator exactly), and no Trojan lies on the XY route,
///   end routers included, from any tile whose request a Trojan could
///   rewrite to the manager. Those are the assigned non-manager tiles,
///   which alone send requests, except the attacker agents: comparator 3
///   exempts them unless the fleet carries a boost. `PacketDrop` sinks
///   exactly the requests `FalseData` rewrites, so the same tiles count.
///
/// Adaptive routes depend on congestion, so under them an armed fleet is
/// never inert. Tile roles and Trojan nodes are read from the built chip.
fn fleet_is_inert(cfg: &CampaignConfig, sys: &ManyCoreSystem<TrojanFleet>) -> bool {
    let fleet = sys.network().inspector();
    if fleet.schedule().never_arms() {
        return true;
    }
    let chip = sys.config();
    if chip.routing != RoutingKind::Xy {
        return false;
    }
    !sys.tiles().iter().any(|t| {
        t.node() != chip.manager
            && t.assignment()
                .is_some_and(|a| a.role != AppRole::Malicious || cfg.ht_boost.is_some())
            && xy_route_touches(chip.mesh, t.node(), chip.manager, |n| fleet.contains(n))
    })
}

/// One point of the Fig. 5 / Fig. 6 sweep.
#[derive(Debug, Clone)]
pub struct AttackSweepPoint {
    /// Commanded Trojan duty fraction.
    pub duty: f64,
    /// Measured infection rate (x axis of Fig. 5/6).
    pub infection: f64,
    /// Attack effect Q (y axis of Fig. 5).
    pub q_value: f64,
    /// Per-application Θ (y axis of Fig. 6), in application order.
    pub outcome: AttackOutcome,
}

/// One point of the Fig. 5 / Fig. 6 sweep against a caller-provided clean
/// baseline. Because the baseline is a pure function of `cfg`, independent
/// points can run in any order or in parallel, and substituting a memoized
/// copy (e.g. from a cross-job baseline cache) yields the bit-identical
/// point.
#[must_use]
pub fn attack_sweep_point_with_baseline(
    cfg: &CampaignConfig,
    duty: f64,
    clean: &PerformanceReport,
) -> AttackSweepPoint {
    let result = run_campaign_with_baseline(cfg, duty, clean);
    AttackSweepPoint {
        duty,
        infection: result.outcome.infection_rate,
        q_value: result.outcome.q_value,
        outcome: result.outcome,
    }
}

/// Result of the Section V-C placement comparison: the attack effect with
/// the optimizer's placement vs. randomly placed Trojans.
#[derive(Debug, Clone)]
pub struct OptComparison {
    /// Q with the optimized placement (Eqs. 10–11).
    pub q_optimal: f64,
    /// Mean Q over the random placements.
    pub q_random: f64,
    /// `q_optimal / q_random − 1` (the paper reports ≈+30% for mixes 1–3
    /// and ≈+110% for mix 4 with 16 HTs on 256 nodes).
    pub improvement: f64,
    /// The optimized placement used.
    pub optimal_placement: Placement,
}

/// Compares the optimized placement of `m` Trojans against random
/// placements for one mix (Section V-C, second experiment).
#[must_use]
pub fn optimal_vs_random(cfg: &CampaignConfig, m: usize, random_seeds: &[u64]) -> OptComparison {
    let clean = run_clean_baseline(cfg);
    optimal_vs_random_with(cfg, m, random_seeds, &clean)
}

/// Like [`optimal_vs_random`] but against a caller-provided clean baseline.
/// Placement is not baseline-relevant (see [`CampaignConfig::baseline_id`]),
/// so one report covers the optimized and every random variant.
#[must_use]
pub fn optimal_vs_random_with(
    cfg: &CampaignConfig,
    m: usize,
    random_seeds: &[u64],
    clean: &PerformanceReport,
) -> OptComparison {
    let mesh = cfg.mesh();
    let manager = cfg.manager.resolve(mesh);
    // The optimizer may not use the manager's own router: Fig. 3/4 treat it
    // as off-limits (and a Trojan there is trivially optimal).
    let optimal = PlacementOptimizer::new(mesh, manager, m)
        .exclude(&[manager])
        .optimize();
    // Both variants run at the paper's evaluation ceiling of 0.9 infection
    // (Fig. 5's x axis tops out there): duty-cycling to 0.9 keeps the
    // attacker's stealth margin and keeps Q on the measured part of the
    // curve.
    let duty = 0.9;

    let mut opt_cfg = cfg.clone();
    opt_cfg.placement = Some(optimal.placement.clone());
    let q_optimal = run_campaign_with_baseline(&opt_cfg, duty, clean)
        .outcome
        .q_value;

    let mut q_sum = 0.0;
    for &seed in random_seeds {
        let mut rnd_cfg = cfg.clone();
        rnd_cfg.placement = Some(Placement::generate(
            mesh,
            m,
            &PlacementStrategy::Random { seed },
            &[manager],
        ));
        q_sum += run_campaign_with_baseline(&rnd_cfg, duty, clean)
            .outcome
            .q_value;
    }
    let q_random = q_sum / random_seeds.len().max(1) as f64;
    OptComparison {
        q_optimal,
        q_random,
        improvement: q_optimal / q_random - 1.0,
        optimal_placement: optimal.placement,
    }
}

/// The canonical placement list the Eq.-9 regression sweeps: clusters of
/// 4/8/16 Trojans around the manager, an off-center node and the corner,
/// plus one random placement per size. Deterministic in the mesh, so every
/// job enumerating the regression dataset sees the same placements.
#[must_use]
pub fn regression_placements(mesh: Mesh2d, manager: NodeId) -> Vec<Placement> {
    let mut placements = Vec::new();
    let anchors = [manager, NodeId(mesh.nodes() as u16 / 5), NodeId(0)];
    for m in [4usize, 8, 16] {
        for anchor in anchors {
            placements.push(Placement::generate(
                mesh,
                m,
                &PlacementStrategy::ClusterAround { anchor },
                &[manager],
            ));
        }
        placements.push(Placement::generate(
            mesh,
            m,
            &PlacementStrategy::Random { seed: m as u64 },
            &[manager],
        ));
    }
    placements
}

/// Builds the Eq.-9 regression dataset: for each mix and each placement
/// variant, runs a full campaign at the paper's evaluation ceiling (0.9
/// duty, matching Fig. 5's 0.9-infection axis) and records
/// (ρ, η, m, ΣΦ_victims, ΣΦ_attackers, Q).
#[must_use]
pub fn regression_dataset(
    base: &CampaignConfig,
    mixes: &[Mix],
    placements: &[Placement],
) -> Vec<AttackSample> {
    regression_dataset_with(base, mixes, placements, |cfg| {
        std::sync::Arc::new(run_clean_baseline(cfg))
    })
}

/// Like [`regression_dataset`] but resolving each mix's clean baseline
/// through `baseline_for` (e.g. a cross-job memoization cache). The
/// callback receives the per-mix configuration *before* any placement is
/// attached, so its [`CampaignConfig::baseline_id`] is the shared one.
#[must_use]
pub fn regression_dataset_with(
    base: &CampaignConfig,
    mixes: &[Mix],
    placements: &[Placement],
    mut baseline_for: impl FnMut(&CampaignConfig) -> std::sync::Arc<PerformanceReport>,
) -> Vec<AttackSample> {
    let table = DvfsTable::default_six_level();
    let mesh = base.mesh();
    let manager = base.manager.resolve(mesh);
    let mut samples = Vec::new();
    for &mix in mixes {
        let phi_attackers: f64 = mix
            .attackers()
            .iter()
            .map(|b| sensitivity_phi(&b.profile(), &table))
            .sum();
        let phi_victims: f64 = mix
            .victims()
            .iter()
            .map(|b| sensitivity_phi(&b.profile(), &table))
            .sum();
        let mut mix_cfg = base.clone();
        mix_cfg.mix = mix;
        let clean = baseline_for(&mix_cfg);
        for placement in placements {
            let mut cfg = mix_cfg.clone();
            cfg.placement = Some(placement.clone());
            let result = run_campaign_with_baseline(&cfg, 0.9, &clean);
            samples.push(AttackSample {
                rho: placement.distance_rho(mesh, manager).unwrap_or(0.0),
                eta: placement.density_eta(mesh).unwrap_or(0.0),
                m: placement.len() as f64,
                phi_victims,
                phi_attackers,
                q: result.outcome.q_value,
            });
        }
    }
    samples
}

/// One grid cell of the resilience sweep (fault rate × allocator policy ×
/// hardening) — the data behind the attack-effect-under-faults curves.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// Allocation policy of this cell.
    pub allocator: AllocatorKind,
    /// Packet-drop fault rate in parts-per-million.
    pub drop_ppm: u32,
    /// Whether the manager was hardened.
    pub hardened: bool,
    /// Commanded Trojan duty fraction (0.0 = faults only).
    pub duty: f64,
    /// Measured infection rate of the attacked arm.
    pub infection: f64,
    /// Attack effect Q against the equally-faulty baseline.
    pub q_value: f64,
    /// Victim θ sum in the attacked arm.
    pub victim_theta: f64,
    /// Victim θ sum in the faulty-but-clean baseline.
    pub baseline_victim_theta: f64,
    /// Manager degradation events in the attacked arm's window.
    pub degradation: DegradationCounters,
    /// Ground-truth faults applied during the attacked arm.
    pub faults_applied: u64,
}

/// Computes one point of the resilience sweep: a Fig.-5-style campaign on
/// top of a NoC under a seeded packet-drop plan at `drop_ppm`, with or
/// without manager hardening. Both arms — the Trojan-free baseline and the
/// attacked run — experience the **same** fault plan, so Q isolates the
/// Trojan's effect on the degraded substrate rather than conflating it with
/// transport loss. Independent per point, like [`fig3_point`], so job
/// schedulers can fan the grid out.
#[must_use]
pub fn resilience_point(
    base: &CampaignConfig,
    drop_ppm: u32,
    fault_seed: u64,
    hardened: bool,
    duty: f64,
) -> ResiliencePoint {
    let faults = FaultPlan::new(fault_seed).with_drops(drop_ppm);
    let hardening = hardened.then(HardeningConfig::default);

    // Baseline: same faults, no Trojan activity.
    let mut clean_sys = build_system_opts(base, TrojanFleet::clean(), hardening);
    clean_sys.set_fault_hook(Box::new(faults.with_fresh_counters()));
    let clean = run_to_report(base, &mut clean_sys);

    // Attacked: same faults, Trojans at `duty`.
    let attacked_plan = faults.with_fresh_counters();
    let attacked_counters = attacked_plan.counter_handle();
    let mut attacked_sys = build_attacked_system(base, duty, hardening);
    attacked_sys.set_fault_hook(Box::new(attacked_plan));
    let attacked = run_to_report(base, &mut attacked_sys);

    let outcome = AttackOutcome::compare(&attacked, &clean)
        .expect("mixes always contain attackers and victims with live baselines");
    ResiliencePoint {
        allocator: base.allocator,
        drop_ppm,
        hardened,
        duty,
        infection: outcome.infection_rate,
        q_value: outcome.q_value,
        victim_theta: attacked.victim_theta(),
        baseline_victim_theta: clean.victim_theta(),
        degradation: DegradationCounters {
            timeouts: attacked.requests_timed_out,
            rejects: attacked.requests_rejected,
            clamps: attacked.requests_clamped,
        },
        faults_applied: attacked_counters.get().total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_id_covers_baseline_fields_and_ignores_attack_knobs() {
        let base = CampaignConfig::tiny(Mix::Mix1);
        // Attack-side knobs must not perturb the id: all duty points and
        // placement variants of one config share a single clean baseline.
        let mut attacked = base.clone();
        attacked.tamper_rule = TamperRule::ScalePercent(10);
        attacked.ht_mode = TrojanMode::PacketDrop;
        assert_eq!(base.baseline_id(), attacked.baseline_id());
        // Every baseline-relevant field must perturb it.
        for (label, cfg) in [
            ("nodes", {
                let mut c = base.clone();
                c.nodes = 64;
                c
            }),
            ("mix", CampaignConfig::tiny(Mix::Mix2)),
            ("manager", {
                let mut c = base.clone();
                c.manager = ManagerLocation::Corner;
                c
            }),
            ("allocator", {
                let mut c = base.clone();
                c.allocator = AllocatorKind::Greedy;
                c
            }),
            ("routing", {
                let mut c = base.clone();
                c.routing = RoutingKind::OddEven;
                c
            }),
            ("epoch", {
                let mut c = base.clone();
                c.epoch_cycles = Some(500);
                c
            }),
            ("budget", {
                let mut c = base.clone();
                c.budget_fraction = 0.7;
                c
            }),
            ("measure_epochs", {
                let mut c = base.clone();
                c.measure_epochs += 5;
                c
            }),
            ("seed", {
                let mut c = base.clone();
                c.seed ^= 1;
                c
            }),
        ] {
            assert_ne!(base.baseline_id(), cfg.baseline_id(), "{label}");
        }
    }

    #[test]
    fn shared_baseline_drivers_match_inline_baselines_bit_for_bit() {
        use std::sync::Arc;
        let cfg = CampaignConfig::tiny(Mix::Mix4);
        let clean = run_clean_baseline(&cfg);

        let inline = run_campaign(&cfg, 0.5).outcome;
        let shared_point = attack_sweep_point_with_baseline(&cfg, 0.5, &clean);
        assert_eq!(
            inline.infection_rate.to_bits(),
            shared_point.infection.to_bits()
        );
        assert_eq!(inline.q_value.to_bits(), shared_point.q_value.to_bits());

        let inline_cmp = optimal_vs_random(&cfg, 3, &[1, 2]);
        let shared_cmp = optimal_vs_random_with(&cfg, 3, &[1, 2], &clean);
        assert_eq!(
            inline_cmp.q_optimal.to_bits(),
            shared_cmp.q_optimal.to_bits()
        );
        assert_eq!(inline_cmp.q_random.to_bits(), shared_cmp.q_random.to_bits());

        let mesh = cfg.mesh();
        let manager = cfg.manager.resolve(mesh);
        let placements = regression_placements(mesh, manager);
        let inline_samples = regression_dataset(&cfg, &[Mix::Mix4], &placements[..2]);
        let mut calls = 0;
        let shared_samples = regression_dataset_with(&cfg, &[Mix::Mix4], &placements[..2], |c| {
            calls += 1;
            Arc::new(run_clean_baseline(c))
        });
        assert_eq!(calls, 1, "one baseline per mix, shared across placements");
        assert_eq!(inline_samples.len(), shared_samples.len());
        for (a, b) in inline_samples.iter().zip(&shared_samples) {
            assert_eq!(a.q.to_bits(), b.q.to_bits());
        }
    }

    #[test]
    fn manager_location_resolution() {
        let mesh = Mesh2d::new(8, 8).unwrap();
        assert_eq!(ManagerLocation::Center.resolve(mesh), mesh.center());
        assert_eq!(ManagerLocation::Corner.resolve(mesh), NodeId(0));
        assert_eq!(ManagerLocation::At(NodeId(9)).resolve(mesh), NodeId(9));
    }

    #[test]
    fn zero_trojans_zero_infection() {
        let exp = InfectionExperiment::new(64);
        let p = exp.placement(0, &PlacementStrategy::CenterCluster);
        assert_eq!(exp.measure(&p), 0.0);
    }

    #[test]
    fn infection_grows_with_ht_count() {
        let exp = InfectionExperiment::new(64);
        let few = exp.measure_random_avg(2, &[1, 2]);
        let many = exp.measure_random_avg(24, &[1, 2]);
        assert!(many > few, "many {many} <= few {few}");
        assert!(many > 0.5, "24/64 random Trojans should catch most routes");
    }

    #[test]
    fn corner_manager_has_higher_infection() {
        // Fig. 3's headline: corner placement of the manager lengthens
        // routes and raises infection for the same HT count. The claim is
        // statistical (corner wins ~2/3 of individual placements, by +0.16
        // on average), so it is asserted on an average over a seed window
        // with a comfortable margin for the in-repo RNG stream.
        let seeds: Vec<u64> = (12..20).collect();
        let m = 8;
        let center = InfectionExperiment::new(64)
            .manager(ManagerLocation::Center)
            .measure_random_avg(m, &seeds);
        let corner = InfectionExperiment::new(64)
            .manager(ManagerLocation::Corner)
            .measure_random_avg(m, &seeds);
        assert!(
            corner > center,
            "corner {corner} should exceed center {center}"
        );
    }

    #[test]
    fn analytic_matches_simulation_for_xy() {
        // Every quick-scale Fig. 3 placement: 64 nodes, both manager
        // locations, 0..=30 Trojans in steps of 5, seeds 0..3.
        for at in [ManagerLocation::Center, ManagerLocation::Corner] {
            let exp = InfectionExperiment::new(64).manager(at);
            for m in (0..=30).step_by(5) {
                for seed in 0u64..3 {
                    let p = exp.placement(m, &PlacementStrategy::Random { seed });
                    let simulated = exp.measure(&p);
                    let analytic = htpb_attack::analytic_infection_rate(
                        exp.mesh(),
                        exp.manager_node(),
                        p.nodes(),
                        None,
                    );
                    assert!(
                        (simulated - analytic).abs() < 1e-9,
                        "{at:?}, {m} Trojans, seed {seed}: sim {simulated} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    /// Asserts two reports equal field by field, f64 fields by bit pattern.
    fn assert_bit_identical(a: &PerformanceReport, b: &PerformanceReport, what: &str) {
        let counts = |r: &PerformanceReport| {
            (
                r.window_cycles,
                r.power_requests_delivered,
                r.power_requests_modified,
                r.requests_timed_out,
                r.requests_rejected,
                r.requests_clamped,
                r.apps.len(),
            )
        };
        assert_eq!(counts(a), counts(b), "{what}");
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(
                (x.id, x.benchmark, x.role, x.threads, x.starved_cores),
                (y.id, y.benchmark, y.role, y.threads, y.starved_cores),
                "{what}"
            );
            assert_eq!(x.theta.to_bits(), y.theta.to_bits(), "{what}: {:?}", x.id);
        }
    }

    #[test]
    fn chips_with_inert_fleets_simulate_bit_identically_to_their_baseline() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        // Simulation stays the oracle: every chip the elision would skip is
        // run anyway and must reproduce its clean baseline exactly.
        let mut rng = StdRng::seed_from_u64(0x1E27_F1EE7);
        let mut baselines = std::collections::BTreeMap::new();
        let (mut inert, mut armed_inert, mut live) = (0, 0, 0);
        for case in 0..300 {
            let mix = Mix::ALL[rng.gen_range(0..4)];
            let mut cfg = CampaignConfig::tiny(mix);
            cfg.nodes = [16, 24, 32, 48, 64][rng.gen_range(0..5)];
            // Every policy: under fair share a boosted attacker request
            // rarely changes a grant, so a boost needs the other four to show.
            cfg.allocator = AllocatorKind::ALL[rng.gen_range(0..AllocatorKind::ALL.len())];
            if rng.gen_bool(1.0 / 3.0) {
                cfg.routing = RoutingKind::OddEven;
            }
            if rng.gen_bool(0.5) {
                cfg.ht_mode = TrojanMode::PacketDrop;
            }
            if rng.gen_bool(0.5) {
                cfg.ht_boost = Some(BoostRule::new(150));
            }
            let mesh = cfg.mesh();
            let manager = cfg.manager.resolve(mesh);
            let m = rng.gen_range(1..=8);
            let strategy = if rng.gen_bool(0.5) {
                PlacementStrategy::Random {
                    seed: rng.next_u64(),
                }
            } else {
                let anchor = NodeId(rng.gen_range(0..cfg.nodes) as u16);
                PlacementStrategy::ClusterAround { anchor }
            };
            cfg.placement = Some(Placement::generate(mesh, m, &strategy, &[manager]));
            // Duty 0 is inert by its schedule alone; the route argument
            // needs the armed cases.
            let duty = [0.0, 0.5, 0.5, 1.0, 1.0, 1.0][rng.gen_range(0..6)];

            let mut attacked_sys = build_attacked_system(&cfg, duty, None);
            if !fleet_is_inert(&cfg, &attacked_sys) {
                live += 1;
                continue;
            }
            inert += 1;
            if duty > 0.0 {
                armed_inert += 1;
            }
            let what = format!("case {case}, duty {duty}, {cfg:?}");
            let attacked = run_to_report(&cfg, &mut attacked_sys);
            let clean = baselines
                .entry(cfg.baseline_id())
                .or_insert_with(|| run_clean_baseline(&cfg));
            assert_bit_identical(&attacked, clean, &what);
            // The driver skips this chip and reports what it just simulated.
            let elided = run_campaign_with_baseline(&cfg, duty, clean);
            assert_bit_identical(&elided.attacked, clean, &what);
            assert_eq!(elided.outcome.q_value, 1.0, "{what}");
            assert_eq!(elided.outcome.infection_rate, 0.0, "{what}");
        }
        assert!(
            inert >= 20 && live >= 20 && armed_inert >= 10,
            "sweep must cover both sides: {inert} inert ({armed_inert} armed), {live} live"
        );
    }

    #[test]
    fn resilience_point_faults_only_stays_near_baseline() {
        // 1% packet drops and no Trojan: the hardened manager's hold-last-
        // grant keeps victim throughput close to the equally-faulty
        // baseline, Q ≈ 0, and the fault/degradation tallies are live.
        let base = CampaignConfig::tiny(Mix::Mix1);
        let p = resilience_point(&base, 10_000, 0xFA_017, true, 0.0);
        assert!(p.faults_applied > 0, "1% drops over a run must fire");
        assert!(p.infection < 0.05, "dormant Trojans, near-zero infection");
        assert!(
            (p.q_value - 1.0).abs() < 0.35,
            "faults alone should not look like an attack: Q = {}",
            p.q_value
        );
        let ratio = p.victim_theta / p.baseline_victim_theta;
        assert!(
            (0.7..=1.3).contains(&ratio),
            "victim theta ratio {ratio} out of graceful-degradation bound"
        );
    }

    #[test]
    fn resilient_campaign_is_deterministic() {
        let base = CampaignConfig::tiny(Mix::Mix1);
        let run = || {
            let p = resilience_point(&base, 20_000, 7, true, 0.9);
            (
                p.q_value.to_bits(),
                p.infection.to_bits(),
                p.faults_applied,
                p.degradation,
            )
        };
        assert_eq!(run(), run());
    }
}
