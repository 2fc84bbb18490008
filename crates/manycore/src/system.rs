use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use htpb_noc::{
    DeliveredPacket, FaultHook, Mesh2d, Network, NetworkConfig, NodeId, NullInspector, Packet,
    PacketInspector, PacketKind, RoutingKind,
};
use htpb_power::{
    AllocatorKind, DegradationCounters, GlobalManager, HardeningConfig, PowerModel, PowerRequest,
};

use crate::app::Workload;
use crate::cache::{CacheConfig, Directory, SetAssocCache};
use crate::error::ManycoreError;
use crate::metrics::SysMetrics;
use crate::report::{AppPerformance, PerformanceReport};
use crate::tile::{Assignment, Tile};

/// Shared-L2 hit service latency in cycles (Table I: six cycles).
pub const L2_HIT_LATENCY: u64 = 6;

/// Throughput efficiency threshold honest cores use to pick the DVFS level
/// they request power for.
const EFFICIENCY: f64 = 0.90;

/// Static configuration of a many-core system (Table I defaults).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Mesh topology (the paper's default platform is 16×16).
    pub mesh: Mesh2d,
    /// Node hosting the global power manager.
    pub manager: NodeId,
    /// NoC routing algorithm.
    pub routing: RoutingKind,
    /// Power allocation policy the manager runs.
    pub allocator: AllocatorKind,
    /// Budgeting epoch length in cycles. Requests are injected at the start
    /// of each epoch; the allocation runs at 60% of the epoch, leaving time
    /// for requests to reach the manager and grants to travel back.
    pub epoch_cycles: u64,
    /// Chip budget as a fraction of the workload's honest aggregate demand;
    /// below 1.0 the budget is scarce, which is the regime power budgeting
    /// exists for. Ignored when `budget_mw` is set.
    pub budget_fraction: f64,
    /// Explicit chip budget in mW (overrides `budget_fraction`).
    pub budget_mw: Option<f64>,
    /// Whether tiles generate shared-L2/memory background traffic.
    pub memory_traffic: bool,
    /// Main-memory service latency in cycles (Table I: 200 cycles).
    pub memory_latency: u64,
    /// Fraction of time the runtime wakes a *starved* core (grant below the
    /// lowest DVFS point) at the lowest level so its threads keep making
    /// minimal forward progress; the rest of the time the core is
    /// power-gated. 1.0 disables the gating (starved cores simply run at
    /// the lowest level).
    pub starvation_duty: f64,
    /// Optional keyed-checksum authentication of power requests (the
    /// defense of the paper's conclusion). `None` = the vulnerable baseline
    /// protocol the paper attacks.
    pub protection: Option<RequestProtection>,
    /// Optional graceful-degradation hardening of the global manager
    /// (request timeout → hold-last-grant, plausibility clamping; see
    /// [`htpb_power::HardeningConfig`]). `None` = the paper's trusting
    /// manager.
    pub hardening: Option<HardeningConfig>,
    /// Detailed cache mode: real L1 tag stores per tile, per-home L2
    /// slices and MESI-lite directories with invalidation traffic, instead
    /// of the rate-based memory-traffic model. Slower but structurally
    /// faithful to Table I.
    pub detailed_caches: bool,
    /// MSHR entries per core (detailed mode): a core with this many
    /// outstanding misses stalls until a reply returns, coupling core
    /// throughput to real NoC/memory latency.
    pub mshr_limit: u32,
    /// RNG seed (cache-home selection, hit/miss draws).
    pub seed: u64,
}

impl SystemConfig {
    /// Table-I-flavoured defaults on `mesh`, manager at the mesh center.
    #[must_use]
    pub fn new(mesh: Mesh2d) -> Self {
        SystemConfig {
            mesh,
            manager: mesh.center(),
            routing: RoutingKind::Xy,
            allocator: AllocatorKind::Greedy,
            epoch_cycles: 2_000,
            budget_fraction: 0.5,
            budget_mw: None,
            memory_traffic: true,
            memory_latency: 200,
            starvation_duty: 0.25,
            protection: None,
            hardening: None,
            detailed_caches: false,
            mshr_limit: 8,
            seed: 0xC0FFEE,
        }
    }
}

/// Keyed-checksum protection of `POWER_REQ` payloads — the countermeasure
/// the paper's conclusion calls for.
///
/// When enabled, every core attaches a keyed checksum of its request to the
/// packet's optional OPTIONS word (Fig. 1a reserves it), and the global
/// manager validates it on receipt. The Trojan's functional module rewrites
/// only the payload field (Fig. 2a), so a tampered request no longer
/// matches its checksum and is **discarded** — the manager falls back to
/// the core's last authenticated request instead of budgeting on attacker-
/// chosen data. The key is provisioned out of band (e.g. fused per chip),
/// so the Trojan cannot forge checksums without growing far beyond its
/// 12 µm² stealth budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestProtection {
    /// The shared chip secret.
    pub key: u32,
}

impl RequestProtection {
    /// Creates a protection config with the given key.
    #[must_use]
    pub fn new(key: u32) -> Self {
        RequestProtection { key }
    }

    /// The keyed checksum over a request's (source, payload) pair. A small
    /// mixing function is plenty here: the threat model is a minimal-area
    /// Trojan, not a cryptanalyst.
    #[must_use]
    pub fn checksum(&self, src: u16, payload_mw: u32) -> u32 {
        let mut x = payload_mw ^ self.key ^ (u32::from(src) << 16 | u32::from(src));
        x ^= x >> 16;
        x = x.wrapping_mul(0x7FEB_352D);
        x ^= x >> 15;
        x = x.wrapping_mul(0x846C_A68B);
        x ^ (x >> 16)
    }

    /// Whether a delivered request's OPTIONS word matches its payload.
    #[must_use]
    pub fn verify(&self, src: u16, payload_mw: u32, options: Option<u32>) -> bool {
        options == Some(self.checksum(src, payload_mw))
    }
}

/// Builder for [`ManyCoreSystem`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: SystemConfig,
    workload: Workload,
}

impl SystemBuilder {
    /// Starts a builder with default configuration on `mesh`.
    #[must_use]
    pub fn new(mesh: Mesh2d) -> Self {
        SystemBuilder {
            config: SystemConfig::new(mesh),
            workload: Workload::new(),
        }
    }

    /// Starts a builder from an explicit configuration.
    #[must_use]
    pub fn from_config(config: SystemConfig) -> Self {
        SystemBuilder {
            config,
            workload: Workload::new(),
        }
    }

    /// Places the global manager.
    #[must_use]
    pub fn manager(mut self, node: NodeId) -> Self {
        self.config.manager = node;
        self
    }

    /// Sets the workload.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Selects the allocation policy.
    #[must_use]
    pub fn allocator(mut self, kind: AllocatorKind) -> Self {
        self.config.allocator = kind;
        self
    }

    /// Selects the routing algorithm.
    #[must_use]
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.config.routing = routing;
        self
    }

    /// Sets the budgeting epoch length.
    #[must_use]
    pub fn epoch_cycles(mut self, cycles: u64) -> Self {
        self.config.epoch_cycles = cycles;
        self
    }

    /// Sets the budget as a fraction of honest demand.
    #[must_use]
    pub fn budget_fraction(mut self, fraction: f64) -> Self {
        self.config.budget_fraction = fraction;
        self.config.budget_mw = None;
        self
    }

    /// Sets an explicit budget in mW.
    #[must_use]
    pub fn budget_mw(mut self, mw: f64) -> Self {
        self.config.budget_mw = Some(mw);
        self
    }

    /// Enables or disables background memory traffic.
    #[must_use]
    pub fn memory_traffic(mut self, enabled: bool) -> Self {
        self.config.memory_traffic = enabled;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the starved-core duty cycle (see [`SystemConfig::starvation_duty`]).
    #[must_use]
    pub fn starvation_duty(mut self, duty: f64) -> Self {
        self.config.starvation_duty = duty.clamp(0.0, 1.0);
        self
    }

    /// Enables keyed-checksum request authentication (see
    /// [`RequestProtection`]).
    #[must_use]
    pub fn protection(mut self, protection: RequestProtection) -> Self {
        self.config.protection = Some(protection);
        self
    }

    /// Enables graceful-degradation hardening of the global manager (see
    /// [`SystemConfig::hardening`]).
    #[must_use]
    pub fn hardening(mut self, cfg: HardeningConfig) -> Self {
        self.config.hardening = Some(cfg);
        self
    }

    /// Enables the detailed cache/coherence model (see
    /// [`SystemConfig::detailed_caches`]).
    #[must_use]
    pub fn detailed_caches(mut self, enabled: bool) -> Self {
        self.config.detailed_caches = enabled;
        self
    }

    /// Builds a clean (Trojan-free) system.
    ///
    /// # Errors
    ///
    /// See [`SystemBuilder::build_with_inspector`].
    pub fn build(self) -> Result<ManyCoreSystem<NullInspector>, ManycoreError> {
        self.build_with_inspector(NullInspector)
    }

    /// Builds a system whose NoC routers pass packets through `inspector`
    /// (e.g. a fleet of Trojans from the `htpb-trojan` crate).
    ///
    /// Threads are placed row-major, skipping the manager tile, application
    /// by application in workload order.
    ///
    /// # Errors
    ///
    /// Returns [`ManycoreError::NotEnoughCores`] if the workload exceeds the
    /// worker tiles, and [`ManycoreError::InvalidConfig`] for inconsistent
    /// parameters (manager outside the mesh, zero epoch, bad fractions).
    pub fn build_with_inspector<I: PacketInspector>(
        self,
        inspector: I,
    ) -> Result<ManyCoreSystem<I>, ManycoreError> {
        let cfg = self.config;
        if !cfg.mesh.contains(cfg.manager) {
            return Err(ManycoreError::InvalidConfig {
                reason: "manager node outside the mesh",
            });
        }
        if cfg.epoch_cycles < 10 {
            return Err(ManycoreError::InvalidConfig {
                reason: "epoch must be at least 10 cycles",
            });
        }
        if !(0.0..=10.0).contains(&cfg.budget_fraction) {
            return Err(ManycoreError::InvalidConfig {
                reason: "budget fraction out of range",
            });
        }
        let available = cfg.mesh.nodes() as usize - 1;
        let requested = self.workload.total_threads();
        if requested > available {
            return Err(ManycoreError::NotEnoughCores {
                requested,
                available,
            });
        }

        let mut tiles: Vec<Tile> = cfg.mesh.iter_nodes().map(Tile::idle).collect();
        let mut next = 0usize;
        for app in self.workload.apps() {
            let profile = app.benchmark.profile();
            for _ in 0..app.threads {
                // Skip the manager tile.
                if NodeId(next as u16) == cfg.manager {
                    next += 1;
                }
                tiles[next].assign(Assignment {
                    app: app.id,
                    role: app.role,
                    greed: app.greed,
                    profile,
                });
                next += 1;
            }
        }

        let model = PowerModel::default_45nm();
        // Honest aggregate demand defines the budget scale.
        let honest_demand: f64 = tiles
            .iter()
            .filter_map(|t| {
                t.assignment().map(|a| {
                    let level = a.profile.desired_level(model.table(), EFFICIENCY);
                    model.power_mw(level)
                })
            })
            .sum();
        let budget = cfg.budget_mw.unwrap_or(honest_demand * cfg.budget_fraction);
        let mut manager = GlobalManager::new(budget, cfg.allocator.build());
        manager.set_hardening(cfg.hardening);

        let mut net = Network::with_inspector(
            NetworkConfig::new(cfg.mesh).with_routing(cfg.routing),
            inspector,
        );
        // Observability opt-in is process-wide: when the driver has turned
        // the obs layer on, every system it builds collects live metrics
        // and absorbs them into the global registry when dropped.
        let metrics = if htpb_obs::enabled() {
            net.enable_metrics();
            Some(Box::<SysMetrics>::default())
        } else {
            None
        };
        let seed = cfg.seed;
        let nodes = cfg.mesh.nodes() as usize;
        if cfg.detailed_caches {
            for t in &mut tiles {
                t.enable_detailed_cache();
            }
        }
        let (directories, l2_slices) = if cfg.detailed_caches {
            (
                (0..nodes).map(|_| Directory::new(4_096)).collect(),
                (0..nodes)
                    .map(|_| SetAssocCache::new(CacheConfig::l2_slice()))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(ManyCoreSystem {
            config: cfg,
            workload: self.workload,
            model,
            net,
            tiles,
            manager,
            replies: ReplyLines::default(),
            window_start: 0,
            window_requests_delivered: 0,
            window_requests_modified: 0,
            window_requests_rejected: 0,
            window_degradation_base: DegradationCounters::default(),
            last_good_request: vec![None; nodes],
            directories,
            l2_slices,
            invalidations_sent: 0,
            missing_requesters_last_epoch: 0,
            delivered_buf: Vec::new(),
            metrics,
            metrics_absorbed: false,
            rng: StdRng::seed_from_u64(seed),
        })
    }
}

/// Deferred cache/memory replies, `(fire, seq, from, to)`: at `fire`, node
/// `from` sends a data packet back to node `to`; `seq` numbers replies in
/// scheduling order.
///
/// A reply fires at `now + L2_HIT_LATENCY` or at `now + memory_latency`,
/// and both latencies are fixed for a system's life, so each latency's
/// replies are scheduled in fire order: one FIFO delay line per latency
/// holds them sorted. The next reply is the front with the smaller
/// `(fire, seq)`, the order a priority queue over all replies pops.
#[derive(Debug, Default)]
struct ReplyLines {
    l2_hit: VecDeque<(u64, u64, u16, u16)>,
    memory: VecDeque<(u64, u64, u16, u16)>,
    seq: u64,
}

impl ReplyLines {
    fn line(&mut self, memory: bool) -> &mut VecDeque<(u64, u64, u16, u16)> {
        if memory {
            &mut self.memory
        } else {
            &mut self.l2_hit
        }
    }

    /// Schedules a reply `from → to` at `fire` on the L2-hit line, or on
    /// the memory line when `memory` is set.
    fn schedule(&mut self, memory: bool, fire: u64, from: u16, to: u16) {
        self.seq += 1;
        let seq = self.seq;
        let line = self.line(memory);
        debug_assert!(
            line.back().is_none_or(|&(last, ..)| last <= fire),
            "a delay line's fire times never go down"
        );
        line.push_back((fire, seq, from, to));
    }

    /// The next reply's fire time, and whether it waits on the memory line.
    fn next(&self) -> Option<(u64, bool)> {
        match (self.l2_hit.front(), self.memory.front()) {
            (Some(h), Some(m)) if (m.0, m.1) < (h.0, h.1) => Some((m.0, true)),
            (Some(h), _) => Some((h.0, false)),
            (None, m) => m.map(|m| (m.0, true)),
        }
    }

    /// Removes and returns `(from, to)` of the next reply if it fires at
    /// or before `cycle`.
    fn pop_due(&mut self, cycle: u64) -> Option<(u16, u16)> {
        let (fire, memory) = self.next()?;
        if fire > cycle {
            return None;
        }
        let (_, _, from, to) = self.line(memory).pop_front()?;
        Some((from, to))
    }
}

/// The full chip: cycle-accurate NoC + analytic tiles + the power budgeting
/// protocol, advanced in lock-step (one cycle = 1 ns of wall-clock time).
///
/// Per cycle the system:
/// 1. injects `POWER_REQ` packets at epoch boundaries and `POWER_GRANT`
///    packets after the manager's allocation point (60% into each epoch);
/// 2. fires due cache/memory reply events;
/// 3. steps the NoC one cycle (where any implanted Trojans act);
/// 4. consumes delivered packets (requests at the manager, grants at cores,
///    L2 requests at home tiles);
/// 5. ticks every assigned tile, retiring instructions and emitting
///    shared-L2 traffic.
pub struct ManyCoreSystem<I: PacketInspector = NullInspector> {
    config: SystemConfig,
    workload: Workload,
    model: PowerModel,
    net: Network<I>,
    tiles: Vec<Tile>,
    manager: GlobalManager,
    replies: ReplyLines,
    window_start: u64,
    window_requests_delivered: u64,
    window_requests_modified: u64,
    window_requests_rejected: u64,
    /// Manager degradation counters at the start of the measurement window
    /// (they are cumulative in the manager; reports subtract this base).
    window_degradation_base: DegradationCounters,
    /// Last authenticated request per core (protection fallback).
    last_good_request: Vec<Option<f64>>,
    /// Per-home MESI-lite directories (detailed mode only).
    directories: Vec<Directory>,
    /// Per-home shared-L2 slice tag stores (detailed mode only).
    l2_slices: Vec<SetAssocCache>,
    /// Coherence invalidations issued (detailed mode only).
    invalidations_sent: u64,
    /// Workers whose requests never reached the manager in the last epoch —
    /// the tell-tale a packet-*drop* attack cannot hide.
    missing_requesters_last_epoch: usize,
    /// Reusable ejection buffer: its capacity ping-pongs between the NoC
    /// and [`consume_deliveries`](Self::consume_deliveries), so the
    /// steady-state epoch loop drains deliveries without allocating.
    delivered_buf: Vec<DeliveredPacket>,
    /// Optional power-protocol metrics ([`SysMetrics`]); enabled at build
    /// time when the process-wide obs layer is on, or explicitly via
    /// [`ManyCoreSystem::enable_metrics`]. Write-only from the epoch
    /// loop's point of view (non-perturbation by construction).
    metrics: Option<Box<SysMetrics>>,
    /// Whether the metrics were already absorbed into the obs registry
    /// (suppresses the drop-time auto-absorb).
    metrics_absorbed: bool,
    rng: StdRng,
}

/// OPTIONS-word marker of a directory-initiated invalidation message
/// (detailed-cache mode). Plain L2 requests carry no OPTIONS word.
const META_INVALIDATION: u32 = 0x1177_A1DA;

impl<I: PacketInspector> ManyCoreSystem<I> {
    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The workload sharing the chip.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The power model used by cores and manager.
    #[must_use]
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The underlying network (statistics, inspector access).
    #[must_use]
    pub fn network(&self) -> &Network<I> {
        &self.net
    }

    /// Mutable access to the network's inspector (e.g. to reconfigure a
    /// Trojan fleet mid-run).
    pub fn inspector_mut(&mut self) -> &mut I {
        self.net.inspector_mut()
    }

    /// Installs a fault-injection hook on the underlying NoC (e.g. a seeded
    /// `htpb_noc::FaultPlan`). Like the inspector, this is configured
    /// after `build()` because the builder stays `Clone`.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.net.set_fault_hook(hook);
    }

    /// Removes and returns the fault hook, if one was installed (e.g. to
    /// read back its fault counters at the end of a run).
    pub fn take_fault_hook(&mut self) -> Option<Box<dyn FaultHook>> {
        self.net.take_fault_hook()
    }

    /// The global manager (budget, epoch summaries).
    #[must_use]
    pub fn manager(&self) -> &GlobalManager {
        &self.manager
    }

    /// Enables live metrics on this system and its NoC (idempotent); done
    /// automatically at build time when [`htpb_obs::enabled`] is on.
    pub fn enable_metrics(&mut self) {
        self.net.enable_metrics();
        if self.metrics.is_none() {
            self.metrics = Some(Box::default());
        }
    }

    /// The power-protocol metrics, when enabled.
    #[must_use]
    pub(crate) fn sys_metrics(&self) -> Option<&SysMetrics> {
        self.metrics.as_deref()
    }

    /// Absorbs this system's metrics into the global obs registry now
    /// instead of at drop time. Idempotent: the drop-time absorb is
    /// suppressed afterwards, so totals are never double-counted.
    pub(crate) fn absorb_metrics(&mut self) {
        if self.metrics.is_some() && !self.metrics_absorbed {
            self.metrics_absorbed = true;
            crate::obs_bridge::absorb_system(self);
        }
    }

    /// One tile.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh.
    #[must_use]
    pub fn tile(&self, node: NodeId) -> &Tile {
        &self.tiles[node.0 as usize]
    }

    /// All tiles in node order.
    #[must_use]
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.net.cycle()
    }

    /// Advances the system one cycle.
    ///
    /// Steady-state allocation-free: only the two per-epoch calls (request
    /// injection and the manager's allocation, both outside the hot
    /// regions) may touch the heap; locked by `tests/alloc_regression.rs`.
    // htpb-lint: hot
    pub fn step(&mut self) {
        let cycle = self.net.cycle();
        let phase = cycle % self.config.epoch_cycles;

        if phase == 0 {
            self.inject_power_requests();
        }
        if phase == self.config.epoch_cycles * 6 / 10 {
            self.run_allocation();
        }
        self.fire_due_replies(cycle);
        self.net.step();
        self.consume_deliveries();
        self.tick_tiles();
    }
    // htpb-lint: end-hot

    /// Runs `cycles` cycles.
    ///
    /// While no application is assigned anywhere, a cycle on which the
    /// network is quiescent and neither an epoch boundary nor a scheduled
    /// reply fires is a perfect no-op (unassigned tiles tick without
    /// mutating state), so the loop fast-forwards the clock straight to the
    /// next cycle where anything can happen. The moment a workload is
    /// mapped — or any flit exists — every cycle is stepped for real.
    pub fn run(&mut self, cycles: u64) {
        let end = self.net.cycle() + cycles;
        let tiles_idle = self.tiles.iter().all(|t| !t.is_assigned());
        while self.net.cycle() < end {
            self.step();
            if !tiles_idle || !self.net.is_quiescent() {
                continue;
            }
            let cycle = self.net.cycle();
            let target = self.next_eventful_cycle(cycle).min(end);
            if target > cycle {
                self.net.skip_idle_cycles(target - cycle);
            }
        }
    }

    /// The earliest cycle at or after `cycle` on which [`Self::step`] can do
    /// observable work on an otherwise idle system: an epoch boundary
    /// (request injection), the allocation point, or a due reply event.
    fn next_eventful_cycle(&self, cycle: u64) -> u64 {
        let epoch = self.config.epoch_cycles;
        let alloc_phase = epoch * 6 / 10;
        let phase = cycle % epoch;
        let base = cycle - phase;
        let mut next = if phase == 0 {
            cycle
        } else if phase <= alloc_phase {
            base + alloc_phase
        } else {
            base + epoch
        };
        if let Some((fire, _)) = self.replies.next() {
            next = next.min(fire.max(cycle));
        }
        next
    }

    /// Runs `epochs` whole budgeting epochs.
    pub fn run_epochs(&mut self, epochs: u64) {
        self.run(epochs * self.config.epoch_cycles);
    }

    /// Starts a fresh measurement window at the current cycle.
    pub fn begin_measurement(&mut self) {
        self.window_start = self.net.cycle();
        self.window_requests_delivered = 0;
        self.window_requests_modified = 0;
        self.window_requests_rejected = 0;
        self.window_degradation_base = self.manager.degradation();
        for t in &mut self.tiles {
            t.reset_window();
        }
    }

    /// Requests rejected by checksum protection in the current window —
    /// each one is a *detected* tampering event.
    #[must_use]
    pub fn requests_rejected(&self) -> u64 {
        self.window_requests_rejected
    }

    /// Coherence invalidation messages sent so far (detailed-cache mode).
    #[must_use]
    pub fn invalidations_sent(&self) -> u64 {
        self.invalidations_sent
    }

    /// Workers whose requests never arrived in the most recent epoch — the
    /// manager-visible signature of a packet-drop attack (a false-data
    /// attack keeps this near zero; Section II-B stealth comparison).
    #[must_use]
    pub fn missing_requesters_last_epoch(&self) -> usize {
        self.missing_requesters_last_epoch
    }

    /// Instantaneous chip power draw in mW: the operating-point power of
    /// every assigned, non-starved core (starved cores are power-gated down
    /// to a retention floor the budget does not manage).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn power_draw_mw(&self) -> f64 {
        self.tiles
            .iter()
            .filter(|t| t.is_assigned() && !t.is_starved())
            .map(|t| self.model.power_mw(t.level()))
            .sum()
    }

    /// Builds the per-application performance report for the current window.
    #[must_use]
    pub fn performance_report(&self) -> PerformanceReport {
        let window = (self.net.cycle() - self.window_start).max(1);
        let apps = self
            .workload
            .apps()
            .iter()
            .map(|app| {
                let mut theta = 0.0;
                let mut starved = 0;
                for t in &self.tiles {
                    if let Some(a) = t.assignment() {
                        if a.app == app.id {
                            theta += t.retired_window() / window as f64;
                            if t.is_starved() {
                                starved += 1;
                            }
                        }
                    }
                }
                AppPerformance {
                    id: app.id,
                    benchmark: app.benchmark,
                    role: app.role,
                    threads: app.threads,
                    theta,
                    starved_cores: starved,
                }
            })
            .collect();
        let degradation = self.manager.degradation();
        let base = self.window_degradation_base;
        PerformanceReport {
            window_cycles: window,
            apps,
            power_requests_delivered: self.window_requests_delivered,
            power_requests_modified: self.window_requests_modified,
            requests_timed_out: degradation.timeouts - base.timeouts,
            requests_rejected: self.window_requests_rejected,
            requests_clamped: degradation.clamps - base.clamps,
        }
    }

    fn inject_power_requests(&mut self) {
        let manager = self.config.manager;
        let protection = self.config.protection;
        for t in &self.tiles {
            let node = t.node();
            if node == manager {
                continue;
            }
            let Some(mw) = t.desired_request_mw(&self.model, EFFICIENCY) else {
                continue;
            };
            let mw = mw.round() as u32;
            let mut packet = Packet::power_request(node, manager, mw);
            if let Some(p) = protection {
                packet = packet.with_options(p.checksum(node.raw(), mw));
            }
            // Back-pressure on the injection queue only delays the request;
            // a full queue (pathological) drops it for this epoch, which the
            // manager tolerates by design.
            let _ = self.net.inject(packet);
        }
    }

    fn run_allocation(&mut self) {
        // Before closing the epoch, note how many expected requesters went
        // silent. A false-data Trojan leaves this at ~0 (stealthy); a
        // packet-drop Trojan lights it up — the paper's stealth argument,
        // measurable.
        let expected = self
            .tiles
            .iter()
            .filter(|t| t.is_assigned() && t.node() != self.config.manager)
            .count();
        self.missing_requesters_last_epoch =
            expected.saturating_sub(self.manager.pending_requests());
        let grants = self.manager.run_epoch(&self.model);
        if let Some(m) = self.metrics.as_deref_mut() {
            let granted: f64 = grants.iter().map(|g| g.milliwatts).sum();
            m.on_epoch(granted, self.manager.budget_mw());
        }
        let manager = self.config.manager;
        for g in grants {
            let _ = self.net.inject(Packet::power_grant(
                manager,
                NodeId(g.core),
                g.milliwatts.round() as u32,
            ));
        }
    }

    // htpb-lint: hot
    fn fire_due_replies(&mut self, cycle: u64) {
        while let Some((from, to)) = self.replies.pop_due(cycle) {
            let _ = self
                .net
                .inject(Packet::new(NodeId(from), NodeId(to), PacketKind::Data, 0));
        }
    }

    fn consume_deliveries(&mut self) {
        let manager = self.config.manager;
        // Take the buffer out so the loop body can borrow `self` mutably;
        // `drain(..)` keeps its capacity for the next epoch.
        let mut delivered = std::mem::take(&mut self.delivered_buf);
        self.net.drain_ejected_into(&mut delivered);
        for d in delivered.drain(..) {
            let p = d.packet;
            match p.kind() {
                PacketKind::PowerReq if p.dst() == manager => {
                    // Infection statistics are taken over the requests the
                    // Trojan is *willing* to tamper with — those from
                    // legitimate applications. Attacker-agent requests are
                    // constitutionally exempt (comparator 3, Fig. 2a) and
                    // counting them would cap the observable rate below 1.
                    let from_victim = self.tiles[p.src().0 as usize]
                        .assignment()
                        .is_none_or(|a| a.role != crate::app::AppRole::Malicious);
                    if from_victim {
                        self.window_requests_delivered += 1;
                        if d.modified {
                            self.window_requests_modified += 1;
                        }
                    }
                    let mut value = f64::from(p.payload());
                    if let Some(guard) = self.config.protection {
                        if guard.verify(p.src().raw(), p.payload(), p.options()) {
                            self.last_good_request[p.src().0 as usize] = Some(value);
                        } else {
                            // Tampered (or mangled) request: discard the
                            // payload and budget on the last authenticated
                            // value from this core, if any.
                            self.window_requests_rejected += 1;
                            self.manager.note_rejected_request();
                            match self.last_good_request[p.src().0 as usize] {
                                Some(good) => value = good,
                                None => continue,
                            }
                        }
                    }
                    self.manager.submit(PowerRequest::new(p.src().raw(), value));
                }
                PacketKind::PowerGrant => {
                    if let Some(m) = self.metrics.as_deref_mut() {
                        m.on_grant(d.latency);
                    }
                    let tile = &mut self.tiles[p.dst().0 as usize];
                    tile.apply_grant(f64::from(p.payload()), &self.model);
                }
                PacketKind::Meta if self.config.detailed_caches => {
                    if p.options() == Some(META_INVALIDATION) {
                        // Directory-initiated invalidation landing at a
                        // sharer: drop the line from its L1.
                        let line = u64::from(p.payload()) << 6;
                        self.tiles[p.dst().0 as usize].l1_invalidate(line);
                    } else {
                        self.serve_l2_request(&p);
                    }
                }
                PacketKind::Data if self.config.detailed_caches => {
                    // A data reply returning to its requester frees an MSHR.
                    self.tiles[p.dst().0 as usize].note_reply();
                }
                PacketKind::Meta => {
                    // Rate-based mode: a shared-L2 request arriving at its
                    // home tile is served after the L2 hit latency, or the
                    // memory latency on a (probabilistic) miss.
                    let miss_rate = self.tiles[p.src().0 as usize]
                        .assignment()
                        .map_or(0.2, |a| a.profile.l2_miss_rate);
                    let miss = self.rng.gen_bool(miss_rate.clamp(0.0, 1.0));
                    self.schedule_reply(miss, p.dst(), p.src());
                }
                _ => {}
            }
        }
        self.delivered_buf = delivered;
    }

    /// Serves an L2 request at its home node in detailed mode: consults the
    /// directory (issuing invalidations), looks the line up in the home's
    /// L2 tag store, and schedules the data reply after the hit or memory
    /// latency.
    fn serve_l2_request(&mut self, p: &Packet) {
        let home = p.dst();
        let requester = p.src();
        let is_write = p.payload() & 0x8000_0000 != 0;
        let line = u64::from(p.payload() & 0x7FFF_FFFF) << 6;
        let dir = &mut self.directories[home.0 as usize];
        let action = if is_write {
            dir.write(line, requester.raw())
        } else {
            dir.read(line, requester.raw())
        };
        let was_tracked = action.was_tracked;
        for &sharer in action.invalidate {
            if sharer == requester.raw() {
                continue;
            }
            self.invalidations_sent += 1;
            let _ = self.net.inject(
                Packet::new(home, NodeId(sharer), PacketKind::Meta, (line >> 6) as u32)
                    .with_options(META_INVALIDATION),
            );
        }
        let l2 = &mut self.l2_slices[home.0 as usize];
        let hit = l2.access(line).hit && was_tracked;
        self.schedule_reply(!hit, home, requester);
    }

    /// Schedules a data reply `from → to` after the memory latency on a
    /// miss, else after the L2 hit latency.
    fn schedule_reply(&mut self, miss: bool, from: NodeId, to: NodeId) {
        let delay = if miss {
            self.config.memory_latency
        } else {
            L2_HIT_LATENCY
        };
        self.replies
            .schedule(miss, self.net.cycle() + delay, from.raw(), to.raw());
    }

    fn tick_tiles(&mut self) {
        let nodes = self.tiles.len();
        let duty = self.config.starvation_duty;
        if self.config.detailed_caches {
            let mshr = self.config.mshr_limit;
            for i in 0..nodes {
                let (misses, n) = self.tiles[i].tick_detailed(&self.model, duty, mshr);
                if !self.config.memory_traffic {
                    continue;
                }
                self.tiles[i].note_misses_sent(n as u32);
                for &(addr, is_write) in &misses[..n] {
                    let line_idx = (addr >> 6) as u32 & 0x7FFF_FFFF;
                    // Home by line-index hash, never the requester itself.
                    let mut home = (line_idx as usize * 0x9E37 + 0x79B9) % nodes;
                    if home == i {
                        home = (home + 1) % nodes;
                    }
                    let payload = line_idx | if is_write { 0x8000_0000 } else { 0 };
                    let _ = self.net.inject(Packet::new(
                        NodeId(i as u16),
                        NodeId(home as u16),
                        PacketKind::Meta,
                        payload,
                    ));
                }
            }
            return;
        }
        for i in 0..nodes {
            let accesses = self.tiles[i].tick(&self.model, duty);
            if !self.config.memory_traffic || accesses == 0 {
                continue;
            }
            // Cap per-tile injections to keep pathological profiles from
            // flooding the injection queue.
            for _ in 0..accesses.min(2) {
                let home = self.rng.gen_range(0..nodes as u16);
                if home == i as u16 {
                    continue;
                }
                let _ = self.net.inject(Packet::new(
                    NodeId(i as u16),
                    NodeId(home),
                    PacketKind::Meta,
                    0,
                ));
            }
        }
    }
    // htpb-lint: end-hot
}

impl<I: PacketInspector> Drop for ManyCoreSystem<I> {
    fn drop(&mut self) {
        // Auto-absorb at end of life so drivers get campaign-wide totals
        // without threading a call through every code path. A no-op unless
        // metrics were enabled (and not already absorbed explicitly).
        self.absorb_metrics();
    }
}

impl<I: PacketInspector + std::fmt::Debug> std::fmt::Debug for ManyCoreSystem<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManyCoreSystem")
            .field("mesh", &self.config.mesh)
            .field("manager", &self.config.manager)
            .field("cycle", &self.net.cycle())
            .field("apps", &self.workload.apps().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppRole;
    use crate::benchmark::Benchmark;

    fn small_system() -> ManyCoreSystem {
        let mesh = Mesh2d::new(4, 4).unwrap();
        SystemBuilder::new(mesh)
            .workload(
                Workload::new()
                    .app(Benchmark::Blackscholes, 7, AppRole::Legitimate)
                    .app(Benchmark::Canneal, 8, AppRole::Legitimate),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn idle_fast_forward_matches_stepped_run() {
        // An empty workload leaves every tile unassigned, so `run` may
        // fast-forward across dead cycles. The result must be
        // indistinguishable from stepping every cycle.
        let mesh = Mesh2d::new(4, 4).unwrap();
        let build = || SystemBuilder::new(mesh).build().unwrap();
        let mut fast = build();
        fast.run(12_345);
        let mut slow = build();
        for _ in 0..12_345 {
            slow.step();
        }
        assert_eq!(fast.cycle(), 12_345);
        assert_eq!(fast.cycle(), slow.cycle());
        assert_eq!(
            fast.manager().epochs_run(),
            slow.manager().epochs_run(),
            "fast-forward must not skip allocation points"
        );
        assert_eq!(
            fast.network().stats().fingerprint(),
            slow.network().stats().fingerprint()
        );
    }

    #[test]
    fn fast_forward_disabled_with_assigned_tiles() {
        // With a workload mapped, run() and per-cycle step() must remain
        // identical too (no skipping happens; this pins the guard).
        let mut fast = small_system();
        fast.run(2_000);
        let mut slow = small_system();
        for _ in 0..2_000 {
            slow.step();
        }
        assert_eq!(fast.cycle(), slow.cycle());
        assert_eq!(
            fast.network().stats().fingerprint(),
            slow.network().stats().fingerprint()
        );
        assert_eq!(fast.power_draw_mw(), slow.power_draw_mw());
    }

    #[test]
    fn builder_rejects_oversubscription() {
        let mesh = Mesh2d::new(2, 2).unwrap();
        let err = SystemBuilder::new(mesh)
            .workload(Workload::new().app(Benchmark::Vips, 4, AppRole::Legitimate))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ManycoreError::NotEnoughCores {
                requested: 4,
                available: 3
            }
        ));
    }

    #[test]
    fn builder_rejects_manager_outside_mesh() {
        let mesh = Mesh2d::new(2, 2).unwrap();
        let err = SystemBuilder::new(mesh)
            .manager(NodeId(99))
            .build()
            .unwrap_err();
        assert!(matches!(err, ManycoreError::InvalidConfig { .. }));
    }

    #[test]
    fn manager_tile_is_never_assigned() {
        let sys = small_system();
        assert!(!sys.tile(sys.config().manager).is_assigned());
        let assigned = sys.tiles().iter().filter(|t| t.is_assigned()).count();
        assert_eq!(assigned, 15);
    }

    #[test]
    fn epochs_deliver_requests_and_grants() {
        let mut sys = small_system();
        sys.run_epochs(2);
        // All 15 worker requests reached the manager in each epoch.
        assert!(sys.manager().epochs_run() >= 2);
        let summary = sys.manager().last_summary().unwrap();
        assert_eq!(summary.requesters, 15);
        assert!(summary.total_granted_mw <= sys.manager().budget_mw() + 1e-6);
        // Cores got grants: most tiles should have left the bottom level
        // or at least been explicitly granted (budget is scarce but > 0).
        let leveled_up = sys
            .tiles()
            .iter()
            .filter(|t| t.is_assigned() && t.level() > htpb_power::FrequencyLevel::MIN)
            .count();
        assert!(leveled_up > 0, "no tile ever received a useful grant");
    }

    #[test]
    fn cores_retire_instructions() {
        let mut sys = small_system();
        sys.run_epochs(2);
        for t in sys.tiles() {
            if t.is_assigned() {
                assert!(t.retired_total() > 0.0);
            }
        }
    }

    #[test]
    fn performance_report_covers_all_apps() {
        let mut sys = small_system();
        sys.run_epochs(1);
        sys.begin_measurement();
        sys.run_epochs(2);
        let r = sys.performance_report();
        assert_eq!(r.apps.len(), 2);
        assert!(r.apps.iter().all(|a| a.theta > 0.0));
        assert_eq!(r.power_requests_modified, 0);
        assert_eq!(r.infection_rate(), 0.0);
        // Compute-bound blackscholes (7 threads) must out-retire canneal (8)
        // per thread.
        let bs = r.apps[0].theta / r.apps[0].threads as f64;
        let cn = r.apps[1].theta / r.apps[1].threads as f64;
        assert!(bs > cn, "blackscholes {bs} <= canneal {cn}");
    }

    #[test]
    fn scarce_budget_throttles_against_ample() {
        let mesh = Mesh2d::new(4, 4).unwrap();
        let workload = || Workload::new().app(Benchmark::Blackscholes, 15, AppRole::Legitimate);
        let mut scarce = SystemBuilder::new(mesh)
            .workload(workload())
            .budget_fraction(0.3)
            .build()
            .unwrap();
        let mut ample = SystemBuilder::new(mesh)
            .workload(workload())
            .budget_fraction(2.0)
            .build()
            .unwrap();
        for sys in [&mut scarce, &mut ample] {
            sys.run_epochs(1);
            sys.begin_measurement();
            sys.run_epochs(2);
        }
        let ts = scarce.performance_report().apps[0].theta;
        let ta = ample.performance_report().apps[0].theta;
        assert!(ta > ts * 1.2, "ample {ta} not faster than scarce {ts}");
    }

    #[test]
    fn memory_traffic_can_be_disabled() {
        let mesh = Mesh2d::new(4, 4).unwrap();
        let mut sys = SystemBuilder::new(mesh)
            .workload(Workload::new().app(Benchmark::Canneal, 8, AppRole::Legitimate))
            .memory_traffic(false)
            .build()
            .unwrap();
        sys.run(500);
        // Only power protocol packets flow: all injected are PowerReq (epoch
        // start) — nothing else.
        let injected = sys.network().stats().injected_packets();
        assert_eq!(injected, 8, "expected only the 8 power requests");
    }

    #[test]
    fn detailed_caches_generate_coherent_traffic() {
        let mesh = Mesh2d::new(4, 4).unwrap();
        let mut sys = SystemBuilder::new(mesh)
            .workload(
                Workload::new()
                    .app(Benchmark::Canneal, 7, AppRole::Legitimate)
                    .app(Benchmark::Dedup, 8, AppRole::Legitimate),
            )
            .detailed_caches(true)
            .build()
            .unwrap();
        assert!(sys
            .tiles()
            .iter()
            .filter(|t| t.is_assigned())
            .all(|t| t.has_detailed_cache()));
        sys.run_epochs(3);
        // Tiles warmed their L1s and the chip carried real L2 traffic.
        let warm = sys
            .tiles()
            .iter()
            .filter(|t| t.is_assigned())
            .filter(|t| t.l1_hit_rate() > 0.3)
            .count();
        assert!(warm >= 10, "only {warm} tiles warmed up");
        // Shared cold region causes cross-tile lines -> some invalidations.
        let delivered = sys.network().stats().delivered_packets();
        assert!(delivered > 100, "almost no traffic: {delivered}");
        // Cores still make progress and the power protocol still works.
        assert!(sys.manager().epochs_run() >= 3);
        for t in sys.tiles() {
            if t.is_assigned() {
                assert!(t.retired_total() > 0.0);
            }
        }
    }

    #[test]
    fn detailed_mode_is_deterministic() {
        let run = || {
            let mesh = Mesh2d::new(4, 4).unwrap();
            let mut sys = SystemBuilder::new(mesh)
                .workload(Workload::new().app(Benchmark::Ferret, 10, AppRole::Legitimate))
                .detailed_caches(true)
                .seed(5)
                .build()
                .unwrap();
            sys.run_epochs(2);
            (
                sys.network().stats().delivered_packets(),
                sys.invalidations_sent(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn power_draw_tracks_grants() {
        let mesh = Mesh2d::new(4, 4).unwrap();
        let mut sys = SystemBuilder::new(mesh)
            .workload(Workload::new().app(Benchmark::Swaptions, 15, AppRole::Legitimate))
            .budget_fraction(0.6)
            .build()
            .unwrap();
        let cold = sys.power_draw_mw();
        sys.run_epochs(3);
        let warm = sys.power_draw_mw();
        assert!(
            warm > cold,
            "grants should raise the draw: {cold} -> {warm}"
        );
        assert!(
            warm <= sys.manager().budget_mw() * 1.05,
            "draw {warm} exceeds budget {}",
            sys.manager().budget_mw()
        );
        assert_eq!(sys.manager().history().len(), 3);
    }

    #[test]
    fn hardened_manager_survives_lossy_transport() {
        // With 20% of packets dropped, an unhardened manager simply sees
        // fewer requesters. A hardened one synthesizes hold-last-grant
        // requests for the silent cores, so the requester count recovers
        // and the degradation counters show up in the report.
        let mesh = Mesh2d::new(4, 4).unwrap();
        let build = |hardened: bool| {
            let mut b = SystemBuilder::new(mesh)
                .workload(Workload::new().app(Benchmark::Blackscholes, 15, AppRole::Legitimate))
                .memory_traffic(false)
                .seed(7);
            if hardened {
                b = b.hardening(HardeningConfig::default());
            }
            let mut sys = b.build().unwrap();
            sys.set_fault_hook(Box::new(
                htpb_noc::FaultPlan::new(0xD1E).with_drops(200_000),
            ));
            sys.run_epochs(1);
            sys.begin_measurement();
            sys.run_epochs(6);
            sys
        };

        let soft = build(false);
        let hard = build(true);
        let soft_requesters = soft.manager().last_summary().unwrap().requesters;
        let hard_requesters = hard.manager().last_summary().unwrap().requesters;
        assert!(
            soft_requesters < 15,
            "drops should cost the unhardened manager requesters"
        );
        assert_eq!(hard_requesters, 15, "hardening must cover silent cores");

        let r = hard.performance_report();
        assert!(r.requests_timed_out > 0, "timeouts should be visible");
        assert_eq!(r.requests_timed_out, r.degradation_total());
        assert_eq!(soft.performance_report().degradation_total(), 0);
    }

    #[test]
    fn metrics_do_not_perturb_the_system() {
        let run = |metrics: bool| {
            let mut sys = small_system();
            if metrics {
                sys.enable_metrics();
            }
            sys.run_epochs(3);
            let fp = sys.network().stats().fingerprint();
            let draw = sys.power_draw_mw();
            (fp, draw, sys.cycle())
        };
        assert_eq!(run(false), run(true));
        // And the instrumented run actually recorded the protocol.
        let mut sys = small_system();
        sys.enable_metrics();
        sys.run_epochs(3);
        let m = sys.sys_metrics().unwrap();
        assert!(m.epochs >= 3, "allocation epochs not observed");
        assert!(m.grant_latency.count() > 0, "no grants observed");
        assert!(
            sys.network().metrics().unwrap().active_router_cycles > 0,
            "NoC metrics not enabled alongside system metrics"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mesh = Mesh2d::new(4, 4).unwrap();
            let mut sys = SystemBuilder::new(mesh)
                .workload(
                    Workload::new()
                        .app(Benchmark::Ferret, 6, AppRole::Legitimate)
                        .app(Benchmark::Dedup, 6, AppRole::Legitimate),
                )
                .seed(42)
                .build()
                .unwrap();
            sys.run_epochs(2);
            let r = sys.performance_report();
            (
                sys.network().stats().delivered_packets(),
                r.apps[0].theta,
                r.apps[1].theta,
            )
        };
        assert_eq!(run(), run());
    }
}
