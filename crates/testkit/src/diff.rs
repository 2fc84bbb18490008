//! The differential oracle: runs a [`Scenario`] through the optimized
//! [`htpb_noc::Network`] and the dense [`ReferenceNet`] in lock-step,
//! comparing statistics fingerprints, trace fingerprints, and delivered
//! packets after every cycle, and localizing the first divergence down to a
//! (cycle, router, input port, VC) tuple by diffing per-VC snapshots.

use htpb_noc::{Direction, Network, NetworkConfig, NodeId, RouterConfig, VcSnapshot};
use htpb_trojan::TrojanFleet;

use crate::reference::ReferenceNet;
use crate::scenario::{Scenario, SplitMix64};

/// Knobs of one differential run.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Arm the deliberately seeded round-robin arbitration bug in the
    /// *optimized* network (`Network::set_rr_skew`). The reference always
    /// runs the correct arbitration, so any scenario whose traffic exercises
    /// switch contention diverges — the self-test proving the oracle can
    /// catch a real bug.
    pub rr_skew: bool,
    /// Extra lock-step cycles granted after traffic generation stops for
    /// both networks to drain in-flight packets.
    pub drain_cycles: u64,
    /// Router geometry both networks are built with (Table I by default).
    /// Every index into the optimized network's slabs is computed from
    /// these two runtime values, so the conformance suite sweeps them.
    pub router: RouterConfig,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            rr_skew: false,
            drain_cycles: 2_000,
            router: RouterConfig::default(),
        }
    }
}

impl DiffConfig {
    /// The network both sides of a run of `scenario` are built from.
    fn network_config(&self, scenario: &Scenario) -> NetworkConfig {
        scenario.network_config().with_router(self.router)
    }
}

/// The first observable disagreement between the two implementations.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Cycle count of both networks when the mismatch was observed (cycles
    /// are compared first, so the two never disagree on it).
    pub cycle: u64,
    /// Which observable differed, with both values.
    pub what: String,
    /// First differing `(router, input port, VC)` found by the snapshot
    /// sweep, when any internal state differs (counter-only divergences —
    /// e.g. pure statistics bugs — can leave identical buffers behind).
    pub location: Option<(NodeId, usize, usize)>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.what)?;
        if let Some((node, port, vc)) = self.location {
            write!(
                f,
                " (first differing state: {node} port {} vc {vc})",
                Direction::ALL[port].index()
            )?;
        }
        Ok(())
    }
}

fn build_fleet(scenario: &Scenario) -> TrojanFleet {
    let nodes: Vec<NodeId> = scenario.trojans.iter().map(|&t| NodeId(t)).collect();
    let mut fleet =
        TrojanFleet::new(&nodes, scenario.tamper_rule()).with_schedule(scenario.trojan_schedule());
    fleet.configure_all(&[], NodeId(scenario.manager), true);
    fleet
}

fn delivered_eq(a: &htpb_noc::DeliveredPacket, b: &htpb_noc::DeliveredPacket) -> bool {
    a.packet == b.packet && a.latency == b.latency && a.hops == b.hops && a.modified == b.modified
}

/// Sweeps every (router, port, VC) of both networks and reports the first
/// snapshot mismatch, ascending (node, port, vc) order.
fn localize(
    optimized: &Network<TrojanFleet>,
    reference: &ReferenceNet,
) -> Option<(NodeId, usize, usize)> {
    let vcs = optimized.router(NodeId(0)).config().vcs;
    for node in optimized.mesh().iter_nodes() {
        for port in 0..5 {
            for vc in 0..vcs {
                let opt: VcSnapshot = optimized.router(node).vc_snapshot(port, vc);
                let dense = reference.vc_snapshot(node, port, vc);
                if opt != dense {
                    return Some((node, port, vc));
                }
            }
        }
    }
    None
}

/// One lock-step comparison of every cross-checked observable. Returns the
/// first mismatch as a [`Divergence`].
fn compare(
    optimized: &mut Network<TrojanFleet>,
    reference: &mut ReferenceNet,
) -> Option<Divergence> {
    let cycle = optimized.cycle();
    let fail = |what: String, optimized: &Network<TrojanFleet>, reference: &ReferenceNet| {
        Some(Divergence {
            cycle,
            what,
            location: localize(optimized, reference),
        })
    };
    if optimized.cycle() != reference.cycle() {
        return Some(Divergence {
            cycle,
            what: format!(
                "cycle counters drifted: optimized {} vs reference {}",
                optimized.cycle(),
                reference.cycle()
            ),
            location: None,
        });
    }
    let (of, rf) = (
        optimized.stats().fingerprint(),
        reference.stats().fingerprint(),
    );
    if of != rf {
        return fail(
            format!(
                "stats fingerprints differ: optimized {of:#018x} vs reference {rf:#018x} \
                 (delivered {} vs {}, dropped {} vs {})",
                optimized.stats().delivered_packets(),
                reference.stats().delivered_packets(),
                optimized.stats().dropped_packets(),
                reference.stats().dropped_packets(),
            ),
            optimized,
            reference,
        );
    }
    let ot = optimized.trace().map(htpb_noc::TraceBuffer::fingerprint);
    let rt = reference.trace().map(htpb_noc::TraceBuffer::fingerprint);
    if ot != rt {
        return fail(
            format!("trace fingerprints differ: optimized {ot:?} vs reference {rt:?}"),
            optimized,
            reference,
        );
    }
    let od = optimized.drain_ejected();
    let rd = reference.drain_ejected();
    if od.len() != rd.len() || !od.iter().zip(&rd).all(|(a, b)| delivered_eq(a, b)) {
        return fail(
            format!(
                "delivered packets differ: optimized {} vs reference {} this cycle",
                od.len(),
                rd.len()
            ),
            optimized,
            reference,
        );
    }
    None
}

/// Runs `scenario` through both implementations in lock-step.
///
/// Returns `None` when every per-cycle observable agreed for the whole run
/// (traffic phase plus drain), or the first [`Divergence`] otherwise.
#[must_use]
pub fn run_differential(scenario: &Scenario, config: &DiffConfig) -> Option<Divergence> {
    let net_cfg = config.network_config(scenario);
    let mut optimized = Network::with_inspector(net_cfg.clone(), build_fleet(scenario));
    let mut reference = ReferenceNet::new(&net_cfg, Box::new(build_fleet(scenario)));
    if config.rr_skew {
        optimized.set_rr_skew(true);
    }
    if scenario.has_faults() {
        // Two independent plan instances: decisions are pure functions of
        // (seed, domain, entity, window), so both sides see identical faults.
        optimized.set_fault_plan(scenario.fault_plan());
        reference.set_fault_plan(scenario.fault_plan());
    }
    let mut rng = SplitMix64::new(scenario.seed);
    for _ in 0..scenario.cycles {
        for src in 0..scenario.nodes() {
            let Some(packet) = scenario.traffic_for(&mut rng, src) else {
                continue;
            };
            let a = optimized.inject(packet);
            let b = reference.inject(packet);
            if a != b {
                return Some(Divergence {
                    cycle: optimized.cycle(),
                    what: format!("inject results differ: optimized {a:?} vs reference {b:?}"),
                    location: localize(&optimized, &reference),
                });
            }
        }
        optimized.step();
        reference.step();
        if let Some(d) = compare(&mut optimized, &mut reference) {
            return Some(d);
        }
    }
    for _ in 0..config.drain_cycles {
        if optimized.is_idle() && reference.is_idle() {
            break;
        }
        optimized.step();
        reference.step();
        if let Some(d) = compare(&mut optimized, &mut reference) {
            return Some(d);
        }
    }
    if !optimized.is_idle() || !reference.is_idle() {
        return Some(Divergence {
            cycle: optimized.cycle(),
            what: format!(
                "network failed to drain within {} extra cycles (optimized idle: {}, reference idle: {})",
                config.drain_cycles,
                optimized.is_idle(),
                reference.is_idle()
            ),
            location: localize(&optimized, &reference),
        });
    }
    None
}

/// Every observable of one optimized-network run that the metrics-identity
/// property compares: cycle count, statistics and trace fingerprints, and
/// a running digest of the delivered-packet stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunObservables {
    cycle: u64,
    stats_fp: u64,
    trace_fp: Option<u64>,
    delivered: u64,
    latency_sum: u64,
    hops_sum: u64,
    modified: u64,
}

/// Drives `scenario` through the optimized network alone (same traffic,
/// faults and drain policy as [`run_differential`]'s optimized side),
/// with or without live metrics, and returns its observables plus how many
/// active-router cycles the metric hooks tallied (0 when `metrics` is
/// off).
fn observe_optimized(
    scenario: &Scenario,
    config: &DiffConfig,
    metrics: bool,
) -> (RunObservables, u64) {
    let mut net = Network::with_inspector(config.network_config(scenario), build_fleet(scenario));
    if metrics {
        net.enable_metrics();
    }
    if scenario.has_faults() {
        net.set_fault_plan(scenario.fault_plan());
    }
    let mut obs = RunObservables {
        cycle: 0,
        stats_fp: 0,
        trace_fp: None,
        delivered: 0,
        latency_sum: 0,
        hops_sum: 0,
        modified: 0,
    };
    let fold = |net: &mut Network<TrojanFleet>, obs: &mut RunObservables| {
        for d in net.drain_ejected() {
            obs.delivered += 1;
            obs.latency_sum = obs.latency_sum.wrapping_add(d.latency);
            obs.hops_sum = obs.hops_sum.wrapping_add(u64::from(d.hops));
            obs.modified += u64::from(d.modified);
        }
    };
    let mut rng = SplitMix64::new(scenario.seed);
    for _ in 0..scenario.cycles {
        for src in 0..scenario.nodes() {
            if let Some(packet) = scenario.traffic_for(&mut rng, src) {
                let _ = net.inject(packet);
            }
        }
        net.step();
        fold(&mut net, &mut obs);
    }
    for _ in 0..config.drain_cycles {
        if net.is_idle() {
            break;
        }
        net.step();
        fold(&mut net, &mut obs);
    }
    obs.cycle = net.cycle();
    obs.stats_fp = net.stats().fingerprint();
    obs.trace_fp = net.trace().map(htpb_noc::TraceBuffer::fingerprint);
    let activity = net.metrics().map_or(0, |m| m.active_router_cycles);
    (obs, activity)
}

/// The metamorphic **non-perturbation** property of the observability
/// layer: running a scenario with live NoC metrics enabled must leave
/// every simulation observable — cycle count, [`htpb_noc::NetworkStats`]
/// fingerprint, [`htpb_noc::TraceBuffer`] fingerprint, and the full
/// delivered-packet stream — bit-identical to a metrics-off run.
///
/// Returns `None` when the property holds, or a description of the first
/// difference. Also fails when the metrics-on run *recorded nothing*
/// despite delivering packets, so a dead metrics hook cannot make the
/// check vacuously pass.
#[must_use]
pub fn run_metrics_identity(scenario: &Scenario, config: &DiffConfig) -> Option<String> {
    let (off, _) = observe_optimized(scenario, config, false);
    let (on, activity) = observe_optimized(scenario, config, true);
    if off != on {
        return Some(format!(
            "metrics-on run perturbed the simulation: off {off:?} vs on {on:?}"
        ));
    }
    if on.delivered > 0 && activity == 0 {
        return Some(
            "metrics-on run delivered packets but recorded no active-router cycles — \
             the hooks are dead and the identity check is vacuous"
                .to_string(),
        );
    }
    None
}

/// Outcome of a batch of random differential runs.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Scenarios that ran clean.
    pub passed: u64,
    /// `(spec, divergence)` of every failing scenario, in discovery order.
    pub failures: Vec<(String, Divergence)>,
}

impl BatchReport {
    /// Whether every scenario agreed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `count` random scenarios derived from `master_seed` through the
/// differential oracle, collecting all failures.
#[must_use]
pub fn run_batch(master_seed: u64, count: u64) -> BatchReport {
    let mut report = BatchReport::default();
    let config = DiffConfig::default();
    for i in 0..count {
        let scenario = Scenario::random(master_seed.wrapping_add(i));
        match run_differential(&scenario, &config) {
            None => report.passed += 1,
            Some(d) => report.failures.push((scenario.to_spec(), d)),
        }
    }
    report
}
