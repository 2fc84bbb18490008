//! Defense demo — the "protection against such attacks" the paper's
//! conclusion calls for, end to end:
//!
//! 1. run the attack against the vulnerable baseline protocol (big Q);
//! 2. re-run with keyed-checksum request authentication
//!    ([`htpb_core::RequestProtection`]) — the Trojan's payload rewrites are
//!    detected and discarded, and the attack collapses to Q ≈ 1;
//! 3. feed the detector's observations to the path-intersection localizer
//!    and recover which routers host the Trojans.
//!
//! Run with: `cargo run --release --example defense_demo`

use htpb_core::{
    AppRole, Benchmark, Mesh2d, NodeId, RequestProtection, SystemBuilder, TamperRule, TrojanFleet,
    Workload,
};
use htpb_defense::{DetectorConfig, RequestAnomalyDetector, TrojanLocalizer};

fn workload() -> Workload {
    Workload::new()
        .app(Benchmark::Barnes, 20, AppRole::Malicious)
        .app(Benchmark::Raytrace, 20, AppRole::Legitimate)
}

fn infected_fleet(trojans: &[NodeId], manager: NodeId) -> TrojanFleet {
    // (helper shared by both runs)
    let mut fleet = TrojanFleet::new(trojans, TamperRule::Zero);
    fleet.configure_all(&[], manager, true);
    fleet
}

fn victim_theta(sys: &htpb_core::ManyCoreSystem<TrojanFleet>) -> f64 {
    sys.performance_report()
        .apps
        .iter()
        .filter(|a| a.role == AppRole::Legitimate)
        .map(|a| a.theta)
        .sum()
}

fn main() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    // The optimizer's favourite spot: a ring on the manager's doorstep
    // catches every request (cf. `PlacementOptimizer`).
    let trojans: Vec<NodeId> = htpb_core::Direction::ALL
        .into_iter()
        .filter_map(|d| mesh.neighbor(manager, d))
        .collect();
    println!("== defending the power-budget protocol ==");
    println!(
        "chip: 8x8, manager at {manager}, Trojans at {:?}\n",
        trojans
    );

    // 1. Vulnerable baseline under attack.
    let mut attacked = SystemBuilder::new(mesh)
        .manager(manager)
        .workload(workload())
        .build_with_inspector(infected_fleet(&trojans, manager))
        .unwrap();
    attacked.run_epochs(2);
    attacked.begin_measurement();
    attacked.run_epochs(6);
    let theta_attacked = victim_theta(&attacked);
    println!(
        "vulnerable protocol: victim theta = {theta_attacked:.2}, infection = {:.2}",
        attacked.performance_report().infection_rate()
    );

    // 2. Same chip, same Trojans, checksummed requests.
    let mut protected = SystemBuilder::new(mesh)
        .manager(manager)
        .workload(workload())
        .protection(RequestProtection::new(0xDEAD_BEEF))
        .build_with_inspector(infected_fleet(&trojans, manager))
        .unwrap();
    protected.run_epochs(2);
    protected.begin_measurement();
    protected.run_epochs(6);
    let theta_protected = victim_theta(&protected);
    println!(
        "checksummed protocol: victim theta = {theta_protected:.2}, \
         tampered requests detected+rejected = {}",
        protected.requests_rejected()
    );
    println!(
        "protection recovered {:.0}% of victim performance\n",
        theta_protected / theta_attacked * 100.0 - 100.0
    );

    // 3. Localization. A full ring around the manager flags *every* source
    //    and leaves nothing to triangulate with, so show the localizer on a
    //    sparser infection: two Trojans in the field.
    let sparse = [NodeId(20), NodeId(43)];
    println!("localizing a sparser implant at {sparse:?}:");
    let mut detector = RequestAnomalyDetector::new(DetectorConfig::default());
    // Feed the detector what the manager saw: two honest epochs of per-core
    // demand, then the attacked epoch's arrivals.
    for t in attacked.tiles() {
        if let Some(mw) = t.desired_request_mw(attacked.model(), 0.90) {
            let src = t.node();
            detector.observe(src, 0, mw);
            detector.observe(src, 1, mw);
            let tampered = mesh
                .xy_path(src, manager)
                .iter()
                .any(|n| sparse.contains(n));
            detector.observe(src, 2, if tampered { 0.0 } else { mw });
        }
    }
    let flagged = detector.flagged_cores();
    let clean = detector.clean_cores();
    println!(
        "detector flagged {} cores, cleared {} cores",
        flagged.len(),
        clean.len()
    );
    let localizer = TrojanLocalizer::new(mesh, manager);
    let report = localizer.localize(&flagged, &clean);
    println!(
        "suspect routers: {} of {} ({:?} ...)",
        report.suspects.len(),
        mesh.nodes(),
        &report.suspects[..report.suspects.len().min(6)]
    );
    println!("minimal explanation: {:?}", report.minimal_explanation);
    let found = sparse
        .iter()
        .filter(|t| report.suspects.contains(t))
        .count();
    println!(
        "true Trojans inside the suspect set: {found}/{}",
        sparse.len()
    );
}
