//! Golden-value regression tests: exact expected outputs for deterministic
//! computations (analytic infection rates, placement metrics, sensitivity
//! values, area arithmetic). Any change to these is a semantic change to
//! the reproduction and must be deliberate.

use htpb_attack::{
    analytic_infection_rate, density_eta, distance_rho, sensitivity_phi, Placement,
    PlacementStrategy,
};
use htpb_manycore::Benchmark;
use htpb_noc::{Mesh2d, NodeId};
use htpb_power::DvfsTable;
use htpb_trojan::AreaReport;

#[test]
fn golden_analytic_infection_8x8_center() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center(); // node 36 at (4,4)
                                 // Single Trojans at hand-verified positions.
                                 // Node 35 = (3,4): west neighbour of the manager. Under XY it carries
                                 // the requests of every source with x < 4 that ends its X-phase through
                                 // (3,4)... exact value pinned below.
    let single = |node: u16| analytic_infection_rate(mesh, manager, &[NodeId(node)], None);
    // Manager router: everything.
    assert!((single(36) - 1.0).abs() < 1e-12);
    // (4,3), north neighbour on the manager column: carries all sources
    // with y < 4 → rows 0..=3 (8 nodes each) = 32 of 63.
    assert!((single(28) - 32.0 / 63.0).abs() < 1e-12);
    // (3,4), west neighbour off the column: sources in row 4 with x < 4
    // plus nothing else (X-phase only passes row-4 nodes) = 4 of 63.
    assert!((single(35) - 4.0 / 63.0).abs() < 1e-12);
    // A corner Trojan catches only the corner source itself.
    assert!((single(0) - 1.0 / 63.0).abs() < 1e-12);
}

#[test]
fn golden_placement_metrics() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    let p = Placement::generate(mesh, 4, &PlacementStrategy::CornerCluster, &[manager]);
    // Corner cluster of 4 = nodes (0,0),(1,0),(0,1) and one of the
    // distance-2 nodes; closest-first with id tie-break → 0,1,8,2.
    assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(8)]);
    let (wx, wy) = p.virtual_center(mesh).unwrap();
    assert!((wx - 0.75).abs() < 1e-12);
    assert!((wy - 0.25).abs() < 1e-12);
    // rho = |0.75-4| + |0.25-4| = 3.25 + 3.75 = 7.0
    assert!((p.distance_rho(mesh, manager).unwrap() - 7.0).abs() < 1e-12);
    // eta = mean Manhattan distance to (0.75, 0.25):
    // n0 (0,0): 1.0; n1 (1,0): 0.5; n2 (2,0): 1.5; n8 (0,1): 1.5 → 1.125
    assert!((density_eta(mesh, p.nodes()).unwrap() - 1.125).abs() < 1e-12);
    let _ = distance_rho(mesh, p.nodes(), manager);
}

#[test]
fn golden_sensitivity_values() {
    // Φ (Definition 5) for the extreme benchmarks, pinned to 1e-6. The
    // telescoping sum over equal-width level pairs reduces to
    // (T(τ_max) − T(τ_min)) / Δτ summed per pair.
    let table = DvfsTable::default_six_level();
    let phi_bs = sensitivity_phi(&Benchmark::Blackscholes.profile(), &table);
    let phi_cn = sensitivity_phi(&Benchmark::Canneal.profile(), &table);
    assert!((phi_bs - 5.742176).abs() < 1e-5, "blackscholes {phi_bs}");
    assert!((phi_cn - 1.608413).abs() < 1e-5, "canneal {phi_cn}");
}

#[test]
fn golden_area_arithmetic() {
    let r = AreaReport::new(60, 512);
    assert_eq!(format!("{:.4}", r.trojan_area_um2()), "730.2960");
    assert_eq!(format!("{:.4}", r.trojan_power_uw()), "33.0108");
    assert_eq!(format!("{:.5}", r.area_fraction() * 100.0), "0.00199");
}

#[test]
fn golden_simulated_equals_analytic_on_fixed_seed() {
    // One pinned configuration ties the cycle-accurate simulator to the
    // analytic model forever.
    let exp = htpb_core::InfectionExperiment::new(64);
    let p = exp.placement(6, &PlacementStrategy::Random { seed: 2024 });
    let simulated = exp.measure(&p);
    let analytic = analytic_infection_rate(exp.mesh(), exp.manager_node(), p.nodes(), None);
    assert_eq!(simulated.to_bits(), analytic.to_bits());
}
