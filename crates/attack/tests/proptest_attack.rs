//! Property-based tests of the attack-model layer: the analytic infection
//! estimator agrees with a brute-force recomputation, placement metrics
//! satisfy their geometric invariants, and the optimizer never loses to
//! the strategies it enumerates.

use proptest::prelude::*;

use htpb_attack::{
    analytic_infection_rate, density_eta, distance_rho, virtual_center, Placement,
    PlacementOptimizer, PlacementStrategy,
};
use htpb_noc::{Mesh2d, NodeId};

fn arb_mesh() -> impl Strategy<Value = Mesh2d> {
    (3u16..=8, 3u16..=8).prop_map(|(w, h)| Mesh2d::new(w, h).expect("valid dims"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analytic estimator equals the brute-force definition: the
    /// fraction of sources whose XY path intersects the Trojan set.
    #[test]
    fn analytic_matches_bruteforce(
        mesh in arb_mesh(),
        seeds in proptest::collection::btree_set(0u32..256, 0..8),
    ) {
        let manager = mesh.center();
        let trojans: Vec<NodeId> = seeds
            .into_iter()
            .map(|s| NodeId((s % mesh.nodes()) as u16))
            .collect();
        let estimate = analytic_infection_rate(mesh, manager, &trojans, None);
        let mut infected = 0u32;
        let mut sources = 0u32;
        for src in mesh.iter_nodes() {
            if src == manager {
                continue;
            }
            sources += 1;
            if mesh
                .xy_path(src, manager)
                .iter()
                .any(|n| trojans.contains(n))
            {
                infected += 1;
            }
        }
        let brute = f64::from(infected) / f64::from(sources);
        prop_assert!((estimate - brute).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&estimate));
    }

    /// Geometric invariants of Definitions 6-8: the virtual center lies in
    /// the placement's bounding box; rho is within the triangle inequality
    /// of any member's distance; eta is bounded by the max spread.
    #[test]
    fn placement_metric_invariants(
        mesh in arb_mesh(),
        m in 1usize..10,
        seed in any::<u64>(),
    ) {
        let manager = mesh.center();
        let p = Placement::generate(mesh, m, &PlacementStrategy::Random { seed }, &[]);
        prop_assume!(!p.is_empty());
        let (wx, wy) = virtual_center(mesh, p.nodes()).unwrap();
        let xs: Vec<f64> = p.nodes().iter().map(|n| mesh.coord(*n).x as f64).collect();
        let ys: Vec<f64> = p.nodes().iter().map(|n| mesh.coord(*n).y as f64).collect();
        let (xmin, xmax) = (xs.iter().cloned().fold(f64::MAX, f64::min), xs.iter().cloned().fold(f64::MIN, f64::max));
        let (ymin, ymax) = (ys.iter().cloned().fold(f64::MAX, f64::min), ys.iter().cloned().fold(f64::MIN, f64::max));
        prop_assert!((xmin..=xmax).contains(&wx));
        prop_assert!((ymin..=ymax).contains(&wy));

        let rho = distance_rho(mesh, p.nodes(), manager).unwrap();
        let eta = density_eta(mesh, p.nodes()).unwrap();
        prop_assert!(rho >= 0.0 && eta >= 0.0);
        // Triangle inequality: rho <= member distance + member spread.
        for n in p.nodes() {
            let d = mesh.distance(*n, manager) as f64;
            let c = mesh.coord(*n);
            let spread = (c.x as f64 - wx).abs() + (c.y as f64 - wy).abs();
            prop_assert!(rho <= d + spread + 1e-9);
        }
        // Single-node placements are perfectly dense.
        if p.len() == 1 {
            prop_assert!(eta.abs() < 1e-12);
        }
    }

    /// The optimizer's result is at least as infectious as any placement
    /// strategy it claims to dominate, for the same budget.
    #[test]
    fn optimizer_dominates_fixed_strategies(
        mesh in arb_mesh(),
        m in 1usize..8,
        seed in any::<u64>(),
    ) {
        let manager = mesh.center();
        let opt = PlacementOptimizer::new(mesh, manager, m)
            .exclude(&[manager])
            .optimize();
        for strategy in [
            PlacementStrategy::CenterCluster,
            PlacementStrategy::CornerCluster,
            PlacementStrategy::Random { seed },
        ] {
            let p = Placement::generate(mesh, m, &strategy, &[manager]);
            let rate = analytic_infection_rate(mesh, manager, p.nodes(), None);
            prop_assert!(
                opt.infection >= rate - 1e-12,
                "optimizer {} lost to {strategy:?} at {rate}",
                opt.infection
            );
        }
    }
}
