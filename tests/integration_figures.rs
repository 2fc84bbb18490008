//! Shape tests for every reproduced figure/table, at test-friendly scale,
//! through the same per-point drivers the `repro_all` jobs run
//! (`htpb_harness::ReproPlan`).

use htpb_core::{
    attack_sweep_point_with_baseline, fig3_point, fig4_point, optimal_vs_random,
    regression_dataset, run_clean_baseline, AreaReport, AttackModel, AttackSweepPoint,
    CampaignConfig, ManagerLocation, Mesh2d, Mix, Placement, PlacementStrategy,
};

/// One Fig. 5/6 point per duty, all against one clean baseline.
fn sweep(cfg: &CampaignConfig, duties: &[f64]) -> Vec<AttackSweepPoint> {
    let clean = run_clean_baseline(cfg);
    duties
        .iter()
        .map(|&d| attack_sweep_point_with_baseline(cfg, d, &clean))
        .collect()
}

#[test]
fn fig3_shape_monotonic_and_corner_dominates() {
    let counts = [0usize, 4, 8, 16, 24];
    // Corner dominance is statistical (the corner manager wins ~2/3 of
    // individual random placements), so average over a seed window whose
    // per-count margins are comfortably positive.
    let seeds: Vec<u64> = (12..20).collect();
    let curve = |manager| -> Vec<f64> {
        counts
            .iter()
            .map(|&m| fig3_point(64, manager, m, &seeds))
            .collect()
    };
    let center = curve(ManagerLocation::Center);
    let corner = curve(ManagerLocation::Corner);
    for ys in [&center, &corner] {
        assert!(
            ys.windows(2).all(|w| w[1] >= w[0] - 1e-9),
            "not monotonic: {ys:?}"
        );
    }
    // Beyond ~8 HTs the corner curve dominates (paper: >20% beyond 10 HTs).
    for ((m, c), k) in counts.iter().zip(&center).zip(&corner) {
        if *m >= 8 {
            assert!(k > c, "at {m} HTs corner {k} <= center {c}");
        }
    }
}

#[test]
fn fig4_shape_distribution_ordering() {
    let seeds = [1u64, 2, 3];
    for size in [64u32, 128] {
        let rate = |strategy| fig4_point(size, &strategy, 16, &seeds);
        let c = rate(PlacementStrategy::CenterCluster);
        let r = rate(PlacementStrategy::Random { seed: 0 });
        let k = rate(PlacementStrategy::CornerCluster);
        assert!(c >= r, "size {size}: center {c} < random {r}");
        assert!(r >= k, "size {size}: random {r} < corner {k}");
        assert!(c / k.max(1e-9) > 2.0, "center should dwarf corner");
    }
}

#[test]
fn fig5_shape_q_rises_with_infection() {
    let cfg = CampaignConfig::small(Mix::Mix4);
    let points = sweep(&cfg, &[0.0, 0.5, 0.9]);
    assert_eq!(points.len(), 3);
    assert!((points[0].q_value - 1.0).abs() < 1e-6);
    assert!(points[1].q_value > points[0].q_value);
    assert!(points[2].q_value > points[1].q_value);
    // The paper's mix-4 peak is 6.89 at 0.9; ours lands in the same regime.
    assert!(
        points[2].q_value > 3.0 && points[2].q_value < 15.0,
        "mix-4 Q at 0.9 = {}",
        points[2].q_value
    );
}

#[test]
fn fig6_shape_attackers_up_victims_down() {
    let cfg = CampaignConfig::small(Mix::Mix1);
    let points = sweep(&cfg, &[0.5]);
    let p = &points[0];
    // Paper call-outs at infection 0.5: attackers up to ~1.2x, victims
    // around 0.6x.
    let gain = p.outcome.max_attacker_gain();
    let worst = p.outcome.min_victim_change();
    assert!((1.0..=1.6).contains(&gain), "attacker gain {gain}");
    assert!((0.3..=0.85).contains(&worst), "victim change {worst}");
}

#[test]
fn section5c_optimal_beats_random() {
    let cfg = CampaignConfig::small(Mix::Mix1);
    let cmp = optimal_vs_random(&cfg, 8, &[7, 8]);
    assert!(
        cmp.improvement > 0.0,
        "optimal {} <= random {}",
        cmp.q_optimal,
        cmp.q_random
    );
    // The optimizer may use fewer than the m budget when a smaller set
    // already maximises infection (ties prefer fewer Trojans — stealth).
    assert!((1..=8).contains(&cmp.optimal_placement.len()));
}

#[test]
fn section3d_area_table_exact() {
    let one = AreaReport::new(1, 1);
    assert!((one.trojan_area_um2() - 12.1716).abs() < 1e-9);
    assert!((one.trojan_power_uw() - 0.55018).abs() < 1e-9);
    let chip = AreaReport::new(60, 512);
    assert!((chip.trojan_area_um2() - 730.296).abs() < 1e-3);
    assert!((chip.trojan_power_uw() - 33.0108).abs() < 1e-4);
    assert!((chip.area_fraction() * 100.0 - 0.002).abs() < 5e-4);
    assert!((chip.power_fraction() * 100.0 - 0.0002).abs() < 5e-5);
}

#[test]
fn eq9_regression_fits_with_expected_signs() {
    // A small but spanning dataset: two mixes, placements varying rho and m.
    let base = CampaignConfig::small(Mix::Mix1);
    let mesh = Mesh2d::with_nodes(base.nodes).unwrap();
    let manager = ManagerLocation::Center.resolve(mesh);
    let mut placements = Vec::new();
    for m in [2usize, 6] {
        for anchor in [manager, htpb_core::NodeId(0), htpb_core::NodeId(7)] {
            placements.push(Placement::generate(
                mesh,
                m,
                &PlacementStrategy::ClusterAround { anchor },
                &[manager],
            ));
        }
    }
    let samples = regression_dataset(&base, &[Mix::Mix1, Mix::Mix3], &placements);
    assert_eq!(samples.len(), 12);
    let model = AttackModel::fit(&samples).expect("fit");
    // Sign checks from Section IV-B: distance hurts, Trojan count helps.
    assert!(model.a1_rho() < 0.0, "a1 = {}", model.a1_rho());
    assert!(model.a3_m() > 0.0, "a3 = {}", model.a3_m());
    assert!(model.r2() > 0.5, "R^2 = {}", model.r2());
}
