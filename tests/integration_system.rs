//! Whole-system integration tests: determinism, cross-layer consistency,
//! and the Definitions 1–8 metrics computed over real simulation output.

use htpb_core::{
    density_eta, distance_rho, run_campaign, sensitivity_phi, virtual_center, AllocatorKind,
    AppRole, Benchmark, CampaignConfig, DvfsTable, ManagerLocation, Mesh2d, Mix, NodeId, Placement,
    PlacementStrategy, RoutingKind, SystemBuilder, Workload,
};

#[test]
fn campaigns_are_deterministic() {
    let cfg = CampaignConfig::small(Mix::Mix2);
    let a = run_campaign(&cfg, 0.7);
    let b = run_campaign(&cfg, 0.7);
    assert_eq!(a.outcome.q_value.to_bits(), b.outcome.q_value.to_bits());
    assert_eq!(a.outcome.infection_rate, b.outcome.infection_rate);
    for (x, y) in a.outcome.changes.iter().zip(&b.outcome.changes) {
        assert_eq!(x.2.to_bits(), y.2.to_bits());
    }
}

#[test]
fn different_seeds_change_background_traffic_not_correctness() {
    let mut c1 = CampaignConfig::small(Mix::Mix1);
    c1.seed = 1;
    let mut c2 = CampaignConfig::small(Mix::Mix1);
    c2.seed = 2;
    let r1 = run_campaign(&c1, 1.0);
    let r2 = run_campaign(&c2, 1.0);
    // Same qualitative outcome under both seeds.
    assert!(r1.outcome.q_value > 1.5);
    assert!(r2.outcome.q_value > 1.5);
    assert!((r1.outcome.q_value - r2.outcome.q_value).abs() / r1.outcome.q_value < 0.25);
}

#[test]
fn manager_location_does_not_break_the_protocol() {
    for manager in [
        ManagerLocation::Center,
        ManagerLocation::Corner,
        ManagerLocation::At(NodeId(17)),
    ] {
        let mut cfg = CampaignConfig::small(Mix::Mix1);
        cfg.manager = manager;
        let r = run_campaign(&cfg, 1.0);
        assert!(
            r.outcome.q_value > 1.2,
            "{manager:?}: q = {}",
            r.outcome.q_value
        );
        assert!(r.attacked.power_requests_delivered > 0);
    }
}

#[test]
fn adaptive_routing_campaign_matches_xy_shape() {
    let mut xy = CampaignConfig::small(Mix::Mix1);
    xy.routing = RoutingKind::Xy;
    let mut oe = CampaignConfig::small(Mix::Mix1);
    oe.routing = RoutingKind::OddEven;
    let q_xy = run_campaign(&xy, 1.0).outcome.q_value;
    let q_oe = run_campaign(&oe, 1.0).outcome.q_value;
    assert!(q_xy > 1.5 && q_oe > 1.5);
    assert!(
        (q_xy - q_oe).abs() / q_xy < 0.3,
        "routing changed the attack materially: {q_xy} vs {q_oe}"
    );
}

#[test]
fn sensitivity_ranking_spans_the_suite() {
    // Definition 4/5 over all eleven benchmarks: compute-bound ones must
    // rank above memory-bound ones.
    let table = DvfsTable::default_six_level();
    let phi = |b: Benchmark| sensitivity_phi(&b.profile(), &table);
    let mut ranked: Vec<(Benchmark, f64)> = Benchmark::ALL.iter().map(|&b| (b, phi(b))).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let names: Vec<&str> = ranked.iter().map(|(b, _)| b.name()).collect();
    let pos = |n: &str| names.iter().position(|x| *x == n).unwrap();
    assert!(pos("swaptions") < pos("canneal"));
    assert!(pos("blackscholes") < pos("streamcluster"));
    assert!(pos("raytrace") < pos("dedup"));
    // All positive.
    assert!(ranked.iter().all(|(_, p)| *p > 0.0));
}

#[test]
fn placement_metrics_agree_between_helpers_and_methods() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    let p = Placement::generate(mesh, 6, &PlacementStrategy::Random { seed: 4 }, &[manager]);
    assert_eq!(p.virtual_center(mesh), virtual_center(mesh, p.nodes()));
    assert_eq!(
        p.distance_rho(mesh, manager),
        distance_rho(mesh, p.nodes(), manager)
    );
    assert_eq!(p.density_eta(mesh), density_eta(mesh, p.nodes()));
}

#[test]
fn starvation_duty_controls_attack_severity() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let run_with_duty = |duty: f64| {
        let mut sys = SystemBuilder::new(mesh)
            .workload(
                Workload::new()
                    .app(Benchmark::Barnes, 20, AppRole::Malicious)
                    .app(Benchmark::Raytrace, 20, AppRole::Legitimate),
            )
            .starvation_duty(duty)
            .budget_fraction(0.6)
            .build_with_inspector({
                let mut fleet =
                    htpb_core::TrojanFleet::new(&[mesh.center()], htpb_core::TamperRule::Zero);
                fleet.configure_all(&[], mesh.center(), true);
                fleet
            })
            .unwrap();
        sys.run_epochs(2);
        sys.begin_measurement();
        sys.run_epochs(4);
        let report = sys.performance_report();
        report
            .apps
            .iter()
            .find(|a| a.role == AppRole::Legitimate)
            .unwrap()
            .theta
    };
    let harsh = run_with_duty(0.1);
    let mild = run_with_duty(1.0);
    assert!(
        mild > harsh * 2.0,
        "starvation duty had no effect: {harsh} vs {mild}"
    );
}

#[test]
fn detailed_mode_couples_performance_to_memory_latency() {
    // With real MSHRs, slower memory must cost real performance — the
    // coupling the rate-based model abstracts away.
    let mesh = Mesh2d::new(4, 4).unwrap();
    let run_with_latency = |memory_latency: u64| {
        let mut cfg = htpb_core::SystemConfig::new(mesh);
        cfg.detailed_caches = true;
        cfg.memory_latency = memory_latency;
        cfg.mshr_limit = 4;
        let mut sys = htpb_core::SystemBuilder::from_config(cfg)
            .workload(Workload::new().app(Benchmark::Canneal, 15, AppRole::Legitimate))
            .detailed_caches(true)
            .build()
            .unwrap();
        sys.run_epochs(1);
        sys.begin_measurement();
        sys.run_epochs(3);
        let theta = sys.performance_report().apps[0].theta;
        let stalls: u64 = sys.tiles().iter().map(|t| t.stall_cycles()).sum();
        (theta, stalls)
    };
    let (theta_fast, stalls_fast) = run_with_latency(20);
    let (theta_slow, stalls_slow) = run_with_latency(2_000);
    assert!(
        stalls_slow > stalls_fast,
        "slow memory should stall more: {stalls_fast} vs {stalls_slow}"
    );
    assert!(
        theta_fast > theta_slow,
        "slow memory should cost performance: {theta_fast} vs {theta_slow}"
    );
}

#[test]
fn attack_works_under_every_routing_algorithm() {
    for routing in RoutingKind::ALL {
        let mut cfg = CampaignConfig::small(Mix::Mix1);
        cfg.routing = routing;
        let q = run_campaign(&cfg, 1.0).outcome.q_value;
        assert!(q > 1.5, "{routing:?}: q = {q}");
    }
}

#[test]
fn attack_works_under_every_allocator() {
    for kind in AllocatorKind::ALL {
        let mut cfg = CampaignConfig::small(Mix::Mix1);
        cfg.allocator = kind;
        let q = run_campaign(&cfg, 1.0).outcome.q_value;
        assert!(q > 1.0, "{}: q = {q}", kind.name());
    }
}

/// Paper-scale end-to-end run: 256-node chip, mix-4, full attack. Slow in
/// debug builds, so ignored by default; run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "paper-scale run (~1 min release); run with --ignored"]
fn paper_scale_campaign_reproduces_q_regime() {
    let cfg = CampaignConfig::new(Mix::Mix4);
    let r = run_campaign(&cfg, 0.9);
    assert!(
        (r.outcome.infection_rate - 0.9).abs() < 0.05,
        "infection {}",
        r.outcome.infection_rate
    );
    // The paper's headline: mix-4 reaches Q = 6.89 at 0.9 infection; our
    // platform lands in the same regime.
    assert!(
        r.outcome.q_value > 4.0 && r.outcome.q_value < 12.0,
        "q = {}",
        r.outcome.q_value
    );
}

/// Paper-scale infection measurement on the 512-node chip (Fig. 3b's
/// platform).
#[test]
#[ignore = "paper-scale run; run with --ignored"]
fn paper_scale_512_infection() {
    let exp = htpb_core::InfectionExperiment::new(512);
    let p = exp.placement(60, &PlacementStrategy::Random { seed: 1 });
    let rate = exp.measure(&p);
    assert!(rate > 0.5, "60 HTs should catch most routes: {rate}");
}

#[test]
fn mixes_fill_the_chip_on_paper_scale() {
    // 256 nodes, Table-III mixes: the workload builder packs ~all workers.
    let mesh = Mesh2d::with_nodes(256).unwrap();
    for mix in Mix::ALL {
        let w = mix.workload_for_mesh(mesh);
        let sys = SystemBuilder::new(mesh).workload(w).build().unwrap();
        let assigned = sys.tiles().iter().filter(|t| t.is_assigned()).count();
        assert!(assigned >= 192, "{}: only {assigned} tiles", mix.name());
        assert!(!sys.tile(sys.config().manager).is_assigned());
    }
}
