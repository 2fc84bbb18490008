//! Integration tests of the power-budgeting protocol riding the NoC inside
//! the full many-core system: requests out, allocation, grants back, DVFS
//! applied — with every allocation policy.

use htpb_manycore::{AppRole, Benchmark, SystemBuilder, Workload};
use htpb_noc::Mesh2d;
use htpb_power::{AllocatorKind, FrequencyLevel};

fn workload() -> Workload {
    Workload::new()
        .app(Benchmark::Blackscholes, 6, AppRole::Legitimate)
        .app(Benchmark::Canneal, 6, AppRole::Legitimate)
}

#[test]
fn protocol_round_trip_under_every_allocator() {
    for kind in AllocatorKind::ALL {
        let mesh = Mesh2d::new(4, 4).unwrap();
        let mut sys = SystemBuilder::new(mesh)
            .workload(workload())
            .allocator(kind)
            .build()
            .unwrap();
        sys.run_epochs(3);
        assert!(sys.manager().epochs_run() >= 3, "{}", kind.name());
        let summary = sys.manager().last_summary().unwrap();
        assert_eq!(summary.requesters, 12, "{}", kind.name());
        assert!(
            summary.total_granted_mw <= sys.manager().budget_mw() + 1e-6,
            "{} violated the budget",
            kind.name()
        );
        // Grants landed: at least one tile left the bottom level.
        assert!(
            sys.tiles()
                .iter()
                .any(|t| t.is_assigned() && t.level() > FrequencyLevel::MIN),
            "{}: no grant ever applied",
            kind.name()
        );
    }
}

#[test]
fn chip_power_draw_respects_budget_after_convergence() {
    let mesh = Mesh2d::new(4, 4).unwrap();
    let mut sys = SystemBuilder::new(mesh)
        .workload(workload())
        .budget_fraction(0.5)
        .build()
        .unwrap();
    sys.run_epochs(4);
    // Sum the power of the levels the cores actually run at; the starved
    // floor (retention at the lowest level) is physically outside the
    // managed budget, so only count non-starved tiles.
    let model = sys.model().clone();
    let draw: f64 = sys
        .tiles()
        .iter()
        .filter(|t| t.is_assigned() && !t.is_starved())
        .map(|t| model.power_mw(t.level()))
        .sum();
    assert!(
        draw <= sys.manager().budget_mw() * 1.05,
        "chip draws {draw} mW against budget {} mW",
        sys.manager().budget_mw()
    );
}

#[test]
fn richer_budget_means_no_less_performance() {
    let mesh = Mesh2d::new(4, 4).unwrap();
    let run = |fraction: f64| {
        let mut sys = SystemBuilder::new(mesh)
            .workload(workload())
            .budget_fraction(fraction)
            .build()
            .unwrap();
        sys.run_epochs(1);
        sys.begin_measurement();
        sys.run_epochs(3);
        sys.performance_report()
            .apps
            .iter()
            .map(|a| a.theta)
            .sum::<f64>()
    };
    let poor = run(0.2);
    let mid = run(0.6);
    let rich = run(1.5);
    assert!(mid >= poor, "mid {mid} < poor {poor}");
    assert!(rich >= mid, "rich {rich} < mid {mid}");
    assert!(rich > poor * 1.2, "budget had no effect: {poor} vs {rich}");
}

#[test]
fn compute_bound_apps_request_more_power() {
    let mesh = Mesh2d::new(4, 4).unwrap();
    let sys = SystemBuilder::new(mesh)
        .workload(workload())
        .build()
        .unwrap();
    let model = sys.model();
    let mut bs_req = None;
    let mut cn_req = None;
    for t in sys.tiles() {
        if let Some(a) = t.assignment() {
            let req = t.desired_request_mw(model, 0.90).unwrap();
            match a.profile.benchmark {
                Benchmark::Blackscholes => bs_req = Some(req),
                Benchmark::Canneal => cn_req = Some(req),
                _ => {}
            }
        }
    }
    assert!(
        bs_req.unwrap() > cn_req.unwrap(),
        "compute-bound should ask for more: {bs_req:?} vs {cn_req:?}"
    );
}

#[test]
fn pi_allocator_converges_over_epochs() {
    let mesh = Mesh2d::new(4, 4).unwrap();
    let mut sys = SystemBuilder::new(mesh)
        .workload(Workload::new().app(Benchmark::Vips, 15, AppRole::Legitimate))
        .allocator(AllocatorKind::Pi)
        .budget_fraction(0.5)
        .build()
        .unwrap();
    sys.run_epochs(8);
    let s = sys.manager().last_summary().unwrap();
    // After convergence the PI controller grants close to the full budget.
    assert!(
        s.total_granted_mw > sys.manager().budget_mw() * 0.8,
        "PI left budget unused: {} of {}",
        s.total_granted_mw,
        sys.manager().budget_mw()
    );
}

#[test]
fn explicit_budget_override_is_used() {
    let mesh = Mesh2d::new(4, 4).unwrap();
    let sys = SystemBuilder::new(mesh)
        .workload(workload())
        .budget_mw(3_333.0)
        .build()
        .unwrap();
    assert!((sys.manager().budget_mw() - 3_333.0).abs() < 1e-9);
}
