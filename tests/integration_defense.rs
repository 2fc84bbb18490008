//! Integration tests of the countermeasures: checksum protection
//! neutralises the attack inside the full system, and detector + localizer
//! recover the Trojan positions from manager-visible evidence only.

use htpb_defense::{
    DetectorConfig, ProbeCampaign, ProbePlan, RequestAnomalyDetector, TrojanLocalizer,
};
use htpb_manycore::{AppRole, Benchmark, RequestProtection, SystemBuilder, Workload};
use htpb_noc::{Mesh2d, NodeId};
use htpb_trojan::{TamperRule, TrojanFleet};

fn workload() -> Workload {
    Workload::new()
        .app(Benchmark::Barnes, 20, AppRole::Malicious)
        .app(Benchmark::Raytrace, 20, AppRole::Legitimate)
}

fn run_system(
    mesh: Mesh2d,
    trojans: &[NodeId],
    protection: Option<RequestProtection>,
) -> (f64, u64, f64) {
    let manager = mesh.center();
    let mut fleet = TrojanFleet::new(trojans, TamperRule::Zero);
    fleet.configure_all(&[], manager, true);
    let mut builder = SystemBuilder::new(mesh)
        .manager(manager)
        .workload(workload());
    if let Some(p) = protection {
        builder = builder.protection(p);
    }
    let mut sys = builder.build_with_inspector(fleet).unwrap();
    sys.run_epochs(2);
    sys.begin_measurement();
    sys.run_epochs(6);
    let report = sys.performance_report();
    let victim_theta: f64 = report
        .apps
        .iter()
        .filter(|a| a.role == AppRole::Legitimate)
        .map(|a| a.theta)
        .sum();
    (
        victim_theta,
        sys.requests_rejected(),
        report.infection_rate(),
    )
}

#[test]
fn checksum_protection_neutralises_the_attack() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    // A trojan ring right on the manager's doorstep: full infection.
    let manager = mesh.center();
    let trojans: Vec<NodeId> = htpb_noc::Direction::ALL
        .into_iter()
        .filter_map(|d| mesh.neighbor(manager, d))
        .collect();

    let (theta_unprotected, rejected_unprotected, infection) = run_system(mesh, &trojans, None);
    assert!(infection > 0.9, "attack rig broken: infection {infection}");
    assert_eq!(rejected_unprotected, 0);

    let (theta_protected, rejected, _) =
        run_system(mesh, &trojans, Some(RequestProtection::new(0x5EC_12E7)));
    assert!(rejected > 0, "protection never fired");
    assert!(
        theta_protected > theta_unprotected * 1.5,
        "protection ineffective: {theta_protected} vs {theta_unprotected}"
    );
}

#[test]
fn protection_is_transparent_on_a_clean_chip() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let (theta_plain, _, _) = run_system(mesh, &[], None);
    let (theta_protected, rejected, _) = run_system(mesh, &[], Some(RequestProtection::new(42)));
    assert_eq!(rejected, 0, "false positives on a clean chip");
    assert!(
        (theta_plain - theta_protected).abs() / theta_plain < 0.05,
        "protection changed clean performance: {theta_plain} vs {theta_protected}"
    );
}

#[test]
fn checksum_rejects_any_payload_rewrite() {
    let p = RequestProtection::new(0xABCD_EF01);
    let c = p.checksum(17, 2_515);
    assert!(p.verify(17, 2_515, Some(c)));
    assert!(!p.verify(17, 0, Some(c)), "zeroed payload accepted");
    assert!(!p.verify(17, 2_514, Some(c)), "off-by-one accepted");
    assert!(!p.verify(18, 2_515, Some(c)), "wrong source accepted");
    assert!(!p.verify(17, 2_515, None), "missing checksum accepted");
    // Different keys give different checksums (the Trojan cannot precompute
    // without the fused secret).
    let other = RequestProtection::new(0xABCD_EF02);
    assert_ne!(c, other.checksum(17, 2_515));
}

#[test]
fn detector_plus_localizer_find_planted_trojans() {
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    let trojans = [NodeId(19), NodeId(50)];

    // Simulate the manager's view over three epochs: two honest epochs then
    // an attacked one (exactly what RequestAnomalyDetector consumes).
    let mut detector = RequestAnomalyDetector::new(DetectorConfig::default());
    for src in mesh.iter_nodes() {
        if src == manager {
            continue;
        }
        detector.observe(src, 0, 2_000.0);
        detector.observe(src, 1, 2_000.0);
        let tampered = mesh
            .xy_path(src, manager)
            .iter()
            .any(|n| trojans.contains(n));
        detector.observe(src, 2, if tampered { 0.0 } else { 2_000.0 });
    }
    let flagged = detector.flagged_cores();
    assert!(!flagged.is_empty());

    let localizer = TrojanLocalizer::new(mesh, manager);
    let report = localizer.localize(&flagged, &detector.clean_cores());
    for t in trojans {
        assert!(report.suspects.contains(&t), "missed trojan {t}");
    }
    assert!(report.unexplained.is_empty());
    // The suspect set is focused, not "everything": fewer than a quarter of
    // the chip.
    assert!(
        report.suspects.len() < 16,
        "suspect set too broad: {:?}",
        report.suspects
    );
}

#[test]
fn probing_catches_soft_scaling_that_ewma_misses() {
    // A gentle 60%-scaling Trojan stays above the EWMA detector's 50%
    // threshold — but probe requests with keyed pseudo-random values expose
    // any modification, and the localizer pins the Trojan from the probe
    // verdicts. This runs through the real cycle-accurate network.
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    let trojan = NodeId(19);
    let mut fleet = TrojanFleet::new(&[trojan], TamperRule::ScalePercent(60));
    fleet.configure_all(&[], manager, true);
    let mut net = htpb_noc::Network::with_inspector(htpb_noc::NetworkConfig::new(mesh), fleet);

    // Phase 1: steady honest requests. The Trojan scales them to 60%,
    // which stays above the EWMA detector's 50% collapse threshold — the
    // passive detector is blind to this Trojan.
    let mut ewma = RequestAnomalyDetector::new(DetectorConfig::default());
    for epoch in 0..4u64 {
        for src in mesh.iter_nodes() {
            if src == manager {
                continue;
            }
            net.inject(htpb_noc::Packet::power_request(src, manager, 2_000))
                .unwrap();
        }
        assert!(net.run_until_idle(100_000));
        for d in net.drain_ejected() {
            assert!(
                ewma.observe(d.packet.src(), epoch, f64::from(d.packet.payload()))
                    .is_none(),
                "EWMA should not fire on steady 60% scaling"
            );
        }
    }

    // Phase 2: a probing campaign over the same network catches it.
    let plan = ProbePlan::default_band(0xFEED);
    let mut campaign = ProbeCampaign::new();
    for epoch in 0..4u64 {
        for src in mesh.iter_nodes() {
            if src == manager {
                continue;
            }
            let probe = plan.expected(src, epoch);
            net.inject(htpb_noc::Packet::power_request(src, manager, probe))
                .unwrap();
        }
        assert!(net.run_until_idle(100_000));
        for d in net.drain_ejected() {
            campaign.record(&plan, d.packet.src(), epoch, d.packet.payload());
        }
    }
    let tampered = campaign.tampered_sources();
    assert!(!tampered.is_empty(), "probes caught nothing");
    let report = TrojanLocalizer::new(mesh, manager).localize(&tampered, &campaign.clean_sources());
    assert!(
        report.suspects.contains(&trojan),
        "probe localization missed the trojan: {:?}",
        report.suspects
    );
    assert!(report.minimal_explanation.len() <= 2);
}

#[test]
fn end_to_end_rejections_identify_infected_routes() {
    // Use the real system's rejection counter as the detector signal:
    // protection on, Trojans on two routers; every rejected request's
    // source lies on an infected route.
    let mesh = Mesh2d::new(8, 8).unwrap();
    let trojans = [NodeId(21)];
    let (_, rejected, _) = run_system(mesh, &trojans, Some(RequestProtection::new(7)));
    // Each epoch, every source routed through node 21 is rejected once.
    // Over 8 epochs (2 warmup + 6 measured) that is a multiple of the
    // per-epoch infected-source count. Just require a healthy signal:
    assert!(rejected >= 6, "only {rejected} rejections");
}
