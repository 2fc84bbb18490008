//! End-to-end attack integration tests: the Trojan fleet inside the full
//! many-core system, with the paper's claims asserted as invariants.

use htpb_attack::{Mix, Placement, PlacementStrategy};
use htpb_core::{run_campaign, CampaignConfig};
use htpb_manycore::AppRole;
use htpb_trojan::{TamperRule, TrojanMode};

#[test]
fn attack_starves_victims_and_boosts_attackers() {
    let cfg = CampaignConfig::small(Mix::Mix1);
    let r = run_campaign(&cfg, 1.0);
    assert!((r.outcome.infection_rate - 1.0).abs() < 1e-9);
    assert!(r.outcome.q_value > 2.0, "q = {}", r.outcome.q_value);
    for (_, role, change) in &r.outcome.changes {
        match role {
            AppRole::Malicious => assert!(*change >= 1.0, "attacker lost performance: {change}"),
            AppRole::Legitimate => assert!(
                *change < 0.7,
                "victim barely hurt at full infection: {change}"
            ),
        }
    }
    // Victims' cores are starved in the attacked run, none in the clean run.
    let attacked_starved: usize = r
        .attacked
        .apps
        .iter()
        .filter(|a| a.role == AppRole::Legitimate)
        .map(|a| a.starved_cores)
        .sum();
    let clean_starved: usize = r.clean.apps.iter().map(|a| a.starved_cores).sum();
    assert!(attacked_starved > 0);
    assert_eq!(clean_starved, 0);
}

#[test]
fn dormant_trojans_are_perfectly_stealthy() {
    // duty = 0: Trojans implanted but never active — the chip must behave
    // identically to clean silicon (Q == 1, no tampering).
    let cfg = CampaignConfig::small(Mix::Mix2);
    let r = run_campaign(&cfg, 0.0);
    assert_eq!(r.outcome.infection_rate, 0.0);
    assert!(
        (r.outcome.q_value - 1.0).abs() < 1e-9,
        "q = {}",
        r.outcome.q_value
    );
    for (_, _, change) in &r.outcome.changes {
        assert!((change - 1.0).abs() < 1e-9);
    }
}

#[test]
fn q_grows_with_duty_cycle() {
    let cfg = CampaignConfig::small(Mix::Mix3);
    let mut last_q = 0.0;
    for duty in [0.0, 0.4, 0.8] {
        let r = run_campaign(&cfg, duty);
        assert!(
            r.outcome.q_value >= last_q - 0.05,
            "Q fell from {last_q} to {} at duty {duty}",
            r.outcome.q_value
        );
        last_q = r.outcome.q_value;
    }
    assert!(last_q > 1.5, "attack had no bite: {last_q}");
}

#[test]
fn infection_tracks_duty_cycle() {
    let cfg = CampaignConfig::small(Mix::Mix1);
    for duty in [0.3, 0.6, 0.9] {
        let r = run_campaign(&cfg, duty);
        assert!(
            (r.outcome.infection_rate - duty).abs() < 0.15,
            "duty {duty} produced infection {}",
            r.outcome.infection_rate
        );
    }
}

#[test]
fn softer_tamper_rules_weaken_but_keep_the_attack() {
    let mut zero_cfg = CampaignConfig::small(Mix::Mix1);
    zero_cfg.tamper_rule = TamperRule::Zero;
    let q_zero = run_campaign(&zero_cfg, 1.0).outcome.q_value;

    let mut scale_cfg = CampaignConfig::small(Mix::Mix1);
    scale_cfg.tamper_rule = TamperRule::ScalePercent(60);
    let q_scale = run_campaign(&scale_cfg, 1.0).outcome.q_value;

    assert!(
        q_zero > q_scale,
        "zeroing should dominate: {q_zero} vs {q_scale}"
    );
    assert!(q_scale > 1.0, "soft tampering still effective: {q_scale}");
}

#[test]
fn off_path_placement_is_harmless() {
    // Trojans clustered in a far corner see (almost) no request traffic
    // when the manager is central: the attack fizzles.
    let mut cfg = CampaignConfig::small(Mix::Mix1);
    let mesh = htpb_noc::Mesh2d::with_nodes(cfg.nodes).unwrap();
    cfg.placement = Some(Placement::generate(
        mesh,
        3,
        &PlacementStrategy::Explicit(vec![
            htpb_noc::NodeId(63),
            htpb_noc::NodeId(62),
            htpb_noc::NodeId(55),
        ]),
        &[],
    ));
    let r = run_campaign(&cfg, 1.0);
    assert!(
        r.outcome.infection_rate < 0.2,
        "corner cluster infected {}",
        r.outcome.infection_rate
    );
    assert!(
        r.outcome.q_value < 1.5,
        "corner cluster still effective: {}",
        r.outcome.q_value
    );
}

#[test]
fn greedier_attackers_do_not_break_invariants() {
    // Even with absurd greed, grants stay within budget and the attack
    // metrics remain finite and ordered.
    let mut cfg = CampaignConfig::small(Mix::Mix4);
    cfg.budget_fraction = 0.4;
    let r = run_campaign(&cfg, 1.0);
    assert!(r.outcome.q_value.is_finite());
    assert!(r.outcome.q_value >= 1.0);
    assert!(r.outcome.max_attacker_gain() >= 1.0);
}

#[test]
fn attacker_boost_extension_strengthens_the_attack() {
    // The intro's "requests from the malicious applications will be
    // increased": with the boost extension, infected routers inflate the
    // attacker's own requests in flight, and under a fair allocator the
    // attacker's grant (hence gain) can only grow.
    let mut plain = CampaignConfig::small(Mix::Mix1);
    plain.budget_fraction = 0.8;
    let mut boosted = plain.clone();
    boosted.ht_boost = Some(htpb_trojan::BoostRule::new(200));

    let r_plain = run_campaign(&plain, 1.0);
    let r_boost = run_campaign(&boosted, 1.0);
    assert!(
        r_boost.outcome.max_attacker_gain() >= r_plain.outcome.max_attacker_gain() - 1e-9,
        "boost reduced attacker gain: {} vs {}",
        r_boost.outcome.max_attacker_gain(),
        r_plain.outcome.max_attacker_gain()
    );
    assert!(r_boost.outcome.q_value >= r_plain.outcome.q_value - 0.05);
}

#[test]
fn attack_survives_the_detailed_cache_model() {
    // The attack is about the power protocol, not the memory model: with
    // real L1s, a MESI directory and MSHR stalls in the loop, victims are
    // still starved and Q stays well above 1.
    let mut cfg = CampaignConfig::small(Mix::Mix1);
    cfg.detailed_caches = true;
    let r = run_campaign(&cfg, 1.0);
    assert!(
        r.outcome.q_value > 1.5,
        "detailed mode broke the attack: q = {}",
        r.outcome.q_value
    );
    assert!((r.outcome.infection_rate - 1.0).abs() < 1e-9);
    assert!(r.outcome.min_victim_change() < 0.7);
}

#[test]
fn false_data_beats_packet_drop_in_strength_and_stealth() {
    // Section II-B comparison: the paper's false-data attack starves
    // victims harder than the classic drop attack (whose victims keep their
    // pre-attack level), and only the drop attack leaves requesters
    // visibly silent at the manager.
    let mut fd_cfg = CampaignConfig::small(Mix::Mix1);
    fd_cfg.ht_mode = TrojanMode::FalseData;
    let mut drop_cfg = CampaignConfig::small(Mix::Mix1);
    drop_cfg.ht_mode = TrojanMode::PacketDrop;

    let fd = run_campaign(&fd_cfg, 1.0);
    let drop = run_campaign(&drop_cfg, 1.0);
    assert!(drop.outcome.q_value > 1.0, "drop attack inert");
    assert!(
        fd.outcome.q_value > drop.outcome.q_value,
        "false-data {} should beat drop {}",
        fd.outcome.q_value,
        drop.outcome.q_value
    );
    // Stealth: drop attacks lose the infection-rate metric entirely (their
    // victims' requests never arrive to be counted), another reason the
    // paper's variant is the dangerous one.
    assert!(fd.outcome.infection_rate > 0.9);
}

#[test]
fn all_mixes_reproduce_the_attack() {
    for mix in Mix::ALL {
        let cfg = CampaignConfig::small(mix);
        let r = run_campaign(&cfg, 1.0);
        assert!(
            r.outcome.q_value > 1.5,
            "{}: q = {}",
            mix.name(),
            r.outcome.q_value
        );
    }
}
