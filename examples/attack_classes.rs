//! Attack-class comparison (the paper's Section II-B taxonomy, measured):
//! the proposed **false-data** attack vs. the classic **packet-drop**
//! attack, with the same Trojan placement and workload.
//!
//! Two axes are compared:
//! - *strength*: the attack effect Q(Δ, Γ);
//! - *stealth*: what the global manager can see — a drop attack leaves
//!   requesters visibly silent every epoch, while the false-data attack
//!   presents a complete, plausible request stream.
//!
//! Usage: `cargo run --release --example attack_classes -- [mix1-4] [nodes]`

use htpb_attack::Mix;
use htpb_core::CampaignConfig;
use htpb_manycore::{AppRole, Benchmark, SystemBuilder, Workload};
use htpb_noc::Mesh2d;
use htpb_trojan::{TamperRule, TrojanFleet, TrojanMode};

fn measure_missing(mode: TrojanMode) -> usize {
    // Drive a small system directly to read the manager-side silence
    // metric, independent of the campaign plumbing.
    let mesh = Mesh2d::new(8, 8).unwrap();
    let manager = mesh.center();
    let mut fleet = TrojanFleet::new(&[manager], TamperRule::Zero).with_mode(mode);
    fleet.configure_all(&[], manager, true);
    let mut sys = SystemBuilder::new(mesh)
        .manager(manager)
        .workload(
            Workload::new()
                .app(Benchmark::Barnes, 20, AppRole::Malicious)
                .app(Benchmark::Raytrace, 20, AppRole::Legitimate),
        )
        .build_with_inspector(fleet)
        .unwrap();
    sys.run_epochs(3);
    sys.missing_requesters_last_epoch()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mix = match args.get(1).map(String::as_str) {
        Some("mix2" | "2") => Mix::Mix2,
        Some("mix3" | "3") => Mix::Mix3,
        Some("mix4" | "4") => Mix::Mix4,
        _ => Mix::Mix1,
    };
    let nodes: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);

    println!(
        "attack-class comparison on {} ({} nodes)\n",
        mix.name(),
        nodes
    );
    println!("class        Q(Δ,Γ)   worst victim   silent requesters/epoch");
    for (label, mode) in [
        ("false-data", TrojanMode::FalseData),
        ("packet-drop", TrojanMode::PacketDrop),
    ] {
        let mut cfg = CampaignConfig::new(mix);
        cfg.nodes = nodes;
        cfg.ht_mode = mode;
        let r = htpb_core::run_campaign(&cfg, 1.0);
        let missing = measure_missing(mode);
        println!(
            "{:<12} {:>6.2} {:>13.2}x {:>18}",
            label,
            r.outcome.q_value,
            r.outcome.min_victim_change(),
            missing,
        );
    }
    println!(
        "\nThe false-data attack is the paper's contribution: it starves victims\n\
         harder (their tampered requests cap every allocator's grant at ~0)\n\
         while the manager still sees every requester check in — zero silent\n\
         requesters, nothing to alarm on. The drop attack is both weaker\n\
         (victims keep their pre-attack DVFS level) and loud."
    );
}
