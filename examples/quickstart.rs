//! Quickstart: a guided tour of the reproduction in under a minute.
//!
//! Builds a small many-core chip, shows the power-budgeting protocol
//! working on clean silicon, then implants a handful of hardware Trojans,
//! re-runs the same workload and prints what the attack did — the paper's
//! core claim end-to-end.
//!
//! Run with: `cargo run --release --example quickstart`

use htpb_core::{
    describe_mixes, describe_platform, run_campaign, AppRole, AreaReport, CampaignConfig, Mesh2d,
    Mix, PowerModel, SystemConfig, TamperRule,
};

fn main() {
    println!("== HT power-budget attack: quickstart ==\n");
    let mesh = Mesh2d::with_nodes(64).unwrap();
    print!("{}", describe_platform(&SystemConfig::new(mesh)));
    print!("{}", describe_mixes());
    println!();

    // 1. The platform: Table-I-flavoured defaults, mix-1 of Table III on a
    //    64-node chip (the paper's smallest evaluated size).
    let mut cfg = CampaignConfig::small(Mix::Mix1);
    cfg.tamper_rule = TamperRule::Zero;
    println!(
        "platform: {} nodes, mix {} ({} attacker app(s), {} victim app(s))",
        cfg.nodes,
        cfg.mix.name(),
        cfg.mix.attackers().len(),
        cfg.mix.victims().len()
    );
    let model = PowerModel::default_45nm();
    println!(
        "power model: {} DVFS levels, {:.0} mW (lowest) to {:.0} mW (peak) per core\n",
        model.table().levels(),
        model.min_power_mw(),
        model.peak_power_mw()
    );

    // 2. Run the same workload clean and under attack (Trojans always on,
    //    clustered on the manager's neighbourhood).
    println!("running clean baseline and attacked chip (a few seconds)...\n");
    let result = run_campaign(&cfg, 1.0);

    println!("per-application outcome (theta = instructions/ns, Def. 1):");
    println!("  app              role       clean θ   attacked θ   change Θ");
    for (clean, attacked) in result.clean.apps.iter().zip(&result.attacked.apps) {
        let change = attacked.theta / clean.theta;
        println!(
            "  {:<16} {:<9} {:>8.2}   {:>10.2}   {:>7.2}x",
            clean.benchmark.name(),
            if clean.role == AppRole::Malicious {
                "attacker"
            } else {
                "victim"
            },
            clean.theta,
            attacked.theta,
            change
        );
    }
    println!(
        "\ninfection rate (victim requests tampered): {:.2}",
        result.outcome.infection_rate
    );
    println!(
        "attack effect Q (Def. 3): {:.2}  (1.0 = no attack; larger = stronger)",
        result.outcome.q_value
    );

    // 3. Why this is hard to catch: the silicon cost of the Trojans.
    let report = AreaReport::new(5, cfg.nodes as usize);
    println!("\nstealth: {report}");
    println!("\nNext steps:");
    println!("  cargo run --release -p htpb-bench --bin repro_all -- --quick   # every figure, to results/");
    println!("  cargo run --release --example infection_heatmap                # who gets hit");
}
