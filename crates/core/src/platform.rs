//! Human-readable descriptions of the evaluation platform: the paper's
//! configuration tables rendered from the *actual* defaults in code, so the
//! printed platform can never drift from the simulated one.

use htpb_attack::Mix;
use htpb_manycore::{SystemConfig, L2_HIT_LATENCY};
use htpb_noc::RouterConfig;
use htpb_power::PowerModel;

/// Renders the Table-I-equivalent platform configuration.
#[must_use]
pub fn describe_platform(config: &SystemConfig) -> String {
    let router = RouterConfig::default();
    let model = PowerModel::default_45nm();
    let mut s = String::new();
    s.push_str("Platform configuration (cf. paper Table I)\n");
    s.push_str(&format!(
        "  processors           : {} ({}x{} mesh, node {} is the global manager)\n",
        config.mesh.nodes(),
        config.mesh.width(),
        config.mesh.height(),
        config.manager.raw(),
    ));
    s.push_str(&format!(
        "  DVFS                 : {} levels, {:.0} mW – {:.0} mW per core\n",
        model.table().levels(),
        model.min_power_mw(),
        model.peak_power_mw(),
    ));
    s.push_str(&format!(
        "  power budgeting      : {} allocator, epoch {} cycles, budget {}\n",
        config.allocator.name(),
        config.epoch_cycles,
        config.budget_mw.map_or_else(
            || format!("{:.0}% of honest demand", config.budget_fraction * 100.0),
            |mw| format!("{mw:.0} mW")
        ),
    ));
    s.push_str(&format!(
        "  NoC                  : {:?} routing, {} VCs x {}-flit buffers, 2-cycle routers, 1-cycle links\n",
        config.routing, router.vcs, router.buffer_depth,
    ));
    s.push_str(&format!(
        "  memory               : L2 hit {} cycles, memory {} cycles, {} traffic model\n",
        L2_HIT_LATENCY,
        config.memory_latency,
        if config.detailed_caches {
            "detailed (L1 + MESI directory)"
        } else {
            "rate-based"
        },
    ));
    s
}

/// Renders the Table-III mixes.
#[must_use]
pub fn describe_mixes() -> String {
    let mut s = String::new();
    s.push_str("Benchmark combinations (cf. paper Table III)\n");
    for mix in Mix::ALL {
        let attackers: Vec<&str> = mix.attackers().iter().map(|b| b.name()).collect();
        let victims: Vec<&str> = mix.victims().iter().map(|b| b.name()).collect();
        s.push_str(&format!(
            "  {}: attackers [{}], victims [{}]\n",
            mix.name(),
            attackers.join(", "),
            victims.join(", "),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpb_noc::Mesh2d;

    #[test]
    fn platform_description_reflects_config() {
        let mesh = Mesh2d::new(16, 16).unwrap();
        let mut config = SystemConfig::new(mesh);
        config.budget_mw = Some(123_456.0);
        let s = describe_platform(&config);
        assert!(s.contains("256 (16x16 mesh"));
        assert!(s.contains("123456 mW"));
        assert!(s.contains("greedy allocator"));
        assert!(s.contains("4 VCs x 5-flit buffers"));
    }

    #[test]
    fn mix_table_matches_table_iii() {
        let s = describe_mixes();
        assert!(
            s.contains("mix-4: attackers [barnes, streamcluster, freqmine], victims [raytrace]")
        );
        assert!(s.contains("mix-3: attackers [canneal]"));
    }
}
