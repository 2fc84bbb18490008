//! The job abstraction: one schedulable unit of experiment work.
//!
//! A [`JobSpec`] captures *everything* that determines a result — experiment
//! kind, platform parameters and RNG seeds — so that executing the same spec
//! twice (on any worker, in any order) produces the same [`JobOutput`] bit
//! for bit. That determinism is what makes both the parallel pool and the
//! on-disk cache sound: any worker count reassembles the same artefacts,
//! and cached results never go stale except through a schema bump.

use htpb_attack::{AttackSample, Mix, PlacementStrategy};
use std::sync::Arc;

use htpb_core::experiments::{
    attack_sweep_point_with_baseline, fig3_point, fig4_point, optimal_vs_random_with,
    regression_dataset_with, regression_placements, resilience_point, run_clean_baseline,
    CampaignConfig, ManagerLocation,
};
use htpb_power::AllocatorKind;

use crate::baseline::BaselineCache;
use crate::json::Value;

/// Which [`CampaignConfig`] constructor a campaign-based job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignScale {
    /// [`CampaignConfig::tiny`] — seconds-scale, for tests.
    Tiny,
    /// [`CampaignConfig::small`] — the `--quick` reproduction scale.
    Small,
    /// [`CampaignConfig::new`] — paper scale.
    Paper,
}

impl CampaignScale {
    /// Builds the campaign configuration for `mix` at this scale.
    #[must_use]
    pub fn config(self, mix: Mix) -> CampaignConfig {
        match self {
            CampaignScale::Tiny => CampaignConfig::tiny(mix),
            CampaignScale::Small => CampaignConfig::small(mix),
            CampaignScale::Paper => CampaignConfig::new(mix),
        }
    }

    /// Stable tag used in job ids (and therefore cache keys).
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            CampaignScale::Tiny => "tiny",
            CampaignScale::Small => "small",
            CampaignScale::Paper => "paper",
        }
    }
}

/// The Fig. 4 placement strategies, as a closed enum so job ids are stable
/// strings rather than opaque closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig4Strategy {
    /// Trojans clustered around the chip center.
    Center,
    /// Trojans placed uniformly at random (seed-averaged).
    Random,
    /// Trojans clustered in one corner.
    Corner,
}

impl Fig4Strategy {
    /// The legend label of this curve.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fig4Strategy::Center => "HTs around the center",
            Fig4Strategy::Random => "HTs distributed randomly",
            Fig4Strategy::Corner => "HTs in one corner",
        }
    }

    /// Stable tag used in job ids.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Fig4Strategy::Center => "center",
            Fig4Strategy::Random => "random",
            Fig4Strategy::Corner => "corner",
        }
    }

    /// The placement strategy [`fig4_point`] runs (the random one is
    /// averaged over the job's seeds, so its own seed is unused).
    #[must_use]
    pub fn strategy(self) -> PlacementStrategy {
        match self {
            Fig4Strategy::Center => PlacementStrategy::CenterCluster,
            Fig4Strategy::Random => PlacementStrategy::Random { seed: 0 },
            Fig4Strategy::Corner => PlacementStrategy::CornerCluster,
        }
    }
}

/// One independently executable experiment point. Each variant wraps one of
/// the `htpb_core::experiments` drivers without changing its semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// One point of a Fig. 3 curve: seed-averaged infection rate for
    /// `ht_count` random Trojans.
    Fig3Point {
        /// Chip size in nodes.
        nodes: u32,
        /// Manager at a corner (`true`) or the center (`false`).
        corner: bool,
        /// Number of Trojans.
        ht_count: usize,
        /// Placement seeds to average over.
        seeds: Vec<u64>,
    },
    /// One point of a Fig. 4 curve: infection rate at a system size for a
    /// placement strategy, with `nodes / denominator` Trojans.
    Fig4Point {
        /// Chip size in nodes.
        nodes: u32,
        /// Placement strategy of the curve.
        strategy: Fig4Strategy,
        /// Trojan count divisor (paper: 16 and 8).
        denominator: u32,
        /// Seeds for the random strategy (ignored by deterministic ones).
        seeds: Vec<u64>,
    },
    /// One point of the Fig. 5 / Fig. 6 sweep: a full attack campaign at
    /// one Trojan duty cycle, against the configuration's (deterministic)
    /// clean baseline.
    SweepPoint {
        /// Benchmark mix.
        mix: Mix,
        /// Campaign scale.
        scale: CampaignScale,
        /// Duty cycle in tenths (0..=9), kept integral so the id is exact.
        duty_tenths: u32,
    },
    /// Section V-C: optimal placement vs. the random average.
    OptCompare {
        /// Benchmark mix.
        mix: Mix,
        /// Campaign scale.
        scale: CampaignScale,
        /// Trojan budget for the optimizer.
        m: usize,
        /// Seeds for the random baseline placements.
        seeds: Vec<u64>,
    },
    /// Eq. 9 regression samples for one mix over the canonical placement
    /// list ([`regression_placements`]).
    RegressionMix {
        /// Benchmark mix.
        mix: Mix,
        /// Campaign scale for the base configuration.
        scale: CampaignScale,
        /// Chip size in nodes (overrides the scale's default).
        nodes: u32,
    },
    /// One cell of the resilience sweep: a full attack campaign (plus its
    /// equally-faulty clean baseline) under a seeded packet-drop fault
    /// plan, with or without manager hardening.
    Resilience {
        /// Benchmark mix.
        mix: Mix,
        /// Campaign scale.
        scale: CampaignScale,
        /// Allocation policy of this cell.
        allocator: AllocatorKind,
        /// Packet-drop fault rate in parts-per-million.
        drop_ppm: u32,
        /// Seed of the fault plan (shared by both campaign arms).
        fault_seed: u64,
        /// Whether the manager runs with hardening enabled.
        hardened: bool,
        /// Trojan duty cycle in tenths (0 = faults only, no attack).
        duty_tenths: u32,
    },
    /// A batch of differential-conformance scenarios: each random scenario
    /// derived from `seed` runs through the optimized network and the dense
    /// reference oracle in lock-step (see `htpb-testkit`); any divergence is
    /// shrunk to a minimal replayable spec before being reported.
    Conformance {
        /// Number of random scenarios in this batch.
        scenarios: u64,
        /// Master seed; scenario `i` uses `seed.wrapping_add(i)`.
        seed: u64,
    },
}

impl JobSpec {
    /// Short kind tag for journal entries and cache file names.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Fig3Point { .. } => "fig3",
            JobSpec::Fig4Point { .. } => "fig4",
            JobSpec::SweepPoint { .. } => "sweep",
            JobSpec::OptCompare { .. } => "opt",
            JobSpec::RegressionMix { .. } => "regression",
            JobSpec::Resilience { .. } => "resil",
            JobSpec::Conformance { .. } => "conf",
        }
    }

    /// Stable, human-readable id encoding *every* parameter that affects
    /// the result. Two specs have equal ids iff they are the same job, so
    /// the cache key is a hash of this string (plus the schema version).
    #[must_use]
    pub fn id(&self) -> String {
        match self {
            JobSpec::Fig3Point {
                nodes,
                corner,
                ht_count,
                seeds,
            } => format!(
                "fig3-n{nodes}-{}-ht{ht_count}-s{}",
                if *corner { "corner" } else { "center" },
                seed_tag(seeds)
            ),
            JobSpec::Fig4Point {
                nodes,
                strategy,
                denominator,
                seeds,
            } => format!(
                "fig4-n{nodes}-d{denominator}-{}-s{}",
                strategy.tag(),
                seed_tag(seeds)
            ),
            JobSpec::SweepPoint {
                mix,
                scale,
                duty_tenths,
            } => format!("sweep-{}-{}-d{duty_tenths}", mix.name(), scale.tag()),
            JobSpec::OptCompare {
                mix,
                scale,
                m,
                seeds,
            } => format!(
                "opt-{}-{}-m{m}-s{}",
                mix.name(),
                scale.tag(),
                seed_tag(seeds)
            ),
            JobSpec::RegressionMix { mix, scale, nodes } => {
                format!("reg-{}-{}-n{nodes}", mix.name(), scale.tag())
            }
            JobSpec::Resilience {
                mix,
                scale,
                allocator,
                drop_ppm,
                fault_seed,
                hardened,
                duty_tenths,
            } => format!(
                "resil-{}-{}-{}-p{drop_ppm}-f{fault_seed}-{}-d{duty_tenths}",
                mix.name(),
                scale.tag(),
                allocator.name(),
                if *hardened { "hard" } else { "soft" }
            ),
            JobSpec::Conformance { scenarios, seed } => {
                format!("conf-n{scenarios}-s{seed:x}")
            }
        }
    }

    /// Runs the job. Deterministic: all randomness derives from seeds that
    /// are part of the spec, so the output is a pure function of `self`.
    #[must_use]
    pub fn execute(&self) -> JobOutput {
        self.execute_with(None).0
    }

    /// Runs the job, resolving clean baselines through `baselines` when one
    /// is supplied and computing them inline otherwise. The second element
    /// reports baseline-cache use: `None` for jobs that have no shared
    /// clean baseline (or when no cache was given), `Some(hit)` otherwise.
    ///
    /// Cached and inline baselines are bit-identical (the clean system is
    /// seeded independently of the attack side), so the [`JobOutput`] never
    /// depends on whether a cache was supplied.
    #[must_use]
    pub fn execute_with(&self, baselines: Option<&BaselineCache>) -> (JobOutput, Option<bool>) {
        // A job is a baseline "hit" only if every baseline it asked for
        // was served from the cache.
        let mut used: Option<bool> = None;
        let mut clean_for = |cfg: &CampaignConfig| match baselines {
            Some(cache) => {
                let (clean, hit) = cache.get_or_compute(cfg);
                used = Some(used.unwrap_or(true) && hit);
                clean
            }
            None => Arc::new(run_clean_baseline(cfg)),
        };
        let output = match self {
            JobSpec::Fig3Point {
                nodes,
                corner,
                ht_count,
                seeds,
            } => {
                let manager = if *corner {
                    ManagerLocation::Corner
                } else {
                    ManagerLocation::Center
                };
                JobOutput::Rate(fig3_point(*nodes, manager, *ht_count, seeds))
            }
            JobSpec::Fig4Point {
                nodes,
                strategy,
                denominator,
                seeds,
            } => JobOutput::Rate(fig4_point(
                *nodes,
                &strategy.strategy(),
                *denominator,
                seeds,
            )),
            JobSpec::SweepPoint {
                mix,
                scale,
                duty_tenths,
            } => {
                let cfg = scale.config(*mix);
                let duty = f64::from(*duty_tenths) / 10.0;
                let p = attack_sweep_point_with_baseline(&cfg, duty, &clean_for(&cfg));
                JobOutput::Sweep {
                    duty: p.duty,
                    infection: p.infection,
                    q: p.q_value,
                    changes: p.outcome.changes.iter().map(|(_, _, c)| *c).collect(),
                }
            }
            JobSpec::OptCompare {
                mix,
                scale,
                m,
                seeds,
            } => {
                let cfg = scale.config(*mix);
                let cmp = optimal_vs_random_with(&cfg, *m, seeds, &clean_for(&cfg));
                JobOutput::Opt {
                    q_optimal: cmp.q_optimal,
                    q_random: cmp.q_random,
                    improvement: cmp.improvement,
                }
            }
            JobSpec::RegressionMix { mix, scale, nodes } => {
                let mut base = scale.config(Mix::Mix1);
                base.nodes = *nodes;
                let mesh = base.mesh();
                let manager = base.manager.resolve(mesh);
                let placements = regression_placements(mesh, manager);
                JobOutput::Samples(regression_dataset_with(
                    &base,
                    &[*mix],
                    &placements,
                    &mut clean_for,
                ))
            }
            JobSpec::Resilience {
                mix,
                scale,
                allocator,
                drop_ppm,
                fault_seed,
                hardened,
                duty_tenths,
            } => {
                let mut cfg = scale.config(*mix);
                cfg.allocator = *allocator;
                // Same duty expression as the sweep points, bit-identical.
                let duty = f64::from(*duty_tenths) / 10.0;
                let p = resilience_point(&cfg, *drop_ppm, *fault_seed, *hardened, duty);
                JobOutput::Resilience {
                    infection: p.infection,
                    q: p.q_value,
                    victim_theta: p.victim_theta,
                    baseline_victim_theta: p.baseline_victim_theta,
                    timeouts: p.degradation.timeouts,
                    rejects: p.degradation.rejects,
                    clamps: p.degradation.clamps,
                    faults_applied: p.faults_applied,
                }
            }
            JobSpec::Conformance { scenarios, seed } => {
                let report = htpb_testkit::run_batch(*seed, *scenarios);
                let config = htpb_testkit::DiffConfig::default();
                let failures = report
                    .failures
                    .iter()
                    .map(|(spec, _)| {
                        let scenario = htpb_testkit::Scenario::from_spec(spec)
                            .expect("run_batch emits well-formed specs");
                        htpb_testkit::shrink(&scenario, |c| {
                            htpb_testkit::run_differential(c, &config).is_some()
                        })
                        .to_spec()
                    })
                    .collect();
                JobOutput::Conformance {
                    passed: report.passed,
                    failures,
                }
            }
        };
        (output, used)
    }
}

fn seed_tag(seeds: &[u64]) -> String {
    let mut s = String::new();
    for (i, seed) in seeds.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        s.push_str(&seed.to_string());
    }
    s
}

/// The typed result of a [`JobSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// A single infection rate (Fig. 3 / Fig. 4 points).
    Rate(f64),
    /// One sweep point (Fig. 5 / Fig. 6): duty, measured infection, Q and
    /// the per-app performance changes in application order.
    Sweep {
        /// Trojan duty cycle.
        duty: f64,
        /// Measured infection rate.
        infection: f64,
        /// Attack effect Q.
        q: f64,
        /// Per-app performance change Θ'/Θ, in `outcome.changes` order.
        changes: Vec<f64>,
    },
    /// Section V-C comparison.
    Opt {
        /// Q with the optimized placement.
        q_optimal: f64,
        /// Seed-averaged Q with random placements.
        q_random: f64,
        /// `q_optimal / q_random - 1`.
        improvement: f64,
    },
    /// Eq. 9 regression samples (one mix, canonical placements, in order).
    Samples(Vec<AttackSample>),
    /// One resilience-sweep cell: attack effect against the equally-faulty
    /// baseline plus the manager's degradation tallies.
    Resilience {
        /// Measured infection rate of the attacked arm.
        infection: f64,
        /// Attack effect Q (1.0 = no effect beyond the faults).
        q: f64,
        /// Victim θ sum in the attacked arm.
        victim_theta: f64,
        /// Victim θ sum in the faulty-but-clean baseline arm.
        baseline_victim_theta: f64,
        /// Hold-last-grant events (silent cores bridged by the manager).
        timeouts: u64,
        /// Checksum-rejected requests in the measurement window.
        rejects: u64,
        /// Requests clamped into the plausibility envelope.
        clamps: u64,
        /// Ground-truth faults the plan applied during the attacked arm.
        faults_applied: u64,
    },
    /// One conformance batch: how many scenarios agreed, plus the shrunk
    /// replayable spec of every divergence (empty on a clean batch).
    Conformance {
        /// Scenarios that ran clean.
        passed: u64,
        /// Shrunk `Scenario` spec strings of every divergence found.
        failures: Vec<String>,
    },
}

impl JobOutput {
    /// Encodes the output as a JSON value (the cache file body).
    #[must_use]
    pub fn to_json(&self) -> Value {
        match self {
            JobOutput::Rate(x) => Value::obj(vec![
                ("kind", Value::Str("rate".into())),
                ("value", Value::Num(*x)),
            ]),
            JobOutput::Sweep {
                duty,
                infection,
                q,
                changes,
            } => Value::obj(vec![
                ("kind", Value::Str("sweep".into())),
                ("duty", Value::Num(*duty)),
                ("infection", Value::Num(*infection)),
                ("q", Value::Num(*q)),
                (
                    "changes",
                    Value::Arr(changes.iter().map(|c| Value::Num(*c)).collect()),
                ),
            ]),
            JobOutput::Opt {
                q_optimal,
                q_random,
                improvement,
            } => Value::obj(vec![
                ("kind", Value::Str("opt".into())),
                ("q_optimal", Value::Num(*q_optimal)),
                ("q_random", Value::Num(*q_random)),
                ("improvement", Value::Num(*improvement)),
            ]),
            JobOutput::Resilience {
                infection,
                q,
                victim_theta,
                baseline_victim_theta,
                timeouts,
                rejects,
                clamps,
                faults_applied,
            } => Value::obj(vec![
                ("kind", Value::Str("resil".into())),
                ("infection", Value::Num(*infection)),
                ("q", Value::Num(*q)),
                ("victim_theta", Value::Num(*victim_theta)),
                ("baseline_victim_theta", Value::Num(*baseline_victim_theta)),
                ("timeouts", Value::Int(*timeouts as i64)),
                ("rejects", Value::Int(*rejects as i64)),
                ("clamps", Value::Int(*clamps as i64)),
                ("faults_applied", Value::Int(*faults_applied as i64)),
            ]),
            JobOutput::Conformance { passed, failures } => Value::obj(vec![
                ("kind", Value::Str("conf".into())),
                ("passed", Value::Int(*passed as i64)),
                (
                    "failures",
                    Value::Arr(failures.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
            ]),
            JobOutput::Samples(samples) => Value::obj(vec![
                ("kind", Value::Str("samples".into())),
                (
                    "rows",
                    Value::Arr(
                        samples
                            .iter()
                            .map(|s| {
                                Value::Arr(vec![
                                    Value::Num(s.rho),
                                    Value::Num(s.eta),
                                    Value::Num(s.m),
                                    Value::Num(s.phi_victims),
                                    Value::Num(s.phi_attackers),
                                    Value::Num(s.q),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    /// Decodes a cache file body. `None` on any structural mismatch (the
    /// cache then treats the entry as a miss).
    #[must_use]
    pub(crate) fn from_json(v: &Value) -> Option<JobOutput> {
        match v.get("kind")?.as_str()? {
            "rate" => Some(JobOutput::Rate(v.get("value")?.as_f64()?)),
            "sweep" => {
                let changes = v
                    .get("changes")?
                    .as_arr()?
                    .iter()
                    .map(Value::as_f64)
                    .collect::<Option<Vec<f64>>>()?;
                Some(JobOutput::Sweep {
                    duty: v.get("duty")?.as_f64()?,
                    infection: v.get("infection")?.as_f64()?,
                    q: v.get("q")?.as_f64()?,
                    changes,
                })
            }
            "opt" => Some(JobOutput::Opt {
                q_optimal: v.get("q_optimal")?.as_f64()?,
                q_random: v.get("q_random")?.as_f64()?,
                improvement: v.get("improvement")?.as_f64()?,
            }),
            "resil" => Some(JobOutput::Resilience {
                infection: v.get("infection")?.as_f64()?,
                q: v.get("q")?.as_f64()?,
                victim_theta: v.get("victim_theta")?.as_f64()?,
                baseline_victim_theta: v.get("baseline_victim_theta")?.as_f64()?,
                timeouts: u64::try_from(v.get("timeouts")?.as_i64()?).ok()?,
                rejects: u64::try_from(v.get("rejects")?.as_i64()?).ok()?,
                clamps: u64::try_from(v.get("clamps")?.as_i64()?).ok()?,
                faults_applied: u64::try_from(v.get("faults_applied")?.as_i64()?).ok()?,
            }),
            "conf" => {
                let failures = v
                    .get("failures")?
                    .as_arr()?
                    .iter()
                    .map(|s| s.as_str().map(str::to_string))
                    .collect::<Option<Vec<String>>>()?;
                Some(JobOutput::Conformance {
                    passed: u64::try_from(v.get("passed")?.as_i64()?).ok()?,
                    failures,
                })
            }
            "samples" => {
                let rows = v.get("rows")?.as_arr()?;
                let mut samples = Vec::with_capacity(rows.len());
                for row in rows {
                    let cols = row.as_arr()?;
                    if cols.len() != 6 {
                        return None;
                    }
                    samples.push(AttackSample {
                        rho: cols[0].as_f64()?,
                        eta: cols[1].as_f64()?,
                        m: cols[2].as_f64()?,
                        phi_victims: cols[3].as_f64()?,
                        phi_attackers: cols[4].as_f64()?,
                        q: cols[5].as_f64()?,
                    });
                }
                Some(JobOutput::Samples(samples))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_encode_every_parameter() {
        let base = JobSpec::Fig3Point {
            nodes: 64,
            corner: false,
            ht_count: 10,
            seeds: vec![0, 1],
        };
        assert_eq!(base.id(), "fig3-n64-center-ht10-s0.1");
        let variants = [
            JobSpec::Fig3Point {
                nodes: 128,
                corner: false,
                ht_count: 10,
                seeds: vec![0, 1],
            },
            JobSpec::Fig3Point {
                nodes: 64,
                corner: true,
                ht_count: 10,
                seeds: vec![0, 1],
            },
            JobSpec::Fig3Point {
                nodes: 64,
                corner: false,
                ht_count: 11,
                seeds: vec![0, 1],
            },
            JobSpec::Fig3Point {
                nodes: 64,
                corner: false,
                ht_count: 10,
                seeds: vec![0, 2],
            },
        ];
        for v in &variants {
            assert_ne!(v.id(), base.id(), "{v:?}");
        }
    }

    #[test]
    fn resilience_id_encodes_every_parameter() {
        #[allow(clippy::fn_params_excessive_bools)]
        fn resil(
            mix: Mix,
            scale: CampaignScale,
            allocator: AllocatorKind,
            drop_ppm: u32,
            fault_seed: u64,
            hardened: bool,
            duty_tenths: u32,
        ) -> JobSpec {
            JobSpec::Resilience {
                mix,
                scale,
                allocator,
                drop_ppm,
                fault_seed,
                hardened,
                duty_tenths,
            }
        }
        use AllocatorKind::{Greedy, Market};
        use CampaignScale::{Small, Tiny};
        let base = resil(Mix::Mix1, Tiny, Greedy, 10_000, 7, false, 9);
        assert_eq!(base.id(), "resil-mix-1-tiny-greedy-p10000-f7-soft-d9");
        let mut ids = std::collections::BTreeSet::new();
        ids.insert(base.id());
        for variant in [
            resil(Mix::Mix2, Tiny, Greedy, 10_000, 7, false, 9),
            resil(Mix::Mix1, Small, Greedy, 10_000, 7, false, 9),
            resil(Mix::Mix1, Tiny, Market, 10_000, 7, false, 9),
            resil(Mix::Mix1, Tiny, Greedy, 20_000, 7, false, 9),
            resil(Mix::Mix1, Tiny, Greedy, 10_000, 8, false, 9),
            resil(Mix::Mix1, Tiny, Greedy, 10_000, 7, true, 9),
            resil(Mix::Mix1, Tiny, Greedy, 10_000, 7, false, 0),
        ] {
            assert!(ids.insert(variant.id()), "id collision: {}", variant.id());
        }
    }

    #[test]
    fn output_json_roundtrip() {
        let outputs = [
            JobOutput::Rate(0.1234),
            JobOutput::Sweep {
                duty: 0.3,
                infection: 0.28,
                q: 2.5,
                changes: vec![1.2, 0.6],
            },
            JobOutput::Opt {
                q_optimal: 3.0,
                q_random: 2.0,
                improvement: 0.5,
            },
            JobOutput::Samples(vec![AttackSample {
                rho: 1.0,
                eta: 2.0,
                m: 8.0,
                phi_victims: 0.4,
                phi_attackers: 0.6,
                q: 3.3,
            }]),
            JobOutput::Resilience {
                infection: 0.25,
                q: 1.05,
                victim_theta: 3.1,
                baseline_victim_theta: 3.2,
                timeouts: 12,
                rejects: 3,
                clamps: 0,
                faults_applied: 450,
            },
            JobOutput::Conformance {
                passed: 199,
                failures: vec![
                    "mesh=2x2;routing=xy;cycles=10;rate=100;pr=0;seed=0x1;trojans=;duty=0;\
                     manager=0;fseed=0x0;link=0@16;stall=0@16;flip=0;drop=0"
                        .into(),
                ],
            },
            JobOutput::Conformance {
                passed: 200,
                failures: vec![],
            },
        ];
        for out in &outputs {
            let text = out.to_json().render();
            let back = JobOutput::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, out, "{text}");
        }
    }

    #[test]
    fn conformance_id_encodes_every_parameter() {
        let base = JobSpec::Conformance {
            scenarios: 100,
            seed: 0x5EED,
        };
        assert_eq!(base.id(), "conf-n100-s5eed");
        assert_ne!(
            JobSpec::Conformance {
                scenarios: 200,
                seed: 0x5EED
            }
            .id(),
            base.id()
        );
        assert_ne!(
            JobSpec::Conformance {
                scenarios: 100,
                seed: 0x5EEE
            }
            .id(),
            base.id()
        );
    }

    #[test]
    fn conformance_job_runs_a_clean_batch() {
        let spec = JobSpec::Conformance {
            scenarios: 2,
            seed: 0xC0DE,
        };
        match spec.execute() {
            JobOutput::Conformance { passed, failures } => {
                assert_eq!(passed, 2, "failures: {failures:?}");
                assert!(failures.is_empty(), "failures: {failures:?}");
            }
            other => panic!("wrong output variant: {other:?}"),
        }
    }

    #[test]
    fn fig3_job_matches_driver() {
        let spec = JobSpec::Fig3Point {
            nodes: 16,
            corner: true,
            ht_count: 4,
            seeds: vec![0, 1],
        };
        let direct = fig3_point(16, ManagerLocation::Corner, 4, &[0, 1]);
        assert_eq!(spec.execute(), JobOutput::Rate(direct));
    }
}
