//! End-to-end experiment drivers for the SOCC 2018 reproduction of
//! *"On a New Hardware Trojan Attack on Power Budgeting of Many Core
//! Systems"* (Zhao et al.).
//!
//! This crate ties the substrates together — the flit-level NoC
//! ([`htpb_noc`]), the power-budgeting subsystem ([`htpb_power`]), the
//! tiled many-core simulator ([`htpb_manycore`]), the hardware-Trojan model
//! ([`htpb_trojan`]) and the attack metrics ([`htpb_attack`]) — into the
//! experiments of the paper's evaluation (Section V):
//!
//! | Paper artefact | API |
//! |---|---|
//! | Fig. 3 (infection vs. #HTs, manager location)   | [`experiments::fig3_point`] |
//! | Fig. 4 (infection vs. HT distribution)          | [`experiments::fig4_point`] |
//! | Fig. 5 (Q vs. infection rate per mix)           | [`experiments::attack_sweep_point_with_baseline`] |
//! | Fig. 6 (per-app Θ vs. infection rate)           | [`experiments::attack_sweep_point_with_baseline`] |
//! | Section V-C optimal-vs-random placement         | [`experiments::optimal_vs_random`] |
//! | Eq. 9 regression                                | [`experiments::regression_dataset`] |
//! | Section III-D area/power                        | [`htpb_trojan::AreaReport`] |
//!
//! Each function computes one point; `htpb_harness::ReproPlan` enumerates
//! every point of every figure as a job, and `repro_all` assembles them
//! into the `results/*.tsv` artefacts. Every other type is imported from
//! the crate that owns it.
//!
//! ```
//! use htpb_attack::PlacementStrategy;
//! use htpb_core::{InfectionExperiment, ManagerLocation};
//!
//! let exp = InfectionExperiment::new(64).manager(ManagerLocation::Center);
//! let placement = exp.placement(8, &PlacementStrategy::Random { seed: 1 });
//! let rate = exp.measure(&placement);
//! assert!((0.0..=1.0).contains(&rate));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod platform;

pub use experiments::{
    attack_sweep_point_with_baseline, fig3_point, fig4_point, optimal_vs_random,
    regression_dataset, regression_placements, resilience_point, run_campaign,
    run_campaign_with_baseline, run_clean_baseline, AttackSweepPoint, CampaignConfig,
    CampaignResult, InfectionExperiment, ManagerLocation, OptComparison, ResiliencePoint,
};
pub use platform::{describe_mixes, describe_platform};
