//! End-to-end experiment facade for the SOCC 2018 reproduction of
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
//! | Section III-D area/power                        | re-exported [`htpb_trojan::area`] |
//!
//! Each function computes one point; `htpb_harness::ReproPlan` enumerates
//! every point of every figure as a job, and `repro_all` assembles them
//! into the `results/*.tsv` artefacts. The crate re-exports the most-used
//! types of every layer so downstream code can depend on `htpb_core` alone.
//!
//! ```
//! use htpb_core::{InfectionExperiment, ManagerLocation, PlacementStrategy};
//!
//! let exp = InfectionExperiment::new(64).manager(ManagerLocation::Center);
//! let placement = exp.placement(8, &PlacementStrategy::Random { seed: 1 });
//! let rate = exp.measure(&placement);
//! assert!((0.0..=1.0).contains(&rate));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod platform;

pub use experiments::{
    attack_sweep_point_with_baseline, fig3_point, fig4_point, optimal_vs_random,
    regression_dataset, regression_placements, resilience_point, run_campaign,
    run_campaign_with_baseline, run_clean_baseline, AttackSweepPoint, CampaignConfig,
    CampaignResult, InfectionExperiment, ManagerLocation, OptComparison, ResiliencePoint,
};
pub use platform::{describe_mixes, describe_platform};

// Facade re-exports: one `use htpb_core::…` serves most downstream code.
pub use htpb_attack::{
    analytic_infection_rate, attack_effect, density_eta, distance_rho, performance_change,
    sensitivity_phi, virtual_center, AttackModel, AttackOutcome, AttackSample, LinearModel, Mix,
    Placement, PlacementCandidate, PlacementOptimizer, PlacementStrategy,
};
pub use htpb_defense::{
    AnomalyEvent, DetectorConfig, LocalizationReport, ProbeCampaign, ProbePlan,
    RequestAnomalyDetector, TrojanLocalizer,
};
pub use htpb_faults::{FaultCounters, FaultPlan};
pub use htpb_manycore::{
    AppId, AppPerformance, AppRole, Application, Benchmark, BenchmarkProfile, ManyCoreSystem,
    ManycoreError, PerformanceReport, RequestProtection, SystemBuilder, SystemConfig, Workload,
};
pub use htpb_noc::{
    ActivationSignal, Coord, Direction, Mesh2d, Network, NetworkConfig, NocError, NodeId, Packet,
    PacketInspector, PacketKind, RouterConfig, RoutingKind,
};
pub use htpb_power::{
    AllocatorKind, DegradationCounters, DvfsTable, FrequencyLevel, GlobalManager, HardeningConfig,
    PowerAllocator, PowerModel, PowerRequest, RequestEnvelope,
};
pub use htpb_trojan::{
    ActivationSchedule, AreaReport, BoostRule, HardwareTrojan, TamperRule, TrojanFleet, TrojanMode,
    HT_AREA_UM2, HT_POWER_UW, ROUTER_AREA_UM2, ROUTER_POWER_UW,
};
