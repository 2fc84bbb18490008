//! Attack modelling for the power-budget hardware-Trojan study: the
//! quantitative layer of Sections IV–V of the SOCC 2018 paper.
//!
//! Provides:
//! - `metrics.rs`: Definitions 1–5 — application performance θ, performance
//!   change Θ, attack effect Q(Δ, Γ), and power-budget sensitivity φ/Φ;
//! - `placement.rs`: Trojan placement strategies and Definitions 6–8 — the
//!   HT virtual center ω, its distance ρ to the global manager, and the HT
//!   density η;
//! - `analytic.rs`: a closed-form infection-rate estimator over XY routes,
//!   cross-validated against the cycle-accurate simulator and fast enough
//!   to sit in the optimizer's inner loop;
//! - `model.rs`: the linear attack-effect regression of Eq. 9, with an
//!   ordinary-least-squares fitter and R² reporting;
//! - `optimize.rs`: the attack-effect maximisation problem of Eqs. 10–11,
//!   solved by enumeration over placement families as the paper suggests;
//! - `scenario.rs`: the benchmark mixes of Table III.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytic;
mod linalg;
mod metrics;
mod model;
mod optimize;
mod placement;
mod scenario;

pub use analytic::{analytic_infection_rate, xy_route_touches};
pub use metrics::{sensitivity_phi, AttackOutcome};
pub use model::{AttackModel, AttackSample};
pub use optimize::{PlacementCandidate, PlacementOptimizer};
pub use placement::{density_eta, distance_rho, virtual_center, Placement, PlacementStrategy};
pub use scenario::Mix;
