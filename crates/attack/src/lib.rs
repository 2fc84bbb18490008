//! Attack modelling for the power-budget hardware-Trojan study: the
//! quantitative layer of Sections IV–V of the SOCC 2018 paper.
//!
//! Provides:
//! - [`metrics`]: Definitions 1–5 — application performance θ, performance
//!   change Θ, attack effect Q(Δ, Γ), and power-budget sensitivity φ/Φ;
//! - [`placement`]: Trojan placement strategies and Definitions 6–8 — the
//!   HT virtual center ω, its distance ρ to the global manager, and the HT
//!   density η;
//! - [`analytic`]: a closed-form infection-rate estimator over XY routes,
//!   cross-validated against the cycle-accurate simulator and fast enough
//!   to sit in the optimizer's inner loop;
//! - [`model`]: the linear attack-effect regression of Eq. 9, with an
//!   ordinary-least-squares fitter and R² reporting;
//! - [`optimize`]: the attack-effect maximisation problem of Eqs. 10–11,
//!   solved by enumeration over placement families as the paper suggests;
//! - [`scenario`]: the benchmark mixes of Table III.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod linalg;
pub mod metrics;
pub mod model;
pub mod optimize;
pub mod placement;
pub mod scenario;

pub use analytic::{analytic_infection_rate, xy_route_touches};
pub use metrics::{attack_effect, performance_change, sensitivity_phi, AttackOutcome};
pub use model::{AttackModel, AttackSample, LinearModel};
pub use optimize::{PlacementCandidate, PlacementOptimizer};
pub use placement::{density_eta, distance_rho, virtual_center, Placement, PlacementStrategy};
pub use scenario::Mix;
