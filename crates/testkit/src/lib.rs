//! Conformance tooling for the optimized simulator.
//!
//! The active-set rewrite of [`htpb_noc::Network::step`] made the hot loop
//! scale with traffic instead of mesh size — and made its correctness
//! argument subtle. This crate keeps that argument *checkable* forever, with
//! three layers:
//!
//! * [`ReferenceNet`] — a deliberately dense, obvious re-implementation of
//!   the wormhole pipeline (all routers × ports × VCs, every stage, every
//!   cycle), kept permanently as an oracle. Never optimized.
//! * [`run_differential`] — lock-step execution of a [`Scenario`] on both
//!   implementations, comparing statistics fingerprints, trace fingerprints
//!   and delivered packets after every cycle, with first-divergence
//!   localization down to a (cycle, router, port, VC) tuple.
//! * [`Scenario`] / [`shrink`] — serializable random scenarios (mesh,
//!   traffic, routing, Trojans, faults) and a greedy shrinker that reduces a
//!   failing scenario to a small replayable spec string for the checked-in
//!   regression corpus (`crates/testkit/corpus/conformance.txt`, replayed by
//!   `tests/conformance.rs`).
//!
//! A deliberately seeded bug (`Network::set_rr_skew`, which perturbs the
//! round-robin arbitration pointer) provides the standing self-test that the
//! oracle actually detects and shrinks real divergences.
//!
//! ```
//! use htpb_testkit::{run_differential, DiffConfig, Scenario};
//!
//! let scenario = Scenario::random(1);
//! assert!(run_differential(&scenario, &DiffConfig::default()).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod reference;
mod scenario;
mod shrink;

pub use diff::{
    run_batch, run_differential, run_metrics_identity, BatchReport, DiffConfig, Divergence,
};
pub use reference::{RefStats, ReferenceNet};
pub use scenario::Scenario;
pub use shrink::shrink;
