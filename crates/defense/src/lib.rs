//! Detection and localization countermeasures against the power-budget
//! hardware Trojan.
//!
//! The paper closes with "more research on detection and protection against
//! such attacks is needed" (Section VI). This crate implements that future
//! work at the level the attack operates on:
//!
//! - [`RequestAnomalyDetector`] — a manager-side statistical monitor: each
//!   core's request stream is tracked with an exponentially weighted moving
//!   average; a request that collapses far below the core's own history is
//!   flagged. Zeroing and aggressive down-scaling Trojans light up
//!   immediately; the detector needs no cryptography and no protocol
//!   changes.
//! - [`ProbePlan`] / [`ProbeCampaign`] — active probing: cooperating cores
//!   send requests whose values follow a keyed pseudo-random schedule the
//!   manager can recompute, so *any* in-flight modification — including the
//!   gentle scaling that slips under the EWMA threshold — is caught,
//!   without adding a single bit to the packet format.
//! - [`TrojanLocalizer`] — turns detector output into *where*: tampered
//!   requests travelled some route to the manager, so the infected routers
//!   lie on the intersection of the flagged sources' routes minus routers
//!   that clean requests provably traversed. A greedy set-cover pass
//!   recovers a minimal set of suspects that explains every flagged route.
//!
//! For the *prevention* side (keyed checksums over the packet's OPTIONS
//! field), see `htpb_manycore::RequestProtection` — the two compose: the
//! checksum neutralises the attack while the localizer pinpoints which
//! routers to fuse off. Callers wire the pieces together themselves: feed
//! delivered requests to the detector (or delivered probes to a
//! [`ProbeCampaign`]), then hand its flagged and clean sources to
//! [`TrojanLocalizer::localize`]. `examples/defense_demo.rs` and
//! `tests/integration_defense.rs` do exactly that against the full system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod localizer;
mod probe;

pub use detector::{AnomalyEvent, DetectorConfig, RequestAnomalyDetector};
pub use localizer::{LocalizationReport, TrojanLocalizer};
pub use probe::{ProbeCampaign, ProbePlan};
