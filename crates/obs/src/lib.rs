//! Lock-free runtime metrics for the HTPB simulator stack.
//!
//! The paper's attack succeeds because the power-budgeting loop cannot *see*
//! what a Trojan does to per-tile requests and NoC occupancy; runtime
//! monitoring defenses (MacLeR-style power telemetry, Prasad et al.'s
//! packet-drop mitigation) all hinge on cheap, always-on instrumentation.
//! This crate is that instrumentation layer: a static registry of sharded
//! atomic [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s, plus
//! lightweight [`span`] timers — designed so that *observing
//! the system never changes it*.
//!
//! # The non-perturbation contract
//!
//! Three properties, each locked by tests elsewhere in the workspace:
//!
//! 1. **Bit-identical simulation.** Metric values are write-only from the
//!    simulator's point of view: nothing in any hot loop ever branches on a
//!    metric. Golden digests and the conformance oracle run with the full
//!    metric set enabled and must produce fingerprints identical to
//!    metrics-off runs.
//! 2. **Zero steady-state allocation.** All allocation happens at
//!    registration/enable time; `inc`/`add`/`observe`/`set` are plain
//!    relaxed atomic operations (`tests/alloc_regression.rs`).
//! 3. **Within the existing performance gate.** Metrics-on `noc_perf
//!    --check` must pass the same 0.75x ratio gate as metrics-off.
//!
//! # Determinism classes
//!
//! Every metric carries a [`Class`]:
//!
//! * [`Class::Sim`] — derived purely from simulation state (flits, epochs,
//!   grants). Sums of such counters commute, so aggregates are identical
//!   however many worker threads executed the jobs. **Only this class is
//!   included in the Prometheus exposition**, which is therefore
//!   byte-deterministic across `--jobs 1` vs `--jobs N`.
//! * [`Class::Timing`] — derived from wall-clock time or scheduling (job
//!   latency, queue depth, retries). Exposed in the JSON snapshot and the
//!   stderr summary, never in `metrics.prom`.
//!
//! # Exposition
//!
//! [`Snapshot::to_prom`] renders the Prometheus text format (see
//! `docs/OBSERVABILITY.md` for the grammar, locked by
//! `tests/fixtures/metrics.prom.golden`); [`Snapshot::to_summary`] renders
//! the human `--metrics` stderr block. The JSON snapshot in the journal's
//! `run_end` record is built from [`Snapshot::series`] by the harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
mod registry;
mod snapshot;
pub mod span;

pub use counter::{Counter, Gauge};
pub use histogram::{pow2_bounds, Histogram, HistogramSnapshot};
pub use registry::{Class, Registry};
pub use snapshot::{Series, SeriesValue, Snapshot};

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether metric *collection* is globally enabled (the `--metrics` flag).
///
/// Instrumented layers consult this once at setup time (e.g. when a system
/// is built) — never per cycle — so a disabled run costs at most one
/// `Option` branch per hot-loop iteration, identical to the pre-existing
/// fault-hook discipline.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables metric collection. Flipped once at process
/// start by the `--metrics` flag; layers built afterwards pick it up.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric collection is globally enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry that `--metrics` runs collect into.
#[must_use]
pub fn global() -> &'static Registry {
    use std::sync::OnceLock;
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
