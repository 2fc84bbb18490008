//! Event-driven tiled many-core system simulator.
//!
//! This crate is the *platform* substrate of the SOCC 2018 reproduction: a
//! shared-memory chip following the tiled architecture of Section II-A —
//! every node couples a core, a private L1, a slice of the shared L2 and a
//! router, and multi-threaded applications run their threads on different
//! cores, communicating through the NoC (Section V-A, Table I).
//!
//! Because the original Alpha-ISA trace-driven simulator and the
//! PARSEC/SPLASH-2 binaries are not reproducible here, cores use an
//! **analytic bottleneck model**: each benchmark is characterised by a
//! compute CPI (scales with frequency) and a memory time per instruction
//! (frequency-independent), giving the `IPC(app, f)` surface that all of
//! the paper's metrics (Definitions 1–5) consume. See DESIGN.md §4 for the
//! substitution argument. Cache miss rates and coherence message rates
//! drive genuine request/reply traffic through the cycle-accurate NoC, and
//! the power budgeting protocol (requests, allocation, grants) is carried
//! entirely by in-band packets — which is what the Trojan attacks.
//!
//! ```
//! use htpb_manycore::{Benchmark, SystemBuilder, Workload, AppRole};
//! use htpb_noc::Mesh2d;
//!
//! let mesh = Mesh2d::new(4, 4).unwrap();
//! let mut system = SystemBuilder::new(mesh)
//!     .manager(mesh.center())
//!     .workload(Workload::new()
//!         .app(Benchmark::Blackscholes, 6, AppRole::Legitimate)
//!         .app(Benchmark::Canneal, 6, AppRole::Legitimate))
//!     .build()
//!     .unwrap();
//! system.run(3_000);
//! let report = system.performance_report();
//! assert_eq!(report.apps.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod benchmark;
pub mod cache;
mod error;
mod metrics;
pub mod obs_bridge;
mod report;
mod system;
mod tile;

pub use app::{AppId, AppRole, Application, Workload};
pub use benchmark::{Benchmark, BenchmarkProfile};
pub use cache::{
    AccessResult, AddressStream, CacheConfig, Directory, DirectoryAction, LineState, SetAssocCache,
};
pub use error::ManycoreError;
pub use metrics::{SysMetrics, UTIL_DECILES};
pub use report::{AppPerformance, PerformanceReport};
pub use system::{ManyCoreSystem, RequestProtection, SystemBuilder, SystemConfig, L2_HIT_LATENCY};
pub use tile::Tile;
