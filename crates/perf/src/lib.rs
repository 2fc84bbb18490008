//! `htpb-perf` — one benchmark for the whole stack.
//!
//! Six workloads, each a closed loop with one client (one process, one
//! thread, `RunOptions.workers = 1`), measured two ways:
//!
//! - a **timed run** reports the end-to-end metrics a user of the system
//!   would see ([`spec::end_to_end`]) and checks the outputs;
//! - a **traced run** re-composes the workload from the layers' public
//!   calls with a span around each ([`trace`]) and measures every layer
//!   from outside ([`layers`]), reporting the per-layer metrics
//!   ([`spec::per_layer`]).
//!
//! [`compare`] applies the bounds to two result documents. The benchmark
//! calls only public functions of the other crates and changes none of
//! them. See `README.md` for the tables of metrics and workloads and how
//! they interact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod layers;
pub mod memfs;
pub mod run;
pub mod spec;
pub mod stats;
pub mod tmp;
pub mod trace;
pub mod workloads;
