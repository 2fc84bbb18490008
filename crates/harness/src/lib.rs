//! `htpb-harness` — parallel, resumable experiment-campaign orchestration
//! for the SOCC 2018 hardware-Trojan power-budgeting reproduction.
//!
//! The crate turns the experiment drivers of `htpb_core::experiments` into
//! first-class, schedulable **jobs**:
//!
//! - [`JobSpec`] / [`JobOutput`] — one experiment point as a pure function
//!   of its parameters and seeds (`job.rs`);
//! - [`run_jobs`] — a fixed-size worker pool with per-job
//!   `catch_unwind` isolation; a job runs at most once per call, and
//!   results return in job order, so a campaign emits the same bytes at
//!   any worker count (`runner.rs`);
//! - [`ResultCache`] — a content-addressed on-disk cache under
//!   `<outdir>/.cache/`; re-runs skip completed points and interrupted
//!   campaigns resume (`cache.rs`);
//! - [`BaselineCache`] — in-process memoization of clean baseline
//!   campaigns, so per-point sweep jobs share one baseline per
//!   configuration instead of recomputing it; it persists nothing
//!   (`baseline.rs`);
//! - [`Journal`] — an append-only, checksummed run journal at
//!   `<outdir>/journal.jsonl` with per-job lifecycle events and per-stage
//!   timings (`journal.rs`);
//! - [`commit_file`] / [`commit_append`] — the durable-write choke points
//!   (tmp + fsync + rename + dir-fsync) every artefact, cache entry and
//!   journal record goes through, over an injectable [`Fs`] so tests can
//!   schedule `ENOSPC`, short writes and torn renames ([`fs`]);
//! - [`Campaign`] — crash-safe campaign lifecycle: journal-driven
//!   recovery of interrupted jobs, checkpointed resume, durable artefact
//!   emission and post-run verification (`campaign.rs`);
//! - [`run_repro`] — the whole `repro_all` campaign planned as jobs; its
//!   reference is the committed artefact manifest
//!   `tests/fixtures/repro_tiny.manifest` (`repro.rs`);
//! - [`run_resilience_sweep`] — the fault-injection campaign: attack
//!   effect and graceful degradation across *fault rate × allocator ×
//!   hardening* (`resilience.rs`);
//! - [`HarnessArgs`] — the shared `--jobs` / `--no-cache` / `--resume` /
//!   `--metrics` flag parser, resolved to
//!   [`RunOptions`] by [`HarnessArgs::run_options`]; [`cli::flag_value`]
//!   is the one `--flag V | --flag=V` grammar every bin uses ([`cli`]);
//! - [`obs`] — pool-level metrics (job latency, queue depth, cache hit
//!   rates) and the `metrics.prom` / `run_end` JSON / stderr expositions
//!   of the `htpb-obs` registry (see `docs/OBSERVABILITY.md`).
//!
//! See `docs/HARNESS.md` for the job model, cache layout and journal
//! schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod cache;
mod campaign;
pub mod cli;
pub mod fs;
pub mod hash;
mod job;
mod journal;
pub mod json;
pub mod obs;
mod repro;
mod resilience;
mod runner;

pub use baseline::BaselineCache;
pub use cache::ResultCache;
pub use campaign::{verify_artefacts, Campaign, VerifyReport};
pub use cli::HarnessArgs;
pub use fs::{commit_append, commit_file, std_fs, FaultyFs, Fs, FsFault, StdFs};
pub use job::{CampaignScale, Fig4Strategy, JobOutput, JobSpec};
pub use journal::Journal;
pub use repro::{run_repro, ReproOutcome, ReproPlan, ReproScale};
pub use resilience::run_resilience_sweep;
pub use runner::{run_jobs, JobReport, RunOptions};
