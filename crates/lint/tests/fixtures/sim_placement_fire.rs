//! Fixture: a `Class::Sim` registration inside a timing-only crate
//! (harness) — fires `obs/sim-placement`.
pub fn instruments(r: &Registry) -> Arc<Counter> {
    r.counter("htpb_harness_jobs_total", "Jobs completed", Class::Sim)
}
