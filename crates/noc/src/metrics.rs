//! Optional per-network live metrics: plain, write-only tallies the hot
//! loop can feed for a few adds per cycle.
//!
//! The NoC deliberately does **not** depend on the `htpb-obs` registry:
//! a [`Network`](crate::Network) is single-threaded and short-lived, so
//! atomics would be pure overhead. Instead, when enabled
//! ([`Network::enable_metrics`](crate::Network::enable_metrics)) the
//! pipeline updates this plain struct — one branch plus plain integer adds
//! on the paths involved — and a higher layer (the `htpb-manycore` bridge,
//! the `noc_perf` driver) absorbs the final values into the shared registry
//! after the run.
//!
//! Non-perturbation by construction: every field here is write-only from
//! the pipeline's point of view; nothing in `step()` ever reads one.
//! Counters the simulator already maintains for its own statistics
//! (deliveries, drops, per-router forwards, the latency histogram) are NOT
//! duplicated here — they are pulled from
//! [`NetworkStats`](crate::NetworkStats) and
//! [`Network::utilization_map`](crate::Network::utilization_map) at absorb
//! time, at zero hot-loop cost.

/// Number of occupancy buckets in [`NocMetrics::vc_occupancy`]: bucket `i`
/// counts pushes that left the VC holding `i + 1` flits, with the last
/// bucket absorbing every deeper occupancy.
pub(crate) const VC_OCCUPANCY_BUCKETS: usize = 8;

/// Live tallies updated by the pipeline when metrics are enabled.
///
/// All cycle-integral fields advance only on *stepped* (non-quiescent)
/// cycles; idle fast-forwarding contributes nothing, which keeps the values
/// a pure function of simulation state.
#[derive(Debug, Clone, Default)]
pub struct NocMetrics {
    /// Sum over stepped cycles of routers holding at least one flit —
    /// the time-integral of router activity.
    pub active_router_cycles: u64,
    /// Sum over stepped cycles of occupied link slots — the time-integral
    /// of link utilization.
    pub busy_link_cycles: u64,
    /// Sum over stepped cycles of flits waiting in injection queues — the
    /// time-integral of injection back-pressure.
    pub queued_flit_cycles: u64,
    /// Router-cycles lost to fault-injected stalls.
    pub stalled_router_cycles: u64,
    /// Histogram of VC buffer occupancy observed after each flit push
    /// (link delivery and injection): bucket `i` = occupancy `i + 1`
    /// flits, last bucket = deeper.
    pub vc_occupancy: [u64; VC_OCCUPANCY_BUCKETS],
}

impl NocMetrics {
    // htpb-lint: hot
    /// Called once per stepped cycle with the current worklist sizes.
    #[inline]
    pub(crate) fn on_cycle(&mut self, active_routers: usize, busy_links: usize, queued: usize) {
        self.active_router_cycles += active_routers as u64;
        self.busy_link_cycles += busy_links as u64;
        self.queued_flit_cycles += queued as u64;
    }

    /// Called when the fault plan stalls a router for one cycle.
    #[inline]
    pub(crate) fn on_router_stalled(&mut self) {
        self.stalled_router_cycles += 1;
    }

    /// Called after a flit lands in a VC buffer, with the resulting
    /// occupancy (`>= 1`).
    #[inline]
    pub(crate) fn on_flit_buffered(&mut self, occupancy: usize) {
        let bucket = occupancy.saturating_sub(1).min(VC_OCCUPANCY_BUCKETS - 1);
        self.vc_occupancy[bucket] += 1;
    }
    // htpb-lint: end-hot

    /// Total pushes recorded in the occupancy histogram.
    #[must_use]
    pub fn vc_occupancy_total(&self) -> u64 {
        self.vc_occupancy.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_buckets_saturate() {
        let mut m = NocMetrics::default();
        m.on_flit_buffered(1);
        m.on_flit_buffered(2);
        m.on_flit_buffered(8);
        m.on_flit_buffered(100);
        assert_eq!(m.vc_occupancy[0], 1);
        assert_eq!(m.vc_occupancy[1], 1);
        assert_eq!(m.vc_occupancy[VC_OCCUPANCY_BUCKETS - 1], 2);
        assert_eq!(m.vc_occupancy_total(), 4);
    }

    #[test]
    fn cycle_integrals_accumulate() {
        let mut m = NocMetrics::default();
        m.on_cycle(3, 2, 10);
        m.on_cycle(1, 0, 4);
        m.on_router_stalled();
        assert_eq!(m.active_router_cycles, 4);
        assert_eq!(m.busy_link_cycles, 2);
        assert_eq!(m.queued_flit_cycles, 14);
        assert_eq!(m.stalled_router_cycles, 1);
    }
}
