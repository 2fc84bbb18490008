//! Optional power-protocol metrics, mirroring the NoC's design: a plain,
//! write-only struct the epoch loop feeds with a handful of integer adds,
//! absorbed into the `htpb-obs` registry after the run (see
//! [`crate::obs_bridge`]).
//!
//! Nothing in [`ManyCoreSystem::step`](crate::ManyCoreSystem::step) ever
//! reads these fields, so enabling them cannot perturb the simulation —
//! the property locked by the metrics-on golden digests and the
//! conformance metamorphic suite.

use htpb_noc::LatencyHistogram;

/// Number of budget-utilization deciles tracked per epoch.
pub(crate) const UTIL_DECILES: usize = 10;

/// Live power-protocol tallies, updated when metrics are enabled.
#[derive(Debug, Clone, Default)]
pub(crate) struct SysMetrics {
    /// End-to-end latency of `POWER_GRANT` deliveries (manager to core),
    /// in cycles.
    pub grant_latency: LatencyHistogram,
    /// Per-epoch budget utilization in deciles: bucket `i` counts epochs
    /// whose `granted / budget` fell in `[i*10%, (i+1)*10%)`, with the last
    /// bucket absorbing 90% and above.
    pub util_decile: [u64; UTIL_DECILES],
    /// Sum over epochs of per-epoch utilization in milli-units (0..=1000),
    /// so the mean utilization is derivable without float accumulation.
    pub util_milli_sum: u64,
    /// Epochs observed by `SysMetrics::on_epoch`.
    pub epochs: u64,
}

impl SysMetrics {
    /// Records one delivered grant's end-to-end latency.
    #[inline]
    pub(crate) fn on_grant(&mut self, latency: u64) {
        self.grant_latency.record(latency);
    }

    /// Records one allocation epoch's granted total against the budget.
    ///
    /// Utilization is quantized to integer milli-units immediately — the
    /// absorbed values must be pure integers so cross-worker sums commute
    /// bit-exactly (the `metrics.prom` byte-determinism contract).
    #[inline]
    pub(crate) fn on_epoch(&mut self, granted_mw: f64, budget_mw: f64) {
        let milli = if budget_mw > 0.0 {
            ((granted_mw / budget_mw) * 1000.0)
                .round()
                .clamp(0.0, 1000.0) as u64
        } else {
            0
        };
        let decile = ((milli / 100) as usize).min(UTIL_DECILES - 1);
        self.util_decile[decile] += 1;
        self.util_milli_sum += milli;
        self.epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_quantizes_to_deciles() {
        let mut m = SysMetrics::default();
        m.on_epoch(0.0, 1000.0); // 0.0% -> decile 0
        m.on_epoch(450.0, 1000.0); // 45% -> decile 4
        m.on_epoch(999.0, 1000.0); // 99.9% -> decile 9
        m.on_epoch(2000.0, 1000.0); // clamped to 100% -> decile 9
        m.on_epoch(5.0, 0.0); // zero budget -> 0
        assert_eq!(m.util_decile[0], 2);
        assert_eq!(m.util_decile[4], 1);
        assert_eq!(m.util_decile[9], 2);
        assert_eq!(m.epochs, 5);
        assert_eq!(m.util_milli_sum, 450 + 999 + 1000);
    }

    #[test]
    fn grant_latency_is_recorded() {
        let mut m = SysMetrics::default();
        m.on_grant(17);
        m.on_grant(3);
        assert_eq!(m.grant_latency.count(), 2);
        assert_eq!(m.grant_latency.sum(), 20);
    }
}
