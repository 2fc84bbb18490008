use htpb_noc::NodeId;

/// Active integrity probing of the request channel.
///
/// The EWMA detector ([`crate::RequestAnomalyDetector`]) catches collapses,
/// but a gentle Trojan (e.g. `ScalePercent(60)`) stays under its threshold.
/// Probing closes that gap: designated cooperating cores send *probe* power
/// requests whose values are derived from a keyed pseudo-random function of
/// `(epoch, core)` that the manager can recompute. Any in-flight
/// modification — however small — makes the delivered value disagree with
/// the expected one, exposing the tampering router's route.
///
/// Unlike the checksum defense (`htpb_manycore::RequestProtection`), probing
/// needs no extra packet field: the probe *is* a plausible power request,
/// indistinguishable from workload traffic to the Trojan's comparators.
/// The price is that probe epochs sacrifice the prober's real request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbePlan {
    key: u64,
    /// Probe values are confined to a plausible request band so the Trojan
    /// cannot distinguish probes statistically.
    min_mw: u32,
    max_mw: u32,
}

impl ProbePlan {
    /// Creates a plan with the given key and plausible request band.
    ///
    /// # Panics
    ///
    /// Panics if the band is empty.
    #[must_use]
    pub(crate) fn new(key: u64, min_mw: u32, max_mw: u32) -> Self {
        assert!(min_mw < max_mw, "probe band must be non-empty");
        ProbePlan {
            key,
            min_mw,
            max_mw,
        }
    }

    /// A default band matching the reproduction's per-core power range.
    #[must_use]
    pub fn default_band(key: u64) -> Self {
        ProbePlan::new(key, 400, 2_500)
    }

    /// The probe value core `core` must request in `epoch`.
    #[must_use]
    pub fn expected(&self, core: NodeId, epoch: u64) -> u32 {
        let mut x = self
            .key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(core.raw()) << 32 | epoch);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let span = u64::from(self.max_mw - self.min_mw);
        self.min_mw + (x % span) as u32
    }

    /// Checks a delivered probe; `true` means the channel is clean for this
    /// (core, epoch).
    #[must_use]
    pub fn verify(&self, core: NodeId, epoch: u64, delivered_mw: u32) -> bool {
        self.expected(core, epoch) == delivered_mw
    }
}

/// Manager-side bookkeeping for a probing campaign: which (core, epoch)
/// probes came back clean vs. tampered, feeding the
/// [`crate::TrojanLocalizer`] with high-confidence flagged/clean source
/// sets.
#[derive(Debug, Clone, Default)]
pub struct ProbeCampaign {
    clean: Vec<NodeId>,
    tampered: Vec<NodeId>,
}

impl ProbeCampaign {
    /// Creates an empty campaign record.
    #[must_use]
    pub fn new() -> Self {
        ProbeCampaign::default()
    }

    /// Records one delivered probe against the plan.
    pub fn record(&mut self, plan: &ProbePlan, core: NodeId, epoch: u64, delivered_mw: u32) {
        if plan.verify(core, epoch, delivered_mw) {
            self.clean.push(core);
        } else {
            self.tampered.push(core);
        }
    }

    /// Sources whose probes all came back clean (deduplicated; a source
    /// with any tampered probe is excluded — duty-cycled Trojans make a
    /// source look clean in some epochs).
    #[must_use]
    pub fn clean_sources(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .clean
            .iter()
            .copied()
            .filter(|c| !self.tampered.contains(c))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Sources with at least one tampered probe (deduplicated).
    #[must_use]
    pub fn tampered_sources(&self) -> Vec<NodeId> {
        let mut v = self.tampered.clone();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_values_stay_in_band_and_vary() {
        let plan = ProbePlan::default_band(42);
        let mut distinct = std::collections::BTreeSet::new();
        for core in 0..32u16 {
            for epoch in 0..8u64 {
                let v = plan.expected(NodeId(core), epoch);
                assert!((400..2_500).contains(&v));
                distinct.insert(v);
            }
        }
        assert!(distinct.len() > 200, "probe values too repetitive");
    }

    #[test]
    fn verify_accepts_exact_and_rejects_any_change() {
        let plan = ProbePlan::default_band(7);
        let v = plan.expected(NodeId(3), 11);
        assert!(plan.verify(NodeId(3), 11, v));
        assert!(!plan.verify(NodeId(3), 11, 0));
        assert!(!plan.verify(NodeId(3), 11, v - 1));
        // A 60%-scale Trojan that evades the EWMA detector is caught.
        assert!(!plan.verify(NodeId(3), 11, (u64::from(v) * 60 / 100) as u32));
    }

    #[test]
    fn different_keys_give_different_schedules() {
        let a = ProbePlan::default_band(1);
        let b = ProbePlan::default_band(2);
        let same = (0..64u64)
            .filter(|e| a.expected(NodeId(0), *e) == b.expected(NodeId(0), *e))
            .count();
        assert!(same < 8, "schedules should diverge: {same}/64 equal");
    }

    #[test]
    fn campaign_partitions_sources() {
        let plan = ProbePlan::default_band(9);
        let mut c = ProbeCampaign::new();
        // Core 1 clean in both epochs; core 2 tampered once (duty-cycled).
        c.record(&plan, NodeId(1), 0, plan.expected(NodeId(1), 0));
        c.record(&plan, NodeId(1), 1, plan.expected(NodeId(1), 1));
        c.record(&plan, NodeId(2), 0, plan.expected(NodeId(2), 0));
        c.record(&plan, NodeId(2), 1, 0);
        assert_eq!(c.clean_sources(), vec![NodeId(1)]);
        assert_eq!(c.tampered_sources(), vec![NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "probe band must be non-empty")]
    fn empty_band_rejected() {
        let _ = ProbePlan::new(0, 100, 100);
    }
}
