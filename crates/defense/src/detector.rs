use htpb_noc::{FnvHashMap, NodeId};
use htpb_power::RequestEnvelope;

/// Tuning of the [`RequestAnomalyDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// EWMA smoothing factor in `(0, 1]`; higher = faster tracking.
    pub alpha: f64,
    /// A request below `drop_ratio × EWMA` is flagged as anomalous.
    pub drop_ratio: f64,
    /// Number of requests a core must have submitted before the detector
    /// starts judging it (the EWMA needs history to mean anything).
    pub warmup_samples: u32,
    /// Optional plausibility envelope (see
    /// [`htpb_power::PowerModel::request_envelope`]). A request outside it
    /// cannot be honest regardless of history, so it is flagged even during
    /// warmup and never folded into the EWMA. This is the same envelope the
    /// hardened manager clamps against — detector and clamp share one
    /// definition of "plausible".
    pub envelope: Option<RequestEnvelope>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            alpha: 0.25,
            drop_ratio: 0.5,
            warmup_samples: 2,
            envelope: None,
        }
    }
}

/// One flagged request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent {
    /// The requesting core.
    pub core: NodeId,
    /// Budgeting epoch in which the anomaly was observed.
    pub epoch: u64,
    /// The suspicious request value (mW).
    pub observed_mw: f64,
    /// The core's EWMA at the time (mW).
    pub expected_mw: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CoreTrack {
    ewma: f64,
    samples: u32,
}

/// Manager-side statistical tamper detector.
///
/// Power demand is strongly autocorrelated epoch to epoch — an application
/// does not go from asking 2.5 W to asking 0 W in one epoch unless it
/// exited (which the runtime knows) or someone rewrote the packet. The
/// detector keeps a per-core EWMA of requests and flags collapses below a
/// configurable fraction of it. Flagged values are *not* folded into the
/// EWMA, so a sustained attack keeps producing events rather than training
/// the detector to accept the tampered level.
#[derive(Debug, Clone)]
pub struct RequestAnomalyDetector {
    config: DetectorConfig,
    tracks: FnvHashMap<NodeId, CoreTrack>,
    events: Vec<AnomalyEvent>,
}

impl RequestAnomalyDetector {
    /// Creates a detector with the given tuning.
    #[must_use]
    pub fn new(config: DetectorConfig) -> Self {
        RequestAnomalyDetector {
            config,
            tracks: FnvHashMap::default(),
            events: Vec::new(),
        }
    }

    /// Feeds one received request; returns the anomaly event if flagged.
    pub fn observe(&mut self, core: NodeId, epoch: u64, request_mw: f64) -> Option<AnomalyEvent> {
        let track = self.tracks.entry(core).or_default();
        if let Some(env) = self.config.envelope {
            if !env.contains(request_mw) {
                let event = AnomalyEvent {
                    core,
                    epoch,
                    observed_mw: request_mw,
                    expected_mw: track.ewma,
                };
                self.events.push(event);
                return Some(event);
            }
        }
        if track.samples >= self.config.warmup_samples
            && request_mw < self.config.drop_ratio * track.ewma
        {
            let event = AnomalyEvent {
                core,
                epoch,
                observed_mw: request_mw,
                expected_mw: track.ewma,
            };
            self.events.push(event);
            return Some(event);
        }
        track.ewma = if track.samples == 0 {
            request_mw
        } else {
            self.config.alpha * request_mw + (1.0 - self.config.alpha) * track.ewma
        };
        track.samples += 1;
        None
    }

    /// All anomalies flagged so far, in observation order.
    #[must_use]
    pub fn events(&self) -> &[AnomalyEvent] {
        &self.events
    }

    /// Distinct cores flagged at least once.
    #[must_use]
    pub fn flagged_cores(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.events.iter().map(|e| e.core).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Cores the detector has seen but never flagged — the "provably clean"
    /// population the localizer subtracts.
    #[must_use]
    pub fn clean_cores(&self) -> Vec<NodeId> {
        let flagged = self.flagged_cores();
        let mut v: Vec<NodeId> = self
            .tracks
            .keys()
            .copied()
            .filter(|c| !flagged.contains(c))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> RequestAnomalyDetector {
        RequestAnomalyDetector::new(DetectorConfig::default())
    }

    #[test]
    fn steady_requests_never_flagged() {
        let mut d = det();
        for epoch in 0..20 {
            assert!(d.observe(NodeId(1), epoch, 2_500.0).is_none());
        }
        assert!(d.events().is_empty());
        assert_eq!(d.clean_cores(), vec![NodeId(1)]);
    }

    #[test]
    fn zeroed_request_flagged_after_warmup() {
        let mut d = det();
        d.observe(NodeId(1), 0, 2_500.0);
        d.observe(NodeId(1), 1, 2_500.0);
        let e = d.observe(NodeId(1), 2, 0.0).expect("flagged");
        assert_eq!(e.core, NodeId(1));
        assert_eq!(e.epoch, 2);
        assert!((e.expected_mw - 2_500.0).abs() < 1e-9);
        assert_eq!(d.flagged_cores(), vec![NodeId(1)]);
    }

    #[test]
    fn warmup_suppresses_early_alarms() {
        let mut d = det();
        // First two samples are never judged, even if wild.
        assert!(d.observe(NodeId(3), 0, 2_500.0).is_none());
        assert!(d.observe(NodeId(3), 1, 0.0).is_none());
    }

    #[test]
    fn gradual_decline_tracks_without_alarm() {
        let mut d = det();
        let mut v = 2_500.0;
        for epoch in 0..30 {
            assert!(
                d.observe(NodeId(1), epoch, v).is_none(),
                "flagged at {v} mW"
            );
            v *= 0.9; // an app winding down by 10% per epoch is legitimate
        }
    }

    #[test]
    fn flagged_values_do_not_poison_the_ewma() {
        let mut d = det();
        d.observe(NodeId(1), 0, 2_500.0);
        d.observe(NodeId(1), 1, 2_500.0);
        // A sustained attack: every epoch zeroed, every epoch flagged.
        for epoch in 2..12 {
            assert!(
                d.observe(NodeId(1), epoch, 0.0).is_some(),
                "epoch {epoch} not flagged"
            );
        }
        assert_eq!(d.events().len(), 10);
    }

    #[test]
    fn scale_tamper_below_threshold_flagged() {
        let mut d = det();
        d.observe(NodeId(2), 0, 2_000.0);
        d.observe(NodeId(2), 1, 2_000.0);
        // 25%-scale Trojan: 500 < 0.5 * 2000.
        assert!(d.observe(NodeId(2), 2, 500.0).is_some());
        // 60%-scale Trojan evades this threshold (documented residual risk).
        let mut d2 = det();
        d2.observe(NodeId(2), 0, 2_000.0);
        d2.observe(NodeId(2), 1, 2_000.0);
        assert!(d2.observe(NodeId(2), 2, 1_200.0).is_none());
    }

    #[test]
    fn envelope_flags_implausible_requests_even_in_warmup() {
        let model = htpb_power::PowerModel::default_45nm();
        let mut d = RequestAnomalyDetector::new(DetectorConfig {
            envelope: Some(model.request_envelope()),
            ..DetectorConfig::default()
        });
        // First-ever sample, but physically impossible: flagged anyway.
        assert!(d.observe(NodeId(4), 0, f64::INFINITY).is_some());
        assert!(d.observe(NodeId(4), 0, -10.0).is_some());
        assert!(d
            .observe(NodeId(4), 0, model.peak_power_mw() * 2.0)
            .is_some());
        // Plausible values still enjoy warmup grace and EWMA judgement.
        assert!(d.observe(NodeId(4), 1, 2_000.0).is_none());
        assert!(d.observe(NodeId(4), 2, 2_000.0).is_none());
        assert!(d.observe(NodeId(4), 3, 0.0).is_some());
        // Implausible values never trained the EWMA.
        let e = d.observe(NodeId(4), 4, 0.0).unwrap();
        assert!((e.expected_mw - 2_000.0).abs() < 1e-9);
    }
}
