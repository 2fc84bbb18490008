use std::collections::BTreeMap;

use crate::alloc::PowerAllocator;
use crate::model::PowerModel;
use crate::request::{PowerGrant, PowerRequest};

/// Graceful-degradation policy for a hardened manager (an extension beyond
/// the paper, which assumes a perfectly reliable request channel).
///
/// With hardening enabled the manager stops trusting the transport:
///
/// * **Request timeout → hold-last-grant.** A core that requested before
///   but is silent this epoch (its `POWER_REQ` was lost, stalled or
///   dropped) is treated as still wanting its last grant, for up to
///   [`hold_epochs`](HardeningConfig::hold_epochs) consecutive misses.
/// * **Bounded staleness → decay to a floor.** Past the hold window the
///   synthesized value decays geometrically toward
///   [`floor_mw`](HardeningConfig::floor_mw), so a dead tile cannot pin
///   budget forever on a stale grant.
/// * **Plausibility clamp.** Incoming requests are clamped into the power
///   model's [`request_envelope`](crate::PowerModel::request_envelope);
///   corrupted or hostile values cannot poison the allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardeningConfig {
    /// Consecutive missed epochs during which the last grant is held as-is.
    pub hold_epochs: u32,
    /// Geometric decay factor (per epoch past the hold window) applied to
    /// the held value's distance from the floor. Clamped to `[0, 1]`.
    pub decay: f64,
    /// The value (mW) a stale hold decays toward.
    pub floor_mw: f64,
}

impl Default for HardeningConfig {
    fn default() -> Self {
        HardeningConfig {
            hold_epochs: 2,
            decay: 0.5,
            floor_mw: 0.0,
        }
    }
}

/// Running tallies of degradation events in a hardened manager. All counters
/// are cumulative since construction or [`GlobalManager::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationCounters {
    /// Epochs in which a previously-seen core submitted no request and a
    /// hold/decay value was synthesized for it.
    pub timeouts: u64,
    /// Requests rejected upstream (e.g. checksum mismatch) and reported via
    /// [`GlobalManager::note_rejected_request`].
    pub rejects: u64,
    /// Requests pulled into the power model's plausibility envelope.
    pub clamps: u64,
}

impl DegradationCounters {
    /// Sum of all degradation events.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.timeouts + self.rejects + self.clamps
    }
}

/// Last-grant state retained per core for the timeout hold.
#[derive(Debug, Clone, Copy)]
struct HeldGrant {
    /// The value a synthesized request would carry, in mW.
    mw: f64,
    /// Consecutive epochs the core has been silent.
    missed: u32,
}

/// Aggregate outcome of one budgeting epoch (diagnostics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSummary {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Number of distinct requesting cores.
    pub requesters: usize,
    /// Sum of (possibly tampered) requests the manager saw, in mW.
    pub total_requested_mw: f64,
    /// Sum of issued grants, in mW.
    pub total_granted_mw: f64,
}

/// The global manager core: collects `POWER_REQ` values and divides the
/// chip's power budget among requesters once per budgeting epoch
/// (Section II-A of the paper).
///
/// The manager is transport-agnostic: the many-core system layer feeds it
/// the payloads of delivered `POWER_REQ` packets via [`GlobalManager::submit`]
/// and ships the returned grants back as `POWER_GRANT` packets. The manager
/// trusts every value it receives — it has no mechanism to detect that a
/// request was modified in flight, which is the vulnerability under study.
pub struct GlobalManager {
    budget_mw: f64,
    allocator: Box<dyn PowerAllocator>,
    pending: Vec<PowerRequest>,
    epoch: u64,
    last_summary: Option<EpochSummary>,
    history: Vec<EpochSummary>,
    hardening: Option<HardeningConfig>,
    degradation: DegradationCounters,
    held: BTreeMap<u16, HeldGrant>,
}

/// Epoch summaries retained by [`GlobalManager::history`].
const HISTORY_CAPACITY: usize = 1024;

impl GlobalManager {
    /// Creates a manager with a chip-level budget (mW) and a policy.
    #[must_use]
    pub fn new(budget_mw: f64, allocator: Box<dyn PowerAllocator>) -> Self {
        GlobalManager {
            budget_mw: budget_mw.max(0.0),
            allocator,
            pending: Vec::new(),
            epoch: 0,
            last_summary: None,
            history: Vec::new(),
            hardening: None,
            degradation: DegradationCounters::default(),
            held: BTreeMap::new(),
        }
    }

    /// Enables or disables graceful-degradation hardening. Disabling also
    /// drops the per-core hold state (counters are kept for post-mortems).
    pub fn set_hardening(&mut self, cfg: Option<HardeningConfig>) {
        self.hardening = cfg;
        if self.hardening.is_none() {
            self.held.clear();
        }
    }

    /// The active hardening policy, if any.
    #[must_use]
    pub fn hardening(&self) -> Option<HardeningConfig> {
        self.hardening
    }

    /// Degradation event tallies (cumulative since construction or reset).
    #[must_use]
    pub fn degradation(&self) -> DegradationCounters {
        self.degradation
    }

    /// Records that a request was rejected before submission (e.g. a
    /// `POWER_REQ` whose checksum failed verification at the transport
    /// layer). The manager only tallies it; the caller decides what value,
    /// if any, to submit in its place.
    pub fn note_rejected_request(&mut self) {
        self.degradation.rejects += 1;
    }

    /// The chip-level budget in mW.
    #[must_use]
    pub fn budget_mw(&self) -> f64 {
        self.budget_mw
    }

    /// Records a request received this epoch. A second request from the same
    /// core within one epoch supersedes the first.
    pub fn submit(&mut self, request: PowerRequest) {
        if let Some(existing) = self.pending.iter_mut().find(|r| r.core == request.core) {
            *existing = request;
        } else {
            self.pending.push(request);
        }
    }

    /// Number of requests waiting for the next epoch.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Clamps pending requests into the model's plausibility envelope and
    /// synthesizes hold/decay requests for previously-seen cores that went
    /// silent this epoch. Returns the cores that genuinely requested.
    fn apply_hardening(&mut self, cfg: HardeningConfig, model: &PowerModel) -> Vec<u16> {
        let envelope = model.request_envelope();
        for r in &mut self.pending {
            if !envelope.contains(r.milliwatts) {
                r.milliwatts = envelope.clamp(r.milliwatts);
                self.degradation.clamps += 1;
            }
        }
        let present: Vec<u16> = self.pending.iter().map(|r| r.core).collect();
        let decay = cfg.decay.clamp(0.0, 1.0);
        let floor = envelope.clamp(cfg.floor_mw);
        for (&core, held) in &mut self.held {
            if present.contains(&core) {
                held.missed = 0;
                continue;
            }
            held.missed += 1;
            self.degradation.timeouts += 1;
            if held.missed > cfg.hold_epochs {
                held.mw = floor + (held.mw - floor) * decay;
                if held.mw < floor {
                    held.mw = floor;
                }
            }
            self.pending.push(PowerRequest::new(core, held.mw));
        }
        present
    }

    /// Closes the epoch: runs the allocator over all pending requests and
    /// returns the grants (sorted by core id). Pending state is cleared.
    ///
    /// With hardening enabled (see [`HardeningConfig`]), pending requests
    /// are first clamped into the model's plausibility envelope and silent
    /// cores receive synthesized hold/decay requests — so the returned
    /// grants (and the epoch summary's `requesters` count) can cover cores
    /// that sent nothing this epoch.
    pub fn run_epoch(&mut self, model: &PowerModel) -> Vec<PowerGrant> {
        let genuine = self.hardening.map(|cfg| self.apply_hardening(cfg, model));
        self.pending.sort_by_key(|r| r.core);
        let mut grants = self
            .allocator
            .allocate(&self.pending, self.budget_mw, model);
        grants.sort_by_key(|g| g.core);
        #[cfg(debug_assertions)]
        if let Some(violation) =
            crate::alloc::audit_grant_contract(&grants, &self.pending, self.budget_mw)
        {
            panic!(
                "allocator {} violated the budget contract at epoch {}: {violation}",
                self.allocator.name(),
                self.epoch
            );
        }
        let summary = EpochSummary {
            epoch: self.epoch,
            requesters: self.pending.len(),
            total_requested_mw: self.pending.iter().map(|r| r.milliwatts.max(0.0)).sum(),
            total_granted_mw: grants.iter().map(|g| g.milliwatts).sum(),
        };
        self.last_summary = Some(summary);
        if self.history.len() == HISTORY_CAPACITY {
            self.history.remove(0);
        }
        self.history.push(summary);
        self.epoch += 1;
        self.pending.clear();
        if let Some(genuine) = genuine {
            // Only cores that actually got a request through refresh their
            // hold; timed-out cores keep the (possibly decayed) held value.
            for g in &grants {
                if genuine.contains(&g.core) {
                    self.held.insert(
                        g.core,
                        HeldGrant {
                            mw: g.milliwatts,
                            missed: 0,
                        },
                    );
                }
            }
        }
        grants
    }

    /// Summaries of the most recent epochs (up to 1024), oldest first —
    /// the time series behind demand/grant trend plots and the anomaly
    /// detector's training data.
    #[must_use]
    pub fn history(&self) -> &[EpochSummary] {
        &self.history
    }

    /// Summary of the most recent epoch, if any ran.
    #[must_use]
    pub fn last_summary(&self) -> Option<EpochSummary> {
        self.last_summary
    }

    /// Epochs completed so far.
    #[must_use]
    pub fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// Resets allocator controller state (e.g. between independent runs).
    pub fn reset(&mut self) {
        self.allocator.reset();
        self.pending.clear();
        self.epoch = 0;
        self.last_summary = None;
        self.history.clear();
        self.degradation = DegradationCounters::default();
        self.held.clear();
    }
}

impl std::fmt::Debug for GlobalManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalManager")
            .field("budget_mw", &self.budget_mw)
            .field("allocator", &self.allocator.name())
            .field("pending", &self.pending.len())
            .field("epoch", &self.epoch)
            .field("hardened", &self.hardening.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{FairShareAllocator, GreedyAllocator};

    #[test]
    fn epoch_clears_pending_and_counts() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(4_000.0, Box::new(FairShareAllocator::new()));
        gm.submit(PowerRequest::new(0, 1_000.0));
        gm.submit(PowerRequest::new(1, 2_000.0));
        assert_eq!(gm.pending_requests(), 2);
        let grants = gm.run_epoch(&model);
        assert_eq!(grants.len(), 2);
        assert_eq!(gm.pending_requests(), 0);
        assert_eq!(gm.epochs_run(), 1);
        let s = gm.last_summary().unwrap();
        assert_eq!(s.requesters, 2);
        assert!((s.total_requested_mw - 3_000.0).abs() < 1e-9);
        assert!(s.total_granted_mw <= 4_000.0 + 1e-9);
    }

    #[test]
    fn duplicate_submission_supersedes() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        gm.submit(PowerRequest::new(5, 3_000.0));
        gm.submit(PowerRequest::new(5, 100.0));
        assert_eq!(gm.pending_requests(), 1);
        let grants = gm.run_epoch(&model);
        assert_eq!(grants.len(), 1);
        assert!((grants[0].milliwatts - 100.0).abs() < 1e-9);
    }

    #[test]
    fn grants_sorted_by_core() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        for core in [9u16, 2, 7, 0] {
            gm.submit(PowerRequest::new(core, 500.0));
        }
        let grants = gm.run_epoch(&model);
        let cores: Vec<u16> = grants.iter().map(|g| g.core).collect();
        assert_eq!(cores, vec![0, 2, 7, 9]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(1_000.0, Box::new(GreedyAllocator::new()));
        gm.submit(PowerRequest::new(0, 1.0));
        gm.run_epoch(&model);
        gm.submit(PowerRequest::new(1, 1.0));
        gm.reset();
        assert_eq!(gm.pending_requests(), 0);
        assert_eq!(gm.epochs_run(), 0);
        assert!(gm.last_summary().is_none());
    }

    #[test]
    fn history_accumulates_and_is_bounded_logically() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(2_000.0, Box::new(GreedyAllocator::new()));
        for i in 0..5 {
            gm.submit(PowerRequest::new(0, 100.0 * f64::from(i)));
            gm.run_epoch(&model);
        }
        let h = gm.history();
        assert_eq!(h.len(), 5);
        assert_eq!(h[0].epoch, 0);
        assert_eq!(h[4].epoch, 4);
        assert!((h[3].total_requested_mw - 300.0).abs() < 1e-9);
        gm.reset();
        assert!(gm.history().is_empty());
    }

    #[test]
    fn unhardened_manager_ignores_silent_cores() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        gm.submit(PowerRequest::new(0, 1_000.0));
        gm.submit(PowerRequest::new(1, 1_000.0));
        gm.run_epoch(&model);
        gm.submit(PowerRequest::new(1, 1_000.0));
        let grants = gm.run_epoch(&model);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].core, 1);
        assert_eq!(gm.degradation(), DegradationCounters::default());
    }

    #[test]
    fn timeout_holds_last_grant() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        gm.set_hardening(Some(HardeningConfig::default()));
        gm.submit(PowerRequest::new(0, 1_500.0));
        gm.submit(PowerRequest::new(1, 1_500.0));
        let first = gm.run_epoch(&model);
        let core0_grant = first[0].milliwatts;
        assert!(core0_grant > 0.0);

        // Core 0's request is lost this epoch; the manager synthesizes it.
        gm.submit(PowerRequest::new(1, 1_500.0));
        let grants = gm.run_epoch(&model);
        assert_eq!(grants.len(), 2);
        assert_eq!(grants[0].core, 0);
        assert!((grants[0].milliwatts - core0_grant).abs() < 1e-9);
        assert_eq!(gm.degradation().timeouts, 1);
        assert_eq!(gm.last_summary().unwrap().requesters, 2);
    }

    #[test]
    fn stale_hold_decays_to_floor() {
        let model = PowerModel::default_45nm();
        let cfg = HardeningConfig {
            hold_epochs: 1,
            decay: 0.5,
            floor_mw: 100.0,
        };
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        gm.set_hardening(Some(cfg));
        gm.submit(PowerRequest::new(0, 1_600.0));
        let held = gm.run_epoch(&model)[0].milliwatts;

        let mut last = held;
        for epoch in 0..20 {
            let grants = gm.run_epoch(&model);
            assert_eq!(grants.len(), 1, "silent core still served");
            let g = grants[0].milliwatts;
            if epoch == 0 {
                // Within the hold window: value unchanged.
                assert!((g - held).abs() < 1e-9);
            } else {
                assert!(g <= last + 1e-9, "decay must be monotone");
            }
            last = g;
        }
        // Geometric decay toward the floor converges.
        assert!((last - cfg.floor_mw).abs() < 1.0, "grant {last} != floor");
        assert_eq!(gm.degradation().timeouts, 20);
    }

    #[test]
    fn reappearing_core_resets_the_hold() {
        let model = PowerModel::default_45nm();
        let cfg = HardeningConfig {
            hold_epochs: 0,
            decay: 0.0,
            floor_mw: 0.0,
        };
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        gm.set_hardening(Some(cfg));
        gm.submit(PowerRequest::new(0, 1_600.0));
        gm.run_epoch(&model);
        // Instantly decayed to the floor while silent.
        assert!(gm.run_epoch(&model)[0].milliwatts.abs() < 1e-9);
        // The core comes back; its hold refreshes from the new grant.
        gm.submit(PowerRequest::new(0, 1_600.0));
        let g = gm.run_epoch(&model)[0].milliwatts;
        assert!(g > 1_000.0);
        assert!((gm.run_epoch(&model)[0].milliwatts).abs() < 1e-9);
    }

    #[test]
    fn implausible_requests_are_clamped() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(100_000.0, Box::new(GreedyAllocator::new()));
        gm.set_hardening(Some(HardeningConfig::default()));
        gm.submit(PowerRequest::new(0, f64::NAN));
        gm.submit(PowerRequest::new(1, f64::INFINITY));
        gm.submit(PowerRequest::new(2, -50.0));
        gm.submit(PowerRequest::new(3, 1_000.0));
        let grants = gm.run_epoch(&model);
        assert_eq!(gm.degradation().clamps, 3);
        assert!(grants[0].milliwatts.abs() < 1e-9, "NaN earns nothing");
        assert!(
            grants[1].milliwatts <= model.peak_power_mw() + 1e-9,
            "infinite request capped at the envelope"
        );
        assert!(grants[2].milliwatts.abs() < 1e-9);
        assert!((grants[3].milliwatts - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn rejected_requests_are_tallied_and_reset_clears_state() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        gm.set_hardening(Some(HardeningConfig::default()));
        gm.note_rejected_request();
        gm.note_rejected_request();
        assert_eq!(gm.degradation().rejects, 2);
        gm.submit(PowerRequest::new(0, 1_000.0));
        gm.run_epoch(&model);
        gm.reset();
        assert_eq!(gm.degradation(), DegradationCounters::default());
        // Hold state cleared too: silence after reset synthesizes nothing.
        let grants = gm.run_epoch(&model);
        assert!(grants.is_empty());
    }

    #[test]
    fn disabling_hardening_drops_hold_state() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(10_000.0, Box::new(GreedyAllocator::new()));
        gm.set_hardening(Some(HardeningConfig::default()));
        gm.submit(PowerRequest::new(0, 1_000.0));
        gm.run_epoch(&model);
        gm.set_hardening(None);
        assert!(gm.run_epoch(&model).is_empty());
        assert!(gm.hardening().is_none());
    }

    #[test]
    fn negative_budget_clamped_to_zero() {
        let model = PowerModel::default_45nm();
        let mut gm = GlobalManager::new(-5.0, Box::new(GreedyAllocator::new()));
        assert_eq!(gm.budget_mw(), 0.0);
        gm.submit(PowerRequest::new(0, 100.0));
        let grants = gm.run_epoch(&model);
        assert!(grants[0].milliwatts.abs() < 1e-12);
    }
}
