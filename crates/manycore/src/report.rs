use crate::app::{AppId, AppRole};
use crate::benchmark::Benchmark;

/// Measured performance of one application over a measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct AppPerformance {
    /// Application id.
    pub id: AppId,
    /// Benchmark the application runs.
    pub benchmark: Benchmark,
    /// Attacker or legitimate.
    pub role: AppRole,
    /// Number of threads (cores).
    pub threads: usize,
    /// The paper's θ_k (Definition 1): Σ over the app's cores of
    /// `IPC(j, k, f_j) · f_j`, i.e. aggregate instructions per nanosecond,
    /// averaged over the measurement window.
    pub theta: f64,
    /// Cores of this app currently starved below the lowest DVFS point.
    pub starved_cores: usize,
}

/// Performance of every application over one measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceReport {
    /// Length of the measurement window in cycles (= ns).
    pub window_cycles: u64,
    /// Per-application results, in application-id order.
    pub apps: Vec<AppPerformance>,
    /// Power-request packets from *legitimate* (victim-candidate) cores
    /// delivered to the manager during the window. Attacker-agent requests
    /// are excluded: the Trojan never modifies them, so including them
    /// would cap the observable infection rate below 1.
    pub power_requests_delivered: u64,
    /// Of those, how many were tampered with en route.
    pub power_requests_modified: u64,
    /// Hardened-manager degradation events in this window: epochs in which
    /// a previously-seen core went silent and a hold/decay request was
    /// synthesized for it. Zero unless hardening is enabled (an extension
    /// beyond the paper's trusting manager).
    pub requests_timed_out: u64,
    /// Requests rejected by checksum verification during the window.
    pub requests_rejected: u64,
    /// Requests pulled into the power model's plausibility envelope by the
    /// hardened manager during the window.
    pub requests_clamped: u64,
}

impl PerformanceReport {
    /// The infection rate over this window: the fraction of delivered power
    /// requests that a Trojan modified (Section V-B).
    #[must_use]
    pub fn infection_rate(&self) -> f64 {
        if self.power_requests_delivered == 0 {
            0.0
        } else {
            self.power_requests_modified as f64 / self.power_requests_delivered as f64
        }
    }

    /// Sum of all degradation events (timeouts + rejects + clamps) in this
    /// window — how hard the hardened manager had to work to keep budgeting
    /// sane.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn degradation_total(&self) -> u64 {
        self.requests_timed_out + self.requests_rejected + self.requests_clamped
    }

    /// Looks up one application's performance.
    #[must_use]
    pub fn app(&self, id: AppId) -> Option<&AppPerformance> {
        self.apps.iter().find(|a| a.id == id)
    }

    /// Sum of θ over the victim set Γ.
    #[must_use]
    pub fn victim_theta(&self) -> f64 {
        self.apps
            .iter()
            .filter(|a| a.role == AppRole::Legitimate)
            .map(|a| a.theta)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> PerformanceReport {
        PerformanceReport {
            window_cycles: 1000,
            apps: vec![
                AppPerformance {
                    id: AppId(0),
                    benchmark: Benchmark::Barnes,
                    role: AppRole::Malicious,
                    threads: 4,
                    theta: 6.0,
                    starved_cores: 0,
                },
                AppPerformance {
                    id: AppId(1),
                    benchmark: Benchmark::Raytrace,
                    role: AppRole::Legitimate,
                    threads: 4,
                    theta: 2.0,
                    starved_cores: 4,
                },
            ],
            power_requests_delivered: 10,
            power_requests_modified: 4,
            requests_timed_out: 0,
            requests_rejected: 0,
            requests_clamped: 0,
        }
    }

    #[test]
    fn degradation_total_sums_counters() {
        let mut r = report();
        r.requests_timed_out = 3;
        r.requests_rejected = 2;
        r.requests_clamped = 1;
        assert_eq!(r.degradation_total(), 6);
    }

    #[test]
    fn infection_rate_and_partition_sums() {
        let r = report();
        assert!((r.infection_rate() - 0.4).abs() < 1e-12);
        assert!((r.victim_theta() - 2.0).abs() < 1e-12);
        assert!(r.app(AppId(1)).is_some());
        assert!(r.app(AppId(9)).is_none());
    }

    #[test]
    fn empty_window_infection_rate_is_zero() {
        let mut r = report();
        r.power_requests_delivered = 0;
        assert_eq!(r.infection_rate(), 0.0);
    }
}
