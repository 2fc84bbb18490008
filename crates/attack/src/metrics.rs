//! Definitions 1–5 of the paper: performance, performance change, attack
//! effect and power-budget sensitivity.

use htpb_manycore::{AppId, AppRole, BenchmarkProfile, PerformanceReport};
use htpb_power::DvfsTable;

/// The paper's Definition 2 — application `k`'s performance change
/// `Θ_k = θ_k / Λ_k`, where `θ_k` is measured under attack and `Λ_k` on the
/// clean chip.
///
/// Returns `None` when the clean baseline is zero (the app never ran) or
/// the app is missing from either report.
#[must_use]
pub(crate) fn performance_change(
    under_attack: &PerformanceReport,
    clean: &PerformanceReport,
    app: AppId,
) -> Option<f64> {
    let theta = under_attack.app(app)?.theta;
    let lambda = clean.app(app)?.theta;
    (lambda > 0.0).then(|| theta / lambda)
}

/// The paper's Definition 3 — the attack effect
/// `Q(Δ, Γ) = (V · Σ_{a∈Δ} Θ_a) / (A · Σ_{v∈Γ} Θ_v)`,
/// where `Δ`/`Γ` are the attacker/victim application sets and `A`/`V` their
/// cardinalities. On a clean chip every `Θ` is 1 and `Q = 1`; the larger
/// `Q`, the stronger the attack.
///
/// Roles are taken from the reports (applications marked
/// [`AppRole::Malicious`] form Δ). Returns `None` if either set is empty or
/// any baseline θ is zero.
#[must_use]
pub(crate) fn attack_effect(
    under_attack: &PerformanceReport,
    clean: &PerformanceReport,
) -> Option<f64> {
    let mut sum_attackers = 0.0;
    let mut sum_victims = 0.0;
    let mut attackers = 0usize;
    let mut victims = 0usize;
    for app in &under_attack.apps {
        let change = performance_change(under_attack, clean, app.id)?;
        match app.role {
            AppRole::Malicious => {
                sum_attackers += change;
                attackers += 1;
            }
            AppRole::Legitimate => {
                sum_victims += change;
                victims += 1;
            }
        }
    }
    if attackers == 0 || victims == 0 || sum_victims <= 0.0 {
        return None;
    }
    Some((victims as f64 * sum_attackers) / (attackers as f64 * sum_victims))
}

/// The paper's Definitions 4–5 — power-budget sensitivity
/// `φ(j, z) = Σ_{i=1}^{s-1} |IPC(j, z, τ_i) − IPC(j, z, τ_{i+1})| / |τ_i − τ_{i+1}|`.
///
/// `IPC` here is measured against the chip's fixed reference clock (the
/// 1 GHz NoC clock), i.e. instructions per nanosecond at the operating
/// point — the same quantity whose sum Definition 1 calls θ. Under this
/// reading a compute-bound application (throughput ∝ f) has high
/// sensitivity and a memory-saturated one low sensitivity, matching the
/// paper's discussion ("performance of an instruction-bounded application
/// is typically hit harder than that of memory-bounded applications",
/// Section IV).
///
/// Because every core running application `z` shares the same profile,
/// `Φ_k` (Definition 5, the per-application mean over cores) equals
/// `φ(j, k)` and this function serves for both.
#[must_use]
pub fn sensitivity_phi(profile: &BenchmarkProfile, table: &DvfsTable) -> f64 {
    let mut phi = 0.0;
    let levels: Vec<f64> = table.iter_levels().map(|l| table.freq_ghz(l)).collect();
    for pair in levels.windows(2) {
        let (f1, f2) = (pair[0], pair[1]);
        phi += (profile.throughput(f1) - profile.throughput(f2)).abs() / (f1 - f2).abs();
    }
    phi
}

/// A bundled attack-vs-baseline comparison: per-application performance
/// changes plus the aggregate Q value, as plotted in Fig. 5 and Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Measured infection rate of the attacked run.
    pub infection_rate: f64,
    /// Per-application Θ values (id order follows the report).
    pub changes: Vec<(AppId, AppRole, f64)>,
    /// The attack effect Q(Δ, Γ).
    pub q_value: f64,
}

impl AttackOutcome {
    /// Builds the outcome from an attacked report and its clean baseline.
    ///
    /// Returns `None` if either application set is empty or any baseline θ
    /// is zero.
    #[must_use]
    pub fn compare(under_attack: &PerformanceReport, clean: &PerformanceReport) -> Option<Self> {
        let q_value = attack_effect(under_attack, clean)?;
        let mut changes = Vec::with_capacity(under_attack.apps.len());
        for app in &under_attack.apps {
            changes.push((
                app.id,
                app.role,
                performance_change(under_attack, clean, app.id)?,
            ));
        }
        Some(AttackOutcome {
            infection_rate: under_attack.infection_rate(),
            changes,
            q_value,
        })
    }

    /// Θ of the best-performing attacker.
    #[must_use]
    pub fn max_attacker_gain(&self) -> f64 {
        self.changes
            .iter()
            .filter(|(_, r, _)| *r == AppRole::Malicious)
            .map(|(_, _, c)| *c)
            .fold(0.0, f64::max)
    }

    /// Θ of the worst-hit victim.
    #[must_use]
    pub fn min_victim_change(&self) -> f64 {
        self.changes
            .iter()
            .filter(|(_, r, _)| *r == AppRole::Legitimate)
            .map(|(_, _, c)| *c)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htpb_manycore::{AppPerformance, Benchmark};

    fn report(thetas: &[(AppRole, f64)], delivered: u64, modified: u64) -> PerformanceReport {
        PerformanceReport {
            window_cycles: 1_000,
            apps: thetas
                .iter()
                .enumerate()
                .map(|(i, (role, theta))| AppPerformance {
                    id: AppId(i as u16),
                    benchmark: Benchmark::Vips,
                    role: *role,
                    threads: 4,
                    theta: *theta,
                    starved_cores: 0,
                })
                .collect(),
            power_requests_delivered: delivered,
            power_requests_modified: modified,
            requests_timed_out: 0,
            requests_rejected: 0,
            requests_clamped: 0,
        }
    }

    #[test]
    fn clean_chip_q_is_one() {
        let clean = report(
            &[(AppRole::Malicious, 4.0), (AppRole::Legitimate, 2.0)],
            10,
            0,
        );
        assert!((attack_effect(&clean, &clean).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn q_matches_hand_computation() {
        // Mix-4 shape: 3 attackers, 1 victim.
        let clean = report(
            &[
                (AppRole::Malicious, 2.0),
                (AppRole::Malicious, 2.0),
                (AppRole::Malicious, 2.0),
                (AppRole::Legitimate, 2.0),
            ],
            10,
            0,
        );
        let attacked = report(
            &[
                (AppRole::Malicious, 2.6), // Θ = 1.3
                (AppRole::Malicious, 2.6),
                (AppRole::Malicious, 2.6),
                (AppRole::Legitimate, 0.4), // Θ = 0.2
            ],
            10,
            9,
        );
        // Q = (1 * 3.9) / (3 * 0.2) = 6.5
        let q = attack_effect(&attacked, &clean).unwrap();
        assert!((q - 6.5).abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn performance_change_requires_positive_baseline() {
        let clean = report(&[(AppRole::Legitimate, 0.0)], 0, 0);
        let attacked = report(&[(AppRole::Legitimate, 1.0)], 0, 0);
        assert_eq!(performance_change(&attacked, &clean, AppId(0)), None);
        assert_eq!(performance_change(&attacked, &clean, AppId(7)), None);
    }

    #[test]
    fn attack_effect_requires_both_sets() {
        let only_victims = report(
            &[(AppRole::Legitimate, 1.0), (AppRole::Legitimate, 1.0)],
            0,
            0,
        );
        assert_eq!(attack_effect(&only_victims, &only_victims), None);
    }

    #[test]
    fn sensitivity_orders_compute_vs_memory_bound() {
        let table = DvfsTable::default_six_level();
        let compute = sensitivity_phi(&Benchmark::Blackscholes.profile(), &table);
        let memory = sensitivity_phi(&Benchmark::Canneal.profile(), &table);
        assert!(
            compute > memory * 1.5,
            "blackscholes {compute} vs canneal {memory}"
        );
        // Sensitivity of the perfectly linear profile approaches
        // (s-1) * slope; both are positive.
        assert!(memory > 0.0);
    }

    #[test]
    fn outcome_extracts_extremes() {
        let clean = report(
            &[
                (AppRole::Malicious, 2.0),
                (AppRole::Legitimate, 2.0),
                (AppRole::Legitimate, 2.0),
            ],
            10,
            0,
        );
        let attacked = report(
            &[
                (AppRole::Malicious, 2.4),
                (AppRole::Legitimate, 1.2),
                (AppRole::Legitimate, 1.6),
            ],
            10,
            5,
        );
        let o = AttackOutcome::compare(&attacked, &clean).unwrap();
        assert!((o.max_attacker_gain() - 1.2).abs() < 1e-12);
        assert!((o.min_victim_change() - 0.6).abs() < 1e-12);
        assert!((o.infection_rate - 0.5).abs() < 1e-12);
        assert!(o.q_value > 1.0);
    }
}
