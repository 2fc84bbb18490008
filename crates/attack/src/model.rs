//! The linear attack-effect model of Eq. 9:
//!
//! `Q(Δ, Γ) ≈ a₁ρ + a₂η + a₃m + Σ_j b_j Φ_{γj} + Σ_k c_k Φ_{δk} + a₀`
//!
//! Because mixes differ in their victim/attacker counts, the per-application
//! sensitivity terms are aggregated per side (`ΣΦ_victims`, `ΣΦ_attackers`)
//! when fitting across mixes — equivalent to tying the `b_j` (and `c_k`)
//! coefficients, which is the only way a single linear model spans
//! variable-cardinality mixes.

use crate::linalg::{least_squares, r_squared};

/// A generic ordinary-least-squares linear model over fixed-length feature
/// vectors (first weight is the intercept if callers put a constant 1
/// column first — [`AttackModel`] does).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinearModel {
    weights: Vec<f64>,
    r2: f64,
}

impl LinearModel {
    /// Fits `y ≈ X w` by least squares. Returns `None` on degenerate input
    /// (empty, ragged rows, or singular normal equations).
    #[must_use]
    pub fn fit(x: &[Vec<f64>], y: &[f64]) -> Option<Self> {
        let weights = least_squares(x, y)?;
        let yhat: Vec<f64> = x.iter().map(|row| dot(&weights, row)).collect();
        let r2 = r_squared(y, &yhat);
        Some(LinearModel { weights, r2 })
    }

    /// The fitted weights.
    #[must_use]
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Coefficient of determination on the training data.
    #[must_use]
    pub fn r2(&self) -> f64 {
        self.r2
    }

    /// Predicts one sample.
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different length than the training rows.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.weights.len(), "feature arity");
        dot(&self.weights, features)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One observation for the attack-effect regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSample {
    /// Definition 7: distance between the manager and the HT virtual center.
    pub rho: f64,
    /// Definition 8: HT density (mean spread around the virtual center).
    pub eta: f64,
    /// Number of Trojans.
    pub m: f64,
    /// Σ of victim applications' power-budget sensitivities Φ.
    pub phi_victims: f64,
    /// Σ of attacker applications' power-budget sensitivities Φ.
    pub phi_attackers: f64,
    /// The measured attack effect Q(Δ, Γ).
    pub q: f64,
}

impl AttackSample {
    fn features(&self) -> Vec<f64> {
        vec![
            1.0,
            self.rho,
            self.eta,
            self.m,
            self.phi_victims,
            self.phi_attackers,
        ]
    }
}

/// The fitted Eq.-9 model.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackModel {
    inner: LinearModel,
}

impl AttackModel {
    /// Fits Eq. 9 on a set of measured samples. Needs at least as many
    /// samples as coefficients (six); returns `None` otherwise or on a
    /// degenerate design.
    #[must_use]
    pub fn fit(samples: &[AttackSample]) -> Option<Self> {
        if samples.len() < 6 {
            return None;
        }
        let x: Vec<Vec<f64>> = samples.iter().map(AttackSample::features).collect();
        let y: Vec<f64> = samples.iter().map(|s| s.q).collect();
        Some(AttackModel {
            inner: LinearModel::fit(&x, &y)?,
        })
    }

    /// Intercept a₀.
    #[must_use]
    pub fn a0(&self) -> f64 {
        self.inner.weights()[0]
    }

    /// Coefficient a₁ on ρ (expected negative: a far virtual center weakens
    /// the attack).
    #[must_use]
    pub fn a1_rho(&self) -> f64 {
        self.inner.weights()[1]
    }

    /// Coefficient a₂ on η (expected negative: a looser cluster weakens the
    /// attack near the manager).
    #[must_use]
    pub fn a2_eta(&self) -> f64 {
        self.inner.weights()[2]
    }

    /// Coefficient a₃ on m (expected positive: more Trojans, stronger
    /// attack).
    #[must_use]
    pub fn a3_m(&self) -> f64 {
        self.inner.weights()[3]
    }

    /// Tied victim-sensitivity coefficient (the `b_j` of Eq. 9).
    #[must_use]
    pub fn b_phi_victims(&self) -> f64 {
        self.inner.weights()[4]
    }

    /// Tied attacker-sensitivity coefficient (the `c_k` of Eq. 9).
    #[must_use]
    pub fn c_phi_attackers(&self) -> f64 {
        self.inner.weights()[5]
    }

    /// Training R².
    #[must_use]
    pub fn r2(&self) -> f64 {
        self.inner.r2()
    }

    /// Predicts Q for a prospective configuration.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn predict(&self, sample: &AttackSample) -> f64 {
        self.inner.predict(&sample.features())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(rho: f64, eta: f64, m: f64, pv: f64, pa: f64) -> AttackSample {
        // Ground truth: Q = 2 - 0.2 rho - 0.1 eta + 0.05 m + 0.3 pv + 0.1 pa
        AttackSample {
            rho,
            eta,
            m,
            phi_victims: pv,
            phi_attackers: pa,
            q: 2.0 - 0.2 * rho - 0.1 * eta + 0.05 * m + 0.3 * pv + 0.1 * pa,
        }
    }

    fn grid() -> Vec<AttackSample> {
        let mut v = Vec::new();
        for rho in [0.0, 2.0, 5.0] {
            for eta in [0.5, 2.0, 4.0] {
                for m in [4.0, 16.0] {
                    for pv in [1.0, 3.0] {
                        for pa in [1.0, 2.0] {
                            v.push(synth(rho, eta, m, pv, pa));
                        }
                    }
                }
            }
        }
        v
    }

    #[test]
    fn recovers_synthetic_coefficients() {
        let model = AttackModel::fit(&grid()).unwrap();
        assert!((model.a0() - 2.0).abs() < 1e-6);
        assert!((model.a1_rho() + 0.2).abs() < 1e-6);
        assert!((model.a2_eta() + 0.1).abs() < 1e-6);
        assert!((model.a3_m() - 0.05).abs() < 1e-6);
        assert!((model.b_phi_victims() - 0.3).abs() < 1e-6);
        assert!((model.c_phi_attackers() - 0.1).abs() < 1e-6);
        assert!(model.r2() > 0.999999);
    }

    #[test]
    fn prediction_matches_ground_truth() {
        let model = AttackModel::fit(&grid()).unwrap();
        let probe = synth(1.0, 1.0, 8.0, 2.0, 1.5);
        assert!((model.predict(&probe) - probe.q).abs() < 1e-6);
    }

    #[test]
    fn too_few_samples_rejected() {
        let s = grid();
        assert!(AttackModel::fit(&s[..5]).is_none());
    }

    #[test]
    fn linear_model_panics_on_wrong_arity() {
        let m = LinearModel::fit(
            &[vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]],
            &[1.0, 2.0, 3.0],
        )
        .unwrap();
        let result = std::panic::catch_unwind(|| m.predict(&[1.0]));
        assert!(result.is_err());
    }
}
