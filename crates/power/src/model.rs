use crate::error::PowerError;

/// An index into a [`DvfsTable`]: level 0 is the slowest operating point.
///
/// The paper's Definition 4 writes the available frequency levels as
/// τ₁ < τ₂ < … < τ_s; `FrequencyLevel(i)` corresponds to τ_{i+1}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrequencyLevel(pub u8);

impl FrequencyLevel {
    /// The lowest operating point.
    pub const MIN: FrequencyLevel = FrequencyLevel(0);
}

/// The discrete voltage/frequency operating points a core may run at.
///
/// "Each core can operate at any of the preset frequencies, and a higher
/// frequency leads to higher performance at a cost of higher power
/// consumption" (Section II-A).
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsTable {
    freqs_ghz: Vec<f64>,
    volts: Vec<f64>,
}

impl DvfsTable {
    /// Creates a table from parallel frequency (GHz) and voltage (V) lists,
    /// which must be strictly increasing and positive.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidDvfsTable`] if the lists are empty,
    /// lengths differ, values are non-positive, or not strictly increasing.
    pub fn new(freqs_ghz: Vec<f64>, volts: Vec<f64>) -> Result<Self, PowerError> {
        if freqs_ghz.is_empty() {
            return Err(PowerError::InvalidDvfsTable {
                reason: "no levels",
            });
        }
        if freqs_ghz.len() != volts.len() {
            return Err(PowerError::InvalidDvfsTable {
                reason: "frequency and voltage lists differ in length",
            });
        }
        if freqs_ghz.len() > u8::MAX as usize + 1 {
            return Err(PowerError::InvalidDvfsTable {
                reason: "more than 256 levels",
            });
        }
        for w in [&freqs_ghz, &volts] {
            if w.iter().any(|v| !v.is_finite() || *v <= 0.0) {
                return Err(PowerError::InvalidDvfsTable {
                    reason: "non-positive or non-finite value",
                });
            }
            if w.windows(2).any(|p| p[1] <= p[0]) {
                return Err(PowerError::InvalidDvfsTable {
                    reason: "levels must be strictly increasing",
                });
            }
        }
        Ok(DvfsTable { freqs_ghz, volts })
    }

    /// The six-level table used throughout the reproduction:
    /// 0.5–3.0 GHz in 0.5 GHz steps with a linear voltage ramp.
    #[must_use]
    pub fn default_six_level() -> Self {
        let freqs: Vec<f64> = (1..=6).map(|i| i as f64 * 0.5).collect();
        let volts: Vec<f64> = freqs.iter().map(|f| 0.60 + 0.15 * f).collect();
        DvfsTable::new(freqs, volts).expect("static table is valid")
    }

    /// Number of levels (`s` in Definition 4).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.freqs_ghz.len()
    }

    /// The highest operating point.
    #[must_use]
    pub fn max_level(&self) -> FrequencyLevel {
        FrequencyLevel((self.levels() - 1) as u8)
    }

    /// Frequency (GHz) of a level.
    ///
    /// # Panics
    ///
    /// Panics if the level is outside the table.
    #[must_use]
    pub fn freq_ghz(&self, level: FrequencyLevel) -> f64 {
        self.freqs_ghz[level.0 as usize]
    }

    /// Supply voltage (V) of a level.
    ///
    /// # Panics
    ///
    /// Panics if the level is outside the table.
    #[must_use]
    pub(crate) fn volts(&self, level: FrequencyLevel) -> f64 {
        self.volts[level.0 as usize]
    }

    /// Iterates over all levels from slowest to fastest.
    pub fn iter_levels(&self) -> impl Iterator<Item = FrequencyLevel> {
        (0..self.levels()).map(|i| FrequencyLevel(i as u8))
    }
}

/// The per-core power model: `P(f) = P_static + C_eff · V(f)² · f`.
///
/// Power values are in **milliwatts** throughout, matching the payload unit
/// of `POWER_REQ` packets.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    table: DvfsTable,
    /// Leakage/static power per core in mW.
    static_mw: f64,
    /// Effective switched capacitance coefficient: dynamic mW per V²·GHz.
    ceff: f64,
}

impl PowerModel {
    /// Creates a model over `table`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidPowerValue`] if `static_mw` or `ceff` is
    /// negative or not finite.
    pub fn new(table: DvfsTable, static_mw: f64, ceff: f64) -> Result<Self, PowerError> {
        for v in [static_mw, ceff] {
            if !v.is_finite() || v < 0.0 {
                return Err(PowerError::InvalidPowerValue { milliwatts: v });
            }
        }
        Ok(PowerModel {
            table,
            static_mw,
            ceff,
        })
    }

    /// A 45 nm-flavoured default: six DVFS levels, 200 mW static power and a
    /// C_eff giving ≈2.5 W per core at the top level — the regime where a
    /// 256-core chip cannot run every core at peak inside a realistic
    /// socket budget, which is exactly why power budgeting exists
    /// (Section I of the paper).
    #[must_use]
    pub fn default_45nm() -> Self {
        PowerModel::new(DvfsTable::default_six_level(), 200.0, 700.0)
            .expect("static constants are valid")
    }

    /// The DVFS table.
    #[must_use]
    pub fn table(&self) -> &DvfsTable {
        &self.table
    }

    /// Power draw (mW) of a core running at `level`.
    #[must_use]
    pub fn power_mw(&self, level: FrequencyLevel) -> f64 {
        let f = self.table.freq_ghz(level);
        let v = self.table.volts(level);
        self.static_mw + self.ceff * v * v * f
    }

    /// Power draw (mW) at the top level — what a core would request to run
    /// flat-out.
    #[must_use]
    pub fn peak_power_mw(&self) -> f64 {
        self.power_mw(self.table.max_level())
    }

    /// Power draw (mW) at the bottom level — the floor any powered core pays.
    #[must_use]
    pub fn min_power_mw(&self) -> f64 {
        self.power_mw(FrequencyLevel::MIN)
    }

    /// The highest level whose power fits within `grant_mw`, or `None` if the
    /// grant cannot even sustain the lowest level (the core is then clamped
    /// to the lowest level anyway — a chip cannot power-gate below retention
    /// in this model — but callers can distinguish the starved case).
    #[must_use]
    pub fn level_for_grant(&self, grant_mw: f64) -> Option<FrequencyLevel> {
        let mut chosen = None;
        for level in self.table.iter_levels() {
            if self.power_mw(level) <= grant_mw {
                chosen = Some(level);
            } else {
                break;
            }
        }
        chosen
    }

    /// The plausibility envelope of an honest per-core power request under
    /// this model: a core asks for somewhere between zero (idle /
    /// power-gated) and its top operating point's draw. Anything outside —
    /// negative, above peak, or non-finite — cannot be an honest request
    /// and is either transport corruption or an attack.
    ///
    /// This is the single source of envelope logic shared by the manager's
    /// plausibility clamp and the defense layer's anomaly detector.
    #[must_use]
    pub fn request_envelope(&self) -> RequestEnvelope {
        RequestEnvelope {
            min_mw: 0.0,
            max_mw: self.peak_power_mw(),
        }
    }
}

/// The closed interval of plausible per-core request values (mW), derived
/// from a [`PowerModel`] via [`PowerModel::request_envelope`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestEnvelope {
    /// Lowest plausible request (idle).
    pub min_mw: f64,
    /// Highest plausible request (the top DVFS level's draw).
    pub max_mw: f64,
}

impl RequestEnvelope {
    /// Whether `mw` is a plausible honest request.
    #[must_use]
    pub fn contains(&self, mw: f64) -> bool {
        mw.is_finite() && mw >= self.min_mw && mw <= self.max_mw
    }

    /// Pulls `mw` into the envelope: `NaN` lands on the floor (a corrupted
    /// value earns nothing), everything else clamps to the interval.
    #[must_use]
    pub fn clamp(&self, mw: f64) -> f64 {
        if mw.is_nan() {
            self.min_mw
        } else {
            mw.clamp(self.min_mw, self.max_mw)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_has_six_increasing_levels() {
        let t = DvfsTable::default_six_level();
        assert_eq!(t.levels(), 6);
        let freqs: Vec<f64> = t.iter_levels().map(|l| t.freq_ghz(l)).collect();
        assert!(freqs.windows(2).all(|w| w[1] > w[0]));
        assert!((t.freq_ghz(t.max_level()) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_rejects_bad_input() {
        assert!(DvfsTable::new(vec![], vec![]).is_err());
        assert!(DvfsTable::new(vec![1.0, 2.0], vec![1.0]).is_err());
        assert!(DvfsTable::new(vec![2.0, 1.0], vec![0.8, 0.9]).is_err());
        assert!(DvfsTable::new(vec![1.0, 1.0], vec![0.8, 0.9]).is_err());
        assert!(DvfsTable::new(vec![-1.0, 1.0], vec![0.8, 0.9]).is_err());
        assert!(DvfsTable::new(vec![f64::NAN], vec![0.8]).is_err());
    }

    #[test]
    fn power_is_monotonic_in_level() {
        let m = PowerModel::default_45nm();
        let powers: Vec<f64> = m.table().iter_levels().map(|l| m.power_mw(l)).collect();
        assert!(powers.windows(2).all(|w| w[1] > w[0]));
        assert!(m.peak_power_mw() > 2_000.0 && m.peak_power_mw() < 3_000.0);
        assert!(m.min_power_mw() > 0.0);
    }

    #[test]
    fn level_for_grant_boundaries() {
        let m = PowerModel::default_45nm();
        // A grant below the minimum level's power starves the core.
        assert_eq!(m.level_for_grant(m.min_power_mw() - 1.0), None);
        // Exactly the minimum level's power yields level 0.
        assert_eq!(m.level_for_grant(m.min_power_mw()), Some(FrequencyLevel(0)));
        // A huge grant yields the top level.
        assert_eq!(m.level_for_grant(1e9), Some(m.table().max_level()));
        // Grants between two levels round down.
        let p2 = m.power_mw(FrequencyLevel(2));
        let p3 = m.power_mw(FrequencyLevel(3));
        assert_eq!(m.level_for_grant((p2 + p3) / 2.0), Some(FrequencyLevel(2)));
    }

    #[test]
    fn envelope_classifies_and_clamps() {
        let m = PowerModel::default_45nm();
        let env = m.request_envelope();
        assert!(env.contains(0.0));
        assert!(env.contains(m.peak_power_mw()));
        assert!(!env.contains(m.peak_power_mw() + 1.0));
        assert!(!env.contains(-1.0));
        assert!(!env.contains(f64::NAN));
        assert!(!env.contains(f64::INFINITY));
        assert_eq!(env.clamp(f64::NAN), 0.0);
        assert_eq!(env.clamp(f64::NEG_INFINITY), 0.0);
        assert_eq!(env.clamp(f64::INFINITY), m.peak_power_mw());
        assert_eq!(env.clamp(-5.0), 0.0);
        assert_eq!(env.clamp(123.0), 123.0);
    }

    #[test]
    fn model_rejects_negative_constants() {
        let t = DvfsTable::default_six_level();
        assert!(PowerModel::new(t.clone(), -1.0, 100.0).is_err());
        assert!(PowerModel::new(t, 1.0, f64::INFINITY).is_err());
    }
}
