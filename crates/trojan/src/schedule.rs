/// When the implanted Trojans are operating, as a function of the cycle.
///
/// Section III-B: "if the attacker agents want the HTs to be active in a
/// specific cycle time, a series of configuration packets can be sent with
/// activation signals alternated to be ON and OFF". This type models the
/// *effect* of such a config-packet stream without simulating each packet —
/// the fleet gates its Trojans by `active_at(cycle)` on top of each
/// Trojan's own activation latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActivationSchedule {
    /// Armed continuously.
    #[default]
    AlwaysOn,
    /// Armed for the first `on` cycles of every `period`-cycle window.
    ///
    /// Duty-cycling is the attacker's main knob for trading attack strength
    /// against stealth: a lower duty cycle yields a lower infection rate.
    DutyCycle {
        /// Cycles armed per window.
        on: u64,
        /// Window length in cycles (must be ≥ `on`; a zero period behaves
        /// as always-on).
        period: u64,
    },
}

impl ActivationSchedule {
    /// A duty cycle hitting approximately `fraction` (clamped to `[0, 1]`)
    /// of cycles, over windows of `period` cycles.
    #[must_use]
    pub fn duty(fraction: f64, period: u64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let period = period.max(1);
        ActivationSchedule::DutyCycle {
            on: (fraction * period as f64).round() as u64,
            period,
        }
    }

    /// Whether the schedule arms the Trojans at no cycle at all: a duty
    /// cycle of zero `on` cycles per non-empty window, which is what
    /// [`ActivationSchedule::duty`] builds for a fraction of 0.
    #[must_use]
    pub fn never_arms(self) -> bool {
        matches!(self, ActivationSchedule::DutyCycle { on: 0, period } if period > 0)
    }

    /// Whether the schedule arms the Trojans at `cycle`.
    #[must_use]
    pub fn active_at(self, cycle: u64) -> bool {
        match self {
            ActivationSchedule::AlwaysOn => true,
            ActivationSchedule::DutyCycle { on, period } => {
                if period == 0 {
                    true
                } else {
                    cycle % period < on
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_is_always_on() {
        for c in [0u64, 1, 1000, u64::MAX] {
            assert!(ActivationSchedule::AlwaysOn.active_at(c));
        }
    }

    #[test]
    fn duty_cycle_pattern() {
        let s = ActivationSchedule::DutyCycle { on: 3, period: 10 };
        let pattern: Vec<bool> = (0..20).map(|c| s.active_at(c)).collect();
        for (c, active) in pattern.iter().enumerate() {
            assert_eq!(*active, c % 10 < 3, "cycle {c}");
        }
    }

    #[test]
    fn duty_constructor_rounds() {
        let s = ActivationSchedule::duty(0.5, 100);
        assert_eq!(
            s,
            ActivationSchedule::DutyCycle {
                on: 50,
                period: 100
            }
        );
        assert_eq!(
            ActivationSchedule::duty(2.0, 10),
            ActivationSchedule::DutyCycle { on: 10, period: 10 }
        );
        assert_eq!(
            ActivationSchedule::duty(-1.0, 10),
            ActivationSchedule::DutyCycle { on: 0, period: 10 }
        );
    }

    #[test]
    fn never_arms_exactly_when_no_cycle_is_active() {
        assert!(ActivationSchedule::duty(0.0, 4_000).never_arms());
        assert!(ActivationSchedule::duty(-1.0, 10).never_arms());
        for s in [
            ActivationSchedule::AlwaysOn,
            ActivationSchedule::duty(0.5, 10),
            ActivationSchedule::DutyCycle { on: 0, period: 0 },
        ] {
            assert!(!s.never_arms(), "{s:?}");
        }
        // The predicate agrees with `active_at` over whole windows.
        for (on, period) in [(0u64, 1u64), (0, 7), (1, 7), (0, 0), (3, 3)] {
            let s = ActivationSchedule::DutyCycle { on, period };
            let armed = (0..2 * period.max(1)).any(|c| s.active_at(c));
            assert_eq!(s.never_arms(), !armed, "{s:?}");
        }
    }

    #[test]
    fn zero_period_degrades_to_always_on() {
        let s = ActivationSchedule::DutyCycle { on: 0, period: 0 };
        assert!(s.active_at(7));
    }
}
