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
    /// Armed only inside `[start, end)` — a one-shot attack window.
    Window {
        /// First armed cycle.
        start: u64,
        /// First cycle past the window.
        end: u64,
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
            ActivationSchedule::Window { start, end } => cycle >= start && cycle < end,
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
    fn window_bounds_are_half_open() {
        let s = ActivationSchedule::Window { start: 10, end: 20 };
        assert!(!s.active_at(9));
        assert!(s.active_at(10));
        assert!(s.active_at(19));
        assert!(!s.active_at(20));
    }

    #[test]
    fn zero_period_degrades_to_always_on() {
        let s = ActivationSchedule::DutyCycle { on: 0, period: 0 };
        assert!(s.active_at(7));
    }
}
