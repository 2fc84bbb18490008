//! Silicon area and power accounting of the Trojan (Section III-D).
//!
//! The paper reports synthesis results from Synopsys Design Compiler under
//! a 45 nm TSMC library for the Trojan, and DSENT numbers for a baseline
//! router with 4 virtual channels and 5-flit FIFOs. We record those
//! constants and reproduce the paper's derived ratios exactly — this is the
//! paper's stealth argument: the Trojan is ~0.017 % of one router's area
//! and ~0.0017 % of its power, far below the detection floor of area- and
//! power-based offline Trojan detection.

/// Area of one hardware Trojan in µm² (Synopsys DC, 45 nm TSMC).
pub(crate) const HT_AREA_UM2: f64 = 12.1716;

/// Power of one hardware Trojan in µW (Synopsys DC, 45 nm TSMC).
pub(crate) const HT_POWER_UW: f64 = 0.55018;

/// Area of one router (4 VCs, 5-flit FIFOs) in µm², from DSENT.
pub(crate) const ROUTER_AREA_UM2: f64 = 71_814.0;

/// Power of one router in µW, from DSENT.
pub(crate) const ROUTER_POWER_UW: f64 = 31_881.0;

/// Area/power overhead report for a set of Trojans implanted in a chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Number of implanted Trojans.
    pub num_trojans: usize,
    /// Number of routers in the chip (one per node).
    pub num_routers: usize,
}

impl AreaReport {
    /// Creates a report for `num_trojans` Trojans in a `num_routers`-router
    /// chip.
    #[must_use]
    pub fn new(num_trojans: usize, num_routers: usize) -> Self {
        AreaReport {
            num_trojans,
            num_routers,
        }
    }

    /// Total Trojan area in µm².
    #[must_use]
    pub fn trojan_area_um2(&self) -> f64 {
        self.num_trojans as f64 * HT_AREA_UM2
    }

    /// Total Trojan power in µW.
    #[must_use]
    pub fn trojan_power_uw(&self) -> f64 {
        self.num_trojans as f64 * HT_POWER_UW
    }

    /// Total router area in µm².
    #[must_use]
    pub(crate) fn router_area_um2(&self) -> f64 {
        self.num_routers as f64 * ROUTER_AREA_UM2
    }

    /// Total router power in µW.
    #[must_use]
    pub(crate) fn router_power_uw(&self) -> f64 {
        self.num_routers as f64 * ROUTER_POWER_UW
    }

    /// Trojan area as a fraction of total router area.
    #[must_use]
    pub fn area_fraction(&self) -> f64 {
        self.trojan_area_um2() / self.router_area_um2()
    }

    /// Trojan power as a fraction of total router power.
    #[must_use]
    pub fn power_fraction(&self) -> f64 {
        self.trojan_power_uw() / self.router_power_uw()
    }
}

impl std::fmt::Display for AreaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} HT(s) in {} routers: area {:.4} um^2 ({:.4}% of routers), power {:.4} uW ({:.5}% of routers)",
            self.num_trojans,
            self.num_routers,
            self.trojan_area_um2(),
            self.area_fraction() * 100.0,
            self.trojan_power_uw(),
            self.power_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ht_ratios_match_paper() {
        // "an HT's area and power is about 0.017% and 0.0017% of a single
        // router" (Section III-D).
        let r = AreaReport::new(1, 1);
        assert!((r.area_fraction() * 100.0 - 0.017).abs() < 0.001);
        assert!((r.power_fraction() * 100.0 - 0.0017).abs() < 0.0002);
    }

    #[test]
    fn sixty_ht_chip_matches_paper() {
        // "60 HTs ... area is about 730.296 um2 and consume 33.0108 uW;
        // ... about 0.002% and 0.0002% of all routers in a 512-node chip."
        let r = AreaReport::new(60, 512);
        assert!((r.trojan_area_um2() - 730.296).abs() < 0.001);
        assert!((r.trojan_power_uw() - 33.0108).abs() < 0.0001);
        assert!((r.area_fraction() * 100.0 - 0.002).abs() < 0.0005);
        assert!((r.power_fraction() * 100.0 - 0.0002).abs() < 0.00005);
    }

    #[test]
    fn display_is_humane() {
        let s = AreaReport::new(60, 512).to_string();
        assert!(s.contains("60 HT(s)"));
        assert!(s.contains("512 routers"));
    }
}
