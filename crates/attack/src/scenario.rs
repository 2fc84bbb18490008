//! The benchmark mixes of Table III — the attacker/victim combinations the
//! paper evaluates in Section V-C.

use htpb_manycore::{AppRole, Benchmark, Workload};
use htpb_noc::Mesh2d;

/// One row of Table III: a set of attacker applications and a set of
/// victim applications sharing the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mix {
    /// Attackers: barnes, canneal. Victims: blackscholes, raytrace.
    Mix1,
    /// Attackers: freqmine, swaptions. Victims: raytrace, vips.
    Mix2,
    /// Attacker: canneal. Victims: barnes, vips, dedup.
    Mix3,
    /// Attackers: barnes, streamcluster, freqmine. Victim: raytrace.
    Mix4,
}

impl Mix {
    /// All four mixes of Table III.
    pub const ALL: [Mix; 4] = [Mix::Mix1, Mix::Mix2, Mix::Mix3, Mix::Mix4];

    /// The mix's name as used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mix::Mix1 => "mix-1",
            Mix::Mix2 => "mix-2",
            Mix::Mix3 => "mix-3",
            Mix::Mix4 => "mix-4",
        }
    }

    /// Attacker applications (the set Δ).
    #[must_use]
    pub fn attackers(self) -> &'static [Benchmark] {
        match self {
            Mix::Mix1 => &[Benchmark::Barnes, Benchmark::Canneal],
            Mix::Mix2 => &[Benchmark::Freqmine, Benchmark::Swaptions],
            Mix::Mix3 => &[Benchmark::Canneal],
            Mix::Mix4 => &[
                Benchmark::Barnes,
                Benchmark::Streamcluster,
                Benchmark::Freqmine,
            ],
        }
    }

    /// Victim applications (the set Γ).
    #[must_use]
    pub fn victims(self) -> &'static [Benchmark] {
        match self {
            Mix::Mix1 => &[Benchmark::Blackscholes, Benchmark::Raytrace],
            Mix::Mix2 => &[Benchmark::Raytrace, Benchmark::Vips],
            Mix::Mix3 => &[Benchmark::Barnes, Benchmark::Vips, Benchmark::Dedup],
            Mix::Mix4 => &[Benchmark::Raytrace],
        }
    }

    /// Total number of applications in the mix.
    #[must_use]
    pub(crate) fn app_count(self) -> usize {
        self.attackers().len() + self.victims().len()
    }

    /// Builds the workload with an explicit per-application thread count.
    /// Attackers are added first (so they get the lowest [`htpb_manycore::AppId`]s),
    /// matching the column order of Table III.
    #[must_use]
    pub fn workload(self, threads_per_app: usize) -> Workload {
        let mut w = Workload::new();
        for b in self.attackers() {
            w = w.app(*b, threads_per_app, AppRole::Malicious);
        }
        for b in self.victims() {
            w = w.app(*b, threads_per_app, AppRole::Legitimate);
        }
        w
    }

    /// Builds the workload sized for `mesh`: the paper runs 64 threads per
    /// application on a 256-core chip; since one tile hosts the global
    /// manager, thread counts are capped at `(nodes − 1) / apps` (e.g. 63
    /// for the four-application mixes on 256 cores).
    #[must_use]
    pub fn workload_for_mesh(self, mesh: Mesh2d) -> Workload {
        let per_app = ((mesh.nodes() as usize - 1) / self.app_count()).min(64);
        self.workload(per_app)
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_contents() {
        assert_eq!(Mix::Mix1.attackers().len(), 2);
        assert_eq!(Mix::Mix1.victims().len(), 2);
        assert_eq!(Mix::Mix2.attackers().len(), 2);
        assert_eq!(Mix::Mix3.attackers().len(), 1);
        assert_eq!(Mix::Mix3.victims().len(), 3);
        assert_eq!(Mix::Mix4.attackers().len(), 3);
        assert_eq!(Mix::Mix4.victims().len(), 1);
        assert!(Mix::Mix4.attackers().contains(&Benchmark::Streamcluster));
        assert_eq!(Mix::Mix4.victims(), &[Benchmark::Raytrace]);
    }

    #[test]
    fn workload_roles_and_order() {
        let w = Mix::Mix4.workload(8);
        let apps = w.apps();
        assert_eq!(apps.len(), 4);
        assert!(apps[..3].iter().all(|a| a.is_malicious()));
        assert!(!apps[3].is_malicious());
        assert_eq!(w.total_threads(), 32);
    }

    #[test]
    fn workload_for_mesh_fits() {
        let mesh = Mesh2d::with_nodes(256).unwrap();
        for mix in Mix::ALL {
            let w = mix.workload_for_mesh(mesh);
            assert!(w.total_threads() <= 255, "{mix} overflows");
            // Uses most of the chip, like the paper's 64-thread apps.
            assert!(w.total_threads() >= 192, "{mix} underfills");
        }
    }

    #[test]
    fn names_match_figures() {
        let names: Vec<&str> = Mix::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["mix-1", "mix-2", "mix-3", "mix-4"]);
    }
}
