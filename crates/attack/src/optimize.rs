//! The attack-effect maximisation problem of Eqs. 10–11:
//!
//! `max_{ρ, η, m} Q(Δ, Γ)  subject to  m ≤ M_HT`.
//!
//! Following the paper ("one can exhaustively enumerate all possible values
//! for \[the\] three metrics"), the optimizer enumerates placement families
//! spanning the (ρ, η, m) space — clusters of every spread anchored at
//! every mesh node, plus random scatters — and scores each candidate by the
//! closed-form infection rate of [`crate::analytic`], which is monotonic in
//! the attack effect for a fixed mix (Fig. 5). The best candidate by score
//! (ties broken towards fewer Trojans, then lower ρ) is returned.

use htpb_noc::{Mesh2d, NodeId};

use crate::analytic::analytic_infection_rate;
use crate::placement::{Placement, PlacementStrategy};

/// Random scatters per Trojan count `m` in the enumeration: they span the
/// high-η configurations the clusters miss.
const RANDOM_SCATTERS: u64 = 8;

/// One evaluated placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementCandidate {
    /// The placement itself.
    pub placement: Placement,
    /// Strategy that produced it (for reporting).
    pub description: String,
    /// Number of Trojans.
    pub m: usize,
    /// Definition 7 distance ρ.
    pub rho: f64,
    /// Definition 8 density η.
    pub eta: f64,
    /// Predicted infection rate (the optimizer's objective).
    pub infection: f64,
}

/// Exhaustive-enumeration placement optimizer (Eqs. 10–11).
#[derive(Debug, Clone)]
pub struct PlacementOptimizer {
    mesh: Mesh2d,
    manager: NodeId,
    max_hts: usize,
    excluded: Vec<NodeId>,
}

impl PlacementOptimizer {
    /// Creates an optimizer for a chip with the manager at `manager` and
    /// the constraint `m ≤ max_hts` (the paper's `M_HT`).
    #[must_use]
    pub fn new(mesh: Mesh2d, manager: NodeId, max_hts: usize) -> Self {
        PlacementOptimizer {
            mesh,
            manager,
            max_hts: max_hts.max(1),
            excluded: Vec::new(),
        }
    }

    /// Forbids placing Trojans at the given nodes (e.g. nodes under
    /// heightened scrutiny).
    #[must_use]
    pub fn exclude(mut self, nodes: &[NodeId]) -> Self {
        self.excluded.extend_from_slice(nodes);
        self
    }

    /// Evaluates one explicit placement.
    #[must_use]
    pub(crate) fn evaluate(
        &self,
        placement: Placement,
        description: impl Into<String>,
    ) -> PlacementCandidate {
        let infection = analytic_infection_rate(self.mesh, self.manager, placement.nodes(), None);
        let m = placement.len();
        let rho = placement
            .distance_rho(self.mesh, self.manager)
            .unwrap_or(0.0);
        let eta = placement.density_eta(self.mesh).unwrap_or(0.0);
        PlacementCandidate {
            placement,
            description: description.into(),
            m,
            rho,
            eta,
            infection,
        }
    }

    /// Builds the greedy maximum-coverage placement for `m` Trojans: at
    /// each step, implant at the router that intercepts the most
    /// still-uncovered sources. This is the classic (1 − 1/e)-approximation
    /// to the optimal coverage set, and on XY meshes it recovers the true
    /// optimum for small `m` (cover the manager's heavy gates first).
    #[must_use]
    pub(crate) fn greedy_cover(&self, m: usize) -> Placement {
        let mesh = self.mesh;
        let manager = self.manager;
        let sources: Vec<NodeId> = mesh.iter_nodes().filter(|n| *n != manager).collect();
        // Inverted index: for each node, the source indices it covers.
        let mut covers: Vec<Vec<usize>> = vec![Vec::new(); mesh.nodes() as usize];
        for (si, src) in sources.iter().enumerate() {
            for node in mesh.xy_path(*src, manager) {
                covers[node.0 as usize].push(si);
            }
        }
        let mut covered = vec![false; sources.len()];
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        for _ in 0..m {
            let mut best: Option<(usize, NodeId)> = None;
            for node in mesh.iter_nodes() {
                if self.excluded.contains(&node) || chosen.contains(&node) {
                    continue;
                }
                let gain = covers[node.0 as usize]
                    .iter()
                    .filter(|si| !covered[**si])
                    .count();
                let better = match best {
                    None => true,
                    Some((bg, bn)) => gain > bg || (gain == bg && node.0 < bn.0),
                };
                if better {
                    best = Some((gain, node));
                }
            }
            let Some((gain, node)) = best else { break };
            if gain == 0 && !chosen.is_empty() {
                break; // full coverage reached; fewer Trojans suffice
            }
            for si in &covers[node.0 as usize] {
                covered[*si] = true;
            }
            chosen.push(node);
        }
        Placement::generate(
            mesh,
            0,
            &PlacementStrategy::Explicit(chosen),
            &self.excluded,
        )
    }

    /// Enumerates the candidate family for a fixed Trojan count `m`.
    #[must_use]
    pub(crate) fn candidates_for(&self, m: usize) -> Vec<PlacementCandidate> {
        let mut out = Vec::new();
        // Greedy maximum coverage: the strongest family for small m.
        out.push(self.evaluate(self.greedy_cover(m), format!("greedy-cover#{m}")));
        // Clusters around every node: spans ρ from 0 to the diameter with
        // minimal η for each anchor.
        for anchor in self.mesh.iter_nodes() {
            let p = Placement::generate(
                self.mesh,
                m,
                &PlacementStrategy::ClusterAround { anchor },
                &self.excluded,
            );
            out.push(self.evaluate(p, format!("cluster@{anchor}")));
        }
        for seed in 0..RANDOM_SCATTERS {
            let p = Placement::generate(
                self.mesh,
                m,
                &PlacementStrategy::Random { seed },
                &self.excluded,
            );
            out.push(self.evaluate(p, format!("random#{seed}")));
        }
        out
    }

    /// Solves Eqs. 10–11: enumerates all `m ≤ M_HT` (by powers of two plus
    /// the bound itself, since infection is monotone in `m` within a
    /// family) and returns the best candidate.
    #[must_use]
    pub fn optimize(&self) -> PlacementCandidate {
        let mut ms: Vec<usize> = std::iter::successors(Some(1usize), |m| Some(m * 2))
            .take_while(|m| *m < self.max_hts)
            .collect();
        ms.push(self.max_hts);
        let mut best: Option<PlacementCandidate> = None;
        for m in ms {
            for cand in self.candidates_for(m) {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        cand.infection > b.infection + 1e-12
                            || ((cand.infection - b.infection).abs() <= 1e-12
                                && (cand.m, cand.rho) < (b.m, b.rho))
                    }
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        best.expect("at least one candidate was enumerated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_clusters_near_the_manager() {
        let mesh = Mesh2d::new(8, 8).unwrap();
        let manager = mesh.center();
        let opt = PlacementOptimizer::new(mesh, manager, 8).optimize();
        // A cluster containing the manager's router catches everything.
        assert!(
            (opt.infection - 1.0).abs() < 1e-12,
            "infection {}",
            opt.infection
        );
        assert!(opt.rho < 2.0, "rho {}", opt.rho);
    }

    #[test]
    fn optimum_beats_random_baseline() {
        let mesh = Mesh2d::new(16, 16).unwrap();
        let manager = mesh.center();
        let optzr = PlacementOptimizer::new(mesh, manager, 16);
        let opt = optzr.optimize();
        let random = optzr.evaluate(
            Placement::generate(mesh, 16, &PlacementStrategy::Random { seed: 123 }, &[]),
            "random-baseline",
        );
        assert!(
            opt.infection > random.infection,
            "optimal {} vs random {}",
            opt.infection,
            random.infection
        );
    }

    #[test]
    fn exclusion_is_respected_yet_still_effective() {
        let mesh = Mesh2d::new(8, 8).unwrap();
        let manager = mesh.center();
        let opt = PlacementOptimizer::new(mesh, manager, 8)
            .exclude(&[manager])
            .optimize();
        assert!(!opt.placement.nodes().contains(&manager));
        // Ringing the manager still catches nearly everything.
        assert!(opt.infection > 0.9, "infection {}", opt.infection);
    }

    #[test]
    fn ties_prefer_fewer_trojans() {
        // On a tiny mesh a single HT on the manager achieves 1.0; the
        // optimizer must not prefer a larger placement with equal score.
        let mesh = Mesh2d::new(4, 4).unwrap();
        let manager = mesh.center();
        let opt = PlacementOptimizer::new(mesh, manager, 8).optimize();
        assert_eq!(opt.infection, 1.0);
        assert_eq!(opt.m, 1);
    }

    #[test]
    fn greedy_cover_picks_the_manager_gates() {
        // With the manager excluded, the best 3-Trojan placement covers the
        // two column gates (N, S) plus one row gate — not three arbitrary
        // neighbours. This is the case a random placement used to win.
        let mesh = Mesh2d::new(8, 8).unwrap();
        let manager = mesh.center();
        let opt = PlacementOptimizer::new(mesh, manager, 3).exclude(&[manager]);
        let placement = opt.greedy_cover(3);
        let rate = crate::analytic::analytic_infection_rate(mesh, manager, placement.nodes(), None);
        assert!(rate > 0.9, "greedy cover only reached {rate}");
    }

    #[test]
    fn candidates_cover_rho_and_eta_ranges() {
        let mesh = Mesh2d::new(8, 8).unwrap();
        let manager = mesh.center();
        let cands = PlacementOptimizer::new(mesh, manager, 8).candidates_for(8);
        let rho_min = cands.iter().map(|c| c.rho).fold(f64::INFINITY, f64::min);
        let rho_max = cands.iter().map(|c| c.rho).fold(0.0, f64::max);
        let eta_max = cands.iter().map(|c| c.eta).fold(0.0, f64::max);
        assert!(rho_min < 1.0);
        assert!(rho_max > 6.0, "rho_max {rho_max}");
        assert!(eta_max > 2.0, "eta_max {eta_max}");
    }
}
