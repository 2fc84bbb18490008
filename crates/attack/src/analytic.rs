//! Closed-form infection-rate estimation.
//!
//! Under deterministic XY routing, whether a power request from node `s` is
//! tampered with is a pure path property: the request is infected iff some
//! router on the XY route `s → manager` hosts an active Trojan. The
//! infection rate over one epoch (every worker sends one request) is then
//! the fraction of sources whose route intersects the Trojan set.
//!
//! This estimator exactly predicts the cycle-accurate simulator for XY
//! routing (validated by integration tests) and is cheap enough —
//! `O(nodes · diameter)` — to drive the placement optimizer's inner loop
//! over thousands of candidate placements.

use htpb_noc::{FnvHashSet, Mesh2d, NodeId};

/// Fraction of nodes whose XY route to `manager` passes through at least
/// one node of `trojans` (the source and destination routers inspect
/// packets too, matching the simulator's once-per-hop inspection).
///
/// `attacker` — if given — is excluded from the source population: the
/// Trojan's comparator-3 never modifies the attacker agent's own requests,
/// so they cannot be infected.
#[must_use]
pub fn analytic_infection_rate(
    mesh: Mesh2d,
    manager: NodeId,
    trojans: &[NodeId],
    attacker: Option<NodeId>,
) -> f64 {
    let set: FnvHashSet<NodeId> = trojans.iter().copied().collect();
    if set.is_empty() {
        return 0.0;
    }
    let mut sources = 0u32;
    let mut infected = 0u32;
    for src in mesh.iter_nodes() {
        if src == manager || Some(src) == attacker {
            continue;
        }
        sources += 1;
        if xy_route_touches(mesh, src, manager, |n| set.contains(&n)) {
            infected += 1;
        }
    }
    if sources == 0 {
        0.0
    } else {
        f64::from(infected) / f64::from(sources)
    }
}

/// Whether the XY route `src → manager` passes a router in a node set,
/// given as its membership test `in_set`. The route includes both end
/// routers: a Trojan at the source or at the manager sees the request
/// like one in between.
#[must_use]
pub fn xy_route_touches(
    mesh: Mesh2d,
    src: NodeId,
    manager: NodeId,
    in_set: impl Fn(NodeId) -> bool,
) -> bool {
    mesh.xy_path(src, manager).into_iter().any(in_set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trojans_no_infection() {
        let m = Mesh2d::new(8, 8).unwrap();
        assert_eq!(analytic_infection_rate(m, m.center(), &[], None), 0.0);
    }

    #[test]
    fn trojan_on_manager_router_infects_everyone() {
        // Every XY path ends at the manager's own router, so a Trojan there
        // sees every request.
        let m = Mesh2d::new(8, 8).unwrap();
        let manager = m.center();
        let rate = analytic_infection_rate(m, manager, &[manager], None);
        assert!((rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_offpath_trojan_infects_subset() {
        let m = Mesh2d::new(8, 8).unwrap();
        let manager = NodeId(0);
        // A Trojan in the far corner only catches requests from that corner.
        let rate = analytic_infection_rate(m, manager, &[NodeId(63)], None);
        assert!(rate > 0.0 && rate < 0.1, "rate = {rate}");
    }

    #[test]
    fn column_wall_catches_all_crossing_traffic() {
        // XY routes go along the source row first, then the destination
        // column. A full wall on the manager's column intercepts everything
        // except same-column sources below the wall... here the whole
        // column is infected, so everything is caught.
        let m = Mesh2d::new(4, 4).unwrap();
        let manager = NodeId(5); // (1,1)
        let wall: Vec<NodeId> = (0..4).map(|y| m.node(htpb_noc::Coord::new(1, y))).collect();
        let rate = analytic_infection_rate(m, manager, &wall, None);
        assert!((rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attacker_is_excluded_from_population() {
        let m = Mesh2d::new(4, 4).unwrap();
        let manager = NodeId(0);
        let all = analytic_infection_rate(m, manager, &[manager], None);
        let minus_attacker = analytic_infection_rate(m, manager, &[manager], Some(NodeId(7)));
        // Both are 1.0 (population shrinks but all remaining infected).
        assert_eq!(all, 1.0);
        assert_eq!(minus_attacker, 1.0);
        // With a partial placement, excluding an infected attacker lowers
        // the numerator and denominator together.
        let partial = analytic_infection_rate(m, manager, &[NodeId(1)], None);
        assert!(partial > 0.0 && partial < 1.0);
    }

    #[test]
    fn more_trojans_never_reduce_infection() {
        let m = Mesh2d::new(8, 8).unwrap();
        let manager = m.center();
        let mut prev = 0.0;
        let mut nodes = Vec::new();
        for i in 0..20u16 {
            nodes.push(NodeId(i * 3));
            let rate = analytic_infection_rate(m, manager, &nodes, None);
            assert!(rate >= prev - 1e-12);
            prev = rate;
        }
    }
}
