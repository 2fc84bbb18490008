use std::fmt;

use crate::error::NocError;

/// Identifier of a node (tile) in the mesh.
///
/// Node ids are row-major: `id = y * width + x`. The packet header reserves
/// 16 bits for each address (Fig. 1 of the paper), so at most `u16::MAX + 1`
/// nodes are addressable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the raw 16-bit address used in the packet header.
    #[must_use]
    pub fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// Cartesian coordinate of a node inside the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u16,
    /// Row, `0..height`.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    #[must_use]
    pub fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance to `other` — the hop count of any minimal route.
    #[must_use]
    pub(crate) fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// One of the five router ports of a 2D-mesh router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards decreasing `y`.
    North,
    /// Towards increasing `y`.
    South,
    /// Towards increasing `x`.
    East,
    /// Towards decreasing `x`.
    West,
    /// The local network-interface port of the tile.
    Local,
}

impl Direction {
    /// All five port directions, `Local` last.
    pub const ALL: [Direction; 5] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::Local,
    ];

    /// The four mesh directions (no `Local`), in [`Direction::index`]
    /// order — the order link slots are laid out and scanned in.
    pub(crate) const MESH: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// `OPPOSITE_INDEX[d.index()]` is `d.opposite().index()` for the four
    /// mesh directions (N↔S, E↔W) — a table-lookup form of
    /// [`Direction::opposite`] for the per-flit hot path.
    pub const OPPOSITE_INDEX: [usize; 4] = [1, 0, 3, 2];

    /// Index of the direction in `0..5`, usable as an array index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::South => 1,
            Direction::East => 2,
            Direction::West => 3,
            Direction::Local => 4,
        }
    }

    /// The port on the neighbouring router that a link from `self` lands on.
    ///
    /// Returns `None` for [`Direction::Local`], which has no peer router.
    #[must_use]
    pub fn opposite(self) -> Option<Direction> {
        match self {
            Direction::North => Some(Direction::South),
            Direction::South => Some(Direction::North),
            Direction::East => Some(Direction::West),
            Direction::West => Some(Direction::East),
            Direction::Local => None,
        }
    }
}

/// A rectangular 2D mesh topology.
///
/// The experiments in the paper use meshes of 64, 128, 256 and 512 nodes;
/// the default evaluation platform is a 16×16 mesh (Table I / Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2d {
    width: u16,
    height: u16,
}

impl Mesh2d {
    /// Creates a `width x height` mesh.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidMesh`] if either dimension is zero or the
    /// node count would not fit the 16-bit address fields of Fig. 1.
    pub fn new(width: u16, height: u16) -> Result<Self, NocError> {
        let nodes = width as u32 * height as u32;
        if width == 0 || height == 0 || nodes > u16::MAX as u32 + 1 {
            return Err(NocError::InvalidMesh { width, height });
        }
        Ok(Mesh2d { width, height })
    }

    /// Creates the most-square mesh holding exactly `nodes` nodes.
    ///
    /// Used by the system-size sweeps of Fig. 3 and Fig. 4: 64 → 8×8,
    /// 128 → 16×8, 256 → 16×16, 512 → 32×16.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidMesh`] if `nodes` is zero or has no
    /// factorisation into two 16-bit dimensions.
    pub fn with_nodes(nodes: u32) -> Result<Self, NocError> {
        if nodes == 0 || nodes > u16::MAX as u32 + 1 {
            return Err(NocError::InvalidMesh {
                width: nodes as u16,
                height: 0,
            });
        }
        let mut best: Option<(u16, u16)> = None;
        let mut h = 1u32;
        while h * h <= nodes {
            if nodes.is_multiple_of(h) {
                let w = nodes / h;
                if w <= u16::MAX as u32 {
                    best = Some((w as u16, h as u16));
                }
            }
            h += 1;
        }
        match best {
            Some((w, h)) => Mesh2d::new(w, h),
            None => Err(NocError::InvalidMesh {
                width: nodes as u16,
                height: 1,
            }),
        }
    }

    /// Mesh width (columns).
    #[must_use]
    pub fn width(self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    #[must_use]
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    #[must_use]
    pub fn nodes(self) -> u32 {
        self.width as u32 * self.height as u32
    }

    /// Converts a node id to its coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the mesh; use [`Mesh2d::contains`] to
    /// check first when the id comes from untrusted input.
    #[must_use]
    pub fn coord(self, node: NodeId) -> Coord {
        assert!(self.contains(node), "node {node} outside {self:?}");
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// Converts a coordinate to its node id.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the mesh.
    #[must_use]
    pub fn node(self, coord: Coord) -> NodeId {
        assert!(
            coord.x < self.width && coord.y < self.height,
            "coord {coord} outside {self:?}"
        );
        NodeId(coord.y * self.width + coord.x)
    }

    /// Whether `node` is a valid id for this mesh.
    #[must_use]
    pub fn contains(self, node: NodeId) -> bool {
        (node.0 as u32) < self.nodes()
    }

    /// The neighbour of `node` in `dir`, if the mesh has one there.
    #[must_use]
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let n = match dir {
            Direction::North => {
                if c.y == 0 {
                    return None;
                }
                Coord::new(c.x, c.y - 1)
            }
            Direction::South => {
                if c.y + 1 >= self.height {
                    return None;
                }
                Coord::new(c.x, c.y + 1)
            }
            Direction::East => {
                if c.x + 1 >= self.width {
                    return None;
                }
                Coord::new(c.x + 1, c.y)
            }
            Direction::West => {
                if c.x == 0 {
                    return None;
                }
                Coord::new(c.x - 1, c.y)
            }
            Direction::Local => return None,
        };
        Some(self.node(n))
    }

    /// The full neighbour relation as a flat table: entry `node * 4 +
    /// dir.index()` is [`Mesh2d::neighbor`] of `node` in `dir`, for the
    /// four mesh directions. Built once at network construction so the
    /// per-flit hot path replaces coordinate arithmetic (and its bounds
    /// asserts) with one indexed load.
    #[must_use]
    pub fn neighbor_table(self) -> Vec<Option<NodeId>> {
        let mut table = Vec::with_capacity(self.nodes() as usize * 4);
        for node in self.iter_nodes() {
            for dir in Direction::MESH {
                table.push(self.neighbor(node, dir));
            }
        }
        table
    }

    /// Manhattan distance between two nodes.
    #[must_use]
    pub fn distance(self, a: NodeId, b: NodeId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }

    /// The node closest to the geometric center of the mesh.
    ///
    /// The paper places the global manager either "at the center" or "at one
    /// corner" of the chip (Fig. 3); this returns the canonical center.
    #[must_use]
    pub fn center(self) -> NodeId {
        self.node(Coord::new(self.width / 2, self.height / 2))
    }

    /// The node at the (0, 0) corner of the mesh.
    #[must_use]
    pub fn corner(self) -> NodeId {
        NodeId(0)
    }

    /// Iterator over all node ids in row-major order.
    pub fn iter_nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(|i| NodeId(i as u16))
    }

    /// Nodes on the minimal XY route from `src` to `dst`, inclusive of both
    /// endpoints. Used by analytic infection-rate computations.
    #[must_use]
    pub fn xy_path(self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let s = self.coord(src);
        let d = self.coord(dst);
        let mut path = Vec::with_capacity(s.manhattan(d) as usize + 1);
        let mut cur = s;
        path.push(self.node(cur));
        while cur.x != d.x {
            cur.x = if d.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(self.node(cur));
        }
        while cur.y != d.y {
            cur.y = if d.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(self.node(cur));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_rejects_zero_dims() {
        assert!(Mesh2d::new(0, 4).is_err());
        assert!(Mesh2d::new(4, 0).is_err());
    }

    #[test]
    fn mesh_accepts_paper_sizes() {
        for n in [64, 128, 256, 512] {
            let m = Mesh2d::with_nodes(n).unwrap();
            assert_eq!(m.nodes(), n);
            // Most-square: aspect ratio at most 2:1 for powers of two.
            assert!(m.width() / m.height() <= 2);
        }
    }

    #[test]
    fn with_nodes_prefers_square() {
        let m = Mesh2d::with_nodes(256).unwrap();
        assert_eq!((m.width(), m.height()), (16, 16));
        let m = Mesh2d::with_nodes(64).unwrap();
        assert_eq!((m.width(), m.height()), (8, 8));
    }

    #[test]
    fn coord_roundtrip() {
        let m = Mesh2d::new(16, 16).unwrap();
        for n in m.iter_nodes() {
            assert_eq!(m.node(m.coord(n)), n);
        }
    }

    #[test]
    fn neighbors_at_edges() {
        let m = Mesh2d::new(4, 4).unwrap();
        assert_eq!(m.neighbor(NodeId(0), Direction::North), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::West), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::East), Some(NodeId(1)));
        assert_eq!(m.neighbor(NodeId(0), Direction::South), Some(NodeId(4)));
        assert_eq!(m.neighbor(NodeId(15), Direction::South), None);
        assert_eq!(m.neighbor(NodeId(15), Direction::East), None);
    }

    #[test]
    fn manhattan_distance() {
        let m = Mesh2d::new(8, 8).unwrap();
        assert_eq!(m.distance(NodeId(0), NodeId(63)), 14);
        assert_eq!(m.distance(NodeId(0), NodeId(0)), 0);
        assert_eq!(m.distance(NodeId(0), NodeId(7)), 7);
    }

    #[test]
    fn xy_path_endpoints_and_length() {
        let m = Mesh2d::new(8, 8).unwrap();
        let p = m.xy_path(NodeId(0), NodeId(63));
        assert_eq!(p.first(), Some(&NodeId(0)));
        assert_eq!(p.last(), Some(&NodeId(63)));
        assert_eq!(p.len() as u32, m.distance(NodeId(0), NodeId(63)) + 1);
        // X-first: second hop moves along x.
        assert_eq!(p[1], NodeId(1));
    }

    #[test]
    fn center_and_corner() {
        let m = Mesh2d::new(16, 16).unwrap();
        assert_eq!(m.coord(m.center()), Coord::new(8, 8));
        assert_eq!(m.corner(), NodeId(0));
    }

    #[test]
    fn opposite_directions() {
        assert_eq!(Direction::North.opposite(), Some(Direction::South));
        assert_eq!(Direction::East.opposite(), Some(Direction::West));
        assert_eq!(Direction::Local.opposite(), None);
    }

    #[test]
    fn opposite_index_table_matches_opposite() {
        for dir in Direction::MESH {
            assert_eq!(
                Direction::OPPOSITE_INDEX[dir.index()],
                dir.opposite().unwrap().index(),
                "{dir:?}"
            );
        }
    }

    #[test]
    fn neighbor_table_matches_neighbor() {
        for m in [Mesh2d::new(1, 1).unwrap(), Mesh2d::new(5, 3).unwrap()] {
            let table = m.neighbor_table();
            assert_eq!(table.len(), m.nodes() as usize * 4);
            for node in m.iter_nodes() {
                for dir in Direction::MESH {
                    assert_eq!(
                        table[node.0 as usize * 4 + dir.index()],
                        m.neighbor(node, dir),
                        "{node} {dir:?}"
                    );
                }
            }
        }
    }
}
