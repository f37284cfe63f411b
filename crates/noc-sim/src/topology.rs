//! Network topologies: the [`Topology`] trait and its implementations.
//!
//! Historically the simulator was hard-wired to [`Mesh2D`]; everything that
//! consumes connectivity now goes through the [`Topology`] trait instead, so
//! the cycle engines, routing functions, and sprint-region growth run
//! unmodified on any implementation. The contract implementors must uphold
//! (port numbering, determinism, symmetry) is documented in
//! [TOPOLOGY.md](https://github.com/noc-sprinting/noc-sprinting/blob/main/TOPOLOGY.md)
//! at the repository root; the summary table there is generated by
//! [`topology_reference`] and drift-guarded in CI.
//!
//! Implementations:
//!
//! - [`Mesh2D`] — the paper's 2D mesh (XY/CDOR routing, convex sprint
//!   regions).
//! - [`Circulant`] — the ring-circulant C(N; 1, s) with table-free
//!   chord-first routing and dateline VC classes for deadlock freedom.
//!
//! [`Topo`] is a cheap-to-clone shared handle (`Arc<dyn Topology>`) used
//! wherever a topology is *stored*; borrowed call sites take
//! `&dyn Topology`, which `&Mesh2D` coerces to, keeping mesh-era code
//! compiling unchanged.

use std::sync::Arc;

use crate::geometry::{Coord, Direction, NodeId};

/// A `width x height` 2D mesh.
///
/// Node ids are row-major: node `k` is at `(k % width, k / width)` with the
/// origin at the top-left corner (matching the paper's Fig. 5a numbering,
/// where node 0 is top-left and node numbers grow left-to-right then
/// top-to-bottom).
///
/// ```
/// use noc_sim::topology::Mesh2D;
/// use noc_sim::geometry::{Coord, Direction, NodeId};
///
/// let mesh = Mesh2D::new(4, 4)?;
/// assert_eq!(mesh.coord(NodeId(5)), Coord::new(1, 1));
/// assert_eq!(mesh.neighbor(NodeId(5), Direction::East), Some(NodeId(6)));
/// assert_eq!(mesh.neighbor(NodeId(0), Direction::North), None);
/// # Ok::<(), noc_sim::error::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh2D {
    width: u16,
    height: u16,
}

impl Mesh2D {
    /// Creates a mesh of the given dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyMesh`](crate::error::TopologyError) if
    /// either dimension is zero.
    pub fn new(width: u16, height: u16) -> Result<Self, crate::error::TopologyError> {
        if width == 0 || height == 0 {
            return Err(crate::error::TopologyError::EmptyMesh { width, height });
        }
        Ok(Mesh2D { width, height })
    }

    /// The canonical 4x4 mesh used throughout the paper's evaluation.
    pub fn paper_4x4() -> Self {
        Mesh2D {
            width: 4,
            height: 4,
        }
    }

    /// Mesh width (number of columns).
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height (number of rows).
    #[inline]
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Whether the mesh has no nodes; always `false` for a constructed mesh.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.len(), "node {node} out of range for {self:?}");
        Coord::new(
            (node.0 % usize::from(self.width)) as u16,
            (node.0 / usize::from(self.width)) as u16,
        )
    }

    /// Node at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the mesh.
    #[inline]
    pub fn node(&self, coord: Coord) -> NodeId {
        assert!(
            self.contains(coord),
            "coord {coord} out of range for {self:?}"
        );
        NodeId(usize::from(coord.y) * usize::from(self.width) + usize::from(coord.x))
    }

    /// Whether the coordinate lies inside the mesh.
    #[inline]
    pub fn contains(&self, coord: Coord) -> bool {
        coord.x < self.width && coord.y < self.height
    }

    /// The neighbor of `node` in direction `dir`, if one exists.
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        let (dx, dy) = dir.delta();
        let nx = i32::from(c.x) + dx;
        let ny = i32::from(c.y) + dy;
        if nx < 0 || ny < 0 || nx >= i32::from(self.width) || ny >= i32::from(self.height) {
            None
        } else {
            Some(self.node(Coord::new(nx as u16, ny as u16)))
        }
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId)
    }

    /// Iterates over all directed links as `(from, to, direction)`.
    ///
    /// Each physical bidirectional link appears twice, once per direction,
    /// which matches how the router model owns one outgoing channel per port.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, Direction)> + '_ {
        self.nodes().flat_map(move |n| {
            Direction::ALL
                .into_iter()
                .filter_map(move |d| self.neighbor(n, d).map(|m| (n, m, d)))
        })
    }

    /// Number of directed links (`2 *` physical links).
    pub fn num_directed_links(&self) -> usize {
        let w = usize::from(self.width);
        let h = usize::from(self.height);
        2 * ((w - 1) * h + w * (h - 1))
    }

    /// Minimal hop count between two nodes (Manhattan distance).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.coord(a).manhattan(self.coord(b))
    }
}

// ---------------------------------------------------------------------------
// The Topology trait
// ---------------------------------------------------------------------------

/// A network topology the simulator can run on.
///
/// Implementations describe *connectivity only*; the router microarchitecture
/// (pipeline, VCs, credits) is topology-agnostic. The full contract lives in
/// `TOPOLOGY.md`; the load-bearing invariants are:
///
/// - **Degree ≤ 4 + local.** Every node exposes at most one neighbor per
///   [`Direction`]; the five-port router model
///   (`Local`/`North`/`South`/`East`/`West`) is reused unchanged.
/// - **Port symmetry.** `neighbor(a, d) == Some(b)` implies
///   `neighbor(b, d.opposite()) == Some(a)` — link traversal delivers to
///   port `d.opposite()` and credit return walks the same edge backwards.
/// - **Determinism.** All methods are pure functions of the topology value;
///   two equal topologies must answer every query identically (results feed
///   bit-identical replay and the result cache).
/// - **Metric consistency.** [`Topology::hops`] is the exact minimal hop
///   count in the full (ungated) topology; routing minimality tests compare
///   walked paths against it, and [`Topology::diameter`] is its maximum.
pub trait Topology: std::fmt::Debug + Send + Sync {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// The neighbor of `node` in direction `dir`, if one exists.
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId>;

    /// Minimal hop count between two nodes in the full topology (the
    /// minimal-route oracle routing functions are measured against).
    fn hops(&self, a: NodeId, b: NodeId) -> u32;

    /// Maximum of [`Topology::hops`] over all node pairs.
    fn diameter(&self) -> u32;

    /// Stable human/wire-readable identity, e.g. `mesh4x4` or `circ16s5`.
    /// Equal labels must mean equal topologies ([`Topo`] equality and
    /// hashing go through this).
    fn label(&self) -> String;

    /// Algorithm 1's growth key: sprint regions grow by adding nodes in
    /// ascending `sprint_weight` from the master (ties broken by node
    /// index). The mesh uses squared Euclidean distance (the paper's rule);
    /// the circulant uses ring distance, which makes every region a
    /// contiguous arc.
    fn sprint_weight(&self, master: NodeId, node: NodeId) -> u64;

    /// One-line deadlock-freedom declaration for this topology's canonical
    /// routing function (rendered into the TOPOLOGY.md summary table).
    fn deadlock_freedom(&self) -> &'static str;

    /// One-line name of the canonical routing algorithm.
    fn routing_name(&self) -> &'static str;

    /// One-line description of the sprint-region shape invariant.
    fn sprint_rule(&self) -> &'static str;

    /// Downcast to a mesh, for mesh-specific algorithms (XY-family routing,
    /// digital convexity checks).
    fn as_mesh(&self) -> Option<&Mesh2D> {
        None
    }

    /// Downcast to a circulant.
    fn as_circulant(&self) -> Option<&Circulant> {
        None
    }

    /// Whether the topology has no nodes (never true for a constructed one).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of directed links (each physical link counted once per
    /// direction, matching per-port channel ownership in the router model).
    fn num_directed_links(&self) -> usize {
        (0..self.len())
            .map(|n| {
                Direction::ALL
                    .into_iter()
                    .filter(|&d| self.neighbor(NodeId(n), d).is_some())
                    .count()
            })
            .sum()
    }
}

/// All node ids of a topology, in index order.
pub fn topo_nodes(topo: &dyn Topology) -> impl Iterator<Item = NodeId> + '_ {
    (0..topo.len()).map(NodeId)
}

/// All directed links of a topology as `(from, to, direction)`, enumerated
/// in node order then [`Direction::ALL`] order (the same order
/// [`Mesh2D::links`] uses).
pub fn directed_links(topo: &dyn Topology) -> Vec<(NodeId, NodeId, Direction)> {
    let mut out = Vec::new();
    for n in topo_nodes(topo) {
        for d in Direction::ALL {
            if let Some(m) = topo.neighbor(n, d) {
                out.push((n, m, d));
            }
        }
    }
    out
}

impl Topology for Mesh2D {
    fn len(&self) -> usize {
        Mesh2D::len(self)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        Mesh2D::neighbor(self, node, dir)
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        Mesh2D::hops(self, a, b)
    }

    fn diameter(&self) -> u32 {
        u32::from(self.width - 1) + u32::from(self.height - 1)
    }

    fn label(&self) -> String {
        format!("mesh{}x{}", self.width, self.height)
    }

    fn sprint_weight(&self, master: NodeId, node: NodeId) -> u64 {
        u64::from(self.coord(node).euclidean_sq(self.coord(master)))
    }

    fn deadlock_freedom(&self) -> &'static str {
        "CDOR turn restriction is cycle-free on every convex region (Dally–Seitz CDG acyclicity, pinned by `check_routes`)"
    }

    fn routing_name(&self) -> &'static str {
        "CDOR (X-first with convex vertical detours)"
    }

    fn sprint_rule(&self) -> &'static str {
        "digitally convex (row/column intervals, 4-connected)"
    }

    fn as_mesh(&self) -> Option<&Mesh2D> {
        Some(self)
    }

    fn num_directed_links(&self) -> usize {
        Mesh2D::num_directed_links(self)
    }
}

// ---------------------------------------------------------------------------
// Ring-circulant topology C(N; 1, s)
// ---------------------------------------------------------------------------

/// The ring-circulant topology C(N; 1, s): `N` nodes on a ring, each
/// connected to its ring neighbors `±1` and to the chord neighbors `±s`.
///
/// Port mapping (fixed, so the 5-port router model is reused unchanged):
/// `East = +1`, `West = -1`, `South = +s`, `North = -s` (all mod `N`).
/// Degree is exactly 4 everywhere — unlike the mesh, there are no edge
/// nodes — and the topology is vertex-transitive: distance depends only on
/// the index difference, which is what makes table-free routing possible.
///
/// ```
/// use noc_sim::topology::{Circulant, Topology};
/// use noc_sim::geometry::{Direction, NodeId};
///
/// let c = Circulant::new(16, 5)?;
/// assert_eq!(c.neighbor(NodeId(0), Direction::South), Some(NodeId(5)));
/// assert_eq!(c.neighbor(NodeId(0), Direction::North), Some(NodeId(11)));
/// assert_eq!(c.hops(NodeId(0), NodeId(11)), 1);
/// assert_eq!(c.diameter(), 4);
/// # Ok::<(), noc_sim::error::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Circulant {
    n: usize,
    skip: usize,
    /// `dist[d]` = minimal hops to the node `d` indices ahead (vertex
    /// transitivity: the full distance function in `N` words).
    dist: Vec<u32>,
    diameter: u32,
}

impl Circulant {
    /// Creates C(n; 1, skip).
    ///
    /// # Errors
    ///
    /// [`TopologyError::BadCirculant`](crate::error::TopologyError::BadCirculant) unless `2 <= skip` and
    /// `2 * skip < n`: the four neighbors of a node must be distinct for
    /// the per-port channel model to hold.
    pub fn new(n: usize, skip: usize) -> Result<Self, crate::error::TopologyError> {
        if skip < 2 || 2 * skip >= n {
            return Err(crate::error::TopologyError::BadCirculant { n, skip });
        }
        let dist: Vec<u32> = (0..n)
            .map(|d| {
                let (j, r) = decompose(n, skip, d);
                (j.unsigned_abs() + r.unsigned_abs()) as u32
            })
            .collect();
        let diameter = dist.iter().copied().max().unwrap_or(0);
        Ok(Circulant {
            n,
            skip,
            dist,
            diameter,
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The chord skip `s`.
    pub fn skip(&self) -> usize {
        self.skip
    }

    /// Index difference `b - a` mod `n`.
    #[inline]
    pub fn delta(&self, a: NodeId, b: NodeId) -> usize {
        (b.0 + self.n - a.0) % self.n
    }

    /// Ring-only distance (chords ignored): `min(d, n - d)`. This is the
    /// sprint-growth key — regions grown by it are contiguous arcs.
    fn ring_distance(&self, a: NodeId, b: NodeId) -> usize {
        let d = self.delta(a, b);
        d.min(self.n - d)
    }

    /// The canonical minimal decomposition of an index difference into
    /// `(chords, ring_steps)`: `j * skip + r ≡ delta (mod n)` with
    /// `|j| + |r|` minimal. Ties prefer fewer chords, then the positive
    /// chord direction, then the positive ring direction, making the
    /// per-hop routing decision deterministic.
    pub fn decompose(&self, delta: usize) -> (i64, i64) {
        decompose(self.n, self.skip, delta)
    }
}

/// Minimal `(j, r)` with `j * skip + r ≡ delta (mod n)`; see
/// [`Circulant::decompose`] for the tie-break rule.
fn decompose(n: usize, skip: usize, delta: usize) -> (i64, i64) {
    debug_assert!(delta < n);
    let n_i = n as i64;
    let skip_i = skip as i64;
    let delta_i = delta as i64;
    // |j| never needs to exceed n / skip + 1: going further wraps the whole
    // ring and cannot shorten the ring remainder below what a smaller |j|
    // already achieves.
    let jmax = n_i / skip_i + 1;
    #[allow(clippy::type_complexity)]
    let mut best: Option<((i64, i64, bool, bool), (i64, i64))> = None;
    for j in -jmax..=jmax {
        let residual = (delta_i - j * skip_i).rem_euclid(n_i);
        // Two signed representatives of the ring remainder; shorter wins,
        // the positive one on an exact half-ring tie.
        let r = if 2 * residual <= n_i {
            residual
        } else {
            residual - n_i
        };
        let rank = (j.abs() + r.abs(), j.abs(), j < 0, r < 0);
        if best.is_none_or(|(b, _)| rank < b) {
            best = Some((rank, (j, r)));
        }
    }
    best.expect("decomposition search space is nonempty").1
}

impl Topology for Circulant {
    fn len(&self) -> usize {
        self.n
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        assert!(node.0 < self.n, "node {node} out of range for {self:?}");
        let step = match dir {
            Direction::East => 1,
            Direction::West => self.n - 1,
            Direction::South => self.skip,
            Direction::North => self.n - self.skip,
        };
        Some(NodeId((node.0 + step) % self.n))
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(a.0 < self.n && b.0 < self.n, "node out of range");
        self.dist[self.delta(a, b)]
    }

    fn diameter(&self) -> u32 {
        self.diameter
    }

    fn label(&self) -> String {
        format!("circ{}s{}", self.n, self.skip)
    }

    fn sprint_weight(&self, master: NodeId, node: NodeId) -> u64 {
        self.ring_distance(master, node) as u64
    }

    fn deadlock_freedom(&self) -> &'static str {
        "chord-first dimension order + 2 dateline VC classes per dimension; extended CDG acyclicity pinned by `check_routes`, arcs included"
    }

    fn routing_name(&self) -> &'static str {
        "chord-first minimal (table-free); in-arc ring walk on partial regions"
    }

    fn sprint_rule(&self) -> &'static str {
        "contiguous ring arc (prefix of ring-distance order)"
    }

    fn as_circulant(&self) -> Option<&Circulant> {
        Some(self)
    }

    fn num_directed_links(&self) -> usize {
        4 * self.n
    }
}

// ---------------------------------------------------------------------------
// Shared handle and wire-level spec
// ---------------------------------------------------------------------------

/// A cheap-to-clone shared handle to a [`Topology`].
///
/// Used wherever a topology is *stored* (networks, sweeps, sprint sets);
/// borrowed call sites take `&dyn Topology` and receive one via
/// [`std::ops::Deref`]. Equality and hashing go through
/// [`Topology::label`], which the trait contract requires to identify the
/// topology.
#[derive(Clone)]
pub struct Topo(Arc<dyn Topology>);

impl Topo {
    /// Wraps a topology value.
    pub fn new(topology: impl Topology + 'static) -> Self {
        Topo(Arc::new(topology))
    }

    /// The underlying trait object (also available through deref).
    pub fn as_dyn(&self) -> &dyn Topology {
        &*self.0
    }
}

impl std::ops::Deref for Topo {
    type Target = dyn Topology;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for Topo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Topo({:?})", self.0)
    }
}

impl PartialEq for Topo {
    fn eq(&self, other: &Self) -> bool {
        self.0.label() == other.0.label()
    }
}

impl Eq for Topo {}

impl std::hash::Hash for Topo {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.label().hash(state);
    }
}

impl From<Mesh2D> for Topo {
    fn from(mesh: Mesh2D) -> Self {
        Topo::new(mesh)
    }
}

impl From<Circulant> for Topo {
    fn from(c: Circulant) -> Self {
        Topo::new(c)
    }
}

/// A compact, copyable, hashable description of a topology — the form jobs
/// carry on the service wire and fold into cache keys. [`TopologySpec::build`]
/// materializes the actual [`Topo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// A `width x height` 2D mesh.
    Mesh {
        /// Number of columns.
        width: u16,
        /// Number of rows.
        height: u16,
    },
    /// The ring-circulant C(n; 1, skip).
    Circulant {
        /// Number of nodes.
        n: u16,
        /// Chord skip.
        skip: u16,
    },
}

impl Default for TopologySpec {
    /// The paper's 4x4 mesh.
    fn default() -> Self {
        TopologySpec::Mesh {
            width: 4,
            height: 4,
        }
    }
}

impl TopologySpec {
    /// Materializes the topology.
    ///
    /// # Errors
    ///
    /// Propagates the constructor's validation error.
    pub fn build(&self) -> Result<Topo, crate::error::TopologyError> {
        match *self {
            TopologySpec::Mesh { width, height } => Ok(Topo::new(Mesh2D::new(width, height)?)),
            TopologySpec::Circulant { n, skip } => Ok(Topo::new(Circulant::new(
                usize::from(n),
                usize::from(skip),
            )?)),
        }
    }

    /// Number of nodes (without materializing).
    pub fn len(&self) -> usize {
        match *self {
            TopologySpec::Mesh { width, height } => usize::from(width) * usize::from(height),
            TopologySpec::Circulant { n, .. } => usize::from(n),
        }
    }

    /// Whether the spec has no nodes (never true for a valid spec).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a mesh spec.
    pub fn is_mesh(&self) -> bool {
        matches!(self, TopologySpec::Mesh { .. })
    }

    /// The wire name, identical to the built topology's
    /// [`Topology::label`]: `mesh<W>x<H>` or `circ<N>s<S>`.
    pub fn wire_name(&self) -> String {
        match *self {
            TopologySpec::Mesh { width, height } => format!("mesh{width}x{height}"),
            TopologySpec::Circulant { n, skip } => format!("circ{n}s{skip}"),
        }
    }

    /// Parses a wire name produced by [`TopologySpec::wire_name`].
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTopology`](crate::error::TopologyError::UnknownTopology) on anything else.
    pub fn from_wire_name(name: &str) -> Result<Self, crate::error::TopologyError> {
        let bad = || crate::error::TopologyError::UnknownTopology(name.to_string());
        if let Some(rest) = name.strip_prefix("mesh") {
            let (w, h) = rest.split_once('x').ok_or_else(bad)?;
            let spec = TopologySpec::Mesh {
                width: w.parse().map_err(|_| bad())?,
                height: h.parse().map_err(|_| bad())?,
            };
            return Ok(spec);
        }
        if let Some(rest) = name.strip_prefix("circ") {
            let (n, s) = rest.split_once('s').ok_or_else(bad)?;
            let spec = TopologySpec::Circulant {
                n: n.parse().map_err(|_| bad())?,
                skip: s.parse().map_err(|_| bad())?,
            };
            return Ok(spec);
        }
        Err(bad())
    }
}

// ---------------------------------------------------------------------------
// Doc reference (TOPOLOGY.md drift guard)
// ---------------------------------------------------------------------------

/// The representative instances the TOPOLOGY.md summary table describes.
pub fn reference_specs() -> Vec<TopologySpec> {
    vec![
        TopologySpec::Mesh {
            width: 4,
            height: 4,
        },
        TopologySpec::Circulant { n: 16, skip: 3 },
        TopologySpec::Circulant { n: 16, skip: 5 },
    ]
}

/// Renders the per-topology summary table embedded in TOPOLOGY.md between
/// the `topology:generated` markers. A unit test compares the document
/// against this output, so TOPOLOGY.md cannot drift from the trait
/// implementations without failing CI (same pattern as the SERVICE.md
/// schema guard).
pub fn topology_reference() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| Topology | Nodes | Directed links | Diameter | Routing | Sprint region | Deadlock freedom |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for spec in reference_specs() {
        let topo = spec.build().expect("reference specs are valid");
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} | {} |",
            topo.label(),
            topo.len(),
            topo.num_directed_links(),
            topo.diameter(),
            topo.routing_name(),
            topo.sprint_rule(),
            topo.deadlock_freedom(),
        );
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_mesh() {
        assert!(Mesh2D::new(0, 4).is_err());
        assert!(Mesh2D::new(4, 0).is_err());
    }

    #[test]
    fn coord_node_roundtrip() {
        let mesh = Mesh2D::new(5, 3).unwrap();
        for n in mesh.nodes() {
            assert_eq!(mesh.node(mesh.coord(n)), n);
        }
    }

    #[test]
    fn paper_mesh_is_4x4() {
        let mesh = Mesh2D::paper_4x4();
        assert_eq!(mesh.len(), 16);
        assert_eq!(mesh.coord(NodeId(0)), Coord::new(0, 0));
        assert_eq!(mesh.coord(NodeId(5)), Coord::new(1, 1));
        assert_eq!(mesh.coord(NodeId(15)), Coord::new(3, 3));
    }

    #[test]
    fn neighbors_at_edges_are_none() {
        let mesh = Mesh2D::paper_4x4();
        assert_eq!(mesh.neighbor(NodeId(0), Direction::North), None);
        assert_eq!(mesh.neighbor(NodeId(0), Direction::West), None);
        assert_eq!(mesh.neighbor(NodeId(3), Direction::East), None);
        assert_eq!(mesh.neighbor(NodeId(15), Direction::South), None);
    }

    #[test]
    fn neighbors_in_interior() {
        let mesh = Mesh2D::paper_4x4();
        assert_eq!(mesh.neighbor(NodeId(5), Direction::North), Some(NodeId(1)));
        assert_eq!(mesh.neighbor(NodeId(5), Direction::South), Some(NodeId(9)));
        assert_eq!(mesh.neighbor(NodeId(5), Direction::East), Some(NodeId(6)));
        assert_eq!(mesh.neighbor(NodeId(5), Direction::West), Some(NodeId(4)));
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let mesh = Mesh2D::new(6, 2).unwrap();
        for (a, b, d) in mesh.links() {
            assert_eq!(mesh.neighbor(b, d.opposite()), Some(a));
        }
    }

    #[test]
    fn link_count_matches_formula() {
        for (w, h) in [(1u16, 1u16), (4, 4), (2, 7), (8, 8)] {
            let mesh = Mesh2D::new(w, h).unwrap();
            assert_eq!(mesh.links().count(), mesh.num_directed_links());
        }
    }

    #[test]
    fn hops_is_manhattan() {
        let mesh = Mesh2D::paper_4x4();
        assert_eq!(mesh.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(mesh.hops(NodeId(0), NodeId(3)), 3);
        assert_eq!(mesh.hops(NodeId(9), NodeId(9)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_out_of_range_panics() {
        let mesh = Mesh2D::paper_4x4();
        let _ = mesh.coord(NodeId(16));
    }

    // -- Topology trait ----------------------------------------------------

    fn all_reference_topos() -> Vec<Topo> {
        let mut topos = vec![
            Topo::from(Mesh2D::paper_4x4()),
            Topo::from(Mesh2D::new(5, 3).unwrap()),
        ];
        for (n, s) in [(16, 3), (16, 4), (16, 5), (11, 3), (32, 7), (9, 2)] {
            topos.push(Topo::from(Circulant::new(n, s).unwrap()));
        }
        topos
    }

    #[test]
    fn port_symmetry_holds_on_every_topology() {
        for topo in all_reference_topos() {
            for (a, b, d) in directed_links(&*topo) {
                assert_eq!(
                    topo.neighbor(b, d.opposite()),
                    Some(a),
                    "{}: {a} -{d:?}-> {b} not symmetric",
                    topo.label()
                );
            }
        }
    }

    #[test]
    fn hops_is_a_metric_consistent_with_neighbors() {
        for topo in all_reference_topos() {
            for a in topo_nodes(&*topo) {
                assert_eq!(topo.hops(a, a), 0, "{}", topo.label());
                for d in Direction::ALL {
                    if let Some(b) = topo.neighbor(a, d) {
                        assert!(
                            topo.hops(a, b) <= 1,
                            "{}: neighbor further than 1",
                            topo.label()
                        );
                    }
                }
                for b in topo_nodes(&*topo) {
                    let h = topo.hops(a, b);
                    assert_eq!(h, topo.hops(b, a), "{}: asymmetric metric", topo.label());
                    assert!(
                        h <= topo.diameter(),
                        "{}: hops exceed diameter",
                        topo.label()
                    );
                    if a != b {
                        // One step toward b must exist that decreases hops.
                        let decreases = Direction::ALL.into_iter().any(|d| {
                            topo.neighbor(a, d)
                                .is_some_and(|m| topo.hops(m, b) + 1 == h)
                        });
                        assert!(decreases, "{}: no descent from {a} to {b}", topo.label());
                    }
                }
            }
        }
    }

    #[test]
    fn hops_matches_bfs_on_every_topology() {
        for topo in all_reference_topos() {
            for src in topo_nodes(&*topo) {
                let mut dist = vec![u32::MAX; topo.len()];
                dist[src.0] = 0;
                let mut queue = std::collections::VecDeque::from([src]);
                while let Some(a) = queue.pop_front() {
                    for d in Direction::ALL {
                        if let Some(b) = topo.neighbor(a, d) {
                            if dist[b.0] == u32::MAX {
                                dist[b.0] = dist[a.0] + 1;
                                queue.push_back(b);
                            }
                        }
                    }
                }
                for b in topo_nodes(&*topo) {
                    assert_eq!(
                        topo.hops(src, b),
                        dist[b.0],
                        "{}: hops({src}, {b}) disagrees with BFS",
                        topo.label()
                    );
                }
            }
        }
    }

    #[test]
    fn circulant_rejects_degenerate_skips() {
        assert!(Circulant::new(16, 0).is_err());
        assert!(Circulant::new(16, 1).is_err(), "skip 1 duplicates the ring");
        assert!(Circulant::new(16, 8).is_err(), "+8 == -8 on 16 nodes");
        assert!(Circulant::new(4, 2).is_err());
        assert!(Circulant::new(5, 2).is_ok(), "smallest valid circulant");
    }

    #[test]
    fn circulant_worked_example_n16_s5() {
        // The worked example in TOPOLOGY.md: C(16; 1, 5).
        let c = Circulant::new(16, 5).unwrap();
        assert_eq!(c.decompose(0), (0, 0));
        assert_eq!(c.decompose(5), (1, 0), "one chord exactly");
        assert_eq!(c.decompose(7), (1, 2), "chord + two ring steps");
        assert_eq!(
            c.decompose(13),
            (0, -3),
            "cost tie with (-1, 2): fewer chords wins"
        );
        assert_eq!(
            c.decompose(8),
            (1, 3),
            "cost tie with (2, -2): fewer chords wins"
        );
        assert_eq!(
            c.hops(NodeId(0), NodeId(8)),
            4,
            "the antipode is the farthest node"
        );
        assert_eq!(c.decompose(12), (-1, 1), "12 = -5 + 1 mod 16");
        assert_eq!(c.diameter(), 4);
    }

    #[test]
    fn decompose_is_minimal_by_exhaustion() {
        for (n, s) in [(16usize, 3usize), (16, 5), (11, 3), (32, 7), (9, 2)] {
            let c = Circulant::new(n, s).unwrap();
            for delta in 0..n {
                let (j, r) = c.decompose(delta);
                assert_eq!(
                    (j * s as i64 + r).rem_euclid(n as i64),
                    delta as i64,
                    "C({n};1,{s}) delta {delta}: decomposition invalid"
                );
                // Exhaustive check: nothing cheaper exists.
                let cost = j.abs() + r.abs();
                for jj in -(n as i64)..=(n as i64) {
                    for rr in -(n as i64)..=(n as i64) {
                        if (jj * s as i64 + rr).rem_euclid(n as i64) == delta as i64 {
                            assert!(
                                jj.abs() + rr.abs() >= cost,
                                "C({n};1,{s}) delta {delta}: ({jj},{rr}) beats ({j},{r})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sprint_weight_prefixes_are_contiguous_arcs() {
        for (n, s) in [(16usize, 3usize), (16, 5), (11, 3)] {
            let c = Circulant::new(n, s).unwrap();
            for master in 0..n {
                let mut order: Vec<NodeId> = (0..n).map(NodeId).collect();
                order.sort_by_key(|&x| c.sprint_weight(NodeId(master), x));
                for level in 1..=n {
                    let mut active = vec![false; n];
                    for &x in &order[..level] {
                        active[x.0] = true;
                    }
                    // A contiguous arc has exactly `level` directed ring
                    // edges staying inside it... minus the two ends: an arc
                    // of k nodes has k-1 internal undirected ring edges
                    // (k when it is the full ring).
                    let internal = (0..n).filter(|&i| active[i] && active[(i + 1) % n]).count();
                    let expected = if level == n { n } else { level - 1 };
                    assert_eq!(
                        internal, expected,
                        "C({n};1,{s}) master {master} level {level}: not an arc"
                    );
                }
            }
        }
    }

    #[test]
    fn mesh_sprint_weight_is_euclidean_sq() {
        let mesh = Mesh2D::paper_4x4();
        for m in 0..16 {
            for x in 0..16 {
                assert_eq!(
                    Topology::sprint_weight(&mesh, NodeId(m), NodeId(x)),
                    u64::from(mesh.coord(NodeId(x)).euclidean_sq(mesh.coord(NodeId(m))))
                );
            }
        }
    }

    #[test]
    fn labels_and_wire_names_round_trip() {
        for spec in [
            TopologySpec::default(),
            TopologySpec::Mesh {
                width: 16,
                height: 16,
            },
            TopologySpec::Circulant { n: 16, skip: 5 },
            TopologySpec::Circulant { n: 32, skip: 7 },
        ] {
            let name = spec.wire_name();
            assert_eq!(TopologySpec::from_wire_name(&name).unwrap(), spec);
            assert_eq!(spec.build().unwrap().label(), name);
            assert_eq!(spec.build().unwrap().len(), spec.len());
        }
        assert!(TopologySpec::from_wire_name("torus4x4").is_err());
        assert!(TopologySpec::from_wire_name("mesh4").is_err());
        assert!(TopologySpec::from_wire_name("circ16").is_err());
        assert!(TopologySpec::Circulant { n: 16, skip: 8 }.build().is_err());
    }

    #[test]
    fn topo_equality_and_hash_follow_labels() {
        use std::collections::HashSet;
        let a = Topo::from(Mesh2D::paper_4x4());
        let b = Topo::from(Mesh2D::new(4, 4).unwrap());
        let c = Topo::from(Circulant::new(16, 5).unwrap());
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<Topo> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn directed_links_matches_mesh_links_order() {
        let mesh = Mesh2D::new(3, 4).unwrap();
        let via_trait = directed_links(&mesh);
        let via_mesh: Vec<_> = mesh.links().collect();
        assert_eq!(via_trait, via_mesh);
        assert_eq!(via_trait.len(), Topology::num_directed_links(&mesh));
    }

    #[test]
    fn circulant_link_count() {
        let c = Circulant::new(16, 5).unwrap();
        assert_eq!(directed_links(&c).len(), 64);
        assert_eq!(Topology::num_directed_links(&c), 64);
    }

    #[test]
    fn topology_reference_mentions_every_reference_spec() {
        let reference = topology_reference();
        for spec in reference_specs() {
            assert!(
                reference.contains(&format!("`{}`", spec.wire_name())),
                "reference table missing {}",
                spec.wire_name()
            );
        }
    }
}
