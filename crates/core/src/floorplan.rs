//! Algorithms 3 & 4: thermal-aware heuristic floorplanning.
//!
//! Topological sprinting (Algorithm 1) and CDOR operate purely on the
//! *logical* mesh; this design-time pass remaps each logical node to a
//! physical slot so that nodes likely to sprint **together** (adjacent early
//! entries of list `L`) are physically **spread apart**, flattening the heat
//! map without touching routing.
//!
//! Algorithm 3 walks the logical mesh BFS-style in activation order;
//! Algorithm 4 places each node on the free physical slot maximizing the
//! weighted sum of Euclidean distances to the already-placed nodes, with
//! weight `1 / HammingDistance(logical)` — logically-close nodes (which
//! co-sprint and accumulate heat) repel each other strongly, logically-far
//! nodes barely interact and may pack close.

use std::collections::VecDeque;

use noc_sim::geometry::{Direction, NodeId};
use noc_sim::topology::Mesh2D;

use crate::sprint_topology::SprintSet;

/// A bijection between logical mesh nodes and physical floorplan slots.
///
/// ```
/// use noc_sim::geometry::NodeId;
/// use noc_sprinting::floorplan::Floorplan;
/// use noc_sprinting::sprint_topology::SprintSet;
///
/// let plan = Floorplan::thermal_aware(&SprintSet::paper(16));
/// assert!(plan.is_bijection());
/// assert_eq!(plan.slot(NodeId(0)), 0, "the master keeps the MC corner");
/// // The other early sprinters are pushed away from it.
/// assert!(plan.slot(NodeId(1)) != 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Floorplan {
    mesh: Mesh2D,
    /// `pos[logical] = physical slot`.
    pos: Vec<usize>,
    /// `inv[physical slot] = logical`.
    inv: Vec<usize>,
}

impl Floorplan {
    /// The identity floorplan (logical layout == physical layout).
    pub fn identity(mesh: Mesh2D) -> Self {
        let pos: Vec<usize> = (0..mesh.len()).collect();
        Floorplan {
            mesh,
            inv: pos.clone(),
            pos,
        }
    }

    /// Runs Algorithms 3+4 for a mesh whose activation order comes from
    /// Algorithm 1 (via the sprint set's full order).
    pub fn thermal_aware(set: &SprintSet) -> Self {
        let mesh = *set.mesh();
        let order = set.full_order();
        // Rank of each node in list L, for neighbor exploration order.
        let mut rank = vec![0usize; mesh.len()];
        for (i, &n) in order.iter().enumerate() {
            rank[n.0] = i;
        }

        let mut pos = vec![usize::MAX; mesh.len()];
        let mut placed: Vec<NodeId> = Vec::new();
        let mut free: Vec<bool> = vec![true; mesh.len()];
        let master = set.master();

        // Pos(R0) = 0: the master keeps the top-left slot (closest to the
        // memory controller).
        pos[master.0] = 0;
        free[0] = false;
        placed.push(master);

        let mut queued = vec![false; mesh.len()];
        queued[master.0] = true;
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        enqueue_neighbors(&mesh, master, &rank, &mut queued, &mut queue);

        while let Some(rk) = queue.pop_front() {
            let slot = max_weighted_distance(&mesh, &pos, &placed, &free, rk);
            pos[rk.0] = slot;
            free[slot] = false;
            placed.push(rk);
            enqueue_neighbors(&mesh, rk, &rank, &mut queued, &mut queue);
        }

        let mut inv = vec![usize::MAX; mesh.len()];
        for (logical, &slot) in pos.iter().enumerate() {
            inv[slot] = logical;
        }
        Floorplan { mesh, pos, inv }
    }

    /// The mesh this floorplan maps.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// Physical slot of a logical node.
    pub fn slot(&self, logical: NodeId) -> usize {
        self.pos[logical.0]
    }

    /// Logical node occupying a physical slot.
    pub fn logical_at(&self, slot: usize) -> NodeId {
        NodeId(self.inv[slot])
    }

    /// Whether the mapping is a bijection (always true for constructed
    /// floorplans; exposed for tests).
    pub fn is_bijection(&self) -> bool {
        let mut seen = vec![false; self.mesh.len()];
        for &s in &self.pos {
            if s >= self.mesh.len() || seen[s] {
                return false;
            }
            seen[s] = true;
        }
        true
    }

    /// Physical length (in tile pitches) of the link between two logically
    /// adjacent nodes — after floorplanning, logical neighbors may sit far
    /// apart and need long repeated wires (Fig. 5b / SMART-style links).
    fn link_length(&self, a: NodeId, b: NodeId) -> f64 {
        let ca = self.slot_coord(self.pos[a.0]);
        let cb = self.slot_coord(self.pos[b.0]);
        let dx = ca.0 - cb.0;
        let dy = ca.1 - cb.1;
        (dx * dx + dy * dy).sqrt()
    }

    fn slot_coord(&self, slot: usize) -> (f64, f64) {
        let w = usize::from(self.mesh.width());
        ((slot % w) as f64, (slot / w) as f64)
    }

    /// Lengths of every directed logical mesh link under this floorplan.
    pub fn link_lengths(&self) -> Vec<((NodeId, NodeId), f64)> {
        self.mesh
            .links()
            .map(|(a, b, _)| ((a, b), self.link_length(a, b)))
            .collect()
    }

    /// Total wire length (sum over undirected logical links), a measure of
    /// the "increase in wiring complexity" the paper acknowledges.
    pub fn total_wire_length(&self) -> f64 {
        self.link_lengths().iter().map(|(_, l)| l).sum::<f64>() / 2.0
    }

    /// Maps per-logical-node powers into per-physical-slot powers for the
    /// thermal grid.
    ///
    /// # Panics
    ///
    /// Panics if `logical_power.len()` mismatches the mesh.
    pub fn physical_power(&self, logical_power: &[f64]) -> Vec<f64> {
        assert_eq!(
            logical_power.len(),
            self.mesh.len(),
            "power length mismatch"
        );
        let mut phys = vec![0.0; self.mesh.len()];
        for (logical, &slot) in self.pos.iter().enumerate() {
            phys[slot] = logical_power[logical];
        }
        phys
    }
}

/// Algorithm 3's queue discipline: push all unexplored logical-mesh
/// neighbors of `n`, ordered by their rank in list `L`.
fn enqueue_neighbors(
    mesh: &Mesh2D,
    n: NodeId,
    rank: &[usize],
    queued: &mut [bool],
    queue: &mut VecDeque<NodeId>,
) {
    let mut neigh: Vec<NodeId> = Direction::ALL
        .into_iter()
        .filter_map(|d| mesh.neighbor(n, d))
        .filter(|m| !queued[m.0])
        .collect();
    neigh.sort_by_key(|m| rank[m.0]);
    for m in neigh {
        queued[m.0] = true;
        queue.push_back(m);
    }
}

/// Algorithm 4: the free physical slot maximizing
/// `sum_j d(slot, Pos(Rj)) / Hamming(Rk, Rj)` over placed nodes `Rj`.
fn max_weighted_distance(
    mesh: &Mesh2D,
    pos: &[usize],
    placed: &[NodeId],
    free: &[bool],
    rk: NodeId,
) -> usize {
    let w = usize::from(mesh.width());
    let slot_coord = |s: usize| ((s % w) as f64, (s / w) as f64);
    let ck = mesh.coord(rk);
    let mut best_slot = usize::MAX;
    let mut best_sum = f64::NEG_INFINITY;
    for (slot, &is_free) in free.iter().enumerate() {
        if !is_free {
            continue;
        }
        let (sx, sy) = slot_coord(slot);
        let mut sum = 0.0;
        for &rj in placed {
            let cj = mesh.coord(rj);
            let hamming = f64::from(ck.manhattan(cj));
            debug_assert!(hamming > 0.0, "placed node equals the node being placed");
            let (px, py) = slot_coord(pos[rj.0]);
            let d = ((sx - px).powi(2) + (sy - py).powi(2)).sqrt();
            sum += d / hamming;
        }
        if sum > best_sum {
            best_sum = sum;
            best_slot = slot;
        }
    }
    assert!(best_slot != usize::MAX, "no free slot left");
    best_slot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_plan() -> Floorplan {
        Floorplan::thermal_aware(&SprintSet::paper(16))
    }

    #[test]
    fn identity_plan_is_identity() {
        let f = Floorplan::identity(Mesh2D::paper_4x4());
        for n in 0..16 {
            assert_eq!(f.slot(NodeId(n)), n);
            assert_eq!(f.logical_at(n), NodeId(n));
        }
        assert!(f.is_bijection());
    }

    #[test]
    fn thermal_plan_is_a_bijection() {
        let f = paper_plan();
        assert!(f.is_bijection());
        for n in 0..16 {
            assert_eq!(f.logical_at(f.slot(NodeId(n))).0, n);
        }
    }

    #[test]
    fn master_keeps_slot_zero() {
        let f = paper_plan();
        assert_eq!(f.slot(NodeId(0)), 0);
    }

    #[test]
    fn early_sprinters_are_spread_apart() {
        // The 4-core sprint set {0, 1, 4, 5} is a tight 2x2 cluster
        // logically; physically its nodes must be farther apart on average.
        let set = SprintSet::paper(16);
        let f = Floorplan::thermal_aware(&set);
        let mesh = Mesh2D::paper_4x4();
        let four = [NodeId(0), NodeId(1), NodeId(4), NodeId(5)];
        let mut logical_sum = 0.0;
        let mut physical_sum = 0.0;
        let mut pairs = 0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                let (a, b) = (four[i], four[j]);
                logical_sum += mesh.coord(a).euclidean(mesh.coord(b));
                let (ax, ay) = ((f.slot(a) % 4) as f64, (f.slot(a) / 4) as f64);
                let (bx, by) = ((f.slot(b) % 4) as f64, (f.slot(b) / 4) as f64);
                physical_sum += ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
                pairs += 1;
            }
        }
        let logical_avg = logical_sum / f64::from(pairs);
        let physical_avg = physical_sum / f64::from(pairs);
        assert!(
            physical_avg > 1.5 * logical_avg,
            "spreading failed: physical {physical_avg:.2} vs logical {logical_avg:.2}"
        );
    }

    #[test]
    fn wire_length_grows_but_boundedly() {
        let f = paper_plan();
        let identity = Floorplan::identity(Mesh2D::paper_4x4());
        let base = identity.total_wire_length();
        let remapped = f.total_wire_length();
        assert!(remapped > base, "thermal plan must lengthen wires");
        // ...but stay within the single-cycle reach of SMART-style repeated
        // wires (a few tile pitches per link on average).
        assert!(remapped < base * 4.0, "wires blew up: {remapped} vs {base}");
    }

    #[test]
    fn physical_power_permutes_values() {
        let f = paper_plan();
        let logical: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let phys = f.physical_power(&logical);
        // Same multiset of values.
        let mut a = logical.clone();
        let mut b = phys.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b);
        // Master's power lands on slot 0.
        assert_eq!(phys[0], 0.0);
    }

    #[test]
    fn identity_link_lengths_are_unit() {
        let f = Floorplan::identity(Mesh2D::paper_4x4());
        for ((_, _), l) in f.link_lengths() {
            assert!((l - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn works_on_non_square_meshes() {
        let mesh = Mesh2D::new(6, 3).unwrap();
        let set = SprintSet::new(mesh, NodeId(0), mesh.len());
        let f = Floorplan::thermal_aware(&set);
        assert!(f.is_bijection());
    }
}
