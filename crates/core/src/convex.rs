//! Convexity of sprint regions.
//!
//! Algorithm 1 "guarantees that chosen nodes would form a convex set in the
//! Euclidean space, i.e., the topology region contains all the line segments
//! connecting any pair of nodes inside it". On the discrete mesh we check
//! the equivalent *digital* properties CDOR relies on:
//!
//! - **row convexity** — the active cells of each row form one contiguous
//!   interval,
//! - **column convexity** — likewise per column,
//! - **connectivity** — the region is 4-connected.
//!
//! (A digitization of a Euclidean-convex region always satisfies these.)

use noc_sim::geometry::NodeId;
use noc_sim::topology::{Mesh2D, Topology};

use crate::sprint_topology::SprintSet;

/// Whether each row's active cells form one contiguous interval.
fn is_row_convex(mesh: &Mesh2D, active: &[bool]) -> bool {
    assert_eq!(active.len(), mesh.len(), "mask length mismatch");
    for y in 0..mesh.height() {
        let mut runs = 0;
        let mut inside = false;
        for x in 0..mesh.width() {
            let a = active[mesh.node((x, y).into()).0];
            if a && !inside {
                runs += 1;
            }
            inside = a;
        }
        if runs > 1 {
            return false;
        }
    }
    true
}

/// Whether each column's active cells form one contiguous interval.
fn is_column_convex(mesh: &Mesh2D, active: &[bool]) -> bool {
    assert_eq!(active.len(), mesh.len(), "mask length mismatch");
    for x in 0..mesh.width() {
        let mut runs = 0;
        let mut inside = false;
        for y in 0..mesh.height() {
            let a = active[mesh.node((x, y).into()).0];
            if a && !inside {
                runs += 1;
            }
            inside = a;
        }
        if runs > 1 {
            return false;
        }
    }
    true
}

/// Whether the active region is 4-connected.
fn is_connected(mesh: &Mesh2D, active: &[bool]) -> bool {
    assert_eq!(active.len(), mesh.len(), "mask length mismatch");
    let Some(start) = active.iter().position(|&a| a) else {
        return true; // the empty region is trivially connected
    };
    let mut seen = vec![false; mesh.len()];
    let mut stack = vec![NodeId(start)];
    seen[start] = true;
    let mut count = 0;
    while let Some(n) = stack.pop() {
        count += 1;
        for d in noc_sim::geometry::Direction::ALL {
            if let Some(m) = mesh.neighbor(n, d) {
                if active[m.0] && !seen[m.0] {
                    seen[m.0] = true;
                    stack.push(m);
                }
            }
        }
    }
    count == active.iter().filter(|&&a| a).count()
}

/// The digital-convexity predicate CDOR requires: row- and column-convex
/// and 4-connected.
pub fn is_convex(mesh: &Mesh2D, active: &[bool]) -> bool {
    is_row_convex(mesh, active) && is_column_convex(mesh, active) && is_connected(mesh, active)
}

/// Topology-generic region validity: the shape a routing function can serve
/// deadlock-free without leaving the region (see TOPOLOGY.md).
///
/// - **Mesh**: digital convexity ([`is_convex`]) — what CDOR requires.
/// - **Circulant**: one contiguous ring arc — what in-arc ring routing
///   requires. Ring-distance growth always produces one; the check counts
///   internal ring edges (an arc of `k < n` nodes has exactly `k - 1`).
///
/// # Panics
///
/// Panics if the mask length mismatches the topology, or the topology is
/// neither a mesh nor a circulant.
fn region_valid(topo: &dyn Topology, active: &[bool]) -> bool {
    assert_eq!(active.len(), topo.len(), "mask length mismatch");
    if let Some(mesh) = topo.as_mesh() {
        return is_convex(mesh, active);
    }
    let c = topo
        .as_circulant()
        .expect("region_valid: unknown topology kind");
    let n = c.n();
    let lit = active.iter().filter(|&&a| a).count();
    if lit == 0 || lit == n {
        return true;
    }
    let internal = (0..n).filter(|&i| active[i] && active[(i + 1) % n]).count();
    internal == lit - 1
}

/// Whether a sprint set's region is valid for its topology: convex on a
/// mesh, one contiguous arc on a circulant.
pub fn sprint_set_is_convex(set: &SprintSet) -> bool {
    region_valid(set.topo().as_dyn(), set.mask())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(mesh: &Mesh2D, ids: &[usize]) -> Vec<bool> {
        let mut m = vec![false; mesh.len()];
        for &i in ids {
            m[i] = true;
        }
        m
    }

    #[test]
    fn every_sprint_level_is_convex_from_every_master() {
        for master in 0..16 {
            for level in 1..=16 {
                let s = SprintSet::new(Mesh2D::paper_4x4(), NodeId(master), level);
                assert!(
                    sprint_set_is_convex(&s),
                    "level {level} from master {master} not convex: {:?}",
                    s.active_nodes()
                );
            }
        }
    }

    #[test]
    fn l_shape_is_not_convex() {
        // 0 1 .      an L: row-convex and column-convex but... actually an L
        // 4 . .      IS row/column convex; it fails the segment property via
        // 8 9 10     the corner: row/col convexity alone admits it. Check a
        // shape that breaks row convexity instead: {0, 2}.
        let mesh = Mesh2D::paper_4x4();
        assert!(!is_row_convex(&mesh, &mask(&mesh, &[0, 2])));
        assert!(!is_convex(&mesh, &mask(&mesh, &[0, 2])));
    }

    #[test]
    fn column_gap_is_not_convex() {
        let mesh = Mesh2D::paper_4x4();
        assert!(!is_column_convex(&mesh, &mask(&mesh, &[0, 8])));
    }

    #[test]
    fn disconnected_diagonal_is_not_convex() {
        // {0, 5} touch only diagonally: each row/column is a single run but
        // the region is not 4-connected.
        let mesh = Mesh2D::paper_4x4();
        let m = mask(&mesh, &[0, 5]);
        assert!(is_row_convex(&mesh, &m));
        assert!(is_column_convex(&mesh, &m));
        assert!(!is_connected(&mesh, &m));
        assert!(!is_convex(&mesh, &m));
    }

    #[test]
    fn rectangle_is_convex() {
        let mesh = Mesh2D::paper_4x4();
        assert!(is_convex(&mesh, &mask(&mesh, &[0, 1, 4, 5])));
        assert!(is_convex(&mesh, &mask(&mesh, &(0..16).collect::<Vec<_>>())));
    }

    #[test]
    fn empty_region_is_trivially_convex() {
        let mesh = Mesh2D::paper_4x4();
        assert!(is_convex(&mesh, &[false; 16]));
    }

    #[test]
    fn non_square_meshes_also_convex() {
        for (w, h) in [(8u16, 2u16), (3, 7), (5, 5)] {
            let mesh = Mesh2D::new(w, h).unwrap();
            for level in 1..=mesh.len() {
                let s = SprintSet::new(mesh, NodeId(0), level);
                assert!(
                    sprint_set_is_convex(&s),
                    "{w}x{h} level {level}: {:?}",
                    s.active_nodes()
                );
            }
        }
    }
}
