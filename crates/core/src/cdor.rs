//! Algorithm 2: Convex Dimension-Order Routing (CDOR).
//!
//! CDOR extends X-Y dimension-order routing to the irregular-but-convex
//! regions produced by topological sprinting, using only **two connectivity
//! bits per router** — `Cw` and `Ce`, indicating whether the western/eastern
//! neighbor is connected (powered and part of the active region):
//!
//! - X offset first, as in DOR; but if the required X move is not connected
//!   (`Ce`/`Cw` clear), move *vertically toward the destination row* — the
//!   convexity of the region guarantees the vertical neighbor on that side
//!   exists and that X progress becomes possible by the destination row.
//! - once X is resolved, route Y as in DOR (column convexity guarantees the
//!   whole column segment is active).
//!
//! The resulting occasional N→E / S→E (and W-side) turns would break the
//! XY turn model, but are deadlock-free here: an NE turn at a node implies
//! the east port of its *southern neighbor* is not connected, so the WN turn
//! that would close a dependency cycle through that neighbor cannot occur
//! (paper §3.2, Fig. 5a). [`check_routes`](noc_sim::route_check::check_routes)
//! verifies this on every region by building the channel-dependency graph
//! and checking it for cycles.

use noc_sim::geometry::{Direction, NodeId, Port};
use noc_sim::routing::{minimal_fallback, RouteDecision, RoutingFunction};
use noc_sim::topology::{Mesh2D, Topology};

use crate::convex::is_convex;
use crate::sprint_topology::SprintSet;

/// The CDOR routing function over a convex active region.
///
/// ```
/// use noc_sim::geometry::NodeId;
/// use noc_sim::routing::RoutingFunction;
/// use noc_sprinting::cdor::CdorRouting;
/// use noc_sprinting::sprint_topology::SprintSet;
///
/// let set = SprintSet::paper(8);
/// let cdor = CdorRouting::new(&set);
/// // The paper's NE-turn example: 9 -> 6 detours through 5 because node
/// // 10 is dark (Ce(9) = 0), staying minimal and inside the region.
/// let path = cdor.path(set.mesh(), NodeId(9), NodeId(6));
/// assert_eq!(path.iter().map(|n| n.0).collect::<Vec<_>>(), vec![9, 5, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct CdorRouting {
    active: Vec<bool>,
    /// `Cw`: western neighbor connected.
    cw: Vec<bool>,
    /// `Ce`: eastern neighbor connected.
    ce: Vec<bool>,
}

impl CdorRouting {
    /// Builds CDOR for a sprint set.
    ///
    /// # Panics
    ///
    /// Panics if the active region is not convex (Algorithm 1 sets always
    /// are; hand-built masks must satisfy [`is_convex`]).
    pub fn new(set: &SprintSet) -> Self {
        Self::from_mask(set.mesh(), set.mask())
    }

    /// Builds CDOR from an explicit mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask is not convex or its length mismatches the mesh.
    fn from_mask(mesh: &Mesh2D, active: &[bool]) -> Self {
        assert_eq!(active.len(), mesh.len(), "mask length mismatch");
        assert!(
            is_convex(mesh, active),
            "CDOR requires a convex active region"
        );
        let bit = |n: NodeId, d: Direction| -> bool {
            mesh.neighbor(n, d).map(|m| active[m.0]).unwrap_or(false)
        };
        CdorRouting {
            active: active.to_vec(),
            cw: mesh.nodes().map(|n| bit(n, Direction::West)).collect(),
            ce: mesh.nodes().map(|n| bit(n, Direction::East)).collect(),
        }
    }

    /// The `Ce` connectivity bit of a router.
    pub fn ce(&self, node: NodeId) -> bool {
        self.ce[node.0]
    }

    /// Whether a node is in the active region.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active[node.0]
    }
}

impl RoutingFunction for CdorRouting {
    fn route(&self, topo: &dyn Topology, current: NodeId, dst: NodeId) -> Port {
        let mesh = topo.as_mesh().expect("CDOR requires a mesh topology");
        assert!(
            self.active[current.0],
            "CDOR invoked at dark router {current}"
        );
        assert!(
            self.active[dst.0],
            "CDOR asked to route to dark destination {dst}"
        );
        let c = mesh.coord(current);
        let d = mesh.coord(dst);
        if c.x < d.x {
            if self.ce[current.0] {
                Port::Dir(Direction::East)
            } else if c.y < d.y {
                Port::Dir(Direction::South)
            } else {
                // Row convexity forbids (same row, blocked east) for an
                // active destination further east, so d.y != c.y here.
                debug_assert!(c.y > d.y, "blocked east with destination in row");
                Port::Dir(Direction::North)
            }
        } else if c.x > d.x {
            if self.cw[current.0] {
                Port::Dir(Direction::West)
            } else if c.y < d.y {
                Port::Dir(Direction::South)
            } else {
                debug_assert!(c.y > d.y, "blocked west with destination in row");
                Port::Dir(Direction::North)
            }
        } else if c.y < d.y {
            Port::Dir(Direction::South)
        } else if c.y > d.y {
            Port::Dir(Direction::North)
        } else {
            Port::Local
        }
    }

    /// Fault-aware CDOR fallback: when the primary CDOR port is unusable,
    /// try the other minimal turn **within the convex region**; when no
    /// minimal in-region hop is usable, drop.
    ///
    /// Restricting the fallback to strictly distance-reducing, in-region
    /// hops keeps two properties for free:
    ///
    /// - **no livelock** — every hop reduces the Manhattan distance, so any
    ///   packet that keeps moving arrives within `diameter` hops;
    /// - **no dark-router entry** — fallbacks never leave the active region,
    ///   so the sprinting gating contract still holds under faults.
    ///
    /// The static deadlock-freedom proof
    /// ([`check_routes`](noc_sim::route_check::check_routes)) covers
    /// the fault-free turn set; fallback turns can in principle create
    /// dependency cycles, which is why the simulator keeps its watchdog
    /// armed under fault injection (see `FAULT_MODEL.md`).
    fn route_degraded(
        &self,
        topo: &dyn Topology,
        current: NodeId,
        dst: NodeId,
        usable: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> RouteDecision {
        let primary = self.route(topo, current, dst);
        minimal_fallback(topo, current, dst, primary, usable, &|n| self.active[n.0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::route_check::{check_routes, RouteReport};
    use noc_sim::routing::XyRouting;

    /// [`check_routes`] of CDOR over a sprint set, which must pass.
    fn check(set: &SprintSet) -> RouteReport {
        check_routes(set.mesh(), &CdorRouting::new(set), set.mask())
            .unwrap_or_else(|v| panic!("{set:?}: {v:?}"))
    }

    #[test]
    fn cdor_equals_xy_on_full_mesh() {
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(16);
        let cdor = CdorRouting::new(&set);
        let xy = XyRouting;
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                assert_eq!(cdor.route(&mesh, s, d), xy.route(&mesh, s, d));
            }
        }
    }

    #[test]
    fn cdor_delivers_within_every_sprint_region() {
        let mesh = Mesh2D::paper_4x4();
        for master in 0..16 {
            for level in 1..=16 {
                check(&SprintSet::new(mesh, NodeId(master), level));
            }
        }
    }

    #[test]
    fn cdor_paths_are_minimal_in_sprint_regions() {
        // Within a convex region the detours CDOR takes are still on a
        // shortest Manhattan path.
        for level in 1..=16 {
            let report = check(&SprintSet::paper(level));
            assert_eq!(report.non_minimal_pairs, 0, "level {level}");
        }
    }

    #[test]
    fn paper_ne_turn_example_at_node_5() {
        // Fig. 5a: in the 8-core region, routing 9 -> 6 cannot go east at 9
        // (node 10 is dark); CDOR goes north to 5, then east to 6 — the NE
        // turn the paper discusses.
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(8);
        let cdor = CdorRouting::new(&set);
        assert!(!cdor.ce(NodeId(9)), "east of node 9 must be dark");
        let path = cdor.path(&mesh, NodeId(9), NodeId(6));
        let ids: Vec<usize> = path.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![9, 5, 6]);
    }

    #[test]
    fn connectivity_bits_reflect_region() {
        let set = SprintSet::paper(8);
        let cdor = CdorRouting::new(&set);
        assert!(cdor.ce(NodeId(0)), "0 -> 1 inside region");
        assert!(!cdor.cw[0], "0 has no western neighbor");
        assert!(!cdor.ce(NodeId(2)), "3 is dark in the 8-core region");
        assert!(cdor.cw[9], "9 -> 8 inside region");
    }

    #[test]
    fn cdor_is_deadlock_free_for_all_sprint_levels() {
        let mesh = Mesh2D::paper_4x4();
        for master in [0usize, 5, 10, 15] {
            for level in 1..=16 {
                check(&SprintSet::new(mesh, NodeId(master), level));
            }
        }
    }

    #[test]
    fn xy_is_deadlock_free_baseline() {
        let mesh = Mesh2D::paper_4x4();
        assert!(check_routes(&mesh, &XyRouting, &[true; 16]).is_ok());
    }

    #[test]
    fn cdor_non_square_regions() {
        for (w, h) in [(8u16, 2u16), (2, 8), (5, 3)] {
            let mesh = Mesh2D::new(w, h).unwrap();
            for level in 1..=mesh.len() {
                check(&SprintSet::new(mesh, NodeId(0), level));
            }
        }
    }

    #[test]
    fn degraded_cdor_takes_the_legal_alternative_minimal_turn() {
        // Level-4 region {0, 1, 4, 5}. Kill 0 -> 1: routing 0 -> 5 falls
        // back to the south hop (via 4), staying minimal and in-region.
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(4);
        let cdor = CdorRouting::new(&set);
        let usable = |a: NodeId, b: NodeId| !(a == NodeId(0) && b == NodeId(1));
        assert_eq!(
            cdor.route_degraded(&mesh, NodeId(0), NodeId(5), &usable),
            RouteDecision::Forward(Port::Dir(Direction::South))
        );
        // Healthy link: primary CDOR route unchanged.
        let all = |_: NodeId, _: NodeId| true;
        assert_eq!(
            cdor.route_degraded(&mesh, NodeId(0), NodeId(5), &all),
            RouteDecision::Forward(Port::Dir(Direction::East))
        );
    }

    #[test]
    fn degraded_cdor_drops_when_the_only_legal_exit_is_dead() {
        // Level-4 region {0, 1, 4, 5}: 0 -> 1 has exactly one minimal hop
        // (east). With it dead there is no in-region alternative — clean drop.
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(4);
        let cdor = CdorRouting::new(&set);
        let usable = |a: NodeId, b: NodeId| !(a == NodeId(0) && b == NodeId(1));
        assert_eq!(
            cdor.route_degraded(&mesh, NodeId(0), NodeId(1), &usable),
            RouteDecision::Drop
        );
    }

    #[test]
    fn degraded_cdor_never_leaves_the_region_on_boundary_faults() {
        // Level-8 region (3x3 block minus dark corner 10): kill the
        // boundary link 9 -> 5. The paper's 9 -> 6 detour [9, 5, 6] is
        // broken and the only minimal alternative goes east through dark
        // node 10 — illegal, so the packet is dropped rather than routed
        // through a dark router.
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(8);
        let cdor = CdorRouting::new(&set);
        let usable = |a: NodeId, b: NodeId| !(a == NodeId(9) && b == NodeId(5));
        assert_eq!(
            cdor.route_degraded(&mesh, NodeId(9), NodeId(6), &usable),
            RouteDecision::Drop,
            "fallback must not use dark node 10"
        );
        // A boundary fault *with* a legal in-region alternative: with
        // 5 -> 6 dead, routing 5 -> 2 falls back to the north hop via 1.
        let usable = |a: NodeId, b: NodeId| !(a == NodeId(5) && b == NodeId(6));
        assert_eq!(
            cdor.route_degraded(&mesh, NodeId(5), NodeId(2), &usable),
            RouteDecision::Forward(Port::Dir(Direction::North))
        );
    }

    #[test]
    fn degraded_cdor_drops_everything_at_an_isolated_node() {
        // All links out of node 5 dead: every non-local destination drops,
        // self-addressed traffic still delivers locally.
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(16);
        let cdor = CdorRouting::new(&set);
        let usable = |a: NodeId, _: NodeId| a != NodeId(5);
        for dst in mesh.nodes() {
            let got = cdor.route_degraded(&mesh, NodeId(5), dst, &usable);
            if dst == NodeId(5) {
                assert_eq!(got, RouteDecision::Forward(Port::Local));
            } else {
                assert_eq!(got, RouteDecision::Drop, "5 -> {dst} must drop");
            }
        }
    }

    #[test]
    fn degraded_cdor_fallback_paths_stay_minimal_and_in_region() {
        // Under a single dead link, walk every pair: any path that survives
        // must be minimal (livelock-freedom) and inside the region.
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(8);
        let cdor = CdorRouting::new(&set);
        let dead = (NodeId(4), NodeId(5));
        let usable = move |a: NodeId, b: NodeId| (a, b) != dead;
        for &s in set.active_nodes() {
            for &d in set.active_nodes() {
                let mut cur = s;
                let mut hops = 0u32;
                loop {
                    match cdor.route_degraded(&mesh, cur, d, &usable) {
                        RouteDecision::Forward(Port::Local) => {
                            assert_eq!(cur, d);
                            assert_eq!(hops, mesh.hops(s, d), "non-minimal {s}->{d}");
                            break;
                        }
                        RouteDecision::Forward(p) => {
                            let dir = p.direction().unwrap();
                            cur = mesh.neighbor(cur, dir).unwrap();
                            assert!(set.is_active(cur), "{s}->{d} entered dark {cur}");
                            hops += 1;
                            assert!(hops <= mesh.hops(s, d), "livelock on {s}->{d}");
                        }
                        RouteDecision::Drop => break,
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "convex")]
    fn non_convex_mask_rejected() {
        let mesh = Mesh2D::paper_4x4();
        let mut mask = vec![false; 16];
        mask[0] = true;
        mask[2] = true; // gap at 1
        let _ = CdorRouting::from_mask(&mesh, &mask);
    }

    #[test]
    #[should_panic(expected = "dark router")]
    fn routing_at_dark_router_panics() {
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::paper(4);
        let cdor = CdorRouting::new(&set);
        let _ = cdor.route(&mesh, NodeId(15), NodeId(0));
    }
}
