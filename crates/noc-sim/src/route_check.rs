//! One route checker for every topology and routing function.
//!
//! [`check_routes`] walks the route of every ordered `(src, dst)` pair of
//! an active set and proves the two properties sprinting rests on: the
//! extended channel-dependency graph over `(node, direction, vc class)` is
//! acyclic (the Dally & Seitz criterion, decided by Kahn's algorithm), and
//! no route leaves the active region, so a gated router never forwards a
//! flit. [`RoutingFunction::path`] and [`RoutingFunction::path_hops`] walk
//! routes with the same walker.

use crate::geometry::{Direction, NodeId, Port};
use crate::routing::RoutingFunction;
use crate::topology::Topology;

/// A virtual channel as dependency analysis sees it: `(router, output
/// direction, vc class)`.
type Channel = (NodeId, Direction, usize);

/// What [`check_routes`] measured over an active set that passed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteReport {
    /// Ordered `(src, dst)` pairs walked (`src != dst`).
    pub pairs: usize,
    /// The longest route, in hops.
    pub max_hops: u32,
    /// Pairs whose route is longer than [`Topology::hops`].
    pub non_minimal_pairs: usize,
    /// The most routes sharing one directed link, over all VC classes.
    /// Under uniform traffic on `k` active nodes no node can accept more
    /// than `(k - 1) / max_channel_load` flits per cycle.
    pub max_channel_load: usize,
}

/// Why [`check_routes`] rejected a routing function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteViolation {
    /// The route from `src` to `dst` enters the inactive node `at`.
    LeavesRegion {
        /// Source of the offending route.
        src: NodeId,
        /// Destination of the offending route.
        dst: NodeId,
        /// The first inactive node on it.
        at: NodeId,
    },
    /// The channel-dependency graph has a cycle.
    DependencyCycle {
        /// The channels Kahn's algorithm could not remove: every channel
        /// on a cycle, plus any that only cycles lead into.
        channels: Vec<Channel>,
    },
}

/// Walks the route from `src` to `dst`, calling `hop(node, dir, next)` per
/// link until `hop` fails, and returns the hop count.
///
/// Panics if the route returns [`Port::Local`] early, takes a missing link,
/// or has not arrived after `topo.len()` hops (a livelock).
pub(crate) fn walk<R: RoutingFunction + ?Sized, E>(
    routing: &R,
    topo: &dyn Topology,
    src: NodeId,
    dst: NodeId,
    mut hop: impl FnMut(NodeId, Direction, NodeId) -> Result<(), E>,
) -> Result<u32, E> {
    let mut cur = src;
    let mut hops = 0;
    while cur != dst {
        let dir = routing
            .route(topo, cur, dst)
            .direction()
            .unwrap_or_else(|| panic!("route({cur}, {dst}) returned Local before arrival"));
        let next = topo
            .neighbor(cur, dir)
            .unwrap_or_else(|| panic!("route({cur}, {dst}) walked off the topology going {dir}"));
        hops += 1;
        assert!(
            hops <= topo.len() as u32,
            "routing function failed to converge from {src} to {dst}"
        );
        hop(cur, dir, next)?;
        cur = next;
    }
    Ok(hops)
}

/// Checks `routing` over the nodes `active` marks: every route stays in
/// the active set and the extended channel-dependency graph is acyclic.
/// A hop's class is [`RoutingFunction::vc_class`] when there is more than
/// one class and 0 otherwise, the rule the network's VC allocation follows.
///
/// ```
/// use noc_sim::route_check::check_routes;
/// use noc_sim::routing::XyRouting;
/// use noc_sim::topology::Mesh2D;
///
/// let report = check_routes(&Mesh2D::paper_4x4(), &XyRouting, &[true; 16]).unwrap();
/// assert_eq!((report.pairs, report.max_hops, report.non_minimal_pairs), (240, 6, 0));
/// ```
///
/// # Errors
///
/// [`RouteViolation::LeavesRegion`] for the first route (in `(src, dst)`
/// order) that enters an inactive node, else
/// [`RouteViolation::DependencyCycle`] if the graph has a cycle.
///
/// # Panics
///
/// Panics if `active` does not have one entry per node, or if a route
/// does not converge (see [`RoutingFunction::path`]).
pub fn check_routes(
    topo: &dyn Topology,
    routing: &dyn RoutingFunction,
    active: &[bool],
) -> Result<RouteReport, RouteViolation> {
    assert_eq!(active.len(), topo.len(), "active mask length mismatch");
    let classes = routing.vc_classes();
    let mut link_load = vec![0usize; topo.len() * 4];
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); link_load.len() * classes];
    let mut report = RouteReport::default();
    let nodes: Vec<NodeId> = (0..topo.len()).filter(|&i| active[i]).map(NodeId).collect();
    for &src in &nodes {
        for &dst in nodes.iter().filter(|&&d| d != src) {
            let mut prev: Option<usize> = None;
            let hops = walk(routing, topo, src, dst, |node, dir, next| {
                let link = node.0 * 4 + dir as usize;
                link_load[link] += 1;
                let class = if classes > 1 {
                    routing.vc_class(topo, node, Port::Dir(dir), dst)
                } else {
                    0
                };
                let channel = link * classes + class;
                if let Some(p) = prev.replace(channel) {
                    deps[p].push(channel);
                }
                if active[next.0] {
                    Ok(())
                } else {
                    Err(RouteViolation::LeavesRegion { src, dst, at: next })
                }
            })?;
            report.pairs += 1;
            report.max_hops = report.max_hops.max(hops);
            report.non_minimal_pairs += usize::from(hops > topo.hops(src, dst));
        }
    }
    report.max_channel_load = link_load.into_iter().max().unwrap_or(0);

    // Kahn's algorithm: peel channels nothing waits on until none are left.
    let mut indeg = vec![0usize; deps.len()];
    for &b in deps.iter().flatten() {
        indeg[b] += 1;
    }
    let mut ready: Vec<usize> = (0..deps.len()).filter(|&c| indeg[c] == 0).collect();
    while let Some(a) = ready.pop() {
        for &b in &deps[a] {
            indeg[b] -= 1;
            if indeg[b] == 0 {
                ready.push(b);
            }
        }
    }
    let per_node = 4 * classes;
    let channels: Vec<Channel> = (0..deps.len())
        .filter(|&c| indeg[c] > 0)
        .map(|c| {
            (
                NodeId(c / per_node),
                Direction::ALL[c % per_node / classes],
                c % classes,
            )
        })
        .collect();
    if channels.is_empty() {
        Ok(report)
    } else {
        Err(RouteViolation::DependencyCycle { channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;

    /// Routes every packet clockwise around a 2x2 mesh, so the four
    /// clockwise channels wait on each other in a ring.
    #[derive(Debug)]
    struct ClockwiseRing;

    impl RoutingFunction for ClockwiseRing {
        fn route(&self, topo: &dyn Topology, cur: NodeId, dst: NodeId) -> Port {
            if cur == dst {
                return Port::Local;
            }
            let c = topo.as_mesh().unwrap().coord(cur);
            // (0,0) -> (1,0) -> (1,1) -> (0,1) -> (0,0).
            Port::Dir(match (c.x, c.y) {
                (0, 0) => Direction::East,
                (1, 0) => Direction::South,
                (1, 1) => Direction::West,
                _ => Direction::North,
            })
        }
    }

    #[test]
    fn clockwise_ring_routing_has_a_dependency_cycle() {
        let mesh = Mesh2D::new(2, 2).unwrap();
        let Err(RouteViolation::DependencyCycle { channels }) =
            check_routes(&mesh, &ClockwiseRing, &[true; 4])
        else {
            panic!("the clockwise ring must close a dependency cycle");
        };
        let clockwise = [
            (NodeId(0), Direction::East, 0),
            (NodeId(1), Direction::South, 0),
            (NodeId(3), Direction::West, 0),
            (NodeId(2), Direction::North, 0),
        ];
        for ch in clockwise {
            assert!(channels.contains(&ch), "{ch:?} missing from {channels:?}");
        }
    }

    #[test]
    fn a_route_through_a_dark_node_names_where_it_leaves() {
        // XY from 0 to 5 goes east through node 1 first; with 1 dark the
        // checker stops there.
        let mesh = Mesh2D::paper_4x4();
        let mut active = [false; 16];
        for n in [0, 4, 5] {
            active[n] = true;
        }
        assert_eq!(
            check_routes(&mesh, &crate::routing::XyRouting, &active),
            Err(RouteViolation::LeavesRegion {
                src: NodeId(0),
                dst: NodeId(5),
                at: NodeId(1),
            })
        );
    }
}
