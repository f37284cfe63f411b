//! Network power gating derived from the sprint topology (§3.4).
//!
//! Because topological sprinting activates a convex subset of routers and
//! CDOR never routes through dark nodes, the gating plan is *structural*:
//! everything outside the active set powers off for the entire sprint —
//! idle periods equal to the sprint duration, far beyond any break-even
//! time, with no reactive wakeups.

use noc_sim::geometry::NodeId;

use crate::sprint_topology::SprintSet;

/// Which network resources stay powered for a sprint.
///
/// ```
/// use noc_sprinting::gating::GatingPlan;
/// use noc_sprinting::sprint_topology::SprintSet;
///
/// let plan = GatingPlan::from_sprint_set(&SprintSet::paper(4));
/// assert_eq!(plan.routers_on(), 4);
/// assert_eq!(plan.links_on().len(), 8, "the 2x2 block's internal links");
/// assert!(plan.gated_fraction() > 0.7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GatingPlan {
    routers_on: Vec<bool>,
    /// Directed links `(from, to)` that stay powered (both endpoints
    /// active).
    links_on: Vec<(NodeId, NodeId)>,
    total_routers: usize,
    total_links: usize,
}

impl GatingPlan {
    /// Derives the plan from a sprint set: a router stays on iff its node is
    /// active; a link stays on iff both endpoints are active. Works on any
    /// topology — links come from the sprint set's topology, not the mesh.
    pub fn from_sprint_set(set: &SprintSet) -> Self {
        let topo = set.topo().as_dyn();
        let links_on = noc_sim::topology::directed_links(topo)
            .into_iter()
            .filter(|&(a, b, _)| set.is_active(a) && set.is_active(b))
            .map(|(a, b, _)| (a, b))
            .collect();
        GatingPlan {
            routers_on: set.mask().to_vec(),
            links_on,
            total_routers: topo.len(),
            total_links: topo.num_directed_links(),
        }
    }

    /// Power mask for [`noc_sim::network::Network::set_power_mask`].
    pub fn router_mask(&self) -> &[bool] {
        &self.routers_on
    }

    /// Number of powered routers.
    pub fn routers_on(&self) -> usize {
        self.routers_on.iter().filter(|&&b| b).count()
    }

    /// Number of gated routers.
    pub fn routers_gated(&self) -> usize {
        self.total_routers - self.routers_on()
    }

    /// Powered directed links.
    pub fn links_on(&self) -> &[(NodeId, NodeId)] {
        &self.links_on
    }

    /// Number of gated directed links.
    fn links_gated(&self) -> usize {
        self.total_links - self.links_on.len()
    }

    /// Fraction of network resources (routers + directed links) gated.
    pub fn gated_fraction(&self) -> f64 {
        let gated = self.routers_gated() + self.links_gated();
        let total = self.total_routers + self.total_links;
        gated as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sprint_gates_nothing() {
        let p = GatingPlan::from_sprint_set(&SprintSet::paper(16));
        assert_eq!(p.routers_on(), 16);
        assert_eq!(p.routers_gated(), 0);
        assert_eq!(p.links_gated(), 0);
        assert_eq!(p.gated_fraction(), 0.0);
    }

    #[test]
    fn four_core_sprint_gates_three_quarters_of_routers() {
        let p = GatingPlan::from_sprint_set(&SprintSet::paper(4));
        assert_eq!(p.routers_on(), 4);
        assert_eq!(p.routers_gated(), 12);
        // Active region {0,1,4,5} is a 2x2 block: 4 undirected = 8 directed
        // internal links stay on.
        assert_eq!(p.links_on().len(), 8);
    }

    #[test]
    fn links_on_have_both_endpoints_active() {
        let set = SprintSet::paper(7);
        let p = GatingPlan::from_sprint_set(&set);
        for &(a, b) in p.links_on() {
            assert!(set.is_active(a) && set.is_active(b));
        }
    }

    #[test]
    fn gated_fraction_decreases_with_level() {
        let mut last = 1.1;
        for level in [1, 4, 8, 12, 16] {
            let f = GatingPlan::from_sprint_set(&SprintSet::paper(level)).gated_fraction();
            assert!(f < last, "level {level}: {f}");
            last = f;
        }
    }

    #[test]
    fn mask_matches_sprint_set() {
        let set = SprintSet::paper(6);
        let p = GatingPlan::from_sprint_set(&set);
        assert_eq!(p.router_mask(), set.mask());
    }

    #[test]
    fn boundary_links_are_gated() {
        // Link 1 -> 2 exits the 4-core region (node 2 dark): must be gated.
        let p = GatingPlan::from_sprint_set(&SprintSet::paper(4));
        assert!(!p.links_on().contains(&(NodeId(1), NodeId(2))));
    }
}
