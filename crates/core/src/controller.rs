//! The sprint controller: picking a sprint level per workload and policy.
//!
//! The paper compares three schemes (§4.1–4.2) plus a naive variant:
//!
//! - **non-sprinting** — always one core under the TDP limit,
//! - **full-sprinting** — conventional computational sprinting, all 16
//!   cores,
//! - **naive fine-grained** — the optimal core count, but inactive cores
//!   and network left idle (no power gating),
//! - **NoC-sprinting** — the optimal core count with topological sprinting,
//!   CDOR and structural power gating of the dark region.

use noc_sim::geometry::NodeId;
use noc_sim::topology::{Mesh2D, Topo};
use noc_workload::profile::BenchmarkProfile;
use noc_workload::speedup::{ExecutionModel, OPTIMAL_TOLERANCE};

use crate::sprint_topology::SprintSet;

/// The sprinting scheme in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SprintPolicy {
    /// Single-core nominal operation.
    NonSprinting,
    /// All cores sprint (conventional computational sprinting).
    FullSprinting,
    /// Optimal core count, but no power gating of the leftovers.
    NaiveFineGrained,
    /// Optimal core count with topological sprinting + gating (this paper).
    NocSprinting,
}

impl SprintPolicy {
    /// All four policies, in comparison order.
    pub const ALL: [SprintPolicy; 4] = [
        SprintPolicy::NonSprinting,
        SprintPolicy::FullSprinting,
        SprintPolicy::NaiveFineGrained,
        SprintPolicy::NocSprinting,
    ];

    /// Short display name used in figure rows.
    pub fn name(self) -> &'static str {
        match self {
            SprintPolicy::NonSprinting => "non-sprinting",
            SprintPolicy::FullSprinting => "full-sprinting",
            SprintPolicy::NaiveFineGrained => "fine-grained (no gating)",
            SprintPolicy::NocSprinting => "NoC-sprinting",
        }
    }

    /// Whether inactive cores are power-gated under this policy.
    pub fn gates_inactive_resources(self) -> bool {
        matches!(
            self,
            SprintPolicy::NonSprinting | SprintPolicy::NocSprinting
        )
    }
}

/// Decides sprint levels and builds sprint topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprintController {
    topo: Topo,
    master: NodeId,
}

impl SprintController {
    /// Creates a controller for a mesh with the given master node.
    ///
    /// # Panics
    ///
    /// Panics if the master is outside the mesh.
    pub fn new(mesh: Mesh2D, master: NodeId) -> Self {
        Self::on(Topo::from(mesh), master)
    }

    /// Creates a controller on an arbitrary topology (see TOPOLOGY.md).
    ///
    /// # Panics
    ///
    /// Panics if the master is outside the topology.
    pub fn on(topo: Topo, master: NodeId) -> Self {
        assert!(master.0 < topo.len(), "master {master} outside mesh");
        SprintController { topo, master }
    }

    /// The paper's controller: 4x4 mesh, master at node 0 (top-left, next
    /// to the memory controller).
    pub fn paper() -> Self {
        Self::new(Mesh2D::paper_4x4(), NodeId(0))
    }

    /// The mesh.
    ///
    /// # Panics
    ///
    /// Panics on a non-mesh controller; use [`SprintController::topo`] for
    /// topology-agnostic access.
    pub fn mesh(&self) -> &Mesh2D {
        self.topo
            .as_mesh()
            .expect("controller is not on a mesh topology")
    }

    /// The topology the controller sprints on.
    pub fn topo(&self) -> &Topo {
        &self.topo
    }

    /// The master node.
    pub fn master(&self) -> NodeId {
        self.master
    }

    /// Sprint level (active cores) for a workload under a policy. Uses the
    /// offline profile, as the paper does ("we conduct off-line profiling on
    /// PARSEC to capture the internal parallelism").
    pub fn sprint_level(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> u32 {
        let max = self.topo.len() as u32;
        match policy {
            SprintPolicy::NonSprinting => 1,
            SprintPolicy::FullSprinting => max,
            SprintPolicy::NaiveFineGrained | SprintPolicy::NocSprinting => {
                ExecutionModel::new(*profile).optimal_cores(max, OPTIMAL_TOLERANCE)
            }
        }
    }

    /// The sprint topology for a workload under a policy.
    ///
    /// For full-sprinting and naive fine-grained operation the *entire*
    /// network stays powered (level only selects cores); the sprint set
    /// still records which cores run.
    pub fn sprint_set(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> SprintSet {
        let level = self.sprint_level(policy, profile) as usize;
        SprintSet::on(self.topo.clone(), self.master, level)
    }

    /// Execution time (normalized to single-core) under a policy.
    pub fn execution_time(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> f64 {
        let level = self.sprint_level(policy, profile);
        ExecutionModel::new(*profile).time(level)
    }

    /// Speedup over non-sprinting under a policy.
    pub fn speedup(&self, policy: SprintPolicy, profile: &BenchmarkProfile) -> f64 {
        1.0 / self.execution_time(policy, profile)
    }
}

impl Default for SprintController {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workload::profile::{by_name, parsec_suite};

    fn ctl() -> SprintController {
        SprintController::paper()
    }

    #[test]
    fn policy_levels_are_ordered() {
        let dedup = by_name("dedup").unwrap();
        let c = ctl();
        assert_eq!(c.sprint_level(SprintPolicy::NonSprinting, &dedup), 1);
        assert_eq!(c.sprint_level(SprintPolicy::FullSprinting, &dedup), 16);
        let fg = c.sprint_level(SprintPolicy::NocSprinting, &dedup);
        assert_eq!(fg, 4, "dedup's optimal level is 4 (paper §4.4)");
        assert_eq!(
            c.sprint_level(SprintPolicy::NaiveFineGrained, &dedup),
            fg,
            "naive fine-grained picks the same level, differs only in gating"
        );
    }

    #[test]
    fn fig7_means_reproduced_through_controller() {
        let c = ctl();
        let suite = parsec_suite();
        let mean = |p: SprintPolicy| {
            suite.iter().map(|b| c.speedup(p, b)).sum::<f64>() / suite.len() as f64
        };
        let ns = mean(SprintPolicy::NocSprinting);
        let full = mean(SprintPolicy::FullSprinting);
        let non = mean(SprintPolicy::NonSprinting);
        assert!((non - 1.0).abs() < 1e-12);
        assert!((3.0..4.2).contains(&ns), "NoC-sprinting mean {ns}");
        assert!((1.5..2.4).contains(&full), "full-sprinting mean {full}");
    }

    #[test]
    fn noc_sprinting_never_slower_than_full_or_non() {
        let c = ctl();
        for b in parsec_suite() {
            let t_ns = c.execution_time(SprintPolicy::NocSprinting, &b);
            let t_full = c.execution_time(SprintPolicy::FullSprinting, &b);
            let t_non = c.execution_time(SprintPolicy::NonSprinting, &b);
            // Within the optimal-pick tolerance.
            assert!(t_ns <= t_full * (1.0 + 0.031), "{}", b.name);
            assert!(t_ns <= t_non * (1.0 + 0.031), "{}", b.name);
        }
    }

    #[test]
    fn gating_attribute_per_policy() {
        assert!(SprintPolicy::NocSprinting.gates_inactive_resources());
        assert!(SprintPolicy::NonSprinting.gates_inactive_resources());
        assert!(!SprintPolicy::NaiveFineGrained.gates_inactive_resources());
        assert!(!SprintPolicy::FullSprinting.gates_inactive_resources());
    }

    #[test]
    fn sprint_set_respects_level() {
        let c = ctl();
        let vips = by_name("vips").unwrap();
        let set = c.sprint_set(SprintPolicy::NocSprinting, &vips);
        assert_eq!(
            set.level() as u32,
            c.sprint_level(SprintPolicy::NocSprinting, &vips)
        );
        assert_eq!(set.master(), NodeId(0));
    }

    #[test]
    fn policy_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            SprintPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn master_out_of_range_rejected() {
        let _ = SprintController::new(Mesh2D::paper_4x4(), NodeId(16));
    }
}
