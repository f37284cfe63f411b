//! Property-based tests of the reproduction's core invariants.

use proptest::prelude::*;

use noc_sim::geometry::NodeId;
use noc_sim::route_check::check_routes;
use noc_sim::routing::{RoutingFunction, XyRouting};
use noc_sim::topology::Mesh2D;
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::convex::sprint_set_is_convex;
use noc_sprinting::floorplan::Floorplan;
use noc_sprinting::sprint_topology::{sprint_order, SprintSet};
use noc_thermal::grid::{GridParams, ThermalGrid};

/// An arbitrary mesh between 2x2 and 7x7 with a valid master and level.
fn mesh_master_level() -> impl Strategy<Value = (Mesh2D, NodeId, usize)> {
    (2u16..=7, 2u16..=7).prop_flat_map(|(w, h)| {
        let mesh = Mesh2D::new(w, h).expect("nonzero");
        let len = mesh.len();
        (Just(mesh), 0..len, 1..=len)
            .prop_map(|(mesh, master, level)| (mesh, NodeId(master), level))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn algorithm1_always_yields_convex_regions(
        (mesh, master, level) in mesh_master_level()
    ) {
        let set = SprintSet::new(mesh, master, level);
        prop_assert!(sprint_set_is_convex(&set));
    }

    #[test]
    fn algorithm1_is_a_permutation_starting_at_master(
        (mesh, master, _) in mesh_master_level()
    ) {
        let order = sprint_order(&mesh, master);
        prop_assert_eq!(order[0], master);
        let mut ids: Vec<usize> = order.iter().map(|n| n.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..mesh.len()).collect::<Vec<_>>());
    }

    #[test]
    fn cdor_is_minimal_in_region_and_never_dark(
        (mesh, master, level) in mesh_master_level()
    ) {
        let set = SprintSet::new(mesh, master, level);
        let report = check_routes(&mesh, &CdorRouting::new(&set), set.mask());
        prop_assert_eq!(report.map(|r| r.non_minimal_pairs), Ok(0));
    }

    #[test]
    fn cdor_channel_dependencies_acyclic(
        (mesh, master, level) in mesh_master_level()
    ) {
        let set = SprintSet::new(mesh, master, level);
        prop_assert!(check_routes(&mesh, &CdorRouting::new(&set), set.mask()).is_ok());
    }

    #[test]
    fn xy_baseline_is_minimal_everywhere(
        (mesh, _, _) in mesh_master_level(),
        src in 0usize..49,
        dst in 0usize..49,
    ) {
        let src = NodeId(src % mesh.len());
        let dst = NodeId(dst % mesh.len());
        prop_assert_eq!(XyRouting.path_hops(&mesh, src, dst), mesh.hops(src, dst));
    }

    #[test]
    fn floorplan_is_bijective_and_master_stays(
        (mesh, master, _) in mesh_master_level()
    ) {
        let set = SprintSet::new(mesh, master, mesh.len());
        let plan = Floorplan::thermal_aware(&set);
        prop_assert!(plan.is_bijection());
        prop_assert_eq!(plan.slot(master), 0);
        for n in mesh.nodes() {
            prop_assert_eq!(plan.logical_at(plan.slot(n)), n);
        }
    }

    #[test]
    fn floorplan_preserves_power_multiset(
        (mesh, master, _) in mesh_master_level(),
        seed in 0u64..1000,
    ) {
        let set = SprintSet::new(mesh, master, mesh.len());
        let plan = Floorplan::thermal_aware(&set);
        let logical: Vec<f64> = (0..mesh.len())
            .map(|i| ((seed as usize + i * 7) % 13) as f64 * 0.5)
            .collect();
        let physical = plan.physical_power(&logical);
        let mut a = logical;
        let mut b = physical;
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn thermal_steady_state_monotone_in_power(
        extra in 0.1f64..5.0,
        block in 0usize..16,
    ) {
        let grid = ThermalGrid::new(4, 4, GridParams::paper_16block());
        let base = vec![0.5; 16];
        let mut bumped = base.clone();
        bumped[block] += extra;
        let t0 = grid.steady_state(&base);
        let t1 = grid.steady_state(&bumped);
        // Adding power anywhere must not cool any block, and must strictly
        // heat the bumped block.
        for i in 0..16 {
            prop_assert!(t1.as_slice()[i] >= t0.as_slice()[i] - 1e-9);
        }
        prop_assert!(t1.as_slice()[block] > t0.as_slice()[block]);
    }

    #[test]
    fn thermal_superposition_of_ambient_offset(
        power in 0.1f64..4.0,
    ) {
        // With linear RC physics, uniform power scales the temperature
        // offset linearly.
        let grid = ThermalGrid::new(4, 4, GridParams::paper_16block());
        let ambient = GridParams::paper_16block().ambient;
        let t1 = grid.steady_state(&[power; 16]);
        let t2 = grid.steady_state(&[2.0 * power; 16]);
        for i in 0..16 {
            let d1 = t1.as_slice()[i] - ambient;
            let d2 = t2.as_slice()[i] - ambient;
            prop_assert!((d2 - 2.0 * d1).abs() < 1e-6);
        }
    }
}
