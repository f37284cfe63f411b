//! End-to-end integration tests: the full stack (topology → routing →
//! cycle-level network → power → thermal) exercised through the public API.

use integration::{in_process_service, run_full_mesh, run_masked, service_batch};
use noc_sim::routing::XyRouting;
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::controller::SprintPolicy;
use noc_sprinting::experiment::{policy_jobs, Experiment, ThermalVariant};
use noc_sprinting::gating::GatingPlan;
use noc_sprinting::runner::ExperimentRunner;
use noc_sprinting::sprint_topology::SprintSet;
use noc_workload::profile::{by_name, parsec_suite};

#[test]
fn gated_sprint_regions_run_clean_at_every_level() {
    // CDOR + power mask for every sprint level: the simulator's
    // dark-router contract proves no flit ever leaves the region.
    let mesh = Mesh2D::paper_4x4();
    for level in 2..=16usize {
        let set = SprintSet::paper(level);
        let plan = GatingPlan::from_sprint_set(&set);
        let placement = Placement::new(set.active_nodes().to_vec(), &mesh).unwrap();
        let outcome = run_masked(
            mesh,
            Box::new(CdorRouting::new(&set)),
            placement,
            plan.router_mask(),
            TrafficPattern::UniformRandom,
            0.15,
            level as u64,
        );
        assert!(
            outcome.stats.packets_delivered > 0,
            "level {level} delivered nothing"
        );
        assert!(!outcome.stats.saturated, "level {level} saturated at 0.15");
    }
}

#[test]
fn latency_scales_with_region_size() {
    // Bigger sprint regions have longer average distances; zero-load-ish
    // latency must be monotone-ish in region size.
    let mesh = Mesh2D::paper_4x4();
    let mut last = 0.0;
    for level in [2usize, 4, 8, 16] {
        let set = SprintSet::paper(level);
        let placement = Placement::new(set.active_nodes().to_vec(), &mesh).unwrap();
        let outcome = run_masked(
            mesh,
            Box::new(CdorRouting::new(&set)),
            placement,
            set.mask(),
            TrafficPattern::UniformRandom,
            0.05,
            9,
        );
        let lat = outcome.stats.avg_network_latency();
        assert!(
            lat > last,
            "latency should grow with region size: level {level} gave {lat} <= {last}"
        );
        last = lat;
    }
}

#[test]
fn cdor_and_xy_agree_on_full_mesh_statistically() {
    // On the full mesh CDOR degenerates to XY; same traffic seed must give
    // identical delivered-packet counts and very close latency.
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::paper(16);
    let a = run_full_mesh(
        mesh,
        Box::new(XyRouting),
        TrafficPattern::UniformRandom,
        0.2,
        5,
    );
    let b = run_full_mesh(
        mesh,
        Box::new(CdorRouting::new(&set)),
        TrafficPattern::UniformRandom,
        0.2,
        5,
    );
    assert_eq!(a.stats.packets_delivered, b.stats.packets_delivered);
    assert!(
        (a.stats.avg_packet_latency() - b.stats.avg_packet_latency()).abs() < 1e-9,
        "identical routing must give identical latency"
    );
}

#[test]
fn adversarial_patterns_complete_without_deadlock() {
    let mesh = Mesh2D::paper_4x4();
    for pattern in [
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::Tornado,
        TrafficPattern::Shuffle,
        TrafficPattern::Hotspot { hot_fraction: 0.5 },
        TrafficPattern::NearestNeighbor,
    ] {
        let outcome = run_full_mesh(mesh, Box::new(XyRouting), pattern, 0.25, 11);
        assert!(
            outcome.stats.packets_delivered > 0,
            "{pattern:?} delivered nothing"
        );
    }
}

#[test]
fn high_load_cdor_regions_make_progress() {
    // Drive irregular regions near saturation; the watchdog would flag a
    // deadlock, so mere completion is the assertion.
    let mesh = Mesh2D::paper_4x4();
    for level in [3usize, 5, 6, 7, 9, 11, 13] {
        let set = SprintSet::paper(level);
        let placement = Placement::new(set.active_nodes().to_vec(), &mesh).unwrap();
        let outcome = run_masked(
            mesh,
            Box::new(CdorRouting::new(&set)),
            placement,
            set.mask(),
            TrafficPattern::UniformRandom,
            0.6,
            level as u64 * 7,
        );
        assert!(outcome.stats.packets_delivered > 0);
    }
}

#[test]
fn full_policy_comparison_hits_paper_shape() {
    let e = Experiment::quick();
    let suite = parsec_suite();
    let jobs: Vec<_> = (suite.iter().enumerate())
        .flat_map(|(i, b)| {
            let pattern = TrafficPattern::UniformRandom;
            let (full, ns) = policy_jobs(&e.controller, b, pattern, 1.0, 300 + i as u64);
            [full, ns]
        })
        .collect();
    let metrics = service_batch(&in_process_service(e, ExperimentRunner::new()), &jobs);
    let mut full_power = 0.0;
    let mut ns_power = 0.0;
    let mut full_lat = 0.0;
    let mut ns_lat = 0.0;
    for pair in metrics.chunks(2) {
        let (f, n) = (pair[0], pair[1]);
        full_power += f.network_power;
        ns_power += n.network_power;
        full_lat += f.avg_network_latency;
        ns_lat += n.avg_network_latency;
    }
    let power_saving = 1.0 - ns_power / full_power;
    let lat_cut = 1.0 - ns_lat / full_lat;
    // Paper: 71.9% network power saving, 24.5% latency cut. Accept a broad
    // band — the *shape* assertions are: both strictly positive and power
    // saving is the dominant effect.
    assert!(
        (0.4..0.9).contains(&power_saving),
        "network power saving {power_saving}"
    );
    assert!((0.05..0.45).contains(&lat_cut), "latency cut {lat_cut}");
    assert!(power_saving > lat_cut);
}

#[test]
fn thermal_chain_from_workload_to_heatmap() {
    // Workload -> sprint level -> tile powers -> steady-state field.
    let e = Experiment::quick();
    let dedup = by_name("dedup").unwrap();
    let level = e
        .controller
        .sprint_level(SprintPolicy::NocSprinting, &dedup) as usize;
    assert_eq!(level, 4);
    let full = e.heatmap(ThermalVariant::FullSprinting, level);
    let fg = e.heatmap(ThermalVariant::FineGrained, level);
    let fp = e.heatmap(ThermalVariant::FineGrainedFloorplanned, level);
    assert!(full.peak().1 > fg.peak().1);
    assert!(fg.peak().1 > fp.peak().1);
    // All fields stay above ambient and below silicon limits.
    for f in [&full, &fg, &fp] {
        for &t in f.as_slice() {
            assert!((318.0..400.0).contains(&t), "implausible temperature {t}");
        }
    }
}

#[test]
fn sprint_durations_rank_inversely_with_power() {
    let e = Experiment::quick();
    let suite = parsec_suite();
    for b in &suite {
        let p_full = e.chip_sprint_power(SprintPolicy::FullSprinting, b);
        let p_ns = e.chip_sprint_power(SprintPolicy::NocSprinting, b);
        let d_full = e.melt_duration(SprintPolicy::FullSprinting, b);
        let d_ns = e.melt_duration(SprintPolicy::NocSprinting, b);
        assert!(p_ns <= p_full + 1e-9, "{}", b.name);
        assert!(d_ns >= d_full - 1e-9, "{}", b.name);
    }
}
