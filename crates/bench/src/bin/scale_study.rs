//! Scale study: NoC-sprinting from 64-core (8x8) up to 4096-core (64x64)
//! chips.
//!
//! The paper evaluates a 16-core CMP; dark silicon only worsens with
//! scaling ("the fraction ... is dropping exponentially with each
//! generation"), so the mechanisms must hold on bigger meshes. This study
//! re-runs the headline comparisons on an 8x8 chip by default, or a bigger
//! chip with `--mesh 16|32|64` (the 32x32 and 64x64 points ride the
//! struct-of-arrays engine — a full sweep at those sizes was impractical on
//! the old layout):
//!
//! - Fig. 3's trend (the chip model already showed 42% NoC share at 32
//!   cores),
//! - Fig. 9/10-style latency and power for intermediate sprint levels,
//! - convexity/deadlock guarantees (already property-tested to 8x8).
//!
//! Usage: `scale_study [--mesh 8|16|32|64] [--quick] [--validate-sets N]`.
//! `--quick` trims the level sweep and uses the short simulation phases,
//! suitable as a CI smoke of the many-node path through the parallel
//! runner. `--validate-sets N` re-checks the cycle engine's work-lists and
//! struct-of-arrays mirrors against ground truth every N cycles of every
//! run, aborting on divergence.

use noc_bench::flags::{exit_usage, Flags};
use noc_bench::{banner, markdown_table, pct, reduction, watts, FigureHarness};
use noc_sim::geometry::NodeId;
use noc_sim::sim::SimConfig;
use noc_sim::traffic::TrafficPattern;
use noc_sim::topology::TopologySpec;
use noc_sprinting::config::SystemConfig;
use noc_sprinting::controller::SprintController;
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

fn experiment(mesh: u16, quick: bool, validate_every: Option<u64>) -> Experiment {
    let mut e = Experiment::paper();
    e.system = SystemConfig {
        core_count: u32::from(mesh) * u32::from(mesh),
        mesh_width: mesh,
        mesh_height: mesh,
        ..SystemConfig::paper()
    };
    e.controller = SprintController::new(e.system.mesh(), NodeId(0));
    if quick {
        e.sim_config = SimConfig::quick();
    }
    e.sim_config.validate_sets_every = validate_every;
    e
}

/// `(mesh side, quick, validate-sets interval)` from the command line.
fn parse_args() -> Result<(u16, bool, Option<u64>), String> {
    let mut flags = Flags::from_env();
    let mesh = flags.value("--mesh", str::parse)?.unwrap_or(8);
    let validate_every = flags.value("--validate-sets", str::parse)?;
    let quick = flags.switch("--quick");
    flags.finish()?;
    if ![8, 16, 32, 64].contains(&mesh) {
        return Err(format!("--mesh must be 8, 16, 32 or 64, got {mesh}"));
    }
    if validate_every == Some(0) {
        return Err("--validate-sets requires a positive cycle count, got 0".to_string());
    }
    Ok((mesh, quick, validate_every))
}

fn main() {
    let (mesh, quick, validate_every) =
        parse_args().unwrap_or_else(|e| exit_usage("scale_study", e));
    let cores = usize::from(mesh) * usize::from(mesh);
    print!(
        "{}",
        banner(
            "Scale study",
            &format!("NoC-sprinting on a {cores}-core, {mesh}x{mesh} mesh"),
            "the latency/power benefits grow with the dark fraction as chips scale"
        )
    );
    let e = experiment(mesh, quick, validate_every);
    assert!(e.system.is_consistent());
    let harness = FigureHarness::new();
    let rate = 0.15;
    let levels: Vec<usize> = match (mesh, quick) {
        (8, false) => vec![4, 8, 16, 32, 64],
        (8, true) => vec![4, 16, 64],
        (16, false) => vec![8, 16, 32, 64, 128, 256],
        (16, true) => vec![8, 64, 256],
        (32, false) => vec![16, 64, 256, 1024],
        (32, true) => vec![16, 256, 1024],
        (64, false) => vec![64, 256, 1024, 4096],
        _ => vec![64, 4096],
    };
    let jobs: Vec<SyntheticJob> = levels
        .iter()
        .flat_map(|&level| {
            [
                SyntheticBaseline::NocSprinting,
                SyntheticBaseline::SpreadAggregate,
            ]
            .map(|baseline| SyntheticJob {
                topology: TopologySpec::Mesh { width: mesh, height: mesh },
                level,
                pattern: TrafficPattern::UniformRandom,
                rate,
                seed: 5,
                baseline,
            })
        })
        .collect();
    let metrics = harness.run(&e, &jobs).expect("scale-study points");
    let mut rows = Vec::new();
    for (level, chunk) in levels.iter().zip(metrics.chunks(2)) {
        let (ns, full) = (chunk[0], chunk[1]);
        rows.push(vec![
            format!("{level}/{cores} cores"),
            format!("{:.1}", ns.avg_network_latency),
            format!("{:.1}", full.avg_network_latency),
            pct(reduction(full.avg_network_latency, ns.avg_network_latency)),
            watts(ns.network_power),
            watts(full.network_power),
            pct(reduction(full.network_power, ns.network_power)),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "sprint level",
                "NoC lat (cyc)",
                "full lat (cyc)",
                "lat cut",
                "NoC power",
                "full power",
                "power cut"
            ],
            &rows
        )
    );
    println!("on the bigger chip the dark fraction at a given level is larger, so the");
    println!("power savings exceed the 4x4 numbers at matched levels, while latency");
    println!("benefits follow the same level-inverse trend as Fig. 11.");
    harness.finish("scale_study").expect("telemetry write failed");
}
