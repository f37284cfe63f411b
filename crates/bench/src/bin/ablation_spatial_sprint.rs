//! Ablation: spatial sprint race — time-to-shutdown on the block grid with
//! a shared PCM layer.
//!
//! Combines Fig. 12's spatial story with Fig. 1's temporal one: the same
//! sprint power is applied as a per-block map and the coupled grid+PCM
//! transient runs until a hotspot reaches `T_max`. Thermal-aware
//! floorplanning postpones (or eliminates) the hotspot-driven shutdown.

use noc_bench::{banner, markdown_table};
use noc_sprinting::experiment::{Experiment, ThermalVariant};
use noc_sprinting::floorplan::Floorplan;
use noc_sprinting::sprint_topology::SprintSet;
use noc_thermal::grid_sprint::GridSprintSim;

fn main() {
    print!(
        "{}",
        banner(
            "Ablation",
            "Spatial sprint race: time-to-shutdown per configuration",
            "fine-grained sprints outlast full sprints; floorplanning extends \
             them further by deferring the hotspot"
        )
    );
    let e = Experiment::paper();
    let level = 4;
    // Scale tile powers up to a boost point where even clusters overheat,
    // exposing the spatial differences (at nominal tile power a 4-tile
    // sprint is simply sustainable on this package).
    let boost = 2.4;
    let mut rows = Vec::new();
    for (label, variant, planned) in [
        ("full-sprinting", ThermalVariant::FullSprinting, false),
        (
            "fine-grained (identity plan)",
            ThermalVariant::FineGrained,
            false,
        ),
        (
            "fine-grained + floorplan",
            ThermalVariant::FineGrainedFloorplanned,
            true,
        ),
    ] {
        let mut power = e.tile_powers(variant, level);
        for p in &mut power {
            *p *= boost;
        }
        if planned {
            let set = SprintSet::paper(level);
            power = Floorplan::thermal_aware(&set).physical_power(&power);
        }
        let mut sim = GridSprintSim::paper();
        let out = sim.run(&power, 120.0, 1e-3);
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", power.iter().sum::<f64>()),
            out.shutdown_at
                .map_or("> 120 (sustained)".to_string(), |t| format!("{t:.2}")),
            out.hotspot_block.map_or("-".to_string(), |b| b.to_string()),
            format!("{:.1}", out.peak_temp),
            format!("{:.0}%", out.final_melt_fraction * 100.0),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "configuration",
                "chip power (W)",
                "shutdown at (s)",
                "hotspot block",
                "peak T (K)",
                "PCM melted"
            ],
            &rows
        )
    );
    println!("the paper's §4.4 sprint-duration argument, spatially resolved: lower");
    println!("power *and* better placement both push the hotspot-driven shutdown out.");
}
