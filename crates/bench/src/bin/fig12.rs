//! Figure 12: steady-state heat maps of the 16-block CMP.
//!
//! Paper peaks: full-sprinting 358.3 K (center hotspot); 4-core
//! fine-grained 347.79 K; 4-core with thermal-aware floorplanning 343.81 K.

use noc_bench::banner;
use noc_sprinting::experiment::{Experiment, ThermalVariant};
use noc_thermal::heatmap::render_ascii;

fn main() {
    print!(
        "{}",
        banner(
            "Fig. 12",
            "Heat maps: full vs fine-grained vs thermal-aware floorplan (dedup, level 4)",
            "peaks 358.3 K / 347.79 K / 343.81 K"
        )
    );
    let e = Experiment::paper();
    let level = 4; // dedup's optimal sprint level (§4.4)
    let cases = [
        (ThermalVariant::FullSprinting, "(a) full-sprinting", 358.3),
        (
            ThermalVariant::FineGrained,
            "(b) fine-grained sprinting",
            347.79,
        ),
        (
            ThermalVariant::FineGrainedFloorplanned,
            "(c) + thermal-aware floorplanning",
            343.81,
        ),
    ];
    let mut peaks = Vec::new();
    for (variant, label, paper_peak) in cases {
        let field = e.heatmap(variant, level);
        let (block, peak) = field.peak();
        peaks.push(peak);
        println!("{label}: peak {peak:.2} K at block {block} (paper {paper_peak} K)");
        println!("{}", render_ascii(&field, 318.15, peaks[0]));
    }
    assert!(
        peaks[0] > peaks[1] && peaks[1] > peaks[2],
        "peak ordering must match the paper"
    );
}
