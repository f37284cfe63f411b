//! Ablation: the two readings of Fig. 11's full-sprinting baseline.
//!
//! The paper says full-sprinting traffic is "randomly mapped in the
//! fully-functional network ... averaged over ten samples" and that it
//! "spreads the same amount of traffic" across the mesh. Those pull in
//! different directions:
//!
//! - **random endpoints** — the k communicating cores are placed randomly
//!   on the powered 4x4 mesh, each injecting at the x-axis rate;
//! - **spread aggregate** — all 16 nodes inject, with per-node rate scaled
//!   so the aggregate equals the sprint configuration's.
//!
//! Only the spread-aggregate reading reproduces the paper's "NoC-sprinting
//! saturates earlier" observation (a compact 2x2 region has *shorter* paths
//! than 4 random endpoints, so it actually saturates later than the
//! random-endpoints baseline). Latency/power benefits appear under both.

use noc_bench::{banner, markdown_table, mean, served_experiment, FigureHarness};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

const SAMPLES: u64 = 6;

fn rates() -> Vec<f64> {
    (10..=90)
        .step_by(16)
        .map(|p| f64::from(p) / 100.0)
        .collect()
}

fn main() {
    print!(
        "{}",
        banner(
            "Ablation",
            "Fig. 11 full-sprinting baseline interpretations",
            "the spread-aggregate baseline reproduces the earlier-saturation claim"
        )
    );
    let (experiment, tag) = served_experiment(false);
    let harness = FigureHarness::new(experiment, tag);
    for level in [4usize, 8] {
        println!("--- {level}-core sprinting ---");
        // Per rate: one NoC-sprinting point, then SAMPLES random-endpoints
        // samples, then SAMPLES spread samples.
        let mut jobs = Vec::new();
        for &rate in &rates() {
            let point = |seed, baseline| SyntheticJob {
                topology: TopologySpec::default(),
                level,
                pattern: TrafficPattern::UniformRandom,
                rate,
                seed,
                baseline,
            };
            jobs.push(point(42, SyntheticBaseline::NocSprinting));
            for s in 0..SAMPLES {
                jobs.push(point(s, SyntheticBaseline::RandomEndpoints));
            }
            for s in 0..SAMPLES {
                jobs.push(point(s, SyntheticBaseline::SpreadAggregate));
            }
        }
        let metrics = harness
            .run(&jobs)
            .expect("baseline ablation points")
            .metrics;

        let mut rows = Vec::new();
        let per_rate = 1 + 2 * SAMPLES as usize;
        for (rate, chunk) in rates().iter().zip(metrics.chunks(per_rate)) {
            let ns = chunk[0];
            let (ep, sp) = chunk[1..].split_at(SAMPLES as usize);
            let ep_lat: Vec<f64> = ep.iter().map(|m| m.avg_network_latency).collect();
            let ep_sat = ep.iter().filter(|m| m.saturated).count();
            let sp_lat: Vec<f64> = sp.iter().map(|m| m.avg_network_latency).collect();
            let sp_sat = sp.iter().filter(|m| m.saturated).count();
            let tag = |sat: usize| {
                if sat > 0 {
                    format!(" (sat {sat}/{SAMPLES})")
                } else {
                    String::new()
                }
            };
            rows.push(vec![
                format!("{rate:.2}"),
                format!(
                    "{:.1}{}",
                    ns.avg_network_latency,
                    if ns.saturated { " (sat)" } else { "" }
                ),
                format!("{:.1}{}", mean(&ep_lat), tag(ep_sat)),
                format!("{:.1}{}", mean(&sp_lat), tag(sp_sat)),
            ]);
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "inj rate",
                    "NoC-sprinting",
                    "full: random endpoints",
                    "full: spread aggregate"
                ],
                &rows
            )
        );
    }
    harness
        .finish("ablation_fig11_baselines")
        .expect("telemetry write failed");
}
