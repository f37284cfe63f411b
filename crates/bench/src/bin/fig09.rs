//! Figure 9: average network latency running PARSEC under full-sprinting
//! vs NoC-sprinting.
//!
//! Paper: NoC-sprinting cuts network latency by 24.5% on average, because
//! CDOR confines traffic to the sprint region instead of traversing dark
//! intermediate routers.
//!
//! Each benchmark is a pair of jobs ([`policy_jobs`]) run in one batch
//! through the `FigureHarness`, so `--service <socket>` serves the figure
//! from a `noc_serve` daemon as it does `fig11`.

use noc_bench::{banner, markdown_table, mean, pct, reduction, served_experiment, FigureHarness};
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::policy_jobs;
use noc_workload::profile::parsec_suite;

fn main() {
    print!(
        "{}",
        banner(
            "Fig. 9",
            "Average network latency, PARSEC",
            "NoC-sprinting cuts network latency by 24.5% on average"
        )
    );
    let (experiment, tag) = served_experiment(false);
    let suite = parsec_suite();
    let jobs: Vec<_> = (suite.iter().enumerate())
        .flat_map(|(i, b)| {
            let pattern = TrafficPattern::UniformRandom;
            let (full, ns) = policy_jobs(&experiment.controller, b, pattern, 1.0, 1000 + i as u64);
            [full, ns]
        })
        .collect();
    let harness = FigureHarness::new(experiment, tag);
    let metrics = harness.run(&jobs).expect("Fig. 9 points").metrics;
    let mut rows = Vec::new();
    let mut cuts = Vec::new();
    for (b, pair) in suite.iter().zip(metrics.chunks(2)) {
        let (full, ns) = (pair[0], pair[1]);
        let cut = reduction(full.avg_network_latency, ns.avg_network_latency);
        cuts.push(cut);
        rows.push(vec![
            b.name.to_string(),
            format!("{:.1}", full.avg_network_latency),
            format!("{:.1}", ns.avg_network_latency),
            pct(cut),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "benchmark",
                "full-sprinting (cycles)",
                "NoC-sprinting (cycles)",
                "reduction"
            ],
            &rows
        )
    );
    println!(
        "mean network-latency reduction: {} (paper 24.5%)",
        pct(mean(&cuts))
    );
    harness.finish("fig09").expect("telemetry write failed");
}
