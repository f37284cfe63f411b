//! Figure 10: total network power running PARSEC under full-sprinting vs
//! NoC-sprinting.
//!
//! Paper: NoC-sprinting saves 71.9% of network power on average by
//! operating a gated subset of routers and links.
//!
//! Each benchmark is a pair of jobs ([`policy_jobs`]) run in one batch
//! through the `FigureHarness` (`--service <socket>` to use a daemon).

use noc_bench::{
    banner, markdown_table, mean, pct, reduction, served_experiment, watts, FigureHarness,
};
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::policy_jobs;
use noc_workload::profile::parsec_suite;

fn main() {
    print!(
        "{}",
        banner(
            "Fig. 10",
            "Total network power, PARSEC",
            "NoC-sprinting saves 71.9% network power on average vs full-sprinting"
        )
    );
    let (experiment, tag) = served_experiment(false);
    let suite = parsec_suite();
    let jobs: Vec<_> = (suite.iter().enumerate())
        .flat_map(|(i, b)| {
            let pattern = TrafficPattern::UniformRandom;
            let (full, ns) = policy_jobs(&experiment.controller, b, pattern, 1.0, 2000 + i as u64);
            [full, ns]
        })
        .collect();
    let harness = FigureHarness::new(experiment, tag);
    let metrics = harness.run(&jobs).expect("Fig. 10 points").metrics;
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for (b, pair) in suite.iter().zip(metrics.chunks(2)) {
        let (full, ns) = (pair[0], pair[1]);
        let saving = reduction(full.network_power, ns.network_power);
        savings.push(saving);
        rows.push(vec![
            b.name.to_string(),
            watts(full.network_power),
            watts(ns.network_power),
            pct(saving),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["benchmark", "full-sprinting", "NoC-sprinting", "saving"],
            &rows
        )
    );
    println!(
        "mean network-power saving: {} (paper 71.9%)",
        pct(mean(&savings))
    );
    harness.finish("fig10").expect("telemetry write failed");
}
