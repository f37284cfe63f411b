//! Ablation: memory-controller hotspot traffic.
//!
//! §3.2's rationale for the corner master: "the core next to the memory
//! controller is also a good candidate if the application generates
//! intensive memory accesses". Here each benchmark's `memory_intensity`
//! fraction of packets targets the MC node. The sprint region contains the
//! MC-adjacent master by construction, so misses travel 1-2 hops;
//! full-sprinting spreads the requesters across the whole mesh *and*
//! funnels them into one corner — a queueing hotspot.
//!
//! Rates are derated to half the Fig. 9 loads so the single MC port stays
//! below saturation for the 16-node case (a real chip would have several
//! controllers).
//!
//! Each benchmark is Fig. 9's pair of jobs ([`policy_jobs`]) with the
//! hotspot pattern, run in one batch through the `FigureHarness`
//! (`--service <socket>` to use a daemon).

use noc_bench::{banner, markdown_table, mean, pct, reduction, served_experiment, FigureHarness};
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::policy_jobs;
use noc_workload::profile::parsec_suite;

fn main() {
    print!(
        "{}",
        banner(
            "Ablation",
            "Memory-controller hotspot traffic",
            "the MC-adjacent master keeps miss latency low inside the sprint \
             region; full-sprinting funnels the whole mesh into one corner"
        )
    );
    let (experiment, tag) = served_experiment(false);
    let rate_scale = 0.5;
    let suite = parsec_suite();
    let jobs: Vec<_> = (suite.iter().enumerate())
        .flat_map(|(i, b)| {
            let pattern = TrafficPattern::Hotspot {
                hot_fraction: b.memory_intensity,
            };
            let seed = 4000 + i as u64;
            let (full, ns) = policy_jobs(&experiment.controller, b, pattern, rate_scale, seed);
            [full, ns]
        })
        .collect();
    let harness = FigureHarness::new(experiment, tag);
    let metrics = harness.run(&jobs).expect("memory-traffic points").metrics;
    let mut rows = Vec::new();
    let mut cuts = Vec::new();
    for (b, pair) in suite.iter().zip(metrics.chunks(2)) {
        let (full, ns) = (pair[0], pair[1]);
        let cut = reduction(full.avg_network_latency, ns.avg_network_latency);
        if !full.saturated && !ns.saturated {
            cuts.push(cut);
        }
        rows.push(vec![
            b.name.to_string(),
            format!("{:.0}%", b.memory_intensity * 100.0),
            format!(
                "{:.1}{}",
                full.avg_network_latency,
                if full.saturated { " (sat)" } else { "" }
            ),
            format!(
                "{:.1}{}",
                ns.avg_network_latency,
                if ns.saturated { " (sat)" } else { "" }
            ),
            pct(cut),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "benchmark",
                "MC traffic",
                "full-sprinting latency",
                "NoC-sprinting latency",
                "reduction"
            ],
            &rows
        )
    );
    println!(
        "mean latency reduction under memory traffic: {} \
         (vs 18-19% under pure uniform, Fig. 9)",
        pct(mean(&cuts))
    );
    harness
        .finish("ablation_memory_traffic")
        .expect("telemetry write failed");
}
