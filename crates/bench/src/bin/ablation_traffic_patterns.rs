//! Ablation: CDOR sprint regions under the full booksim pattern set.
//!
//! The paper evaluates uniform-random synthetic traffic (Fig. 11); this
//! ablation stresses the sprint regions with the standard adversarial
//! patterns — transpose, bit-complement, tornado, shuffle, hotspot toward
//! the master (memory-controller traffic), nearest-neighbor — confirming
//! CDOR's latency advantage and deadlock freedom are not
//! uniform-random artifacts.

use noc_bench::{banner, markdown_table, served_experiment, FigureHarness};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

fn main() {
    print!(
        "{}",
        banner(
            "Ablation",
            "Sprint regions under adversarial traffic patterns",
            "CDOR stays deadlock-free and keeps its latency edge beyond \
             uniform random"
        )
    );
    let (experiment, tag) = served_experiment(false);
    let harness = FigureHarness::new(experiment, tag);
    let rate = 0.15;
    for level in [4usize, 8, 16] {
        println!("--- {level}-core sprinting at {rate} flits/cyc/node ---");
        let patterns: Vec<(&str, TrafficPattern)> = vec![
            ("uniform", TrafficPattern::UniformRandom),
            ("transpose", TrafficPattern::Transpose),
            ("bit-complement", TrafficPattern::BitComplement),
            ("tornado", TrafficPattern::Tornado),
            ("shuffle", TrafficPattern::Shuffle),
            (
                "hotspot->master",
                TrafficPattern::Hotspot { hot_fraction: 0.4 },
            ),
            ("nearest-neighbor", TrafficPattern::NearestNeighbor),
        ];
        // Two jobs (NoC-sprinting, spread full-sprinting) per valid pattern.
        let valid: Vec<&(&str, TrafficPattern)> = patterns
            .iter()
            .filter(|(_, p)| p.validate(level).is_ok())
            .collect();
        let jobs: Vec<SyntheticJob> = valid
            .iter()
            .flat_map(|&&(_, pattern)| {
                [
                    SyntheticBaseline::NocSprinting,
                    SyntheticBaseline::SpreadAggregate,
                ]
                .map(|baseline| SyntheticJob {
                    topology: TopologySpec::default(),
                    level,
                    pattern,
                    rate,
                    seed: 21,
                    baseline,
                })
            })
            .collect();
        let metrics = harness.run(&jobs).expect("pattern ablation points").metrics;
        let mut results = valid.iter().zip(metrics.chunks(2));

        let mut rows = Vec::new();
        for (name, p) in &patterns {
            if p.validate(level).is_err() {
                rows.push(vec![
                    name.to_string(),
                    "n/a (needs square/pow2 node count)".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let (_, chunk) = results.next().expect("one result pair per valid pattern");
            let (ns, full) = (chunk[0], chunk[1]);
            rows.push(vec![
                name.to_string(),
                format!(
                    "{:.1}{}",
                    ns.avg_network_latency,
                    if ns.saturated { " (sat)" } else { "" }
                ),
                format!(
                    "{:.1}{}",
                    full.avg_network_latency,
                    if full.saturated { " (sat)" } else { "" }
                ),
                format!(
                    "{:+.0}%",
                    (ns.avg_network_latency / full.avg_network_latency - 1.0) * 100.0
                ),
            ]);
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "pattern",
                    "NoC-sprinting latency (cyc)",
                    "full-sprinting latency (cyc)",
                    "NoC vs full"
                ],
                &rows
            )
        );
    }
    harness
        .finish("ablation_traffic_patterns")
        .expect("telemetry write failed");
}
