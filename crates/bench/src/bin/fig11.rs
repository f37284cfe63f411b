//! Figure 11: synthetic uniform-random traffic — latency and power vs
//! injection rate, for 4-core and 8-core sprinting.
//!
//! NoC-sprinting uses the convex sprint region with CDOR + gating.
//! Full-sprinting "spreads the same amount of traffic among a fixed
//! fully-functional network": all 16 nodes inject, with the aggregate load
//! matched to the sprint configuration; results are averaged over ten
//! samples (seeds). The x-axis is flits/cycle per *active sprint node*.
//!
//! Every operating point is independent, so the whole figure fans out
//! through the parallel `ExperimentRunner` (set `NOC_BENCH_WORKERS=1` for
//! the serial path — the numbers are bit-identical either way). With
//! `--service <socket>` (or `NOC_SERVE_SOCKET`) the harness routes every
//! point through a running `noc_serve` daemon instead, so repeat figure
//! runs are answered from its persistent result cache — see SERVICE.md.
//!
//! Paper: pre-saturation latency cut 45.1% (4-core) / 16.1% (8-core);
//! power cut 62.1% / 25.9%; NoC-sprinting saturates earlier, which is
//! irrelevant at PARSEC's < 0.3 flits/cycle loads.

use noc_bench::{banner, markdown_table, mean, pct, reduction, served_experiment, FigureHarness};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

const SAMPLES: u64 = 10;

fn rates() -> Vec<f64> {
    (4..=95).step_by(7).map(|p| f64::from(p) / 100.0).collect()
}

fn main() {
    print!(
        "{}",
        banner(
            "Fig. 11",
            "Synthetic uniform-random traffic: latency & power vs load",
            "latency -45.1%/-16.1% and power -62.1%/-25.9% for 4-/8-core \
             sprinting before saturation; NoC-sprinting saturates earlier"
        )
    );
    let (experiment, tag) = served_experiment(false);
    let harness = FigureHarness::new(experiment, tag);
    for level in [4usize, 8] {
        println!("--- {level}-core sprinting ---");
        // One NoC-sprinting point plus SAMPLES spread samples per rate, as a
        // single batch for the worker pool.
        let mut jobs = Vec::new();
        for &rate in &rates() {
            jobs.push(SyntheticJob {
                topology: TopologySpec::default(),
                level,
                pattern: TrafficPattern::UniformRandom,
                rate,
                seed: 42,
                baseline: SyntheticBaseline::NocSprinting,
            });
            for s in 0..SAMPLES {
                jobs.push(SyntheticJob {
                    topology: TopologySpec::default(),
                    level,
                    pattern: TrafficPattern::UniformRandom,
                    rate,
                    seed: s,
                    baseline: SyntheticBaseline::SpreadAggregate,
                });
            }
        }
        let metrics = harness.run(&jobs).expect("Fig. 11 points").metrics;

        let mut rows = Vec::new();
        let mut lat_cuts = Vec::new();
        let mut pow_cuts = Vec::new();
        let mut ns_sat_rate = None;
        let mut full_sat_rate = None;
        let per_rate = 1 + SAMPLES as usize;
        for (rate, chunk) in rates().iter().zip(metrics.chunks(per_rate)) {
            let rate = *rate;
            let ns = chunk[0];
            let samples = &chunk[1..];
            let full_lat: Vec<f64> = samples.iter().map(|m| m.avg_network_latency).collect();
            let full_pow: Vec<f64> = samples.iter().map(|m| m.network_power).collect();
            let full_sat = samples.iter().filter(|m| m.saturated).count() as u64;
            let fl = mean(&full_lat);
            let fp = mean(&full_pow);
            if ns.saturated && ns_sat_rate.is_none() {
                ns_sat_rate = Some(rate);
            }
            if full_sat > SAMPLES / 2 && full_sat_rate.is_none() {
                full_sat_rate = Some(rate);
            }
            // The paper quotes the gap "before saturation", i.e. on the flat
            // part of the curves — which is also the only region PARSEC
            // reaches (< 0.3 flits/cycle).
            if rate <= 0.32 && !ns.saturated && full_sat == 0 {
                lat_cuts.push(reduction(fl, ns.avg_network_latency));
                pow_cuts.push(reduction(fp, ns.network_power));
            }
            rows.push(vec![
                format!("{rate:.2}"),
                format!(
                    "{:.1}{}",
                    ns.avg_network_latency,
                    if ns.saturated { " (sat)" } else { "" }
                ),
                format!("{fl:.1}{}", if full_sat > 0 { " (sat)" } else { "" }),
                format!("{:.1}", ns.network_power * 1e3),
                format!("{fp:.1}", fp = fp * 1e3),
            ]);
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "inj rate (flits/cyc/active node)",
                    "NoC-sprinting latency (cyc)",
                    "full-sprinting latency (cyc)",
                    "NoC power (mW)",
                    "full power (mW)"
                ],
                &rows
            )
        );
        let paper = if level == 4 {
            ("45.1%", "62.1%")
        } else {
            ("16.1%", "25.9%")
        };
        println!(
            "pre-saturation means: latency cut {} (paper {}), power cut {} (paper {})",
            pct(mean(&lat_cuts)),
            paper.0,
            pct(mean(&pow_cuts)),
            paper.1
        );
        println!(
            "saturation onset (flits/cyc/active node): NoC-sprinting {}, full-sprinting {}\n",
            ns_sat_rate.map_or("none in sweep".to_string(), |r| format!("{r:.2}")),
            full_sat_rate.map_or("none in sweep".to_string(), |r| format!("{r:.2}")),
        );
    }
    println!("note: PARSEC average injection never exceeds 0.3 flits/cycle (paper §4.3),");
    println!("so the earlier saturation of the sprint region does not bite in practice.");
    harness.finish("fig11").expect("telemetry write failed");
}
