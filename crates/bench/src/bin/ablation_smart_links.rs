//! Ablation: do the floorplan's long wires need SMART repeaters?
//!
//! The thermal-aware floorplan (Fig. 5b) lengthens some logical-mesh links;
//! the paper leans on Krishna et al.'s clockless repeated wires (SMART) to
//! keep those multi-tile traversals single-cycle. This ablation quantifies
//! the cost of *not* having them: each link's traversal latency is set to
//! `1 + ceil(physical length)` cycles instead of the uniform 2, and the
//! sprint traffic is replayed.

use noc_bench::{banner, markdown_table, workers_from_env};
use noc_sim::network::Network;
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::config::SystemConfig;
use noc_sprinting::floorplan::Floorplan;
use noc_sprinting::runner::ExperimentRunner;
use noc_sprinting::sprint_topology::SprintSet;

fn run(level: usize, smart: bool, rate: f64) -> f64 {
    let sys = SystemConfig::paper();
    let mesh = sys.mesh();
    let set = SprintSet::paper(level);
    let plan = Floorplan::thermal_aware(&SprintSet::paper(16));
    let mut net = Network::new(mesh, sys.router, Box::new(CdorRouting::new(&set))).unwrap();
    net.set_power_mask(set.mask());
    if !smart {
        for ((a, b), len) in plan.link_lengths() {
            // ST (1 cycle) + one cycle per tile pitch of unrepeated wire.
            let cycles = 1 + len.ceil() as u64;
            net.set_link_latency(a, b, cycles.max(2));
        }
    }
    let traffic = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::new(set.active_nodes().to_vec(), &mesh).unwrap(),
        rate,
        sys.packet_len,
        77,
    )
    .unwrap();
    let out = Simulation::new(net, traffic, SimConfig::sweep())
        .run()
        .unwrap();
    out.stats.avg_network_latency()
}

fn main() {
    print!(
        "{}",
        banner(
            "Ablation",
            "Floorplanned link latency with vs without SMART repeated wires",
            "the floorplan's long links are latency-neutral only with \
             single-cycle multi-hop wires [Krishna et al.]"
        )
    );
    let rate = 0.15;
    let runner = match workers_from_env() {
        Some(w) => ExperimentRunner::with_workers(w),
        None => ExperimentRunner::new(),
    };
    // Each (level, smart) point builds its own network, so the six
    // simulations fan out through the pool.
    let points: Vec<(usize, bool)> = [4usize, 8, 16]
        .iter()
        .flat_map(|&level| [(level, true), (level, false)])
        .collect();
    let latencies = runner.run(&points, |_, &(level, smart)| run(level, smart, rate));
    let mut rows = Vec::new();
    for (chunk, level) in latencies.chunks(2).zip([4usize, 8, 16]) {
        let (with_smart, without) = (chunk[0], chunk[1]);
        rows.push(vec![
            format!("{level}-core"),
            format!("{with_smart:.1}"),
            format!("{without:.1}"),
            format!("{:+.0}%", (without / with_smart - 1.0) * 100.0),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "sprint level",
                "latency, SMART links (cyc)",
                "latency, plain wires (cyc)",
                "penalty"
            ],
            &rows
        )
    );
    println!("without single-cycle long wires the thermal-aware floorplan taxes every");
    println!("hop that the placement stretched — the repeated-wire assumption the paper");
    println!("cites is load-bearing, and this harness makes its cost visible.");
}
