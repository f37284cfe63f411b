//! Quickstart: the NoC-Sprinting API in five minutes.
//!
//! Builds a sprint topology for a real workload profile, routes on it with
//! CDOR, runs the cycle-level simulator with the dark region power-gated,
//! and prices the network with the DSENT-class power model.
//!
//! ```sh
//! cargo run --release -p noc-sprinting-examples --bin quickstart
//! ```

use noc_sim::traffic::TrafficPattern;
use noc_sprinting::controller::{SprintController, SprintPolicy};
use noc_sprinting::experiment::{policy_jobs, Experiment};
use noc_sprinting::gating::GatingPlan;
use noc_sprinting_examples::section;
use noc_workload::profile::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    section("1. Pick a workload and ask the controller for a sprint level");
    let controller = SprintController::paper();
    let dedup = by_name("dedup").ok_or("dedup not in roster")?;
    let level = controller.sprint_level(SprintPolicy::NocSprinting, &dedup);
    println!("dedup wants {level} cores (its speedup peaks there, Fig. 4)");

    section("2. Build the sprint topology (Algorithm 1) and the gating plan");
    let set = controller.sprint_set(SprintPolicy::NocSprinting, &dedup);
    println!(
        "active nodes (activation order): {:?}",
        set.active_nodes().iter().map(|n| n.0).collect::<Vec<_>>()
    );
    let plan = GatingPlan::from_sprint_set(&set);
    println!(
        "{} routers powered, {} gated; {:.0}% of network resources dark",
        plan.routers_on(),
        plan.routers_gated(),
        plan.gated_fraction() * 100.0
    );

    section("3. Run the cycle-level network with CDOR inside the region");
    let e = Experiment::quick();
    let (full, ns) = policy_jobs(&controller, &dedup, TrafficPattern::UniformRandom, 1.0, 1);
    let (full, ns) = (full.run(&e)?, ns.run(&e)?);
    println!(
        "network latency: NoC-sprinting {:.1} cycles vs full-sprinting {:.1} cycles",
        ns.avg_network_latency, full.avg_network_latency
    );
    println!(
        "network power:   NoC-sprinting {:.0} mW vs full-sprinting {:.0} mW ({:.0}% saved)",
        ns.network_power * 1e3,
        full.network_power * 1e3,
        (1.0 - ns.network_power / full.network_power) * 100.0
    );

    section("4. What did sprinting buy end to end?");
    let speedup = controller.speedup(SprintPolicy::NocSprinting, &dedup);
    let melt_full = e.melt_duration(SprintPolicy::FullSprinting, &dedup);
    let melt_ns = e.melt_duration(SprintPolicy::NocSprinting, &dedup);
    println!("speedup over single-core: {speedup:.2}x");
    println!(
        "sprint (melt) budget: {melt_ns:.2} s vs {melt_full:.2} s under full-sprinting \
         ({:.1}x longer)",
        melt_ns / melt_full
    );
    Ok(())
}
