//! Thermal budgeting: choose the best sprint level that *finishes within
//! the thermal envelope*.
//!
//! Speedup-optimal is not always thermally feasible: a high sprint level
//! finishes faster but burns the PCM budget sooner; if the job outlasts the
//! sprint duration the chip falls back to single-core crawl (Fig. 1's
//! `t_one`). This example sweeps every level for a given job size and
//! reports completion times with the thermal cutoff applied — the
//! longer-sprint-duration benefit of §4.4 made concrete, via
//! [`Experiment::thermally_optimal_level`].
//!
//! ```sh
//! cargo run --release -p noc-sprinting-examples --bin thermal_budgeting
//! ```

use noc_sprinting::experiment::Experiment;
use noc_sprinting_examples::section;
use noc_workload::profile::by_name;
use noc_workload::speedup::{ExecutionModel, OPTIMAL_TOLERANCE};

fn main() {
    let e = Experiment::paper();
    let bench = by_name("streamcluster").expect("in roster");
    let model = ExecutionModel::new(bench);
    // A chunky burst: 6 seconds of single-core work.
    let job_seconds = 6.0;

    section(&format!(
        "job: {} x {job_seconds} s single-core work; T_max {:.0} K; PCM {:.0} J",
        bench.name, e.sprint_thermal.t_max, e.sprint_thermal.pcm.latent_heat
    ));
    println!(
        "{:>6} {:>10} {:>12} {:>12} {:>14}",
        "level", "chip W", "exec time", "sprint cap", "completion"
    );

    for level in 1..=16usize {
        let power = e.chip_power_at_level(&bench, level);
        let exec = job_seconds * model.time(level as u32);
        let cap = e.sprint_thermal.sprint_duration(power);
        let completion = e.completion_time(&bench, level, job_seconds);
        let cap_str = if cap.is_infinite() {
            "sustained".to_string()
        } else {
            format!("{cap:9.2} s")
        };
        println!(
            "{level:>6} {power:>9.1} {exec:>10.2} s {cap_str:>12} {completion:>12.2} s{}",
            if exec > cap {
                "  (thermal cutoff!)"
            } else {
                ""
            }
        );
    }

    let best = e.thermally_optimal_level(&bench, job_seconds);
    let greedy = model.optimal_cores(16, OPTIMAL_TOLERANCE) as usize;
    section("result");
    println!(
        "thermally-optimal sprint level: {best} (completion {:.2} s)",
        e.completion_time(&bench, best, job_seconds)
    );
    println!(
        "speedup-greedy level would be {greedy} (completion {:.2} s)",
        e.completion_time(&bench, greedy, job_seconds)
    );
    println!("the speedup-optimal level is not automatically the completion-optimal");
    println!("one once the PCM budget is finite — lower levels sprint longer (§4.4)");
    println!("and can win on long jobs.");
}
