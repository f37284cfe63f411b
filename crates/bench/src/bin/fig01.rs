//! Figure 1: the sprint-phase temperature timeline.
//!
//! Simulates the lumped die+PCM model through a full-chip sprint: phase 1
//! (rise to the melt point), phase 2 (melt plateau), phase 3 (rise to
//! `T_max`), then single-core cooldown.

use noc_bench::banner;
use noc_sprinting::controller::SprintPolicy;
use noc_sprinting::experiment::Experiment;
use noc_thermal::sprint::SprintPhase;
use noc_workload::profile::by_name;

fn main() {
    print!(
        "{}",
        banner(
            "Fig. 1",
            "Sprint phases: temperature vs time",
            "rise to T_melt, plateau while the PCM melts, rise to T_max, then cooldown"
        )
    );
    let e = Experiment::paper();
    let dedup = by_name("dedup").expect("dedup in roster");
    let p_full = e.chip_sprint_power(SprintPolicy::FullSprinting, &dedup);
    let p_nom = e.chip_sprint_power(SprintPolicy::NonSprinting, &dedup);
    println!("full-sprint chip power: {p_full:.1} W; nominal: {p_nom:.1} W");
    let m = &e.sprint_thermal;
    let d = m.phase_durations(p_full);
    println!(
        "analytic phases @ {p_full:.1} W: rise {:.3} s, melt {:.3} s, post-melt {:.3} s, total {:.3} s",
        d.rise_to_melt,
        d.melt,
        d.rise_to_max,
        d.total()
    );

    let pts = m.simulate(p_full, p_nom, 60.0, 3.0, 1e-4);
    println!("\ntime_s temp_K melt_frac phase");
    let step = (pts.len() / 60).max(1);
    let mut last_phase = None;
    for (i, p) in pts.iter().enumerate() {
        let boundary = last_phase != Some(p.phase);
        last_phase = Some(p.phase);
        if i % step == 0 || boundary {
            let tag = match p.phase {
                SprintPhase::Rise => "1:rise",
                SprintPhase::Melt => "2:melt",
                SprintPhase::PostMelt => "3:post-melt",
                SprintPhase::Cooldown => "cooldown",
            };
            println!(
                "{:8.4} {:7.2} {:5.2} {}",
                p.time, p.temp, p.melt_fraction, tag
            );
        }
    }
}
