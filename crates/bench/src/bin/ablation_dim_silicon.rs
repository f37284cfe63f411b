//! Ablation: fine-grained (dark) sprinting vs dim-silicon (DVFS) sprinting
//! at the same core power budget.
//!
//! The paper's introduction frames the under-utilized area as "dark or
//! *dim* silicon, i.e., either idle or significantly under-clocked". The
//! natural alternative to activating k cores at full V/f is activating all
//! 16 at a reduced V/f matched to the same budget. Amdahl + DVFS decide:
//! scalable workloads tolerate dimming; anything serial or
//! oversubscription-limited strongly prefers few fast cores — which is the
//! fine-grained-sprinting design point.

use noc_bench::{banner, markdown_table};
use noc_sprinting::dim::DimModel;
use noc_workload::profile::parsec_suite;
use noc_workload::speedup::{ExecutionModel, OPTIMAL_TOLERANCE};

fn main() {
    print!(
        "{}",
        banner(
            "Ablation",
            "Fine-grained sprinting vs dim-silicon (all-core DVFS) at equal budget",
            "few fast cores beat many slow ones except for embarrassingly \
             parallel workloads"
        )
    );
    let m = DimModel::paper();
    let mut rows = Vec::new();
    let mut fine_wins = 0;
    for b in parsec_suite() {
        let model = ExecutionModel::new(b);
        let k = model.optimal_cores(16, OPTIMAL_TOLERANCE) as usize;
        let fine = model.speedup(k as u32);
        let (dim_str, dim_val) = match m.matched_dim_point(k) {
            None => ("infeasible (leakage floor)".to_string(), 0.0),
            Some(d) => {
                let s = m.dim_speedup(&b, k).expect("point exists");
                (
                    format!("{s:.2}x @ {:.2} V / {:.2} GHz", d.op.vdd, d.op.freq_ghz),
                    s,
                )
            }
        };
        if fine > dim_val {
            fine_wins += 1;
        }
        rows.push(vec![
            b.name.to_string(),
            k.to_string(),
            format!("{fine:.2}x"),
            dim_str,
            if fine > dim_val {
                "fine-grained"
            } else {
                "dim"
            }
            .to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "benchmark",
                "budget (cores)",
                "fine-grained speedup",
                "dim-silicon speedup",
                "winner"
            ],
            &rows
        )
    );
    println!(
        "fine-grained sprinting wins on {fine_wins}/13 benchmarks; dimming is \
         only competitive\nwhere speedup is near-linear to 16 cores, and it \
         cannot match budgets below ~4 cores\nat all (sixteen powered rails \
         leak more than a small sprint's whole budget)."
    );
}
