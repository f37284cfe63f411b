//! Figure 2: router power breakdown (dynamic vs leakage) while scaling
//! voltage and frequency.
//!
//! 128-bit flits, 2 VCs x 4-flit buffers, 45 nm, 0.4 flits/cycle average
//! injection — the exact configuration of the paper's study.

use noc_bench::{banner, markdown_table, pct, watts};
use noc_power::router::{RouterConfig, RouterPowerModel};
use noc_power::tech::{OperatingPoint, TechNode};

fn main() {
    print!(
        "{}",
        banner(
            "Fig. 2",
            "Router power breakdown vs (V, f)",
            "leakage is significant and its share grows as V/f scale down, \
             exceeding dynamic power in some cases"
        )
    );
    let model = RouterPowerModel::new(TechNode::nm45(), RouterConfig::fig2());
    let mut rows = Vec::new();
    for op in OperatingPoint::fig2_sweep() {
        let p = model.power_at_injection_rate(&op, 0.4);
        rows.push(vec![
            op.to_string(),
            watts(p.dynamic.total()),
            watts(p.leakage.total()),
            watts(p.total()),
            pct(p.leakage_fraction()),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "operating point",
                "dynamic",
                "leakage",
                "total",
                "leakage share"
            ],
            &rows
        )
    );

    println!("per-component breakdown at each point (dynamic / leakage, mW):");
    let mut rows = Vec::new();
    for op in OperatingPoint::fig2_sweep() {
        let p = model.power_at_injection_rate(&op, 0.4);
        let f = |d: f64, l: f64| format!("{:.2}/{:.2}", d * 1e3, l * 1e3);
        rows.push(vec![
            op.to_string(),
            f(p.dynamic.buffer, p.leakage.buffer),
            f(p.dynamic.crossbar, p.leakage.crossbar),
            f(p.dynamic.va, p.leakage.va),
            f(p.dynamic.sa, p.leakage.sa),
            f(p.dynamic.clock, p.leakage.clock),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["operating point", "buffer", "crossbar", "VA", "SA", "clock"],
            &rows
        )
    );
}
