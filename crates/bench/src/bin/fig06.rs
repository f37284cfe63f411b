//! Figure 6: CDOR routing-logic cost — the paper's synthesis claim is
//! < 2% router area overhead versus a conventional DOR switch (Synopsys DC,
//! 45 nm), reproduced with a gate-inventory area model.

use noc_bench::{banner, markdown_table, pct};
use noc_power::area::{AreaConfig, AreaModel};

fn main() {
    print!(
        "{}",
        banner(
            "Fig. 6",
            "CDOR routing logic area",
            "two connectivity bits + convex-case gates add < 2% router area over DOR"
        )
    );
    let m = AreaModel::new(AreaConfig::paper());
    let dor = m.dor_router();
    let cdor = m.cdor_router();
    let lbdr = m.lbdr_router();
    let row = |name: &str, a: &noc_power::area::RouterArea| {
        vec![
            name.to_string(),
            format!("{:.0}", a.buffers),
            format!("{:.0}", a.crossbar),
            format!("{:.0}", a.allocators),
            format!("{:.1}", a.routing),
            format!("{:.0}", a.total()),
        ]
    };
    let rows = vec![
        row("DOR", &dor),
        row("CDOR (2 bits)", &cdor),
        row("LBDR (12 bits)", &lbdr),
    ];
    println!(
        "{}",
        markdown_table(
            &[
                "router",
                "buffers µm²",
                "crossbar µm²",
                "allocators µm²",
                "routing µm²",
                "total µm²"
            ],
            &rows
        )
    );
    println!(
        "routing gates: DOR {:.0} vs CDOR {:.0} NAND2-equivalents",
        m.dor_routing_gates(),
        m.cdor_routing_gates()
    );
    let o = m.cdor_overhead();
    println!("CDOR area overhead: {} (paper: < 2%)", pct(o));
    println!(
        "LBDR (the 12-bit general scheme the paper adapts): {}",
        pct(m.lbdr_overhead())
    );
    assert!(o < 0.02, "overhead must stay below the paper's bound");
    assert!(o < m.lbdr_overhead(), "CDOR must undercut LBDR");
}
