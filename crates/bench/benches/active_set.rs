//! Benchmarks the active-set cycle engine against the exhaustive
//! reference. Both run the same stage driver; the reference fills every
//! work-list with every node at each step start and runs the
//! allocation-heavy VA and SA bodies, so its ns/cycle is the cost of
//! visiting every node with the reference allocators.
//!
//! The scenarios bracket the design space:
//!
//! - `full_4x4` / `full_16x16` / `full_32x32`: every router busy under
//!   uniform traffic — no idleness to exploit, so these measure the
//!   struct-of-arrays hot path (flat per-stage arrays, per-port phase
//!   masks, allocation-free allocator bodies) against the
//!   allocation-heavy reference. Rates sit at ~50-60% of the
//!   uniform-random saturation knee (`2*B/N` flits/node/cycle for `B`
//!   bisection links, i.e. 0.1 / 0.025 / 0.0125 flits for 4x4 / 16x16 /
//!   32x32 at 5 flits per packet): the operating region a sweep actually
//!   explores. Past the knee both engines grind through the same
//!   saturated queues and the ratio collapses toward 1x, which says
//!   nothing about the scheduler.
//! - `sprint8_16x16` / `sprint32_16x16`: a small sprint region on a 16x16
//!   mesh (8 or 32 of 256 routers powered) — the active set must scale
//!   with the *busy* region, not the mesh, and win big.
//!
//! The vendored criterion shim has no CLI, so this bench owns its `main`:
//! `--quick` shrinks samples/cycles for CI smoke, `--test` runs one tiny
//! sample of everything, `--json <path>` writes the measured baseline (see
//! `BENCH_soa.json` at the repo root), `--validate-sets <N>` cross-checks
//! the work-lists and SoA mirrors every N cycles while benchmarking, and
//! `--min-full-speedup <x>` exits non-zero if any fully-lit case comes in
//! below `x` (CI regression gate). Unknown flags (cargo passes `--bench`)
//! are ignored.

use std::time::{Duration, Instant};

use criterion::black_box;
use noc_sim::geometry::NodeId;
use noc_sim::network::{Network, StepEngine};
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::sprint_topology::SprintSet;

#[derive(Debug, Clone, Copy)]
struct Case {
    name: &'static str,
    mesh: (u16, u16),
    /// Sprint level (active routers); `None` = full mesh under XY routing.
    level: Option<usize>,
    rate: f64,
    /// Fully-lit cases are the SoA hot path and carry the CI speedup gate.
    fully_lit: bool,
}

const CASES: &[Case] = &[
    Case {
        name: "full_4x4",
        mesh: (4, 4),
        level: None,
        rate: 0.05,
        fully_lit: true,
    },
    Case {
        name: "full_16x16",
        mesh: (16, 16),
        level: None,
        rate: 0.015,
        fully_lit: true,
    },
    Case {
        name: "full_32x32",
        mesh: (32, 32),
        level: None,
        rate: 0.0075,
        fully_lit: true,
    },
    Case {
        name: "sprint32_16x16",
        mesh: (16, 16),
        level: Some(32),
        rate: 0.15,
        fully_lit: false,
    },
    Case {
        name: "sprint8_16x16",
        mesh: (16, 16),
        level: Some(8),
        rate: 0.15,
        fully_lit: false,
    },
];

fn build(case: &Case, engine: StepEngine) -> (Network, TrafficGen) {
    let mesh = Mesh2D::new(case.mesh.0, case.mesh.1).unwrap();
    let (mut net, placement) = match case.level {
        Some(level) => {
            let set = SprintSet::new(mesh, NodeId(0), level);
            let mut net = Network::new(
                mesh,
                RouterParams::paper(),
                Box::new(CdorRouting::new(&set)),
            )
            .unwrap();
            net.set_power_mask(set.mask());
            let placement = Placement::new(set.active_nodes().to_vec(), &mesh).unwrap();
            (net, placement)
        }
        None => {
            let net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
            (net, Placement::full(&mesh))
        }
    };
    net.set_step_engine(engine);
    let traffic = TrafficGen::new(
        TrafficPattern::UniformRandom,
        placement,
        case.rate,
        5,
        7,
    )
    .unwrap();
    (net, traffic)
}

/// One timed run: `cycles` cycles of generate + step + drain, optionally
/// cross-checking the work-lists/SoA mirrors every `validate_every` cycles.
fn run_once(case: &Case, engine: StepEngine, cycles: u64, validate_every: Option<u64>) -> Duration {
    let (mut net, mut traffic) = build(case, engine);
    let start = Instant::now();
    for cycle in 0..cycles {
        for p in traffic.generate(cycle, false) {
            net.enqueue_packet(p);
        }
        net.step().unwrap();
        net.drain_ejections();
        if let Some(every) = validate_every {
            if every > 0 && cycle.is_multiple_of(every) {
                net.validate_active_sets();
            }
        }
    }
    let elapsed = start.elapsed();
    black_box(net.in_flight());
    elapsed
}

/// Mean wall time over `samples` runs, after one warmup run.
fn sample(
    case: &Case,
    engine: StepEngine,
    samples: usize,
    cycles: u64,
    validate_every: Option<u64>,
) -> Duration {
    run_once(case, engine, cycles, validate_every);
    let total: Duration = (0..samples)
        .map(|_| run_once(case, engine, cycles, validate_every))
        .sum();
    total / samples as u32
}

#[derive(Debug)]
struct Row {
    name: &'static str,
    fully_lit: bool,
    exhaustive_ns: f64,
    active_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.exhaustive_ns / self.active_ns
    }
}

fn main() {
    let mut samples = 10usize;
    let mut cycles = 2_000u64;
    let mut json_path: Option<String> = None;
    let mut validate_every: Option<u64> = None;
    let mut min_full_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                samples = 3;
                cycles = 500;
            }
            "--test" => {
                samples = 1;
                cycles = 100;
            }
            "--json" => {
                json_path = args.next();
                assert!(json_path.is_some(), "--json requires a path");
            }
            "--validate-sets" => {
                let n = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--validate-sets requires a cycle count");
                validate_every = Some(n);
            }
            "--min-full-speedup" => {
                let x = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--min-full-speedup requires a number");
                min_full_speedup = Some(x);
            }
            // cargo passes --bench; tolerate any other harness flags.
            _ => {}
        }
    }

    println!("active_set engine comparison ({samples} samples x {cycles} cycles)");
    if let Some(every) = validate_every {
        println!("validating work-lists/SoA mirrors every {every} cycles");
    }
    println!(
        "{:<18} {:>16} {:>16} {:>9}",
        "case", "exhaustive/cyc", "active-set/cyc", "speedup"
    );
    let mut rows = Vec::new();
    for case in CASES {
        let ex = sample(case, StepEngine::ExhaustiveSweep, samples, cycles, validate_every);
        let ac = sample(case, StepEngine::ActiveSet, samples, cycles, validate_every);
        let row = Row {
            name: case.name,
            fully_lit: case.fully_lit,
            exhaustive_ns: ex.as_nanos() as f64 / cycles as f64,
            active_ns: ac.as_nanos() as f64 / cycles as f64,
        };
        println!(
            "{:<18} {:>13.1} ns {:>13.1} ns {:>8.2}x",
            row.name,
            row.exhaustive_ns,
            row.active_ns,
            row.speedup()
        );
        rows.push(row);
    }

    if let Some(path) = json_path {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"samples\": {samples},\n  \"cycles\": {cycles},\n  \"cases\": [\n"
        ));
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"exhaustive_ns_per_cycle\": {:.1}, \
                 \"active_set_ns_per_cycle\": {:.1}, \"speedup\": {:.2}}}{}\n",
                r.name,
                r.exhaustive_ns,
                r.active_ns,
                r.speedup(),
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        std::fs::write(&path, out).expect("write json baseline");
        println!("wrote {path}");
    }

    if let Some(floor) = min_full_speedup {
        let mut failed = false;
        for r in rows.iter().filter(|r| r.fully_lit) {
            if r.speedup() < floor {
                eprintln!(
                    "FAIL: {} speedup {:.2}x below floor {floor}x",
                    r.name,
                    r.speedup()
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("all fully-lit cases at or above {floor}x");
    }
}
