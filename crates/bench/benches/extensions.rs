//! Criterion benchmarks of the extension subsystems: reactive gating,
//! closed-loop protocol traffic and the sprint runtime.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_sim::closed_loop::ClosedLoopSim;
use noc_sim::network::{GatingMode, Network};
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::controller::SprintPolicy;
use noc_sprinting::experiment::Experiment;
use noc_sprinting::llc::LlcAgent;
use noc_sprinting::runtime::{SprintJob, SprintRuntime};
use noc_workload::profile::by_name;

fn bench_reactive_gating_step(c: &mut Criterion) {
    c.bench_function("reactive_gating_1k_cycles", |b| {
        b.iter(|| {
            let mesh = Mesh2D::paper_4x4();
            let mut net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
            net.set_gating_mode(GatingMode::Reactive {
                idle_threshold: 100,
                wakeup_latency: 10,
            });
            let mut traffic = TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::full(&mesh),
                0.1,
                5,
                7,
            )
            .unwrap();
            for _ in 0..1_000 {
                for p in traffic.generate(net.now(), false) {
                    net.enqueue_packet(p);
                }
                net.step().unwrap();
                net.drain_ejections();
            }
            net
        })
    });
}

fn bench_llc_closed_loop(c: &mut Criterion) {
    c.bench_function("llc_closed_loop_2k_cycles", |b| {
        b.iter(|| {
            let mesh = Mesh2D::paper_4x4();
            let net =
                Network::new(mesh, RouterParams::paper_two_vnets(), Box::new(XyRouting)).unwrap();
            let agent = LlcAgent::new(mesh.nodes().collect(), mesh.nodes().collect(), 0.02, 6, 5);
            let mut sim = ClosedLoopSim::new(net, agent);
            sim.run(2_000, 20_000).unwrap()
        })
    });
}

fn bench_sprint_runtime_job(c: &mut Criterion) {
    let dedup = by_name("dedup").unwrap();
    c.bench_function("sprint_runtime_one_job", |b| {
        b.iter(|| {
            let mut rt = SprintRuntime::new(Experiment::paper(), SprintPolicy::NocSprinting);
            rt.process(&SprintJob {
                profile: dedup,
                serial_seconds: 0.5,
                arrival: 0.0,
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_reactive_gating_step, bench_llc_closed_loop,
        bench_sprint_runtime_job
}
criterion_main!(benches);
