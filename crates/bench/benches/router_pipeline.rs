//! Criterion benchmarks of the cycle-level simulator's hot loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use noc_sim::network::Network;
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};

fn bench_network_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_step");
    for &rate in &[0.05f64, 0.2, 0.4] {
        group.throughput(Throughput::Elements(1000));
        group.bench_with_input(BenchmarkId::new("uniform_4x4", rate), &rate, |b, &rate| {
            b.iter_batched(
                || {
                    let mesh = Mesh2D::paper_4x4();
                    let net =
                        Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
                    let traffic = TrafficGen::new(
                        TrafficPattern::UniformRandom,
                        Placement::full(&mesh),
                        rate,
                        5,
                        7,
                    )
                    .unwrap();
                    (net, traffic)
                },
                |(mut net, mut traffic)| {
                    for cycle in 0..1000u64 {
                        for p in traffic.generate(cycle, false) {
                            net.enqueue_packet(p);
                        }
                        net.step().unwrap();
                        net.drain_ejections();
                    }
                    net
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_full_simulation(c: &mut Criterion) {
    c.bench_function("simulation_quick_uniform_0.2", |b| {
        b.iter(|| {
            let mesh = Mesh2D::paper_4x4();
            let net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
            let traffic = TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::full(&mesh),
                0.2,
                5,
                7,
            )
            .unwrap();
            Simulation::new(net, traffic, SimConfig::quick())
                .run()
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_network_step, bench_full_simulation
}
criterion_main!(benches);
