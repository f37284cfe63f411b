//! Criterion benchmarks of the end-to-end experiment runners — one per
//! evaluation artifact class, so regressions in figure-regeneration cost
//! are visible.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_power::area::{AreaConfig, AreaModel};
use noc_power::chip::ChipPowerModel;
use noc_power::router::{RouterConfig, RouterPowerModel};
use noc_power::tech::{OperatingPoint, TechNode};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::controller::SprintPolicy;
use noc_sprinting::experiment::{Experiment, ThermalVariant};
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_workload::profile::{by_name, parsec_suite};
use noc_workload::speedup::{ExecutionModel, OPTIMAL_TOLERANCE};

fn bench_fig02_router_power(c: &mut Criterion) {
    let model = RouterPowerModel::new(TechNode::nm45(), RouterConfig::fig2());
    c.bench_function("fig02_router_power_sweep", |b| {
        b.iter(|| {
            OperatingPoint::fig2_sweep()
                .iter()
                .map(|op| model.power_at_injection_rate(op, 0.4).total())
                .sum::<f64>()
        })
    });
}

fn bench_fig03_chip_breakdown(c: &mut Criterion) {
    let m = ChipPowerModel::paper();
    c.bench_function("fig03_chip_breakdown", |b| {
        b.iter(|| {
            [4usize, 8, 16, 32]
                .iter()
                .map(|&n| m.nominal_breakdown(n).noc_fraction())
                .sum::<f64>()
        })
    });
}

fn bench_fig04_speedup_curves(c: &mut Criterion) {
    let suite = parsec_suite();
    c.bench_function("fig04_speedup_curves", |b| {
        b.iter(|| {
            suite
                .iter()
                .map(|p| ExecutionModel::new(*p).optimal_cores(16, OPTIMAL_TOLERANCE))
                .sum::<u32>()
        })
    });
}

fn bench_fig06_area(c: &mut Criterion) {
    let m = AreaModel::new(AreaConfig::paper());
    c.bench_function("fig06_cdor_area_overhead", |b| b.iter(|| m.cdor_overhead()));
}

fn bench_fig08_core_power(c: &mut Criterion) {
    let e = Experiment::paper();
    let suite = parsec_suite();
    c.bench_function("fig08_core_power_suite", |b| {
        b.iter(|| {
            suite
                .iter()
                .map(|p| e.core_power(SprintPolicy::NocSprinting, p))
                .sum::<f64>()
        })
    });
}

fn bench_fig11_sim_point(c: &mut Criterion) {
    let e = Experiment::quick();
    let job = SyntheticJob {
        topology: TopologySpec::default(),
        level: 4,
        pattern: TrafficPattern::UniformRandom,
        rate: 0.1,
        seed: 7,
        baseline: SyntheticBaseline::NocSprinting,
    };
    c.bench_function("fig11_synthetic_point_4core", |b| {
        b.iter(|| job.run(&e).unwrap())
    });
}

fn bench_fig12_heatmap(c: &mut Criterion) {
    let e = Experiment::paper();
    c.bench_function("fig12_heatmap_floorplanned", |b| {
        b.iter(|| e.heatmap(ThermalVariant::FineGrainedFloorplanned, 4))
    });
}

fn bench_sec44_duration(c: &mut Criterion) {
    let e = Experiment::paper();
    let dedup = by_name("dedup").unwrap();
    c.bench_function("sec44_melt_duration", |b| {
        b.iter(|| e.melt_duration(SprintPolicy::NocSprinting, &dedup))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fig02_router_power, bench_fig03_chip_breakdown,
        bench_fig04_speedup_curves, bench_fig06_area, bench_fig08_core_power,
        bench_fig11_sim_point, bench_fig12_heatmap, bench_sec44_duration
}
criterion_main!(benches);
