//! The load-bearing guarantee of the parallel pipeline: the
//! `ExperimentRunner` produces **bit-identical** results to the serial
//! path, at any worker count, because every operating point's seed is a
//! pure function of `(base_seed, point_index)`. Batches run on an
//! in-process `SweepService`, the one executor of a `SyntheticJob` batch;
//! probed points run the way `explore --telemetry` runs them.

use std::sync::Arc;

use integration::{in_process_service, service_batch};
use noc_sim::probe::{EventCounts, Probe, TimeSeriesObserver};
use noc_sim::sweep::point_seed;
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::telemetry::SpanRecorder;

/// A uniform load sweep from 4% in 8% steps as `n` jobs: `level` 16 with
/// `SpreadAggregate` is every node of the 4x4 mesh injecting under XY.
fn quick_sweep(level: usize, baseline: SyntheticBaseline, n: usize) -> Vec<SyntheticJob> {
    (0..n)
        .map(|i| SyntheticJob {
            topology: TopologySpec::default(),
            level,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.04 + 0.08 * i as f64,
            seed: point_seed(7, i),
            baseline,
        })
        .collect()
}

/// The metrics of `jobs` as one batch on a fresh service over `workers`.
fn parallel(e: Experiment, workers: usize, jobs: &[SyntheticJob]) -> Vec<NetworkMetrics> {
    service_batch(
        &in_process_service(e, ExperimentRunner::with_workers(workers)),
        jobs,
    )
}

/// The jobs run one after another on the calling thread, outside the pool.
fn serial(e: &Experiment, jobs: &[SyntheticJob]) -> Vec<NetworkMetrics> {
    jobs.iter()
        .map(|job| job.run(e).expect("serial point"))
        .collect()
}

/// Every job run on `workers` with its own probe from `make`, through
/// `ExperimentRunner::run` and `Experiment::run_job`; metrics and probes in
/// job order.
fn probed<P: Probe + Send>(
    e: &Experiment,
    workers: usize,
    jobs: &[SyntheticJob],
    make: impl Fn() -> P + Sync,
) -> (Vec<NetworkMetrics>, Vec<P>) {
    ExperimentRunner::with_workers(workers)
        .run(jobs, |_, job| {
            let mut probe = make();
            let (m, _) = e.run_job(job, Some(&mut probe)).expect("probed point");
            (m, probe)
        })
        .into_iter()
        .unzip()
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let jobs = quick_sweep(16, SyntheticBaseline::SpreadAggregate, 6);
    let serial = serial(&Experiment::quick(), &jobs);
    for workers in [1, 2, 3, 8] {
        let parallel = parallel(Experiment::quick(), workers, &jobs);
        // NetworkMetrics is PartialEq over f64 fields: equality here is
        // bit-level, not approximate.
        assert_eq!(
            parallel, serial,
            "sweep must be reproducible with {workers} workers"
        );
    }
}

#[test]
fn parallel_cdor_sweep_matches_serial() {
    let jobs = quick_sweep(4, SyntheticBaseline::NocSprinting, 4);
    let serial = serial(&Experiment::quick(), &jobs);
    let parallel = parallel(Experiment::quick(), 4, &jobs);
    assert_eq!(parallel, serial);
}

#[test]
fn observed_sweep_is_bit_identical_to_unobserved_at_any_worker_count() {
    // The telemetry contract: probes observe but never perturb. Jobs run
    // with a TimeSeriesObserver on every point must return metrics
    // bit-identical (f64 PartialEq) to the probe-free serial run, at any
    // worker count.
    let e = Experiment::quick();
    let jobs = quick_sweep(16, SyntheticBaseline::SpreadAggregate, 6);
    let baseline = serial(&e, &jobs);
    for workers in [1, 2, 4] {
        let (observed, probes) = probed(&e, workers, &jobs, || TimeSeriesObserver::new(250));
        assert_eq!(
            observed, baseline,
            "observation must not perturb results ({workers} workers)"
        );
        assert_eq!(probes.len(), jobs.len());
        for (i, p) in probes.iter().enumerate() {
            assert!(!p.samples().is_empty(), "point {i} produced no epochs");
        }
    }
}

#[test]
fn span_recorder_and_event_counters_do_not_perturb_results() {
    // Neither telemetry sink perturbs the metrics, at 1, 2 and 4 workers:
    // the service's per-point spans nor per-point EventCounts probes, and
    // both sinks actually see the run.
    let e = Experiment::quick();
    let jobs = quick_sweep(16, SyntheticBaseline::SpreadAggregate, 6);
    let baseline = serial(&e, &jobs);
    for workers in [1, 2, 4] {
        let rec = Arc::new(SpanRecorder::new());
        let runner = ExperimentRunner::with_workers(workers).with_span_recorder(Arc::clone(&rec));
        let traced = service_batch(&in_process_service(Experiment::quick(), runner), &jobs);
        assert_eq!(traced, baseline, "{workers} workers");
        assert_eq!(rec.spans().len(), jobs.len());
        let (observed, counters) = probed(&e, workers, &jobs, EventCounts::default);
        assert_eq!(observed, baseline, "{workers} workers");
        for c in &counters {
            assert!(c.injections > 0, "counter probe saw no injections");
            assert!(
                c.ejections > 0 && c.ejections <= c.injections,
                "ejections must be positive and bounded by injections"
            );
        }
    }
}

#[test]
fn seed_derivation_is_independent_of_execution() {
    // The seed schedule is a pure function of (base, index): recomputing it
    // in any order, on any thread, yields the same values.
    let expected: Vec<u64> = (0..32).map(|i| point_seed(99, i)).collect();
    let runner = ExperimentRunner::with_workers(7);
    let indices: Vec<usize> = (0..32).collect();
    let via_pool = runner.run(&indices, |_, &i| point_seed(99, i));
    assert_eq!(via_pool, expected);
    let mut reversed: Vec<u64> = (0..32).rev().map(|i| point_seed(99, i)).collect();
    reversed.reverse();
    assert_eq!(reversed, expected);
}

#[test]
fn synthetic_jobs_are_reproducible_across_worker_counts_and_caching() {
    let jobs: Vec<SyntheticJob> = [0.05, 0.15]
        .iter()
        .flat_map(|&rate| {
            [
                SyntheticBaseline::NocSprinting,
                SyntheticBaseline::SpreadAggregate,
            ]
            .map(|baseline| SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::UniformRandom,
                rate,
                seed: 11,
                baseline,
            })
        })
        .collect();
    let serial = parallel(Experiment::paper(), 1, &jobs);
    let service = in_process_service(Experiment::paper(), ExperimentRunner::with_workers(4));
    let cache = service.cache().memory();
    let parallel = service_batch(&service, &jobs);
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(
            p.avg_packet_latency.to_bits(),
            s.avg_packet_latency.to_bits()
        );
        assert_eq!(
            p.avg_network_latency.to_bits(),
            s.avg_network_latency.to_bits()
        );
        assert_eq!(p.network_power.to_bits(), s.network_power.to_bits());
        assert_eq!(
            p.accepted_throughput.to_bits(),
            s.accepted_throughput.to_bits()
        );
        assert_eq!(p.saturated, s.saturated);
    }
    // A second pass over the same jobs is served from the cache and still
    // returns the identical metrics.
    assert_eq!(cache.misses(), jobs.len() as u64);
    let cached = service_batch(&service, &jobs);
    assert_eq!(cache.misses(), jobs.len() as u64, "no recomputation");
    assert!(cache.hits() >= jobs.len() as u64);
    for (c, s) in cached.iter().zip(&serial) {
        assert_eq!(
            c.avg_network_latency.to_bits(),
            s.avg_network_latency.to_bits()
        );
    }
}
