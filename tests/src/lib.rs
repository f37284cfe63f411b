//! Shared helpers for the cross-crate integration tests.

use noc_sim::network::Network;
use noc_sim::router::RouterParams;
use noc_sim::routing::RoutingFunction;
use noc_sim::sim::{SimConfig, SimOutcome, Simulation};
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{ExperimentRunner, SyntheticJob};
use noc_sprinting::service::{
    code_version, metrics_from_pairs, DiskResultCache, ServiceResponse, SubmitRequest, SweepService,
};

/// Runs a short simulation on a fully powered mesh and returns the outcome.
///
/// # Panics
///
/// Panics on simulator errors — integration tests treat those as failures.
pub fn run_full_mesh(
    mesh: Mesh2D,
    routing: Box<dyn RoutingFunction>,
    pattern: TrafficPattern,
    rate: f64,
    seed: u64,
) -> SimOutcome {
    let net = Network::new(mesh, RouterParams::paper(), routing).expect("network");
    let traffic = TrafficGen::new(pattern, Placement::full(&mesh), rate, 5, seed).expect("traffic");
    Simulation::new(net, traffic, SimConfig::quick())
        .run()
        .expect("simulation")
}

/// Runs a short simulation restricted to a placement with a power mask.
///
/// # Panics
///
/// Panics on simulator errors.
pub fn run_masked(
    mesh: Mesh2D,
    routing: Box<dyn RoutingFunction>,
    placement: Placement,
    mask: &[bool],
    pattern: TrafficPattern,
    rate: f64,
    seed: u64,
) -> SimOutcome {
    let mut net = Network::new(mesh, RouterParams::paper(), routing).expect("network");
    net.set_power_mask(mask);
    let traffic = TrafficGen::new(pattern, placement, rate, 5, seed).expect("traffic");
    Simulation::new(net, traffic, SimConfig::quick())
        .run()
        .expect("simulation")
}

/// An in-process [`SweepService`] — the one executor of a `SyntheticJob`
/// batch — on `experiment` and `runner`, with an in-memory result cache.
pub fn in_process_service(experiment: Experiment, runner: ExperimentRunner) -> SweepService {
    SweepService::new(
        experiment,
        runner,
        DiskResultCache::in_memory(code_version("test")),
    )
}

/// Runs `jobs` as one batch on `service` and collects its metrics in job
/// order.
///
/// # Panics
///
/// Panics unless every point succeeds.
pub fn service_batch(service: &SweepService, jobs: &[SyntheticJob]) -> Vec<NetworkMetrics> {
    let req = SubmitRequest {
        id: "test".to_string(),
        label: "test".to_string(),
        priority: 0,
        jobs: jobs.to_vec(),
    };
    let mut metrics = Vec::with_capacity(jobs.len());
    let summary = service
        .run_submit(&req, &mut |ev| {
            if let ServiceResponse::Point { point, .. } = ev {
                metrics.push(metrics_from_pairs(&point.metrics).expect("every metric"));
            }
        })
        .expect("no queue limit configured");
    assert_eq!(summary.ok, jobs.len(), "every point succeeds");
    metrics
}
