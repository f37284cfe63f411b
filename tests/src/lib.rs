//! Shared helpers for the cross-crate integration tests.

use noc_sim::network::Network;
use noc_sim::router::RouterParams;
use noc_sim::routing::RoutingFunction;
use noc_sim::sim::{SimConfig, SimOutcome, Simulation};
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};

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
