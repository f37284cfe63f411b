//! Topology-pluralism acceptance suite (see TOPOLOGY.md).
//!
//! Two families of guarantees:
//!
//! 1. **Mesh bit-identity**: lifting the hard-coded mesh into the
//!    [`noc_sim::topology::Topology`] trait must be a zero-diff refactor.
//!    The pins below are `f64` bit patterns captured from the pre-trait
//!    code on the paper experiment; any behavioural drift — routing,
//!    allocator, power model — fails these, not just "roughly equal".
//! 2. **Circulant correctness on both cycle engines**: the ring-circulant
//!    C(16; 1, 5) runs in lockstep on the active-set engine and the
//!    exhaustive-sweep oracle, delivers traffic, and never enters a dark
//!    router when sprinting on a partial ring arc.

use noc_sim::geometry::NodeId;
use noc_sim::network::{Network, StepEngine};
use noc_sim::route_check::check_routes;
use noc_sim::router::RouterParams;
use noc_sim::routing::{CirculantRouting, RoutingFunction, XyRouting};
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::topology::{
    reference_specs, topology_reference, Circulant, Topo, TopologySpec,
};
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};

// ---------------------------------------------------------------------------
// Mesh bit-identity pin
// ---------------------------------------------------------------------------

/// A pinned point: `(topology, level, pattern, rate, seed, baseline)`.
type PinnedJob = (
    TopologySpec,
    usize,
    TrafficPattern,
    f64,
    u64,
    SyntheticBaseline,
);

/// [`PinnedJob`] → pinned
/// `(avg_packet_latency, avg_network_latency, network_power,
/// accepted_throughput, saturated)` with the `f64`s as raw bit patterns.
///
/// The first six rows were captured from the pre-trait code. The rest —
/// circulant sprinting and baseline points, a saturated mesh point, and
/// every traffic pattern at level 16 — were captured from the code before
/// the route-check refactor, to pin the engine before it is optimised.
#[allow(clippy::type_complexity)]
fn pinned_points() -> Vec<(PinnedJob, (u64, u64, u64, u64, bool))> {
    use SyntheticBaseline::{NocSprinting, RandomEndpoints, SpreadAggregate};
    use TrafficPattern::*;
    let mesh = TopologySpec::default();
    let circ = TopologySpec::from_wire_name("circ16s5").unwrap();
    vec![
        (
            (mesh, 4, UniformRandom, 0.05, 1, NocSprinting),
            (
                0x4032aec02944ff5b,
                0x403284d615eca7a8,
                0x3fa7579f70958bb9,
                0x3fa96872b020c49c,
                false,
            ),
        ),
        (
            (mesh, 4, UniformRandom, 0.25, 2, NocSprinting),
            (
                0x403451867da9cd1d,
                0x403342776e9abe0e,
                0x3fb7fba0b0f63dc4,
                0x3fcf8793dd97f62b,
                false,
            ),
        ),
        (
            (mesh, 8, UniformRandom, 0.12, 3, NocSprinting),
            (
                0x403649ee7e5111a4,
                0x4035d8688033b634,
                0x3fc227e17c797bab,
                0x3fbe7d566cf41f21,
                false,
            ),
        ),
        (
            (mesh, 16, UniformRandom, 0.08, 4, NocSprinting),
            (
                0x40399b489f0954cb,
                0x403953c7338649d7,
                0x3fd0b13f5eace20a,
                0x3fb4395810624dd3,
                false,
            ),
        ),
        (
            (mesh, 8, UniformRandom, 0.12, 3, SpreadAggregate),
            (
                0x4039d96f0b4dcc23,
                0x4039a45f37fcceee,
                0x3fcddc06a9fce3f7,
                0x3faede00d1b71759,
                false,
            ),
        ),
        (
            (mesh, 4, UniformRandom, 0.12, 5, RandomEndpoints),
            (
                0x403dfd0d229481be,
                0x403d98427ac5d493,
                0x3fc9042608050fbc,
                0x3fbe978d4fdf3b64,
                false,
            ),
        ),
        (
            (circ, 8, UniformRandom, 0.10, 6, NocSprinting),
            (
                0x403b8eac040c246d,
                0x403b39d833447813,
                0x3fc345376259f6c8,
                0x3fb84c2f837b4a23,
                false,
            ),
        ),
        (
            (circ, 8, UniformRandom, 0.10, 7, RandomEndpoints),
            (
                0x4037bf295cc93903,
                0x40375d95a3b16d65,
                0x3fca614353f729ea,
                0x3fb9bc01a36e2eb2,
                false,
            ),
        ),
        (
            (circ, 16, UniformRandom, 0.10, 8, NocSprinting),
            (
                0x40375857dae7d700,
                0x403701f3cc435b07,
                0x3fd137538dcd86d1,
                0x3fb925aee631f8a1,
                false,
            ),
        ),
        (
            (mesh, 8, UniformRandom, 0.95, 9, NocSprinting),
            (
                0x40a4b529267e4b09,
                0x404345175bbc20c2,
                0x3fe05a86940357a2,
                0x3fe693f7ced91687,
                true,
            ),
        ),
        (
            (mesh, 16, Transpose, 0.10, 10, NocSprinting),
            (
                0x4034055109815e92,
                0x4033adc12b040717,
                0x3fcf657fa72346b6,
                0x3fb97525460aa64c,
                false,
            ),
        ),
        (
            (mesh, 16, BitComplement, 0.10, 10, NocSprinting),
            (
                0x403a83f2778ab6b2,
                0x403a2be6de019c6f,
                0x3fd33ea9cb1f6089,
                0x3fb97e28240b7803,
                false,
            ),
        ),
        (
            (mesh, 16, Tornado, 0.10, 10, NocSprinting),
            (
                0x403a19c6f7c89438,
                0x4039c26057a47daa,
                0x3fd3200110f1f6c5,
                0x3fb97d566cf41f21,
                false,
            ),
        ),
        (
            (mesh, 16, Shuffle, 0.10, 10, NocSprinting),
            (
                0x40360633e06c43aa,
                0x4035aeb8a11b8ca6,
                0x3fd0c5fbe7e15dfb,
                0x3fb979a6b50b0f28,
                false,
            ),
        ),
        (
            (mesh, 16, NearestNeighbor, 0.10, 10, NocSprinting),
            (
                0x403af0efba66c962,
                0x403a98f8c00a4f96,
                0x3fd37fa2e5822c3d,
                0x3fb979a6b50b0f28,
                false,
            ),
        ),
        (
            (
                mesh,
                16,
                Hotspot { hot_fraction: 0.2 },
                0.10,
                10,
                NocSprinting,
            ),
            (
                0x403add8f67b905f8,
                0x403a7303b5cc0ed7,
                0x3fd3342eedbf90c2,
                0x3fb95f06f6944674,
                false,
            ),
        ),
    ]
}

#[test]
fn mesh_runs_are_bit_identical_to_pre_trait_refactor() {
    let exp = Experiment::paper();
    for ((topology, level, pattern, rate, seed, baseline), pin) in pinned_points() {
        let job = SyntheticJob {
            topology,
            level,
            pattern,
            rate,
            seed,
            baseline,
        };
        let m = job.run(&exp).unwrap();
        let got = (
            m.avg_packet_latency.to_bits(),
            m.avg_network_latency.to_bits(),
            m.network_power.to_bits(),
            m.accepted_throughput.to_bits(),
            m.saturated,
        );
        assert_eq!(
            got,
            pin,
            "drift on {} at level {level} {pattern:?} rate {rate} seed {seed} {baseline:?}",
            topology.wire_name()
        );
    }
}

// ---------------------------------------------------------------------------
// Circulant on both cycle engines
// ---------------------------------------------------------------------------

fn circulant_net(engine: StepEngine, routing: CirculantRouting) -> Network {
    let topo = Topo::from(Circulant::new(16, 5).unwrap());
    let mut net = Network::with_topology(topo, RouterParams::paper(), Box::new(routing)).unwrap();
    net.set_step_engine(engine);
    net
}

/// The two cycle engines are bit-identical per cycle on the circulant, just
/// as they are on the mesh: same step report, same ejections, same final
/// in-flight count.
#[test]
fn circulant_engines_run_lockstep() {
    let topo = Topo::from(Circulant::new(16, 5).unwrap());
    let mut active = circulant_net(StepEngine::ActiveSet, CirculantRouting::full());
    let mut oracle = circulant_net(StepEngine::ExhaustiveSweep, CirculantRouting::full());
    let mut gen_a = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(topo.as_dyn()),
        0.15,
        5,
        11,
    )
    .unwrap();
    let mut gen_o = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(topo.as_dyn()),
        0.15,
        5,
        11,
    )
    .unwrap();
    for now in 0..2_000 {
        for p in gen_a.generate(now, true) {
            active.enqueue_packet(p);
        }
        for p in gen_o.generate(now, true) {
            oracle.enqueue_packet(p);
        }
        let ra = active.step().unwrap();
        let ro = oracle.step().unwrap();
        assert_eq!(ra, ro, "step report diverged at cycle {now}");
        assert_eq!(
            active.drain_ejections(),
            oracle.drain_ejections(),
            "ejections diverged at cycle {now}"
        );
        if now % 17 == 0 {
            active.validate_active_sets();
        }
    }
    assert_eq!(active.in_flight(), oracle.in_flight());
}

/// A full simulation on the circulant delivers packets and reports finite
/// latency under both engines — and the two engines agree bit-for-bit on
/// the aggregate statistics.
#[test]
fn circulant_simulation_delivers_on_both_engines() {
    let topo = Topo::from(Circulant::new(16, 5).unwrap());
    let mut outcomes = Vec::new();
    for engine in [StepEngine::ActiveSet, StepEngine::ExhaustiveSweep] {
        let net = circulant_net(engine, CirculantRouting::full());
        let traffic = TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::full(topo.as_dyn()),
            0.10,
            5,
            3,
        )
        .unwrap();
        let out = Simulation::new(net, traffic, SimConfig::sweep()).run().unwrap();
        assert!(out.stats.packet_latency.count() > 0, "nothing delivered");
        assert!(out.stats.packet_latency.mean().unwrap().is_finite());
        outcomes.push((
            out.stats.packet_latency.count(),
            out.stats.packet_latency.mean().unwrap().to_bits(),
        ));
    }
    assert_eq!(outcomes[0], outcomes[1], "engines disagree on the circulant");
}

/// Every reference topology's canonical routing function reaches every
/// destination from every source within `diameter()` hops and takes
/// exactly `hops()` of them (minimality).
#[test]
fn reference_topologies_route_minimally_within_diameter() {
    for spec in reference_specs() {
        let topo = spec.build().unwrap();
        let routing: Box<dyn RoutingFunction> = if topo.as_mesh().is_some() {
            Box::new(XyRouting)
        } else {
            Box::new(CirculantRouting::full())
        };
        let report = check_routes(topo.as_dyn(), routing.as_ref(), &vec![true; topo.len()])
            .unwrap_or_else(|v| panic!("{spec:?}: {v:?}"));
        assert_eq!(report.non_minimal_pairs, 0, "{spec:?}: non-minimal paths");
        let hops = report.max_hops;
        assert!(
            hops <= topo.diameter(),
            "{spec:?}: {hops} hops exceed diameter"
        );
    }
}

/// The generated summary table in TOPOLOGY.md matches the code — the same
/// drift-guard pattern as SERVICE.md's schema block.
#[test]
fn topology_md_matches_topology_reference() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../TOPOLOGY.md");
    let text = std::fs::read_to_string(path).expect("TOPOLOGY.md exists at the repository root");
    let begin = "<!-- topology:generated:begin -->";
    let end = "<!-- topology:generated:end -->";
    let start = text
        .find(begin)
        .expect("TOPOLOGY.md contains the topology:generated:begin marker")
        + begin.len();
    let stop = text
        .find(end)
        .expect("TOPOLOGY.md contains the topology:generated:end marker");
    let embedded = text[start..stop].trim();
    let generated = topology_reference();
    assert!(
        embedded == generated,
        "TOPOLOGY.md summary table has drifted from noc_sim::topology; regenerate with \
         `cargo run -p noc-sim --example print_topology_reference` and paste between the \
         markers.\n--- expected ---\n{generated}\n--- found ---\n{embedded}"
    );
}

/// Sprinting on a partial ring arc: only arc nodes are powered, traffic is
/// placed on the arc, and the dark-router contract (a flit entering a
/// powered-off router is a simulation error) passes on both engines.
#[test]
fn circulant_arc_region_never_enters_dark_routers() {
    let n = 16;
    for level in [3usize, 7, 12] {
        // Arc of `level` nodes starting at the master, by ring distance —
        // matches the circulant's sprint_weight order.
        let topo = Topo::from(Circulant::new(n, 5).unwrap());
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            (
                topo.sprint_weight(NodeId(0), NodeId(i)),
                i,
            )
        });
        let mut active = vec![false; n];
        for &i in order.iter().take(level) {
            active[i] = true;
        }
        for engine in [StepEngine::ActiveSet, StepEngine::ExhaustiveSweep] {
            let mut net = Network::with_topology(
                topo.clone(),
                RouterParams::paper(),
                Box::new(CirculantRouting::on_arc(active.clone())),
            )
            .unwrap();
            net.set_step_engine(engine);
            net.set_power_mask(&active);
            let nodes: Vec<NodeId> = (0..n).filter(|&i| active[i]).map(NodeId).collect();
            let traffic = TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::new(nodes, topo.as_dyn()).unwrap(),
                0.10,
                5,
                9,
            )
            .unwrap();
            // Any dark-router entry fails the run with DarkRouterEntered.
            let out = Simulation::new(net, traffic, SimConfig::sweep()).run().unwrap();
            assert!(out.stats.packet_latency.count() > 0, "level {level}: no traffic");
        }
    }
}
