//! Topology-pluralism acceptance suite (see TOPOLOGY.md).
//!
//! Two families of guarantees:
//!
//! 1. **Mesh bit-identity**: lifting the hard-coded mesh into the
//!    [`noc_sim::topology::Topology`] trait must be a zero-diff refactor.
//!    The pins below are `f64` bit patterns captured from the pre-trait
//!    code on the paper experiment; any behavioural drift — routing,
//!    allocator, power model — fails these, not just "roughly equal".
//!    Reactive-gating and fault-schedule runs are pinned the same way.
//! 2. **Circulant correctness on both cycle engines**: the ring-circulant
//!    C(16; 1, 5) runs in lockstep on the active-set engine and the
//!    exhaustive-sweep oracle, delivers traffic, and never enters a dark
//!    router when sprinting on a partial ring arc.

use noc_sim::fault::{FaultPlan, RandomFaultConfig};
use noc_sim::geometry::NodeId;
use noc_sim::network::{GatingMode, Network, StepEngine};
use noc_sim::route_check::check_routes;
use noc_sim::router::RouterParams;
use noc_sim::routing::{CirculantRouting, RoutingFunction, XyRouting};
use noc_sim::sim::{SimConfig, SimOutcome, Simulation};
use noc_sim::topology::{
    reference_specs, topology_reference, Circulant, Mesh2D, Topo, TopologySpec,
};
use noc_sim::traffic::{BurstSchedule, Placement, TrafficGen, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::sprint_topology::SprintSet;

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

/// A pinned reactive-gating point:
/// `(level, pattern, rate, idle_threshold, wakeup_latency, bursts, seed)`.
type ReactiveJob = (
    usize,
    TrafficPattern,
    f64,
    u64,
    u64,
    Option<BurstSchedule>,
    u64,
);

/// [`ReactiveJob`] → pinned `(avg_packet_latency, avg_network_latency,
/// network_power, accepted_throughput, saturated)` as raw bit patterns,
/// captured from the code before the exhaustive oracle became a filled
/// work-list. Reactive power prices every router's sleep cycles, so the
/// power bits pin the sleep schedule too. The bursty point's `saturated`
/// bit was re-recorded when the saturation check learned to offer load
/// only over the burst on-cycles: it carries all it offers.
#[allow(clippy::type_complexity)]
fn reactive_pinned_points() -> Vec<(ReactiveJob, (u64, u64, u64, u64, bool))> {
    use TrafficPattern::*;
    let bursts = BurstSchedule {
        on_cycles: 200,
        off_cycles: 600,
    };
    vec![
        (
            (16, UniformRandom, 0.10, 10, 8, None, 3),
            (
                0x4040fac18ca215ee,
                0x403f3a00515c5344,
                0x3ff19976916dda5b,
                0x3fb9bfb15b573eab,
                false,
            ),
        ),
        (
            (16, UniformRandom, 0.10, 64, 8, None, 3),
            (
                0x403a49bbab76117b,
                0x4039d0b99a9df43e,
                0x3fd50830372abba1,
                0x3fb9c2f837b4a234,
                false,
            ),
        ),
        (
            (8, Tornado, 0.20, 64, 10, Some(bursts), 5),
            (
                0x403957fd57fd57fd,
                0x4036d42bd42bd42c,
                0x3fb6be1a23e503f2,
                0x3fa8ac083126e979,
                false,
            ),
        ),
        (
            (8, UniformRandom, 0.95, 10, 8, None, 7),
            (
                0x409eb111c2b9952a,
                0x40422d22ff574847,
                0x3fe275d9083603c3,
                0x3fe7bc6a7ef9db23,
                true,
            ),
        ),
    ]
}

#[test]
fn reactive_gating_runs_are_bit_identical_to_pre_oracle_refactor() {
    let exp = Experiment::paper();
    for ((level, pattern, rate, idle, wake, bursts, seed), pin) in reactive_pinned_points() {
        let m = exp
            .run_network_reactive(level, pattern, rate, idle, wake, bursts, seed)
            .unwrap();
        let got = (
            m.avg_packet_latency.to_bits(),
            m.avg_network_latency.to_bits(),
            m.network_power.to_bits(),
            m.accepted_throughput.to_bits(),
            m.saturated,
        );
        assert_eq!(
            got, pin,
            "drift at level {level} {pattern:?} rate {rate} idle {idle} wake {wake} {bursts:?}"
        );
    }
}

/// Pinned outcome of one faulted run: `(avg_packet_latency,
/// avg_network_latency, accepted_throughput)` bits, measured packets
/// delivered, the `FaultStats` fields in declaration order, and the
/// summed `(sleep_cycles, wakeups)` over every router.
type FaultPin = (u64, u64, u64, u64, [u64; 9], (u64, u64));

fn fault_pin(out: &SimOutcome) -> FaultPin {
    let f = out.faults;
    let sleep = out
        .sleep_stats
        .iter()
        .fold((0, 0), |(s, w), &(ds, dw)| (s + ds, w + dw));
    (
        out.stats.avg_packet_latency().to_bits(),
        out.stats.avg_network_latency().to_bits(),
        out.stats.accepted_throughput().to_bits(),
        out.stats.packets_delivered,
        [
            f.packets_dropped,
            f.measured_packets_dropped,
            f.flits_dropped,
            f.reroutes,
            f.wakeup_delays,
            f.link_down_events,
            f.link_up_events,
            f.freeze_events,
            f.thaw_events,
        ],
        sleep,
    )
}

/// Runs uniform traffic at `rate` on the fully lit 4x4 mesh under CDOR
/// (so dead links force reroutes and drops) with `plan` installed.
fn faulted_run(plan: &FaultPlan, reactive: bool, rate: f64, seed: u64) -> SimOutcome {
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::new(mesh, NodeId(0), mesh.len());
    let mut net = Network::new(
        mesh,
        RouterParams::paper(),
        Box::new(CdorRouting::new(&set)),
    )
    .unwrap();
    if reactive {
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold: 20,
            wakeup_latency: 6,
        });
    }
    net.set_fault_plan(plan).unwrap();
    let traffic = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        rate,
        5,
        seed,
    )
    .unwrap();
    Simulation::new(net, traffic, SimConfig::quick())
        .run()
        .unwrap()
}

/// Four random plans with permanent kills (two under reactive gating) and
/// one explicit drop/freeze/kill/delayed-wake plan, pinned like
/// [`reactive_pinned_points`] and captured from the same code.
#[test]
fn fault_schedule_runs_are_bit_identical_to_pre_oracle_refactor() {
    let mesh = Mesh2D::paper_4x4();
    let random = |seed| {
        FaultPlan::random(
            &mesh,
            &vec![true; mesh.len()],
            &RandomFaultConfig {
                permanent_kills: 2,
                freeze_prob: 0.1,
                wakeup_delay_prob: 0.2,
                ..RandomFaultConfig::light(2_500)
            },
            seed,
        )
    };
    let explicit = FaultPlan::new()
        .link_drop(NodeId(1), NodeId(2), 300, 700)
        .router_freeze(NodeId(9), 900, 1_100)
        .link_kill(NodeId(5), NodeId(6), 1_200)
        .wakeup_delay(NodeId(10), 0, 40);
    let runs = [
        (random(1), false, 0.10, 11),
        (random(2), false, 0.20, 12),
        (random(3), true, 0.05, 13),
        (random(4), true, 0.15, 14),
        (explicit, true, 0.10, 15),
    ];
    let pins: [FaultPin; 5] = [
        (
            0x403963ca1af286bd,
            0x403905e50d79435e,
            0x3fb84fdf3b645a1d,
            608,
            [24, 24, 120, 0, 0, 5, 3, 0, 0],
            (0, 0),
        ),
        (
            0x403d77658f87226a,
            0x403b8d383c6ecb1f,
            0x3fc879db22d0e560,
            1220,
            [60, 57, 299, 1, 0, 3, 1, 4, 4],
            (0, 0),
        ),
        (
            0x40421e6666666666,
            0x40406a6666666666,
            0x3fa9b645a1cac083,
            320,
            [15, 13, 75, 0, 4, 11, 9, 3, 3],
            (9549, 345),
        ),
        (
            0x403d2938f9f605c7,
            0x403bc63c63c63c64,
            0x3fc37be76c8b4396,
            975,
            [45, 43, 221, 0, 2, 3, 1, 3, 3],
            (1464, 112),
        ),
        (
            0x403f683b4fcf27b0,
            0x403d288f0bc66ec6,
            0x3fb77ef9db22d0e5,
            587,
            [7, 7, 35, 0, 1, 2, 1, 1, 1],
            (4093, 244),
        ),
    ];
    for (i, ((plan, reactive, rate, seed), pin)) in runs.iter().zip(pins).enumerate() {
        let got = fault_pin(&faulted_run(plan, *reactive, *rate, *seed));
        assert_eq!(got, pin, "drift on faulted run {i}");
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
            active.drain_ejections().collect::<Vec<_>>(),
            oracle.drain_ejections().collect::<Vec<_>>(),
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
        let out = Simulation::new(net, traffic, SimConfig::sweep())
            .run()
            .unwrap();
        assert!(out.stats.packet_latency.count() > 0, "nothing delivered");
        assert!(out.stats.packet_latency.mean().unwrap().is_finite());
        outcomes.push((
            out.stats.packet_latency.count(),
            out.stats.packet_latency.mean().unwrap().to_bits(),
        ));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "engines disagree on the circulant"
    );
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
        order.sort_by_key(|&i| (topo.sprint_weight(NodeId(0), NodeId(i)), i));
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
            let out = Simulation::new(net, traffic, SimConfig::sweep())
                .run()
                .unwrap();
            assert!(
                out.stats.packet_latency.count() > 0,
                "level {level}: no traffic"
            );
        }
    }
}
