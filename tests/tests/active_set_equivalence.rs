//! Differential oracle suite for the cycle engines.
//!
//! The active-set scheduler ([`StepEngine::ActiveSet`]) must be
//! cycle-by-cycle *bit-identical* to the exhaustive per-node sweep
//! ([`StepEngine::ExhaustiveSweep`]): same `StepReport` every cycle, same
//! ejections in the same order, same probe callback stream, same fault and
//! sleep accounting. These tests drive both engines in lockstep across a
//! traffic × gating × fault-plan matrix (including the empty-plan and
//! probe-attached paths), property-test full-run outcomes over randomized
//! configurations, and pin that idle fast-forward never skips an
//! observable event.

use proptest::prelude::*;

use noc_sim::fault::{FaultEvent, FaultPlan, RandomFaultConfig};
use noc_sim::geometry::NodeId;
use noc_sim::network::{GatingMode, Network, Quiescence, StepEngine};
use noc_sim::probe::{Probe, SimPhase};
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::sim::{SimConfig, SimOutcome, Simulation};
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{BurstSchedule, Placement, TrafficGen, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::sprint_topology::SprintSet;

// ---------------------------------------------------------------------------
// Trace probe: records every callback so two runs can be diffed bit-for-bit
// ---------------------------------------------------------------------------

/// Records every probe callback, in order, as a comparable event string.
#[derive(Debug, Default, PartialEq, Eq)]
struct Trace(Vec<String>);

impl Trace {
    fn diff_head(&self, other: &Trace) -> String {
        for (i, (a, b)) in self.0.iter().zip(&other.0).enumerate() {
            if a != b {
                return format!("first divergence at event {i}: {a:?} vs {b:?}");
            }
        }
        format!("length mismatch: {} vs {}", self.0.len(), other.0.len())
    }
}

impl Probe for Trace {
    fn epoch_interval(&self) -> u64 {
        64
    }
    fn on_phase(&mut self, phase: SimPhase, cycle: u64) {
        self.0.push(format!("phase {phase:?} @{cycle}"));
    }
    fn on_epoch(&mut self, cycle: u64, net: &Network) {
        self.0
            .push(format!("epoch @{cycle} in_flight={}", net.in_flight()));
    }
    fn on_injection(&mut self, cycle: u64, node: NodeId) {
        self.0.push(format!("inj @{cycle} n{}", node.0));
    }
    fn on_vc_alloc(&mut self, cycle: u64, node: NodeId) {
        self.0.push(format!("va @{cycle} n{}", node.0));
    }
    fn on_switch_grant(&mut self, cycle: u64, node: NodeId) {
        self.0.push(format!("sa @{cycle} n{}", node.0));
    }
    fn on_link_traversal(&mut self, cycle: u64, from: NodeId, to: NodeId) {
        self.0.push(format!("lt @{cycle} {}->{}", from.0, to.0));
    }
    fn on_ejection(&mut self, cycle: u64, node: NodeId) {
        self.0.push(format!("ej @{cycle} n{}", node.0));
    }
    fn on_sleep_transition(&mut self, cycle: u64, node: NodeId, asleep: bool) {
        self.0
            .push(format!("sleep @{cycle} n{} asleep={asleep}", node.0));
    }
    fn on_packet_delivered(&mut self, cycle: u64, packet_latency: u64, network_latency: u64) {
        self.0
            .push(format!("pkt @{cycle} {packet_latency}/{network_latency}"));
    }
    fn on_fault(&mut self, cycle: u64, event: &FaultEvent) {
        self.0.push(format!("fault @{cycle} {event:?}"));
    }
}

// ---------------------------------------------------------------------------
// Lockstep harness
// ---------------------------------------------------------------------------

fn build_net(
    mesh: Mesh2D,
    engine: StepEngine,
    gating: Option<GatingMode>,
    plan: &FaultPlan,
) -> Network {
    let mut net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
    net.set_step_engine(engine);
    if let Some(g) = gating {
        net.set_gating_mode(g);
        net.set_counting(true);
    }
    net.set_fault_plan(plan).unwrap();
    net
}

/// Drives an active-set network and an exhaustive-sweep network through the
/// identical packet feed and asserts bit-identity every single cycle:
/// `StepReport`, ejections, the full probe callback stream, and the final
/// fault/sleep accounting. Also re-validates the active-set invariants
/// against a ground-truth rescan as the run progresses.
fn assert_lockstep(
    mesh: Mesh2D,
    pattern: TrafficPattern,
    gating: Option<GatingMode>,
    plan: &FaultPlan,
    seed: u64,
    cycles: u64,
) {
    let mut active = build_net(mesh, StepEngine::ActiveSet, gating, plan);
    let mut oracle = build_net(mesh, StepEngine::ExhaustiveSweep, gating, plan);
    let mut gen_a = TrafficGen::new(pattern, Placement::full(&mesh), 0.12, 5, seed).unwrap();
    let mut gen_o = TrafficGen::new(pattern, Placement::full(&mesh), 0.12, 5, seed).unwrap();
    let mut trace_a = Trace::default();
    let mut trace_o = Trace::default();

    for now in 0..cycles {
        for p in gen_a.generate(now, true) {
            active.enqueue_packet(p);
        }
        for p in gen_o.generate(now, true) {
            oracle.enqueue_packet(p);
        }
        let ra = active.step_observed(Some(&mut trace_a)).unwrap();
        let ro = oracle.step_observed(Some(&mut trace_o)).unwrap();
        assert_eq!(ra, ro, "step report diverged at cycle {now} ({pattern:?})");
        let ea = active.drain_ejections().collect::<Vec<_>>();
        let eo = oracle.drain_ejections().collect::<Vec<_>>();
        assert_eq!(ea, eo, "ejections diverged at cycle {now} ({pattern:?})");
        if now.is_multiple_of(17) {
            active.validate_active_sets();
        }
    }
    assert_eq!(
        trace_a,
        trace_o,
        "probe stream diverged ({pattern:?}): {}",
        trace_a.diff_head(&trace_o)
    );
    assert_eq!(active.fault_stats(), oracle.fault_stats());
    assert_eq!(active.sleep_stats(), oracle.sleep_stats());
    assert_eq!(active.in_flight(), oracle.in_flight());
    active.validate_active_sets();
}

fn transient_plan() -> FaultPlan {
    FaultPlan::new()
        .link_drop(NodeId(1), NodeId(2), 200, 500)
        .router_freeze(NodeId(5), 400, 550)
        .link_kill(NodeId(10), NodeId(11), 700)
}

fn random_plan(mesh: &Mesh2D, seed: u64) -> FaultPlan {
    FaultPlan::random(
        mesh,
        &vec![true; mesh.len()],
        &RandomFaultConfig {
            permanent_kills: 1,
            freeze_prob: 0.15,
            ..RandomFaultConfig::light(800)
        },
        seed,
    )
}

// ---------------------------------------------------------------------------
// The traffic × gating × fault matrix
// ---------------------------------------------------------------------------

/// Every (pattern, gating, plan) combination — including the empty plan and
/// with a probe attached throughout — is cycle-by-cycle bit-identical
/// between the two engines.
#[test]
fn engines_bit_identical_across_matrix() {
    let mesh = Mesh2D::paper_4x4();
    let patterns = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Tornado,
        TrafficPattern::Hotspot { hot_fraction: 0.3 },
    ];
    let gatings = [
        None,
        Some(GatingMode::Reactive {
            idle_threshold: 10,
            wakeup_latency: 5,
        }),
        Some(GatingMode::Reactive {
            idle_threshold: 40,
            wakeup_latency: 12,
        }),
    ];
    let plans = [FaultPlan::new(), transient_plan(), random_plan(&mesh, 31)];
    for (pi, pattern) in patterns.iter().enumerate() {
        for (gi, gating) in gatings.iter().enumerate() {
            for (fi, plan) in plans.iter().enumerate() {
                let seed = 1 + (pi * 9 + gi * 3 + fi) as u64;
                assert_lockstep(mesh, *pattern, *gating, plan, seed, 1_200);
            }
        }
    }
}

/// Bursty traffic exercises the NI and sleep work-lists hardest: routers
/// drain, self-gate, and re-wake every period. Both engines must agree.
#[test]
fn engines_bit_identical_under_bursty_reactive_traffic() {
    let mesh = Mesh2D::paper_4x4();
    let gating = Some(GatingMode::Reactive {
        idle_threshold: 12,
        wakeup_latency: 6,
    });
    let plan = transient_plan();
    let mut active = build_net(mesh, StepEngine::ActiveSet, gating, &plan);
    let mut oracle = build_net(mesh, StepEngine::ExhaustiveSweep, gating, &plan);
    let bursts = BurstSchedule {
        on_cycles: 30,
        off_cycles: 170,
    };
    let mut gen_a = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        0.25,
        5,
        77,
    )
    .unwrap()
    .with_bursts(bursts);
    let mut gen_o = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        0.25,
        5,
        77,
    )
    .unwrap()
    .with_bursts(bursts);
    for now in 0..2_000 {
        for p in gen_a.generate(now, true) {
            active.enqueue_packet(p);
        }
        for p in gen_o.generate(now, true) {
            oracle.enqueue_packet(p);
        }
        assert_eq!(
            active.step().unwrap(),
            oracle.step().unwrap(),
            "cycle {now}"
        );
        assert_eq!(
            active.drain_ejections().collect::<Vec<_>>(),
            oracle.drain_ejections().collect::<Vec<_>>()
        );
    }
    assert_eq!(active.sleep_stats(), oracle.sleep_stats());
    assert_eq!(active.fault_stats(), oracle.fault_stats());
    active.validate_active_sets();
}

/// A gated sprint region (CDOR routing + static power mask) drained by both
/// engines stays bit-identical — the work-lists must never touch dark nodes.
#[test]
fn engines_bit_identical_on_sprint_region() {
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::new(mesh, NodeId(0), 8);
    let build = |engine| {
        let mut net = Network::new(
            mesh,
            RouterParams::paper(),
            Box::new(CdorRouting::new(&set)),
        )
        .unwrap();
        net.set_power_mask(set.mask());
        net.set_step_engine(engine);
        net
    };
    let mut active = build(StepEngine::ActiveSet);
    let mut oracle = build(StepEngine::ExhaustiveSweep);
    let placement = Placement::new(set.active_nodes().to_vec(), &mesh).unwrap();
    let mut gen_a =
        TrafficGen::new(TrafficPattern::UniformRandom, placement.clone(), 0.15, 4, 5).unwrap();
    let mut gen_o = TrafficGen::new(TrafficPattern::UniformRandom, placement, 0.15, 4, 5).unwrap();
    for now in 0..1_500 {
        for p in gen_a.generate(now, true) {
            active.enqueue_packet(p);
        }
        for p in gen_o.generate(now, true) {
            oracle.enqueue_packet(p);
        }
        assert_eq!(
            active.step().unwrap(),
            oracle.step().unwrap(),
            "cycle {now}"
        );
        assert_eq!(
            active.drain_ejections().collect::<Vec<_>>(),
            oracle.drain_ejections().collect::<Vec<_>>()
        );
    }
    active.validate_active_sets();
}

/// On a fully-lit 32x32 mesh — the struct-of-arrays hot path at scale — the
/// two engines stay bit-identical in lockstep *across mid-run engine
/// switches on both sides*: the networks flip drivers on different
/// schedules, so fast-vs-oracle, oracle-vs-fast and same-engine phases are
/// all exercised with probes attached and a fault plan killing links inside
/// the lit region, and the work-lists/SoA mirrors must survive each
/// hand-off.
#[test]
fn engines_bit_identical_on_fully_lit_32x32_with_midrun_switches() {
    let mesh = Mesh2D::new(32, 32).unwrap();
    // Horizontal and vertical link kills deep inside the lit region, plus a
    // transient outage, all while traffic is flowing.
    let plan = FaultPlan::new()
        .link_drop(NodeId(200), NodeId(201), 150, 400)
        .link_kill(NodeId(500), NodeId(532), 450);
    let mut a = build_net(mesh, StepEngine::ActiveSet, None, &plan);
    let mut b = build_net(mesh, StepEngine::ExhaustiveSweep, None, &plan);
    let mut gen_a = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        0.05,
        5,
        11,
    )
    .unwrap();
    let mut gen_b = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        0.05,
        5,
        11,
    )
    .unwrap();
    let mut trace_a = Trace::default();
    let mut trace_b = Trace::default();
    for now in 0..900u64 {
        match now {
            300 => {
                a.set_step_engine(StepEngine::ExhaustiveSweep);
                b.set_step_engine(StepEngine::ActiveSet);
            }
            600 => a.set_step_engine(StepEngine::ActiveSet),
            _ => {}
        }
        for p in gen_a.generate(now, true) {
            a.enqueue_packet(p);
        }
        for p in gen_b.generate(now, true) {
            b.enqueue_packet(p);
        }
        let ra = a.step_observed(Some(&mut trace_a)).unwrap();
        let rb = b.step_observed(Some(&mut trace_b)).unwrap();
        assert_eq!(ra, rb, "step report diverged at cycle {now}");
        assert_eq!(
            a.drain_ejections().collect::<Vec<_>>(),
            b.drain_ejections().collect::<Vec<_>>(),
            "ejections diverged at cycle {now}"
        );
        if now.is_multiple_of(97) {
            a.validate_active_sets();
            b.validate_active_sets();
        }
    }
    assert_eq!(trace_a, trace_b, "{}", trace_a.diff_head(&trace_b));
    assert_eq!(a.fault_stats(), b.fault_stats());
    assert_eq!(a.in_flight(), b.in_flight());
    a.validate_active_sets();
    b.validate_active_sets();
}

// ---------------------------------------------------------------------------
// Full-run property tests
// ---------------------------------------------------------------------------

fn small_cfg() -> SimConfig {
    SimConfig {
        warmup: 150,
        measure: 600,
        drain_max: 10_000,
        deadlock_threshold: 5_000,
        // Cross-check the work-lists and SoA mirrors as the runs progress.
        validate_sets_every: Some(113),
    }
}

fn run_engine(
    mesh: Mesh2D,
    set: &SprintSet,
    engine: StepEngine,
    pattern: TrafficPattern,
    gating: Option<GatingMode>,
    plan: &FaultPlan,
    seed: u64,
) -> Result<SimOutcome, noc_sim::error::SimError> {
    let mut net = if gating.is_some() {
        // Reactive gating runs the full mesh under XY routing.
        Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap()
    } else {
        let mut n =
            Network::new(mesh, RouterParams::paper(), Box::new(CdorRouting::new(set))).unwrap();
        n.set_power_mask(set.mask());
        n
    };
    net.set_step_engine(engine);
    if let Some(g) = gating {
        net.set_gating_mode(g);
    }
    net.set_fault_plan(plan).unwrap();
    let placement = if gating.is_some() {
        Placement::full(&mesh)
    } else {
        Placement::new(set.active_nodes().to_vec(), &mesh).unwrap()
    };
    let traffic = TrafficGen::new(pattern, placement, 0.12, 4, seed).unwrap();
    Simulation::new(net, traffic, small_cfg()).run()
}

fn prop_engines_agree(
    mesh: Mesh2D,
    set: &SprintSet,
    pattern: TrafficPattern,
    gating: Option<GatingMode>,
    plan: &FaultPlan,
    seed: u64,
) -> Result<(), TestCaseError> {
    let a = run_engine(
        mesh,
        set,
        StepEngine::ActiveSet,
        pattern,
        gating,
        plan,
        seed,
    );
    let o = run_engine(
        mesh,
        set,
        StepEngine::ExhaustiveSweep,
        pattern,
        gating,
        plan,
        seed,
    );
    match (a, o) {
        (Ok(a), Ok(o)) => prop_assert_eq!(a, o),
        (Err(a), Err(o)) => prop_assert_eq!(format!("{a:?}"), format!("{o:?}")),
        (a, o) => {
            return Err(TestCaseError::fail(format!(
                "engines disagree on run result: {a:?} vs {o:?}"
            )))
        }
    }
    Ok(())
}

/// An arbitrary mesh, master, sprint level, pattern and fault seed.
fn engine_case() -> impl Strategy<Value = (Mesh2D, NodeId, usize, u8, u64)> {
    (2u16..=5, 2u16..=5).prop_flat_map(|(w, h)| {
        let mesh = Mesh2D::new(w, h).expect("nonzero");
        let len = mesh.len();
        (Just(mesh), 0..len, 2..=len, 0u8..2, 0u64..1_000)
            .prop_map(|(mesh, master, level, pat, seed)| (mesh, NodeId(master), level, pat, seed))
    })
}

fn pick_pattern(idx: u8) -> TrafficPattern {
    match idx {
        0 => TrafficPattern::UniformRandom,
        _ => TrafficPattern::Hotspot { hot_fraction: 0.25 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over randomized (mesh size, sprint level, traffic pattern, fault
    /// plan) the two engines produce identical `SimOutcome`s end-to-end on
    /// statically gated sprint regions under CDOR routing.
    #[test]
    fn active_set_matches_exhaustive_on_sprint_regions(
        (mesh, master, level, pat, seed) in engine_case(),
        fault_seed in 0u64..500,
        with_faults in any::<bool>(),
    ) {
        let set = SprintSet::new(mesh, master, level);
        let plan = if with_faults {
            FaultPlan::random(
                &mesh,
                set.mask(),
                &RandomFaultConfig::light(600),
                fault_seed,
            )
        } else {
            FaultPlan::new()
        };
        prop_engines_agree(mesh, &set, pick_pattern(pat), None, &plan, seed)?;
    }

    /// Same property under reactive (traffic-driven) gating on the full
    /// mesh, where the sleep work-list carries the schedule.
    #[test]
    fn active_set_matches_exhaustive_under_reactive_gating(
        (mesh, master, level, pat, seed) in engine_case(),
        idle_threshold in 5u64..60,
        wakeup_latency in 1u64..15,
    ) {
        let set = SprintSet::new(mesh, master, level);
        let gating = GatingMode::Reactive { idle_threshold, wakeup_latency };
        prop_engines_agree(
            mesh,
            &set,
            pick_pattern(pat),
            Some(gating),
            &FaultPlan::new(),
            seed,
        )?;
    }
}

proptest! {
    // Runs on a 1024-node mesh are expensive; a handful of cases is enough
    // to randomize seeds and fault placement on the fully-lit hot path.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fully-lit 32x32 mesh: over random traffic seeds and random fault
    /// plans that permanently kill links *inside* the lit region, both
    /// engines produce identical `SimOutcome`s end-to-end (delivery,
    /// latency, activity, fault and packet accounting all pinned by
    /// `PartialEq`), with periodic work-list/SoA-mirror validation on.
    #[test]
    fn active_set_matches_exhaustive_on_fully_lit_32x32(
        seed in 0u64..1_000,
        fault_seed in 0u64..500,
        kills in 1usize..4,
    ) {
        let mesh = Mesh2D::new(32, 32).unwrap();
        let plan = FaultPlan::random(
            &mesh,
            &vec![true; mesh.len()],
            &RandomFaultConfig {
                permanent_kills: kills,
                ..RandomFaultConfig::light(400)
            },
            fault_seed,
        );
        let cfg = SimConfig {
            warmup: 100,
            measure: 300,
            drain_max: 8_000,
            deadlock_threshold: 5_000,
            validate_sets_every: Some(113),
        };
        let run = |engine| {
            let mut net =
                Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
            net.set_step_engine(engine);
            net.set_fault_plan(&plan).unwrap();
            let traffic = TrafficGen::new(
                TrafficPattern::UniformRandom,
                Placement::full(&mesh),
                0.04,
                5,
                seed,
            )
            .unwrap();
            Simulation::new(net, traffic, cfg).run()
        };
        match (run(StepEngine::ActiveSet), run(StepEngine::ExhaustiveSweep)) {
            (Ok(a), Ok(o)) => prop_assert_eq!(a, o),
            (Err(a), Err(o)) => prop_assert_eq!(format!("{a:?}"), format!("{o:?}")),
            (a, o) => {
                return Err(TestCaseError::fail(format!(
                    "engines disagree on run result: {a:?} vs {o:?}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Idle fast-forward never skips an observable event
// ---------------------------------------------------------------------------

/// A fault event scheduled deep inside an idle window must fire at its
/// exact cycle when the driver fast-forwards across the window: the full
/// probe timeline (fault events, sleep transitions) matches a reference
/// run that steps every cycle (the exhaustive engine never fast-forwards).
#[test]
fn fast_forward_never_skips_fault_or_wake_events() {
    let mesh = Mesh2D::paper_4x4();
    let gating = Some(GatingMode::Reactive {
        idle_threshold: 25,
        wakeup_latency: 8,
    });
    // Freeze and outage land 137 and 393 cycles into an otherwise idle run.
    let plan = FaultPlan::new()
        .router_freeze(NodeId(6), 137, 197)
        .link_drop(NodeId(0), NodeId(1), 393, 450);
    let horizon = 600u64;

    // Reference: step every cycle.
    let mut slow = build_net(mesh, StepEngine::ExhaustiveSweep, gating, &plan);
    let mut trace_slow = Trace::default();
    while slow.now() < horizon {
        assert_eq!(
            slow.skip_idle_cycles(horizon),
            0,
            "the reference never skips"
        );
        slow.step_observed(Some(&mut trace_slow)).unwrap();
    }

    // Fast-forwarded: jump every quiet window, step only where events live.
    let mut fast = build_net(mesh, StepEngine::ActiveSet, gating, &plan);
    let mut trace_fast = Trace::default();
    let mut stepped = 0u64;
    while fast.now() < horizon {
        if fast.skip_idle_cycles(horizon) == 0 {
            fast.step_observed(Some(&mut trace_fast)).unwrap();
            stepped += 1;
        }
        fast.validate_active_sets();
    }
    assert!(
        stepped < horizon / 2,
        "fast-forward should skip most of the idle horizon, stepped {stepped}"
    );
    assert_eq!(
        trace_slow,
        trace_fast,
        "{}",
        trace_slow.diff_head(&trace_fast)
    );
    assert_eq!(slow.fault_stats(), fast.fault_stats());
    assert_eq!(slow.sleep_stats(), fast.sleep_stats());
    assert_eq!(fast.now(), horizon);
    assert!(matches!(
        fast.quiescence(),
        Quiescence::Until(_) | Quiescence::Indefinite
    ));
}

/// End-to-end: a full `Simulation` with bursty traffic, a fault plan and
/// reactive gating produces a bit-identical `SimOutcome` *and* probe
/// timeline whether it fast-forwards idle windows (active-set engine) or
/// steps every cycle (the exhaustive reference).
#[test]
fn sim_fast_forward_preserves_outcome_and_timeline() {
    let mesh = Mesh2D::paper_4x4();
    let run = |engine| {
        let mut net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
        net.set_step_engine(engine);
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold: 15,
            wakeup_latency: 6,
        });
        net.set_fault_plan(&transient_plan()).unwrap();
        let traffic = TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::full(&mesh),
            0.3,
            5,
            21,
        )
        .unwrap()
        .with_bursts(BurstSchedule {
            on_cycles: 25,
            off_cycles: 300,
        });
        let mut trace = Trace::default();
        let out = Simulation::new(net, traffic, SimConfig::quick())
            .run_observed(Some(&mut trace))
            .unwrap();
        (out, trace)
    };
    let (out_ff, trace_ff) = run(StepEngine::ActiveSet);
    let (out_ref, trace_ref) = run(StepEngine::ExhaustiveSweep);
    assert_eq!(out_ff, out_ref);
    assert_eq!(trace_ff, trace_ref, "{}", trace_ff.diff_head(&trace_ref));
}
