//! End-to-end fault-injection tests: zero-fault bit-identity, packet
//! accounting under faults, CDOR graceful degradation on a live network,
//! and liveness under randomized fault plans.

use proptest::prelude::*;

use noc_sim::fault::{FaultLog, FaultPlan, RandomFaultConfig};
use noc_sim::geometry::NodeId;
use noc_sim::network::Network;
use noc_sim::packet::{Packet, PacketId};
use noc_sim::probe::EventCounts;
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::sprint_topology::SprintSet;

fn paper_net(routing: Box<dyn noc_sim::routing::RoutingFunction>) -> Network {
    Network::new(Mesh2D::paper_4x4(), RouterParams::paper(), routing).unwrap()
}

fn uniform_traffic(seed: u64) -> TrafficGen {
    let mesh = Mesh2D::paper_4x4();
    TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        0.1,
        5,
        seed,
    )
    .unwrap()
}

fn sprint_net(level: usize) -> (Network, SprintSet) {
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::new(mesh, NodeId(0), level);
    let mut net = paper_net(Box::new(CdorRouting::new(&set)));
    net.set_power_mask(set.mask());
    (net, set)
}

fn enqueue(net: &mut Network, id: u64, src: usize, dst: usize) {
    net.enqueue_packet(Packet {
        id: PacketId(id),
        src: NodeId(src),
        dst: NodeId(dst),
        len: 5,
        created: 0,
        measured: true,
        vnet: 0,
    });
}

/// Drives until drained (delivered + dropped covers everything in flight).
fn drive(net: &mut Network, max_cycles: u64) -> Vec<(noc_sim::packet::Flit, u64)> {
    let mut ej = Vec::new();
    for _ in 0..max_cycles {
        net.step().expect("no dark routers in this test");
        ej.extend(net.drain_ejections().map(|e| (e.flit, e.at)));
        if net.is_drained() {
            return ej;
        }
    }
    panic!("network failed to drain within {max_cycles} cycles");
}

// ---------------------------------------------------------------------------
// Zero-fault bit-identity
// ---------------------------------------------------------------------------

/// An empty `FaultPlan` takes the identical code path as no plan at all:
/// every cycle's `StepReport` and every ejection matches bit-for-bit.
#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    let mut plain = paper_net(Box::new(XyRouting));
    let mut planned = paper_net(Box::new(XyRouting));
    planned.set_fault_plan(&FaultPlan::new()).unwrap();

    let mut traffic_a = uniform_traffic(7);
    let mut traffic_b = uniform_traffic(7);
    for now in 0..4_000u64 {
        for p in traffic_a.generate(now, true) {
            plain.enqueue_packet(p);
        }
        for p in traffic_b.generate(now, true) {
            planned.enqueue_packet(p);
        }
        let ra = plain.step().unwrap();
        let rb = planned.step().unwrap();
        assert_eq!(ra, rb, "step report diverged at cycle {now}");
        let ea: Vec<_> = plain.drain_ejections().map(|e| (e.flit, e.at)).collect();
        let eb: Vec<_> = planned.drain_ejections().map(|e| (e.flit, e.at)).collect();
        assert_eq!(ea, eb, "ejections diverged at cycle {now}");
    }
    assert_eq!(planned.fault_stats(), Default::default());
}

/// A zero-fault simulation reports zeroed fault stats, full delivery, and
/// never fires the fault probe hook.
#[test]
fn zero_fault_simulation_reports_clean_accounting() {
    let net = paper_net(Box::new(XyRouting));
    let mut counts = EventCounts::default();
    let out = Simulation::new(net, uniform_traffic(11), SimConfig::quick())
        .run_observed(Some(&mut counts))
        .unwrap();
    assert_eq!(counts.faults, 0);
    assert_eq!(out.faults, Default::default());
    assert_eq!(out.accounting.measured_dropped, 0);
    assert_eq!(
        out.accounting.measured_delivered + out.accounting.measured_outstanding,
        out.accounting.measured_generated
    );
}

/// Same seed + same plan → identical outcome, cycle counts and fault stats.
#[test]
fn same_plan_replay_is_deterministic() {
    let mesh = Mesh2D::paper_4x4();
    let plan = FaultPlan::random(
        &mesh,
        &vec![true; mesh.len()],
        &RandomFaultConfig {
            permanent_kills: 1,
            freeze_prob: 0.1,
            ..RandomFaultConfig::light(2_000)
        },
        99,
    );
    assert!(!plan.is_empty(), "seed 99 should draw at least one fault");
    let run = || {
        let mut net = paper_net(Box::new(XyRouting));
        net.set_fault_plan(&plan).unwrap();
        Simulation::new(net, uniform_traffic(3), SimConfig::quick())
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.accounting, b.accounting);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(
        a.stats.avg_packet_latency().to_bits(),
        b.stats.avg_packet_latency().to_bits()
    );
}

// ---------------------------------------------------------------------------
// CDOR graceful degradation on a live network
// ---------------------------------------------------------------------------

/// Level-4 region {0, 1, 4, 5}: with link 0 -> 1 permanently dead, a packet
/// 0 -> 1 has no minimal in-region alternative and is cleanly dropped,
/// while a packet 0 -> 5 detours south (0 -> 4 -> 5) and is delivered.
#[test]
fn cdor_drops_without_a_legal_detour_and_reroutes_with_one() {
    let (mut net, _) = sprint_net(4);
    net.set_fault_plan(&FaultPlan::new().link_kill(NodeId(0), NodeId(1), 0))
        .unwrap();
    enqueue(&mut net, 0, 0, 1); // only minimal in-region exit is dead
    enqueue(&mut net, 1, 0, 5); // minimal alternative via 4 exists
    let ej = drive(&mut net, 10_000);

    let stats = net.fault_stats();
    assert_eq!(stats.packets_dropped, 1);
    assert_eq!(stats.measured_packets_dropped, 1);
    assert_eq!(stats.flits_dropped, 5);
    let delivered: Vec<_> = ej.iter().map(|(f, _)| f.packet()).collect();
    assert!(
        !delivered.contains(&PacketId(0)),
        "dropped packet must not eject"
    );
    assert_eq!(delivered.iter().filter(|&&p| p == PacketId(1)).count(), 5);
}

/// Killing every link of a region node strands traffic to it (dropped) but
/// traffic between the surviving nodes still flows.
#[test]
fn killed_router_isolates_only_itself() {
    let mesh = Mesh2D::paper_4x4();
    let (mut net, _) = sprint_net(4);
    net.set_fault_plan(&FaultPlan::new().kill_router(&mesh, NodeId(5), 0))
        .unwrap();
    enqueue(&mut net, 0, 0, 5); // destination unreachable -> drop
    enqueue(&mut net, 1, 0, 4); // unaffected pair -> delivered
    enqueue(&mut net, 2, 1, 0); // unaffected pair -> delivered
    let ej = drive(&mut net, 10_000);

    assert_eq!(net.fault_stats().packets_dropped, 1);
    let delivered: Vec<_> = ej.iter().map(|(f, _)| f.packet()).collect();
    assert!(!delivered.contains(&PacketId(0)));
    assert_eq!(delivered.iter().filter(|&&p| p == PacketId(1)).count(), 5);
    assert_eq!(delivered.iter().filter(|&&p| p == PacketId(2)).count(), 5);
}

/// A transient outage delays traffic rather than dropping it: the packet
/// waits out the window on its primary route and is still delivered.
#[test]
fn transient_outage_delays_but_delivers() {
    let mut healthy = paper_net(Box::new(XyRouting));
    enqueue(&mut healthy, 0, 0, 3);
    let t_healthy = drive(&mut healthy, 10_000).last().unwrap().1;

    let mut faulted = paper_net(Box::new(XyRouting));
    faulted
        .set_fault_plan(&FaultPlan::new().link_drop(NodeId(1), NodeId(2), 0, 400))
        .unwrap();
    enqueue(&mut faulted, 0, 0, 3);
    let ej = drive(&mut faulted, 10_000);
    assert_eq!(faulted.fault_stats().packets_dropped, 0);
    assert_eq!(ej.len(), 5, "all flits delivered after the outage");
    assert!(
        ej.last().unwrap().1 > t_healthy,
        "outage must delay delivery past the fault-free time"
    );
}

/// A frozen router stalls traffic through it for the window, then delivery
/// resumes; nothing is lost.
#[test]
fn frozen_router_stalls_then_recovers() {
    let mut net = paper_net(Box::new(XyRouting));
    net.set_fault_plan(&FaultPlan::new().router_freeze(NodeId(1), 0, 300))
        .unwrap();
    enqueue(&mut net, 0, 0, 2); // XY route passes through frozen node 1
    let ej = drive(&mut net, 10_000);
    assert_eq!(net.fault_stats().packets_dropped, 0);
    assert_eq!(net.fault_stats().freeze_events, 1);
    assert_eq!(net.fault_stats().thaw_events, 1);
    assert_eq!(ej.len(), 5);
    assert!(
        ej.last().unwrap().1 >= 300,
        "delivery cannot complete inside the freeze"
    );
}

/// The probe sees the whole fault timeline: scheduled transitions and the
/// packet-drop consequence, in cycle order.
#[test]
fn fault_events_reach_the_probe() {
    let (mut net, _) = sprint_net(4);
    net.set_fault_plan(
        &FaultPlan::new()
            .link_kill(NodeId(0), NodeId(1), 10)
            .link_drop(NodeId(4), NodeId(5), 20, 120),
    )
    .unwrap();
    let mut log = FaultLog::new();
    for now in 0..200u64 {
        if now == 12 {
            enqueue(&mut net, 0, 0, 1);
        }
        net.step_observed(Some(&mut log)).unwrap();
        net.drain_ejections();
    }
    let kinds: Vec<&str> = log
        .events()
        .iter()
        .map(|(_, e)| match e {
            noc_sim::fault::FaultEvent::LinkDown { .. } => "down",
            noc_sim::fault::FaultEvent::LinkUp { .. } => "up",
            noc_sim::fault::FaultEvent::PacketDropped { .. } => "dropped",
            _ => "other",
        })
        .collect();
    assert_eq!(kinds.iter().filter(|&&k| k == "down").count(), 2);
    assert_eq!(kinds.iter().filter(|&&k| k == "up").count(), 1);
    assert_eq!(kinds.iter().filter(|&&k| k == "dropped").count(), 1);
    let cycles: Vec<u64> = log.events().iter().map(|&(c, _)| c).collect();
    assert!(
        cycles.windows(2).all(|w| w[0] <= w[1]),
        "events in cycle order"
    );
}

/// Wake-up delays surface in the fault stats when reactive gating wakes a
/// sleeping router late.
#[test]
fn delayed_wakeup_is_counted() {
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::new(mesh, NodeId(0), 4);
    let mut net = paper_net(Box::new(CdorRouting::new(&set)));
    net.set_gating_mode(noc_sim::network::GatingMode::Reactive {
        idle_threshold: 50,
        wakeup_latency: 10,
    });
    net.set_fault_plan(&FaultPlan::new().wakeup_delay(NodeId(1), 0, 40))
        .unwrap();
    // Let node 1 fall asleep, then force a wake-up through it.
    for _ in 0..200 {
        net.step().unwrap();
        net.drain_ejections();
    }
    enqueue(&mut net, 0, 0, 1);
    let ej = drive(&mut net, 10_000);
    assert_eq!(ej.len(), 5);
    assert_eq!(net.fault_stats().wakeup_delays, 1);
}

// ---------------------------------------------------------------------------
// Liveness and accounting under randomized plans
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the fault plan, the simulation terminates and accounts for
    /// every measured packet: generated == delivered + dropped + outstanding.
    #[test]
    fn randomized_fault_plans_preserve_liveness_and_accounting(
        seed in 0u64..1_000_000,
        level_idx in 0usize..3,
        kills in 0usize..3,
    ) {
        let level = [4usize, 8, 16][level_idx];
        let mesh = Mesh2D::paper_4x4();
        let set = SprintSet::new(mesh, NodeId(0), level);
        let cfg = RandomFaultConfig {
            permanent_kills: kills,
            freeze_prob: 0.05,
            ..RandomFaultConfig::light(2_500)
        };
        let plan = FaultPlan::random(&mesh, set.mask(), &cfg, seed);
        let mut net = paper_net(Box::new(CdorRouting::new(&set)));
        net.set_power_mask(set.mask());
        net.set_fault_plan(&plan).unwrap();
        let traffic = TrafficGen::new(
            TrafficPattern::UniformRandom,
            Placement::new(set.active_nodes().to_vec(), &mesh).unwrap(),
            0.08,
            5,
            seed ^ 0xdead_beef,
        ).unwrap();
        let out = Simulation::new(net, traffic, SimConfig::quick()).run().unwrap();
        let acc = out.accounting;
        prop_assert_eq!(
            acc.measured_generated,
            acc.measured_delivered + acc.measured_dropped + acc.measured_outstanding
        );
        prop_assert_eq!(acc.measured_dropped, out.faults.measured_packets_dropped);
    }
}
