//! The route-check matrix: every topology, routing function, master and
//! sprint level through [`check_routes`], plus the two analytical figures
//! its walk yields and the simulator must honour — exact zero-load latency
//! and the channel-load throughput bound.
//!
//! `cargo test` runs the sampled matrix (two masters on C(64; 1, 9)); the
//! ignored test runs every master of every circulant:
//!
//! ```sh
//! cargo test --release -p integration --test route_check -- --include-ignored
//! ```

use noc_sim::geometry::NodeId;
use noc_sim::network::Network;
use noc_sim::packet::{Packet, PacketId};
use noc_sim::route_check::check_routes;
use noc_sim::router::RouterParams;
use noc_sim::routing::{
    CirculantRouting, NegativeFirstRouting, RoutingFunction, XyRouting, YxRouting,
};
use noc_sim::sim::SimConfig;
use noc_sim::sweep::point_seed;
use noc_sim::topology::{Circulant, Mesh2D, Topo, TopologySpec};
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::sprint_topology::SprintSet;

/// Meshes CDOR and the mesh baselines are checked on.
const MESHES: [(u16, u16); 5] = [(4, 4), (8, 2), (2, 8), (5, 3), (6, 6)];

/// The `(n, skip)` circulants: C(16; 1, 3/5/7), C(5; 1, 2), C(9; 1, 4),
/// C(25; 1, 7) and C(64; 1, 9).
const CIRCULANTS: [(usize, usize); 7] =
    [(16, 3), (16, 5), (16, 7), (5, 2), (9, 4), (25, 7), (64, 9)];

/// Builds a fresh routing function; each simulated network consumes one.
type MakeRouting<'a> = &'a dyn Fn() -> Box<dyn RoutingFunction>;

/// One row of the matrix.
struct Case {
    name: String,
    topo: Topo,
    routing: Box<dyn RoutingFunction>,
    active: Vec<bool>,
    /// Whether the routing claims minimal paths.
    minimal: bool,
}

/// Every row. With `every_master` false, C(64; 1, 9) arcs grow from
/// masters 0 and 32 only; smaller circulants always use every master.
fn matrix(every_master: bool) -> Vec<Case> {
    let mut cases = Vec::new();
    for (w, h) in MESHES {
        let mesh = Mesh2D::new(w, h).unwrap();
        let full = vec![true; mesh.len()];
        let baselines: [(&str, Box<dyn RoutingFunction>); 3] = [
            ("xy", Box::new(XyRouting)),
            ("yx", Box::new(YxRouting)),
            ("negative-first", Box::new(NegativeFirstRouting)),
        ];
        for (name, routing) in baselines {
            cases.push(Case {
                name: format!("mesh{w}x{h} {name}"),
                topo: Topo::from(mesh),
                routing,
                active: full.clone(),
                minimal: true,
            });
        }
        for master in 0..mesh.len() {
            for level in 1..=mesh.len() {
                let set = SprintSet::new(mesh, NodeId(master), level);
                cases.push(Case {
                    name: format!("mesh{w}x{h} cdor master {master} level {level}"),
                    topo: Topo::from(mesh),
                    routing: Box::new(CdorRouting::new(&set)),
                    active: set.mask().to_vec(),
                    minimal: true,
                });
            }
        }
    }
    for (n, skip) in CIRCULANTS {
        let topo = Topo::from(Circulant::new(n, skip).unwrap());
        cases.push(Case {
            name: format!("circ{n}s{skip} full"),
            topo: topo.clone(),
            routing: Box::new(CirculantRouting::full()),
            active: vec![true; n],
            minimal: true,
        });
        let masters: Vec<usize> = if every_master || n <= 25 {
            (0..n).collect()
        } else {
            vec![0, n / 2]
        };
        for master in masters {
            for level in 1..=n {
                let set = SprintSet::on(topo.clone(), NodeId(master), level);
                cases.push(Case {
                    name: format!("circ{n}s{skip} arc master {master} level {level}"),
                    topo: topo.clone(),
                    routing: Box::new(CirculantRouting::on_arc(set.mask().to_vec())),
                    active: set.mask().to_vec(),
                    // Arcs walk the ring; only the full level uses chords.
                    minimal: level == n,
                });
            }
        }
    }
    cases
}

/// Runs every row: each must pass, minimal routings must report no
/// non-minimal pair, and the full circulant must stay within its
/// diameter. Returns how many arc rows had a non-minimal pair.
fn run_matrix(every_master: bool) -> usize {
    let mut non_minimal_arcs = 0;
    for case in matrix(every_master) {
        let report = check_routes(case.topo.as_dyn(), case.routing.as_ref(), &case.active)
            .unwrap_or_else(|v| panic!("{}: {v:?}", case.name));
        let k = case.active.iter().filter(|&&a| a).count();
        assert_eq!(report.pairs, k * (k - 1), "{}", case.name);
        if case.minimal {
            assert_eq!(report.non_minimal_pairs, 0, "{}", case.name);
        } else {
            non_minimal_arcs += usize::from(report.non_minimal_pairs > 0);
        }
        if case.topo.as_circulant().is_some() && k == case.topo.len() {
            assert!(report.max_hops <= case.topo.diameter(), "{}", case.name);
        }
    }
    non_minimal_arcs
}

#[test]
fn route_check_matrix_passes() {
    // Arc routing is non-minimal by design: it never takes a chord.
    assert!(
        run_matrix(false) > 0,
        "some arc must walk past a shorter chord path"
    );
}

#[test]
#[ignore = "every master of C(64; 1, 9): about 12 s in release"]
fn route_check_matrix_every_circulant_master() {
    assert!(run_matrix(true) > 0);
}

// ---------------------------------------------------------------------------
// Zero-load latency
// ---------------------------------------------------------------------------

/// Cycles at which the first and the last flit of a lone `len`-flit packet
/// from `src` to `dst` are ejected, on a fresh network at cycle 0.
fn lone_packet_head_tail(net: &mut Network, src: NodeId, dst: NodeId, len: u32) -> (u64, u64) {
    net.enqueue_packet(Packet {
        id: PacketId(0),
        src,
        dst,
        len,
        created: 0,
        measured: true,
        vnet: 0,
    });
    let mut at = Vec::new();
    for _ in 0..1_000 {
        net.step().unwrap();
        at.extend(net.drain_ejections().map(|e| e.at));
        if net.is_drained() {
            break;
        }
    }
    assert_eq!(at.len(), len as usize, "{src} -> {dst} did not deliver");
    (at[0], at[at.len() - 1])
}

/// The zero-load pipeline model: the head pays `sa_delay + link_delay` per
/// hop plus the ejection hop; each further flit follows one cycle behind,
/// except that every `buffer_depth` flits the source waits for a credit
/// round trip it cannot cover with its buffered flits.
fn zero_load_head_tail(p: &RouterParams, hops: u32, len: u32) -> (u64, u64) {
    let head = (u64::from(hops) + 1) * (p.sa_delay + p.link_delay);
    let stall = p.link_delay + p.sa_delay + p.credit_delay - p.buffer_depth as u64;
    let extra = u64::from(len - 1);
    (head, head + extra + extra / p.buffer_depth as u64 * stall)
}

#[test]
fn zero_load_latency_is_exact_for_every_pair() {
    let params = RouterParams::paper();
    let mesh = Mesh2D::paper_4x4();
    let circ = Topo::from(Circulant::new(16, 5).unwrap());
    let cdor_set = SprintSet::paper(8);
    let arc_set = SprintSet::on(circ.clone(), NodeId(0), 8);
    let configs: [(&str, Topo, MakeRouting, &[bool]); 4] = [
        (
            "mesh4x4 xy",
            Topo::from(mesh),
            &|| Box::new(XyRouting),
            &[true; 16],
        ),
        (
            "mesh4x4 cdor level 8",
            Topo::from(mesh),
            &|| Box::new(CdorRouting::new(&cdor_set)),
            cdor_set.mask(),
        ),
        (
            "circ16s5 full",
            circ.clone(),
            &|| Box::new(CirculantRouting::full()),
            &[true; 16],
        ),
        (
            "circ16s5 arc level 8",
            circ.clone(),
            &|| Box::new(CirculantRouting::on_arc(arc_set.mask().to_vec())),
            arc_set.mask(),
        ),
    ];
    for (name, topo, make_routing, active) in configs {
        let nodes: Vec<NodeId> = (0..topo.len()).filter(|&i| active[i]).map(NodeId).collect();
        for &src in &nodes {
            for &dst in nodes.iter().filter(|&&d| d != src) {
                let hops = make_routing().path_hops(topo.as_dyn(), src, dst);
                // 5 flits is the paper's packet length.
                for len in [1, 5] {
                    let mut net =
                        Network::with_topology(topo.clone(), params, make_routing()).unwrap();
                    assert_eq!(
                        lone_packet_head_tail(&mut net, src, dst, len),
                        zero_load_head_tail(&params, hops, len),
                        "{name}: {src} -> {dst}, {hops} hops, {len} flits"
                    );
                }
            }
        }
    }
    // Pinned: a one-hop and a six-hop mesh route for 1 to 9 flits.
    let tails = |dst: usize| -> Vec<u64> {
        (1..=9)
            .map(|len| {
                let mut net = Network::new(mesh, params, Box::new(XyRouting)).unwrap();
                lone_packet_head_tail(&mut net, NodeId(0), NodeId(dst), len).1
            })
            .collect()
    };
    assert_eq!(tails(1), [10, 11, 12, 13, 17, 18, 19, 20, 24]);
    assert_eq!(tails(15), [35, 36, 37, 38, 42, 43, 44, 45, 49]);
}

// ---------------------------------------------------------------------------
// Channel-load throughput bound
// ---------------------------------------------------------------------------

/// Runs `job`'s configuration as a uniform sweep at offered loads 0.2 to
/// 1.0 (point seeds from base 11) and asserts every point's accepted
/// throughput stays at or under `min(1, (k - 1) / max_channel_load)` of
/// `routing` over the `active` nodes — the routing and region the job
/// runs. Returns the largest accepted/bound ratio seen.
fn assert_under_channel_load_bound(
    name: &str,
    job: SyntheticJob,
    routing: &dyn RoutingFunction,
    active: &[bool],
) -> f64 {
    let topo = job.topology.build().unwrap();
    let report = check_routes(topo.as_dyn(), routing, active).unwrap();
    let k = active.iter().filter(|&&a| a).count() as f64;
    let bound = ((k - 1.0) / report.max_channel_load as f64).min(1.0);
    // Throughput is measured in the window; a short drain keeps saturated
    // points cheap without changing it.
    let experiment = Experiment {
        sim_config: SimConfig {
            drain_max: 1_000,
            ..SimConfig::quick()
        },
        ..Experiment::quick()
    };
    let mut worst = 0.0f64;
    for (i, load) in (2..=10).map(|i| f64::from(i) / 10.0).enumerate() {
        let point = SyntheticJob {
            rate: load,
            seed: point_seed(11, i),
            ..job
        };
        let accepted = point.run(&experiment).unwrap().accepted_throughput;
        assert!(
            accepted <= bound,
            "{name} at load {load}: accepted {accepted} exceeds the channel-load bound {bound}"
        );
        worst = worst.max(accepted / bound);
    }
    worst
}

#[test]
fn accepted_throughput_never_exceeds_the_channel_load_bound() {
    let uniform = |topology, level, baseline| SyntheticJob {
        topology,
        level,
        pattern: TrafficPattern::UniformRandom,
        rate: 0.0,
        seed: 0,
        baseline,
    };
    let mut worst = 0.0f64;
    for level in [4, 8, 12, 16] {
        let set = SprintSet::paper(level);
        worst = worst.max(assert_under_channel_load_bound(
            &format!("mesh4x4 cdor level {level}"),
            uniform(
                TopologySpec::default(),
                level,
                SyntheticBaseline::NocSprinting,
            ),
            &CdorRouting::new(&set),
            set.mask(),
        ));
    }
    let circ = TopologySpec::from_wire_name("circ16s5").unwrap();
    worst = worst.max(assert_under_channel_load_bound(
        "circ16s5 full",
        uniform(circ, 16, SyntheticBaseline::SpreadAggregate),
        &CirculantRouting::full(),
        &[true; 16],
    ));
    // The bound is not vacuous: saturated points come close to it.
    assert!(worst > 0.75, "largest accepted/bound ratio only {worst}");
}
