//! Conservation properties of the cycle-level simulator under randomized
//! traffic: no flit is lost or duplicated, credits return to full, and
//! accounting identities hold.

use proptest::prelude::*;

use noc_sim::geometry::{NodeId, Port};
use noc_sim::network::Network;
use noc_sim::packet::{Packet, PacketId};
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::topology::Mesh2D;

fn drive_to_drain(net: &mut Network, max_cycles: u64) -> Vec<noc_sim::network::Ejection> {
    let mut ej = Vec::new();
    for _ in 0..max_cycles {
        net.step().expect("no dark routers in this test");
        ej.extend(net.drain_ejections());
        if net.is_drained() {
            break;
        }
    }
    assert!(net.is_drained(), "network failed to drain");
    // Let in-flight credits land.
    for _ in 0..8 {
        net.step().expect("idle steps");
    }
    ej
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_batches_conserve_flits_and_credits(
        pairs in prop::collection::vec((0usize..16, 0usize..16, 1u32..6), 1..60),
    ) {
        let mesh = Mesh2D::paper_4x4();
        let mut net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
        let mut expected_flits = 0u64;
        for (i, &(src, dst, len)) in pairs.iter().enumerate() {
            net.enqueue_packet(Packet {
                id: PacketId(i as u64),
                src: NodeId(src),
                dst: NodeId(dst),
                len,
                created: 0,
                measured: true,
            vnet: 0,
            });
            expected_flits += u64::from(len);
        }
        let ej = drive_to_drain(&mut net, 100_000);
        prop_assert_eq!(ej.len() as u64, expected_flits);

        // No duplicates; per-packet sequence order strictly increasing.
        let mut seen = std::collections::HashMap::<PacketId, u32>::new();
        for e in &ej {
            let next = seen.entry(e.flit.packet()).or_insert(0);
            prop_assert_eq!(e.flit.seq(), *next);
            *next += 1;
        }

        // Credit conservation: every output port back to full credits.
        for n in mesh.nodes() {
            for p in Port::ALL {
                for v in 0..4 {
                    prop_assert_eq!(net.credit_count(n, p, v), 4u32);
                    prop_assert!(!net.output_allocated(n, p, v));
                }
            }
        }
    }

    #[test]
    fn delivery_respects_addressing(
        pairs in prop::collection::vec((0usize..16, 0usize..16), 1..40),
    ) {
        let mesh = Mesh2D::paper_4x4();
        let mut net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            net.enqueue_packet(Packet {
                id: PacketId(i as u64),
                src: NodeId(src),
                dst: NodeId(dst),
                len: 5,
                created: 0,
                measured: true,
            vnet: 0,
            });
        }
        let ej = drive_to_drain(&mut net, 100_000);
        for e in &ej {
            let (src, dst) = pairs[e.flit.packet().0 as usize];
            prop_assert_eq!(e.flit.src(), NodeId(src));
            prop_assert_eq!(e.flit.dst(), NodeId(dst));
        }
    }

    #[test]
    fn latency_lower_bound_holds(
        src in 0usize..16,
        dst in 0usize..16,
        len in 1u32..6,
    ) {
        // A lone packet's delivery time is at least the pipeline model's
        // minimum: (hops + ejection) * hop_latency + serialization.
        let mesh = Mesh2D::paper_4x4();
        let mut net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
        net.enqueue_packet(Packet {
            id: PacketId(0),
            src: NodeId(src),
            dst: NodeId(dst),
            len,
            created: 0,
            measured: true,
            vnet: 0,
        });
        let ej = drive_to_drain(&mut net, 10_000);
        let tail_at = ej.last().expect("delivered").at;
        let hops = u64::from(mesh.hops(NodeId(src), NodeId(dst)));
        let hop_latency = RouterParams::paper().hop_latency();
        let min = (hops + 1) * hop_latency + u64::from(len) - 1;
        prop_assert!(
            tail_at >= min,
            "tail at {} below pipeline minimum {}",
            tail_at,
            min
        );
    }
}
