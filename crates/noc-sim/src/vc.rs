//! Virtual-channel state tracking.
//!
//! [`VcState`] is the logical lifecycle of an input VC. Since the
//! struct-of-arrays refactor the scalar allocation state lives in
//! [`crate::soa::VcStore`], packed into flat per-stage arrays, and the flit
//! payloads sit in one flat array of `buffer_depth`-slot rings there — the
//! allocator loops scan the scalars without dragging payload cache lines in.

use crate::geometry::Port;

/// Lifecycle of an input virtual channel, following the classic
/// wormhole-router state machine (Idle → RouteComputed → Active → Idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet owns this VC.
    Idle,
    /// A head flit has been buffered and its output port computed; waiting
    /// for VC allocation.
    RouteComputed {
        /// Output port chosen by the routing function.
        out_port: Port,
    },
    /// Output VC granted; flits may compete for the switch.
    Active {
        /// Output port chosen by the routing function.
        out_port: Port,
        /// Downstream VC granted by the VC allocator.
        out_vc: usize,
    },
    /// The packet owning this VC is being discarded because fault-aware
    /// routing found no usable path: every arriving flit up to and including
    /// the tail is consumed (with its credit returned upstream) instead of
    /// forwarded. Only entered under fault injection.
    Dropping,
}

impl VcState {
    /// Output port requested or held by this VC, if any.
    pub fn out_port(&self) -> Option<Port> {
        match self {
            VcState::Idle | VcState::Dropping => None,
            VcState::RouteComputed { out_port } | VcState::Active { out_port, .. } => {
                Some(*out_port)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Direction, NodeId};
    use crate::packet::{Packet, PacketId};
    use crate::router::RouterParams;
    use crate::soa::VcStore;

    /// One paper router's input VCs (depth 4); tests use VC id 0.
    fn store() -> VcStore {
        VcStore::new(1, &RouterParams::paper(), |_| [true; Port::COUNT])
    }

    fn test_packet(len: u32) -> Packet {
        Packet {
            id: PacketId(0),
            src: NodeId(0),
            dst: NodeId(1),
            len,
            created: 0,
            measured: false,
            vnet: 0,
        }
    }

    #[test]
    fn new_queue_is_empty() {
        let s = store();
        assert_eq!(s.occupancy(0), 0);
        assert!(s.front(0).is_none());
    }

    #[test]
    fn state_out_port_accessor() {
        assert_eq!(VcState::Idle.out_port(), None);
        let p = Port::Dir(Direction::East);
        assert_eq!(VcState::RouteComputed { out_port: p }.out_port(), Some(p));
        assert_eq!(
            VcState::Active {
                out_port: p,
                out_vc: 2
            }
            .out_port(),
            Some(p)
        );
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut s = store();
        let p = test_packet(3);
        for seq in 0..3 {
            s.push_flit(0, p.flit(seq, 0));
        }
        assert_eq!(s.front(0).unwrap().seq(), 0);
        s.pop_flit(0);
        assert_eq!(s.front(0).unwrap().seq(), 1);
    }

    #[test]
    fn queue_stays_inline_at_capacity() {
        // A VC's ring holds exactly `buffer_depth` flits, in place.
        let mut s = store();
        let depth = RouterParams::paper().buffer_depth as u32;
        let p = test_packet(depth);
        for seq in 0..depth {
            s.push_flit(0, p.flit(seq, 0));
        }
        assert_eq!(s.occupancy(0), depth as usize);
        assert_eq!(s.occupancy(1), 0, "a full ring leaves its neighbour alone");
        for seq in 0..depth {
            assert_eq!(s.pop_flit(0).unwrap().seq(), seq);
        }
        assert!(s.pop_flit(0).is_none());
    }

    #[test]
    #[should_panic(expected = "credit flow control violated")]
    fn push_past_depth_is_refused() {
        let mut s = store();
        let depth = RouterParams::paper().buffer_depth as u32;
        let p = test_packet(depth + 1);
        for seq in 0..=depth {
            s.push_flit(0, p.flit(seq, 0));
        }
    }

    #[test]
    fn interleaved_push_pop_never_reorders() {
        // Wrap the ring many times with a drifting head index, never
        // holding more than the credit-bounded depth.
        let mut s = store();
        let depth = RouterParams::paper().buffer_depth;
        let p = test_packet(1000);
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        for i in 0..300u32 {
            let pushes = 1 + (i % 3);
            for _ in 0..pushes {
                if s.occupancy(0) < depth {
                    s.push_flit(0, p.flit(next_push, 0));
                    next_push += 1;
                }
            }
            let pops = 1 + (i % 2);
            for _ in 0..pops {
                if let Some(f) = s.pop_flit(0) {
                    assert_eq!(f.seq(), next_pop);
                    next_pop += 1;
                }
            }
        }
        assert_eq!(s.occupancy(0) as u32, next_push - next_pop);
        assert!(next_push > 300, "the ring wrapped many times");
    }
}
