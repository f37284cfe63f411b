//! Packets and flits.
//!
//! Packets are segmented into flits for wormhole switching. The paper's
//! configuration (Table 1) uses 5-flit packets with 16-byte (128-bit) flits.

use crate::geometry::NodeId;

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head = 0,
    /// Intermediate payload flit.
    Body = 1,
    /// Last flit; releases the wormhole channel.
    Tail = 2,
    /// Single-flit packet (head and tail at once).
    HeadTail = 3,
}

impl FlitKind {
    /// Whether this flit opens a packet (triggers route compute / VC alloc).
    #[inline]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a packet (releases VCs downstream).
    #[inline]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit travelling through the network.
///
/// Every router input VC holds `buffer_depth` of these, so the layout is
/// compact: cycles, the packet id and both endpoints are stored as `u32`,
/// `seq` as `u16`, and the kind and the measured flag share one byte. The
/// accessors widen each value back to its public type. Cycles and packet
/// ids past `u32::MAX` are refused with an error, never wrapped
/// ([`crate::sim::SimConfig::validate`], [`crate::network::Network::step`],
/// [`crate::network::Network::enqueue_packet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    packet: u32,
    src: u32,
    dst: u32,
    /// Cycle the parent packet was generated (entered the source queue).
    created: u32,
    /// Cycle the flit entered the network (was written into the source
    /// router's local input buffer).
    injected: u32,
    /// Cycle the flit was written into the current router's input buffer.
    arrived: u32,
    seq: u16,
    vnet: u8,
    /// [`FlitKind`] in bits 0-1, [`MEASURED_BIT`] above them.
    bits: u8,
}

const _: () = assert!(std::mem::size_of::<Flit>() == 28);

/// Largest packet, in flits: a source-queue entry keeps the length in 7
/// bits. [`crate::traffic::TrafficGen::new`] refuses longer packets and
/// [`crate::network::Network::enqueue_packet`] panics on them.
pub const MAX_PACKET_FLITS: u32 = 127;

/// Marks a flit of a measured packet in [`Flit`]'s flag byte.
const MEASURED_BIT: u8 = 1 << 2;

/// Narrows a cycle or id the caller has bounded to 32 bits.
#[inline]
fn narrow(value: u64, what: &str) -> u32 {
    u32::try_from(value).unwrap_or_else(|_| panic!("{what} {value} does not fit 32 bits"))
}

impl Flit {
    /// An all-zero flit that fills unused buffer slots.
    pub(crate) const VACANT: Flit = Flit {
        packet: 0,
        src: 0,
        dst: 0,
        created: 0,
        injected: 0,
        arrived: 0,
        seq: 0,
        vnet: 0,
        bits: 0,
    };

    /// Packet this flit belongs to.
    #[inline]
    pub fn packet(&self) -> PacketId {
        PacketId(u64::from(self.packet))
    }

    /// Head/body/tail marker.
    #[inline]
    pub fn kind(&self) -> FlitKind {
        match self.bits & 0b11 {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            _ => FlitKind::HeadTail,
        }
    }

    /// Index within the packet, `0` for the head.
    #[inline]
    pub fn seq(&self) -> u32 {
        u32::from(self.seq)
    }

    /// Source node.
    #[inline]
    pub fn src(&self) -> NodeId {
        NodeId(self.src as usize)
    }

    /// Destination node.
    #[inline]
    pub fn dst(&self) -> NodeId {
        NodeId(self.dst as usize)
    }

    /// Cycle at which the parent packet was *generated* (entered the source
    /// queue). Used for packet latency, which includes source queueing.
    #[inline]
    pub fn created(&self) -> u64 {
        u64::from(self.created)
    }

    /// Cycle at which this flit entered the network (was written into the
    /// source router's local input buffer). Used for network latency.
    #[inline]
    pub fn injected(&self) -> u64 {
        u64::from(self.injected)
    }

    /// Cycle at which the flit was written into the current router's input
    /// buffer; gates pipeline-stage eligibility.
    #[inline]
    pub fn arrived(&self) -> u64 {
        u64::from(self.arrived)
    }

    /// Stamps the cycle the flit is written into a router's input buffer.
    ///
    /// # Panics
    ///
    /// Panics if `now` does not fit 32 bits; [`crate::network::Network::step`]
    /// refuses such cycles first.
    #[inline]
    pub(crate) fn set_arrived(&mut self, now: u64) {
        self.arrived = narrow(now, "arrival cycle");
    }

    /// Virtual network (message class) this flit travels on; VCs are
    /// partitioned per vnet to break protocol (request/response) deadlock
    /// cycles.
    #[inline]
    pub fn vnet(&self) -> u8 {
        self.vnet
    }

    /// Whether the parent packet was generated during the measurement phase.
    #[inline]
    pub fn measured(&self) -> bool {
        self.bits & MEASURED_BIT != 0
    }
}

/// A packet awaiting injection at a source queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Number of flits.
    pub len: u32,
    /// Generation cycle.
    pub created: u64,
    /// Whether generated during the measurement phase.
    pub measured: bool,
    /// Virtual network (message class); `0` for single-class traffic.
    pub vnet: u8,
}

impl Packet {
    /// Builds the `seq`-th flit of this packet.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= self.len`, or if the id, an endpoint, `created` or
    /// `injected` does not fit 32 bits ([`crate::network::Network::enqueue_packet`]
    /// refuses such packets first).
    pub fn flit(&self, seq: u32, injected: u64) -> Flit {
        assert!(
            seq < self.len,
            "flit index {seq} out of packet of {}",
            self.len
        );
        let kind = if self.len == 1 {
            FlitKind::HeadTail
        } else if seq == 0 {
            FlitKind::Head
        } else if seq + 1 == self.len {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        let injected = narrow(injected, "injection cycle");
        Flit {
            packet: narrow(self.id.0, "packet id"),
            src: narrow(self.src.0 as u64, "source node"),
            dst: narrow(self.dst.0 as u64, "destination node"),
            created: narrow(self.created, "creation cycle"),
            injected,
            arrived: injected,
            seq: u16::try_from(seq).expect("seq below len, which is at most MAX_PACKET_FLITS"),
            vnet: self.vnet,
            bits: kind as u8 | if self.measured { MEASURED_BIT } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: u32) -> Packet {
        Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(5),
            len,
            created: 10,
            measured: true,
            vnet: 0,
        }
    }

    #[test]
    fn five_flit_packet_has_head_bodies_tail() {
        let p = packet(5);
        let kinds: Vec<FlitKind> = (0..5).map(|i| p.flit(i, 12).kind()).collect();
        assert_eq!(
            kinds,
            vec![
                FlitKind::Head,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Body,
                FlitKind::Tail
            ]
        );
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let p = packet(1);
        let f = p.flit(0, 12);
        assert_eq!(f.kind(), FlitKind::HeadTail);
        assert!(f.kind().is_head());
        assert!(f.kind().is_tail());
    }

    #[test]
    fn two_flit_packet_is_head_then_tail() {
        let p = packet(2);
        assert_eq!(p.flit(0, 12).kind(), FlitKind::Head);
        assert_eq!(p.flit(1, 12).kind(), FlitKind::Tail);
    }

    #[test]
    fn flit_carries_packet_metadata() {
        let p = packet(5);
        let f = p.flit(3, 42);
        assert_eq!(f.packet(), PacketId(1));
        assert_eq!(f.seq(), 3);
        assert_eq!(f.src(), NodeId(0));
        assert_eq!(f.dst(), NodeId(5));
        assert_eq!(f.created(), 10);
        assert_eq!(f.injected(), 42);
        assert_eq!(f.arrived(), 42);
        assert!(f.measured());
        assert_eq!(f.vnet(), 0);
    }

    #[test]
    #[should_panic(expected = "out of packet")]
    fn flit_index_out_of_range_panics() {
        let p = packet(3);
        let _ = p.flit(3, 0);
    }
}
