//! Struct-of-arrays storage for the router pipeline's hot state.
//!
//! The cycle engine's stage loops used to pointer-chase through
//! `Vec<Router>` — each router a bundle of nested `Vec<Vec<VirtualChannel>>`
//! with the flit payloads inline — so a VC-allocation sweep over a busy mesh
//! dragged whole flit queues through the cache to read a one-byte state tag.
//! [`VcStore`] flips the layout: every scalar a stage scans lives in a flat
//! array indexed by a dense id, and the flit payloads sit apart in one flat
//! array of `buffer_depth`-slot rings, touched only when a flit actually
//! moves.
//!
//! # Dense indexing
//!
//! With `P = Port::COUNT` (5) and `V = vcs_per_port`:
//!
//! ```text
//! port_id(node, port)   = node * P + port          — one per router port
//! vc_id(node, port, vc) = port_id * V + vc         — one per input VC
//! out_id(node, port, vc)= port_id * V + vc         — one per output VC
//! ```
//!
//! Input and output VCs share the same id arithmetic but index different
//! arrays (`phase`/`route_*`/`flits` vs `out_alloc`/`credits`). Iterating ids
//! in ascending order is exactly the `(node, port, vc)` lexicographic order
//! the exhaustive engine has always used, which is what keeps the
//! struct-of-arrays engine bit-identical to the oracle.
//!
//! # Per-port masks
//!
//! `occ_mask[port_id]` has bit `v` set iff input VC `v` holds at least one
//! flit; `alloc_mask[port_id]` has bit `v` set iff output VC `v` is granted;
//! `routed_mask`/`active_mask` mirror which input VCs sit in
//! [`VcPhase::Routed`]/[`VcPhase::Active`]. The allocators intersect these
//! one-word summaries (`routed & occ` = VA requesters, `active & occ` = SA
//! candidates) instead of scanning per-VC phase tags, so a port with no
//! eligible VC costs two loads (`vcs_per_port` is capped at 64 so a VC
//! always fits its port word).
//!
//! # Flit rings
//!
//! Each router's flit slots are one block of `P * V * D` flits with
//! `D = buffer_depth`, allocated when the router's first flit is written
//! (`VcStore::push_flit`): a router that never carries a flit (a dark
//! router, or a powered one off every route) holds no slots, and its VCs
//! read empty. Input VC `id` owns `D` consecutive slots of its router's
//! block, used as a ring: `ring_head[id]` is the slot of the front flit and
//! `ring_len[id]` the number buffered. Credit flow control never lets a VC
//! hold more than `D` flits (the upstream router or NI spends one of `D`
//! credits per flit it sends, and gets it back only when the flit leaves),
//! so the ring never overflows; `VcStore::push_flit` asserts it and
//! `Network::validate_active_sets` re-checks it. The paper configuration's
//! 4 slots of 28-byte flits cost 112 bytes per VC, 2,240 per router.

use crate::geometry::Port;
use crate::packet::Flit;
use crate::router::RouterParams;
use crate::vc::VcState;

/// Sentinel in the output-allocation array for an unallocated output VC.
pub const FREE_VC: u32 = u32::MAX;

/// Allocation phase of an input VC: the discriminant of [`VcState`], with
/// the route payloads split out into the `route_port`/`route_vc` arrays so
/// the stage loops can test the phase with a one-byte compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum VcPhase {
    /// No packet owns this VC ([`VcState::Idle`]).
    Idle = 0,
    /// Route computed, awaiting VC allocation ([`VcState::RouteComputed`]).
    Routed = 1,
    /// Output VC granted ([`VcState::Active`]).
    Active = 2,
    /// Discarding an unroutable packet ([`VcState::Dropping`]).
    Dropping = 3,
}

/// Flat per-stage arrays for every router's hot state, shared by the whole
/// network. See the [module docs](self) for the indexing scheme.
///
/// Fields are crate-internal; [`crate::network::Network`] exposes the
/// per-node read views (`vc_state`, `credit_count`, `output_allocated`).
#[derive(Debug, Clone)]
pub struct VcStore {
    /// VCs per port (`V` in the indexing scheme).
    vcs: usize,
    /// Flit slots per input VC (`D`, the router's `buffer_depth`).
    depth: usize,
    // ---- input side, indexed by vc_id ----
    pub(crate) phase: Vec<VcPhase>,
    /// Output port requested/held ([`Port::index`]); valid in `Routed`/`Active`.
    pub(crate) route_port: Vec<u8>,
    /// Output VC held; valid in `Active`.
    pub(crate) route_vc: Vec<u8>,
    /// Mirror of the front flit's `arrived` stamp; valid while non-empty.
    pub(crate) head_arrived: Vec<u32>,
    /// Mirror of `front().kind.is_head()`; valid while non-empty.
    pub(crate) head_is_head: Vec<bool>,
    /// Mirror of the front flit's vnet; valid while non-empty.
    pub(crate) head_vnet: Vec<u8>,
    /// Flit payload rings per router, `depth` slots per input VC, kept
    /// apart from the scalars the allocators scan; `None` until the
    /// router's first flit is written.
    flits: Vec<Option<Box<[Flit]>>>,
    /// Ring slot of each input VC's front flit.
    ring_head: Vec<u8>,
    /// Flits buffered per input VC, at most `depth`.
    ring_len: Vec<u8>,
    /// Per `port_id`: bit `v` set iff input VC `v` is non-empty.
    pub(crate) occ_mask: Vec<u64>,
    /// Per `port_id`: bit `v` set iff input VC `v` is in [`VcPhase::Routed`].
    pub(crate) routed_mask: Vec<u64>,
    /// Per `port_id`: bit `v` set iff input VC `v` is in [`VcPhase::Active`].
    pub(crate) active_mask: Vec<u64>,
    // ---- output side, indexed by out_id / port_id ----
    /// Holder of each output VC as an input `vc_id`, or [`FREE_VC`].
    pub(crate) out_alloc: Vec<u32>,
    /// Per `port_id`: bit `v` set iff output VC `v` is allocated.
    pub(crate) alloc_mask: Vec<u64>,
    /// Downstream credits per output VC.
    pub(crate) credits: Vec<u32>,
    /// Whether the port is wired (edge routers have unconnected ports).
    pub(crate) connected: Vec<bool>,
    /// Allocated output VCs per node (O(1) "holds state" checks).
    pub(crate) alloc_count: Vec<u32>,
    /// Input VCs in [`VcPhase::Routed`] per node — lets the fast VC
    /// allocator skip a visited node with one load instead of ten.
    pub(crate) routed_count: Vec<u32>,
    /// Input VCs in [`VcPhase::Active`] per node — same early-out for the
    /// fast switch allocator.
    pub(crate) active_count: Vec<u32>,
    // ---- arbiter pointers ----
    /// VA rotating-priority pointer per output `port_id`, over the
    /// `P * V` input-vc id space.
    pub(crate) va_rr: Vec<u32>,
    /// SA stage-1 pointer per input `port_id`, over `V`.
    pub(crate) sa_in_rr: Vec<u32>,
    /// SA stage-2 pointer per output `port_id`, over `P`.
    pub(crate) sa_out_rr: Vec<u32>,
}

impl VcStore {
    /// Builds the store for `nodes` routers; `connected(node)` reports which
    /// ports are wired, by [`Port::index`].
    pub fn new(
        nodes: usize,
        params: &RouterParams,
        connected: impl Fn(usize) -> [bool; Port::COUNT],
    ) -> Self {
        let vcs = params.vcs_per_port;
        let depth = params.buffer_depth;
        debug_assert!(vcs <= 64, "validated by RouterParams::validate");
        debug_assert!(
            (1..=usize::from(u8::MAX)).contains(&depth),
            "validated by RouterParams::validate"
        );
        let ports = nodes * Port::COUNT;
        let ids = ports * vcs;
        let mut wired = Vec::with_capacity(ports);
        for node in 0..nodes {
            wired.extend_from_slice(&connected(node));
        }
        VcStore {
            vcs,
            depth,
            phase: vec![VcPhase::Idle; ids],
            route_port: vec![0; ids],
            route_vc: vec![0; ids],
            head_arrived: vec![0; ids],
            head_is_head: vec![false; ids],
            head_vnet: vec![0; ids],
            flits: vec![None; nodes],
            ring_head: vec![0; ids],
            ring_len: vec![0; ids],
            occ_mask: vec![0; ports],
            routed_mask: vec![0; ports],
            active_mask: vec![0; ports],
            out_alloc: vec![FREE_VC; ids],
            alloc_mask: vec![0; ports],
            credits: vec![params.buffer_depth as u32; ids],
            connected: wired,
            alloc_count: vec![0; nodes],
            routed_count: vec![0; nodes],
            active_count: vec![0; nodes],
            va_rr: vec![0; ports],
            sa_in_rr: vec![0; ports],
            sa_out_rr: vec![0; ports],
        }
    }

    /// VCs per port.
    #[inline]
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Dense id of a router port.
    #[inline]
    pub fn port_id(&self, node: usize, port: usize) -> usize {
        node * Port::COUNT + port
    }

    /// Dense id of an input VC (also the out-VC id on the output arrays).
    #[inline]
    pub fn vc_id(&self, node: usize, port: usize, vc: usize) -> usize {
        (node * Port::COUNT + port) * self.vcs + vc
    }

    /// Reconstructs the logical [`VcState`] of an input VC.
    pub fn state(&self, id: usize) -> VcState {
        match self.phase[id] {
            VcPhase::Idle => VcState::Idle,
            VcPhase::Routed => VcState::RouteComputed {
                out_port: Port::from_index(self.route_port[id] as usize),
            },
            VcPhase::Active => VcState::Active {
                out_port: Port::from_index(self.route_port[id] as usize),
                out_vc: self.route_vc[id] as usize,
            },
            VcPhase::Dropping => VcState::Dropping,
        }
    }

    /// Writes the logical [`VcState`] of an input VC into the split arrays.
    pub(crate) fn set_state(&mut self, id: usize, state: VcState) {
        match state {
            VcState::Idle => self.set_phase(id, VcPhase::Idle),
            VcState::RouteComputed { out_port } => {
                self.route_port[id] = out_port.index() as u8;
                self.set_phase(id, VcPhase::Routed);
            }
            VcState::Active { out_port, out_vc } => {
                self.route_port[id] = out_port.index() as u8;
                self.route_vc[id] = out_vc as u8;
                self.set_phase(id, VcPhase::Active);
            }
            VcState::Dropping => self.set_phase(id, VcPhase::Dropping),
        }
    }

    /// Moves an input VC to `phase`, maintaining the per-port
    /// `routed_mask`/`active_mask` summaries. Every phase transition must go
    /// through here (or [`VcStore::set_state`], which delegates) — the fast
    /// allocator bodies trust the masks instead of re-reading `phase`.
    pub(crate) fn set_phase(&mut self, id: usize, phase: VcPhase) {
        let was = self.phase[id];
        if was == phase {
            return;
        }
        self.phase[id] = phase;
        let bit = 1u64 << (id % self.vcs);
        let pid = id / self.vcs;
        let node = pid / Port::COUNT;
        match was {
            VcPhase::Routed => {
                self.routed_mask[pid] &= !bit;
                self.routed_count[node] -= 1;
            }
            VcPhase::Active => {
                self.active_mask[pid] &= !bit;
                self.active_count[node] -= 1;
            }
            _ => {}
        }
        match phase {
            VcPhase::Routed => {
                self.routed_mask[pid] |= bit;
                self.routed_count[node] += 1;
            }
            VcPhase::Active => {
                self.active_mask[pid] |= bit;
                self.active_count[node] += 1;
            }
            _ => {}
        }
    }

    /// Router of input VC `id` and the index in that router's block of
    /// ring slot `slot`. The one division is by `V`, which the occupancy
    /// mask's port id shares; the division by `P` is by a constant.
    #[inline]
    fn slot(&self, id: usize, slot: usize) -> (usize, usize) {
        let node = id / self.vcs / Port::COUNT;
        (
            node,
            (id - node * Port::COUNT * self.vcs) * self.depth + slot,
        )
    }

    /// Whether `node`'s flit slots are allocated, which happens at its
    /// first flit.
    #[inline]
    pub(crate) fn has_slots(&self, node: usize) -> bool {
        self.flits[node].is_some()
    }

    /// Front flit of an input VC's ring.
    #[inline]
    pub fn front(&self, id: usize) -> Option<&Flit> {
        if self.ring_len[id] == 0 {
            return None;
        }
        let (node, at) = self.slot(id, usize::from(self.ring_head[id]));
        let slots = self.flits[node].as_deref();
        Some(&slots.expect("a non-empty VC's router has slots")[at])
    }

    /// Buffered flits in an input VC.
    #[inline]
    pub fn occupancy(&self, id: usize) -> usize {
        usize::from(self.ring_len[id])
    }

    /// Appends a flit to an input VC, maintaining the occupancy mask and
    /// head mirrors.
    ///
    /// # Panics
    ///
    /// Panics if the VC already holds `depth` flits, which credit flow
    /// control rules out.
    pub(crate) fn push_flit(&mut self, id: usize, flit: Flit) {
        let len = usize::from(self.ring_len[id]);
        assert!(
            len < self.depth,
            "input VC {id} already holds {len} flits: credit flow control violated"
        );
        let mut slot = usize::from(self.ring_head[id]) + len;
        if slot >= self.depth {
            slot -= self.depth;
        }
        let (node, at) = self.slot(id, slot);
        let block = Port::COUNT * self.vcs * self.depth;
        let slots = self.flits[node].get_or_insert_with(|| vec![Flit::VACANT; block].into());
        slots[at] = flit;
        self.ring_len[id] = (len + 1) as u8;
        if len == 0 {
            self.occ_mask[id / self.vcs] |= 1u64 << (id % self.vcs);
            self.mirror_head(id, &flit);
        }
    }

    /// Pops the front flit of an input VC, maintaining the occupancy mask
    /// and head mirrors.
    pub(crate) fn pop_flit(&mut self, id: usize) -> Option<Flit> {
        let len = self.ring_len[id];
        if len == 0 {
            return None;
        }
        let head = usize::from(self.ring_head[id]);
        let next = if head + 1 == self.depth { 0 } else { head + 1 };
        let (node, at) = self.slot(id, head);
        let slots = self.flits[node]
            .as_deref()
            .expect("a non-empty VC's router has slots");
        let (flit, following) = (slots[at], slots[at - head + next]);
        self.ring_head[id] = next as u8;
        self.ring_len[id] = len - 1;
        if len == 1 {
            self.occ_mask[id / self.vcs] &= !(1u64 << (id % self.vcs));
        } else {
            self.mirror_head(id, &following);
        }
        Some(flit)
    }

    /// Copies the front flit `f` of an input VC into its head mirrors.
    fn mirror_head(&mut self, id: usize, f: &Flit) {
        self.head_arrived[id] = f.arrived() as u32;
        self.head_is_head[id] = f.kind().is_head();
        self.head_vnet[id] = f.vnet();
    }

    /// Grants output VC `out_id` (on `node`) to the input VC `holder`.
    pub(crate) fn alloc_out(&mut self, node: usize, out_id: usize, holder: u32) {
        debug_assert_eq!(self.out_alloc[out_id], FREE_VC, "double allocation");
        self.out_alloc[out_id] = holder;
        self.alloc_mask[out_id / self.vcs] |= 1u64 << (out_id % self.vcs);
        self.alloc_count[node] += 1;
    }

    /// Releases output VC `out_id` (on `node`).
    pub(crate) fn free_out(&mut self, node: usize, out_id: usize) {
        debug_assert_ne!(self.out_alloc[out_id], FREE_VC, "freeing a free VC");
        self.out_alloc[out_id] = FREE_VC;
        self.alloc_mask[out_id / self.vcs] &= !(1u64 << (out_id % self.vcs));
        self.alloc_count[node] -= 1;
    }

    /// Lowest-index free output VC on `port_id` within `range` (a vnet's VC
    /// partition), or `None` when all are held.
    #[inline]
    pub(crate) fn first_free_out_vc(
        &self,
        port_id: usize,
        range: std::ops::Range<usize>,
    ) -> Option<usize> {
        let width = range.end - range.start;
        let width_mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let free = !self.alloc_mask[port_id] & (width_mask << range.start);
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::NodeId;
    use crate::packet::{Packet, PacketId};

    fn store() -> VcStore {
        VcStore::new(4, &RouterParams::paper(), |_| [true; Port::COUNT])
    }

    #[test]
    fn new_store_has_full_credits_everywhere() {
        let s = store();
        for node in 0..4 {
            for port in 0..Port::COUNT {
                for vc in 0..4 {
                    let out = s.vc_id(node, port, vc);
                    assert_eq!(s.credits[out], 4);
                    assert_eq!(s.out_alloc[out], FREE_VC);
                    assert_eq!(s.state(out), VcState::Idle);
                    assert_eq!(s.occupancy(out), 0);
                }
                assert_eq!(s.alloc_mask[s.port_id(node, port)], 0);
                assert_eq!(s.occ_mask[s.port_id(node, port)], 0);
            }
            assert_eq!(s.alloc_count[node], 0);
        }
    }

    #[test]
    fn free_vcs_reflect_allocation() {
        let mut s = store();
        let holder = s.vc_id(2, Port::Local.index(), 0) as u32;
        let port_id = s.port_id(2, 1);
        s.alloc_out(2, port_id * 4 + 2, holder);
        assert_eq!(s.first_free_out_vc(port_id, 0..4), Some(0));
        assert_eq!(s.first_free_out_vc(port_id, 2..4), Some(3));
        assert_eq!(s.alloc_count[2], 1);
        s.free_out(2, port_id * 4 + 2);
        assert_eq!(s.first_free_out_vc(port_id, 2..4), Some(2));
        assert_eq!(s.alloc_count[2], 0);
    }

    #[test]
    fn push_pop_maintain_mirrors() {
        let mut s = store();
        let id = s.vc_id(1, 3, 2);
        let pkt = Packet {
            id: PacketId(7),
            src: NodeId(0),
            dst: NodeId(3),
            len: 2,
            created: 0,
            measured: false,
            vnet: 0,
        };
        let mut head = pkt.flit(0, 0);
        head.set_arrived(11);
        let mut tail = pkt.flit(1, 0);
        tail.set_arrived(12);
        s.push_flit(id, head);
        assert_eq!(s.occ_mask[id / 4] & (1 << 2), 1 << 2);
        assert_eq!(s.head_arrived[id], 11);
        assert!(s.head_is_head[id]);
        s.push_flit(id, tail);
        assert_eq!(s.head_arrived[id], 11, "head mirror tracks the front");
        assert_eq!(s.pop_flit(id).unwrap().seq(), 0);
        assert_eq!(s.head_arrived[id], 12);
        assert!(!s.head_is_head[id]);
        assert_eq!(s.pop_flit(id).unwrap().seq(), 1);
        assert_eq!(s.occ_mask[id / 4], 0);
        assert!(s.pop_flit(id).is_none());
    }

    #[test]
    fn a_router_holds_slots_from_its_first_flit() {
        let mut s = store();
        for node in 0..4 {
            assert!(!s.has_slots(node));
        }
        let pkt = Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(3),
            len: 1,
            created: 0,
            measured: false,
            vnet: 0,
        };
        let id = s.vc_id(2, 1, 3);
        s.push_flit(id, pkt.flit(0, 0));
        assert!(s.has_slots(2));
        assert_eq!(s.pop_flit(id).unwrap().seq(), 0);
        assert!(s.has_slots(2), "slots stay once allocated");
        for node in [0, 1, 3] {
            assert!(!s.has_slots(node), "router {node} was never written");
            for port in 0..Port::COUNT {
                for vc in 0..4 {
                    let id = s.vc_id(node, port, vc);
                    assert!(s.front(id).is_none());
                    assert_eq!(s.occupancy(id), 0);
                    assert!(s.pop_flit(id).is_none());
                }
            }
        }
    }

    #[test]
    fn state_round_trips_through_split_arrays() {
        let mut s = store();
        let id = s.vc_id(0, 1, 3);
        for st in [
            VcState::Idle,
            VcState::RouteComputed {
                out_port: Port::Dir(crate::geometry::Direction::West),
            },
            VcState::Active {
                out_port: Port::Local,
                out_vc: 3,
            },
            VcState::Dropping,
        ] {
            s.set_state(id, st);
            assert_eq!(s.state(id), st);
        }
    }
}
