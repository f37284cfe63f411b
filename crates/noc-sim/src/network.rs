//! The network: routers, links, network interfaces and the per-cycle
//! pipeline orchestration.
//!
//! [`Network::step`] advances the whole network by one cycle, running the
//! pipeline stages in reverse-dataflow order so that a flit never crosses two
//! stages in a single cycle:
//!
//! 1. credit delivery,
//! 2. link delivery (buffer write + route compute),
//! 3. NI injection,
//! 4. VC allocation,
//! 5. switch allocation + switch/link traversal.
//!
//! # Cycle engines
//!
//! One driver runs the stages: each stage visits only its work-list —
//! routers with buffered flits, nodes with in-flight link flits or credits,
//! busy NIs, and due sleep checks — in ascending node order. Work scales
//! with *activity*, not mesh capacity, which is the whole point of
//! simulating dark silicon: a mostly-dark 16×16 mesh costs little more than
//! the sprinting region it actually exercises. The allocator bodies are
//! allocation-free struct-of-arrays scans over the [`crate::soa::VcStore`]
//! masks, so even a *fully-lit* mesh streams linearly through memory.
//!
//! The differential reference ([`StepEngine::ExhaustiveSweep`]) runs the
//! same driver but fills every work-list with every node at step start —
//! a superset the work-list invariants allow — so it never trusts the
//! lists it checks. It uses the original allocation-heavy VA and SA bodies
//! and never fast-forwards idle cycles. The two allocator formulations are
//! provably the same arbitration (rotating priority is a cyclic scan; the
//! proofs live on the fast bodies), so the engines are bit-identical at
//! every cycle (pinned by the equivalence suite).
//!
//! Link traversals and credit returns are batched per cycle: stage bodies
//! append to pending buffers and one end-of-step flush lands them in the
//! per-node queues — observation-equivalent because arrivals are strictly
//! in the future and the flush preserves per-queue append order. When the
//! network is quiescent, [`Network::quiescence`] and
//! [`Network::skip_idle_cycles`] let callers fast-forward `now` to the next
//! scheduled event without stepping through empty cycles.

use std::collections::{BTreeSet, VecDeque};

use crate::error::SimError;
use crate::fault::{FaultEvent, FaultPlan, FaultState, FaultStats};
use crate::fifo::BlockFifos;
use crate::geometry::{NodeId, Port};
use crate::packet::{Flit, Packet, PacketId, MAX_PACKET_FLITS};
use crate::probe::Probe;
use crate::router::{Router, RouterActivity, RouterParams, SleepState};
use crate::routing::{RouteDecision, RoutingFunction};
use crate::soa::{VcPhase, VcStore, FREE_VC};
use crate::topology::{Mesh2D, Topo, Topology};
use crate::vc::VcState;

/// Power-gating discipline of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatingMode {
    /// Routers are statically on or dark (set by
    /// [`Network::set_power_mask`]); a flit reaching a dark router is an
    /// error. This is NoC-sprinting's structural gating.
    Static,
    /// Traffic-driven gating (the NoRD / Catnap / router-parking class the
    /// paper's §2 critiques): a router power-gates itself after
    /// `idle_threshold` cycles without pipeline activity and pays
    /// `wakeup_latency` cycles before the next flit can enter.
    Reactive {
        /// Idle cycles before a router self-gates.
        idle_threshold: u64,
        /// Cycles from the wake trigger until flits are accepted.
        wakeup_latency: u64,
    },
}

/// A flit in transit on a link, addressed to `(node, in_port, vc)`.
#[derive(Debug, Clone)]
struct TimedFlit {
    arrive: u64,
    flit: Flit,
    vc: u8,
}

const _: () = assert!(std::mem::size_of::<TimedFlit>() == 40);

/// A credit in transit back to a router's output port.
#[derive(Debug, Clone, Copy)]
struct TimedCredit {
    arrive: u64,
    port: u8,
    vc: u8,
}

/// A credit produced this cycle, awaiting the end-of-step flush into the
/// per-node queues. `port == NI_PORT` addresses the local NI's credit queue
/// instead of a router output port.
#[derive(Debug, Clone, Copy)]
struct PendingCredit {
    node: u32,
    port: u8,
    vc: u8,
    arrive: u64,
}

/// Sentinel port in [`PendingCredit`] for the NI credit queue.
const NI_PORT: u8 = u8::MAX;

/// A link flit sent this cycle, awaiting the end-of-step flush into the
/// destination's `link_in` queue.
#[derive(Debug, Clone)]
struct PendingLink {
    arrive: u64,
    flit: Flit,
    node: u32,
    port: u8,
    vc: u8,
}

/// Cycles in which each pipeline stage had non-empty work (at least one
/// event), accumulated over the life of the network. The breakdown shows
/// which stage dominates a hot run — a switch-allocation-bound mesh responds
/// to different tuning than a link-delivery-bound one. Idle and
/// fast-forwarded cycles contribute to no stage, and both engines produce
/// identical counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Cycles with at least one credit delivered.
    pub credit: u64,
    /// Cycles with at least one link flit delivered (BW + RC).
    pub link: u64,
    /// Cycles with at least one NI injection.
    pub inject: u64,
    /// Cycles with at least one VC allocation granted.
    pub va: u64,
    /// Cycles with at least one switch grant (ST + LT).
    pub sa: u64,
    /// Cycles with at least one flit ejected to an NI.
    pub eject: u64,
}

/// A flit delivered to its destination NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ejection {
    /// The delivered flit.
    pub flit: Flit,
    /// Cycle at which the flit completed link traversal into the NI.
    pub at: u64,
}

/// Routers a network may hold: a source-queue entry keeps the
/// destination in 24 bits.
const MAX_NODES: usize = 1 << 24;

/// Marks a measured packet in [`Queued::dst_len`].
const MEASURED: u32 = 1 << 7;

/// A packet waiting in a source queue, without the fields its queue
/// implies: `src` is the queue's node and `vnet` its index, and with the
/// id and creation cycle in the 32 bits a [`Flit`] keeps of them. 12 bytes
/// against [`Packet`]'s 40, which matters at saturated points where
/// thousands of packets wait per node.
#[derive(Debug, Clone, Copy, Default)]
struct Queued {
    id: u32,
    created: u32,
    /// Destination in the top 24 bits, [`MEASURED`] in bit 7 and the flit
    /// count (at most [`MAX_PACKET_FLITS`]) in bits 0-6.
    dst_len: u32,
}

const _: () = assert!(std::mem::size_of::<Queued>() == 12);
const _: () = assert!(MAX_PACKET_FLITS < MEASURED);

impl Queued {
    /// Packs `p`; `enqueue_packet` has checked that every field fits.
    fn pack(p: &Packet) -> Self {
        Queued {
            id: p.id.0 as u32,
            created: p.created as u32,
            dst_len: (p.dst.0 as u32) << 8 | if p.measured { MEASURED } else { 0 } | p.len,
        }
    }

    /// Rebuilds the packet queued at `node` on virtual network `vnet`.
    fn unpack(self, node: usize, vnet: usize) -> Packet {
        Packet {
            id: PacketId(u64::from(self.id)),
            src: NodeId(node),
            dst: NodeId((self.dst_len >> 8) as usize),
            len: self.dst_len & (MEASURED - 1),
            created: u64::from(self.created),
            measured: self.dst_len & MEASURED != 0,
            vnet: vnet as u8,
        }
    }
}

/// Network interface: injection state. Its source queues, one FIFO per
/// virtual network (message classes must not block each other at the
/// source either), live in the network's [`BlockFifos`].
#[derive(Debug, Clone)]
struct Ni {
    /// Packets waiting in this NI's source queues, all vnets.
    queued: u32,
    /// Packet currently being injected, with the next flit index and the
    /// cycle its head flit was written (shared `injected` stamp).
    injecting: Option<(Packet, u32, u64)>,
    /// VC chosen for the packet currently being injected.
    inject_vc: usize,
    /// Free-slot credits for the router's local input VCs.
    credits: Vec<u32>,
    /// In-flight credit returns from the local input port.
    credit_queue: VecDeque<(u64, usize)>,
    /// Round-robin pointer for VC choice.
    vc_rr: usize,
    /// Round-robin pointer over vnet source queues.
    vnet_rr: usize,
}

impl Ni {
    fn new(params: &RouterParams) -> Self {
        Ni {
            queued: 0,
            injecting: None,
            inject_vc: 0,
            credits: vec![params.buffer_depth as u32; params.vcs_per_port],
            credit_queue: VecDeque::new(),
            vc_rr: 0,
            vnet_rr: 0,
        }
    }

    fn is_idle(&self) -> bool {
        self.queued == 0 && self.injecting.is_none()
    }
}

/// Summary of one [`Network::step`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Number of pipeline events (writes, grants, ejections) this cycle;
    /// zero while packets are in flight indicates no forward progress.
    pub events: usize,
    /// Flits delivered to NIs this cycle.
    pub ejections: usize,
}

/// How the stage driver advances the pipeline each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepEngine {
    /// Visit only the work-lists, with the fast allocator bodies (default).
    #[default]
    ActiveSet,
    /// The differential reference: every work-list is filled with every
    /// node at step start, VA and SA use the allocation-heavy reference
    /// bodies, and [`Network::skip_idle_cycles`] never skips.
    ExhaustiveSweep,
}

/// How long the network is guaranteed to produce no events (see
/// [`Network::quiescence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quiescence {
    /// Flits, credits or busy NIs are pending; stepping cannot be skipped.
    Active,
    /// Nothing observable can happen strictly before the given cycle (the
    /// next scheduled fault or sleep event).
    Until(u64),
    /// Nothing can ever happen again without external input.
    Indefinite,
}

/// A deduplicated work-list of node indices, stored as a bitmap and always
/// visited in ascending node order — the canonical order that keeps the
/// active-set engine bit-identical to the exhaustive sweep.
///
/// `insert` is an O(1) bit-set; iteration scans `len/64` words with
/// `trailing_zeros`, so a near-empty set touches a few cache lines and a
/// busy set needs no sort. (The previous vector-of-indices representation
/// re-sorted the whole list every stage of every cycle once the mesh got
/// busy — on a fully-lit 32x32 that sort dominated the engine's overhead.)
#[derive(Debug, Clone, Default)]
struct NodeSet {
    /// Membership bitmap, one bit per node.
    words: Vec<u64>,
}

impl NodeSet {
    fn new(len: usize) -> Self {
        NodeSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Makes every node in `0..len` a member, and nothing beyond it.
    fn fill(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len / 64, u64::MAX);
        let tail = len % 64;
        if tail != 0 {
            self.words.push((1 << tail) - 1);
        }
    }

    #[inline]
    fn insert(&mut self, node: usize) {
        self.words[node >> 6] |= 1u64 << (node & 63);
    }

    #[inline]
    fn contains(&self, node: usize) -> bool {
        self.words[node >> 6] & (1u64 << (node & 63)) != 0
    }

    /// Visits members in ascending node order (read-only iteration).
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f((w << 6) | b);
            }
        }
    }

    /// Visits members in ascending node order; `f` returns whether the node
    /// stays in the set. The driver `mem::take`s a work-list before visiting
    /// it, so `f` cannot insert into the set being visited.
    fn retain_visit(&mut self, mut f: impl FnMut(usize) -> bool) {
        for w in 0..self.words.len() {
            let mut bits = self.words[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !f((w << 6) | b) {
                    self.words[w] &= !(1u64 << b);
                }
            }
        }
    }
}

/// Work-lists and O(1) occupancy counters backing the active-set engine.
///
/// Set invariants (supersets are allowed, holes are not):
///
/// * every node with a non-empty `link_in` queue is in `link`
///   (enqueued by link traversal, drained when its queues empty),
/// * every node with an in-flight credit (router `credit_in` or NI credit
///   queue) is in `credit` (enqueued by credit return),
/// * every node whose NI has queued or mid-injection packets is in `ni`
///   (enqueued by packet enqueue, drained when the NI goes idle),
/// * every node with flits buffered in router input VCs is in `router`
///   (enqueued by buffer write, drained when its buffers empty),
/// * under reactive gating, every powered-on router that is not `Asleep`
///   has exactly one armed entry in `sleep_events` (stale-early entries are
///   fine: the pop re-checks the condition and re-arms).
#[derive(Debug, Clone, Default)]
struct ActiveState {
    link: NodeSet,
    credit: NodeSet,
    ni: NodeSet,
    router: NodeSet,
    /// Due sleep checks, drained by the sleep stage under reactive gating.
    sleep_due: NodeSet,
    /// Flits waiting in `link_in` per node, all ports.
    link_pending: Vec<u32>,
    /// In-flight credits per node (router `credit_in` + NI credit queue).
    credit_pending: Vec<u32>,
    /// Flits buffered in router input VCs per node.
    buffered: Vec<u32>,
    /// Sum of `link_pending`.
    total_links: usize,
    /// Sum of `credit_pending`.
    total_credits: usize,
    /// Sum of `buffered`.
    total_buffered: usize,
    /// NIs with queued or mid-injection packets.
    busy_nis: usize,
    /// Packets waiting in NI source queues.
    queued_packets: usize,
    /// Scheduled sleep-state checks as `(cycle, node)`.
    sleep_events: BTreeSet<(u64, usize)>,
    /// The armed entry per node, kept in lockstep with `sleep_events` so
    /// re-arming can replace it.
    sleep_event_at: Vec<Option<u64>>,
}

impl ActiveState {
    fn new(len: usize) -> Self {
        ActiveState {
            link: NodeSet::new(len),
            credit: NodeSet::new(len),
            ni: NodeSet::new(len),
            router: NodeSet::new(len),
            sleep_due: NodeSet::new(len),
            link_pending: vec![0; len],
            credit_pending: vec![0; len],
            buffered: vec![0; len],
            total_links: 0,
            total_credits: 0,
            total_buffered: 0,
            busy_nis: 0,
            queued_packets: 0,
            sleep_events: BTreeSet::new(),
            sleep_event_at: vec![None; len],
        }
    }
}

/// A complete network with attached NIs, built on any [`Topology`].
pub struct Network {
    topo: Topo,
    /// Precomputed neighbor table: `neighbors[node][dir as usize]` is the
    /// neighbor's index, or `u32::MAX` on a topology edge. Hot stages read
    /// this flat table instead of virtual-dispatching into the topology.
    neighbors: Vec<[u32; 4]>,
    /// Cached [`RoutingFunction::vc_classes`]; `1` (every mesh router)
    /// leaves the VC allocators on their classic code path.
    vc_classes: usize,
    params: RouterParams,
    routers: Vec<Router>,
    /// Struct-of-arrays storage for every router's pipeline state.
    store: VcStore,
    nis: Vec<Ni>,
    /// NI source queues, `node * vnets + vnet`, sharing one block pool.
    source: BlockFifos<Queued>,
    /// Incoming flit queues per node and input port.
    link_in: Vec<Vec<VecDeque<TimedFlit>>>,
    /// Incoming credit queues per node (addressed to output ports).
    credit_in: Vec<VecDeque<TimedCredit>>,
    routing: Box<dyn RoutingFunction>,
    ejected: Vec<Ejection>,
    gating: GatingMode,
    /// Per-directed-link latency overrides (cycles for ST+LT), keyed by
    /// `(from, to)`; links not present use `params.link_delay`. Models the
    /// long wires a thermal-aware floorplan creates (Fig. 5b) when SMART
    /// single-cycle repeaters are *not* assumed.
    link_latency: std::collections::HashMap<(usize, usize), u64>,
    /// Compiled fault schedule; `None` means no fault injection, which takes
    /// exactly the pre-fault code path (zero-fault bit-identity).
    faults: Option<FaultState>,
    /// Fault consequence counters (drops, reroutes, delayed wake-ups).
    fault_stats: FaultStats,
    /// Work-lists and occupancy counters driving every stage.
    active: ActiveState,
    /// Whether the stages run as the differential reference.
    engine: StepEngine,
    /// Per-stage busy-cycle counters (see [`StageCycles`]).
    stage_cycles: StageCycles,
    /// Credits produced this cycle, flushed at end of step.
    pending_credits: Vec<PendingCredit>,
    /// Link flits sent this cycle, flushed at end of step.
    pending_links: Vec<PendingLink>,
    /// Per-node VA request scratch (`in_port * vcs + in_vc` → requested
    /// output port, `u8::MAX` = none), reused across nodes and cycles.
    va_scratch: Vec<u8>,
    now: u64,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topo", &self.topo)
            .field("params", &self.params)
            .field("now", &self.now)
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds a fully powered mesh network.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` fails validation.
    pub fn new(
        mesh: Mesh2D,
        params: RouterParams,
        routing: Box<dyn RoutingFunction>,
    ) -> Result<Self, SimError> {
        Network::with_topology(Topo::from(mesh), params, routing)
    }

    /// Builds a fully powered network on an arbitrary [`Topology`]
    /// (see TOPOLOGY.md). [`Network::new`] is the mesh special case.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` fails validation, or if the routing
    /// function partitions VCs into escape classes
    /// ([`RoutingFunction::vc_classes`]) that do not evenly divide some
    /// vnet's VC range.
    pub fn with_topology(
        topo: Topo,
        params: RouterParams,
        routing: Box<dyn RoutingFunction>,
    ) -> Result<Self, SimError> {
        params.validate()?;
        let vc_classes = routing.vc_classes();
        if vc_classes > 1 {
            for vnet in 0..params.vnets {
                let range = params.vnet_vcs(vnet as u8);
                if !range.len().is_multiple_of(vc_classes) {
                    return Err(SimError::InvalidConfig(format!(
                        "vnet {vnet} has {} VCs, not divisible into {vc_classes} escape classes",
                        range.len()
                    )));
                }
            }
        }
        let len = topo.len();
        if len >= MAX_NODES {
            return Err(SimError::InvalidConfig(format!(
                "{len} routers: a network holds fewer than {MAX_NODES}"
            )));
        }
        let store = VcStore::new(len, &params, |n| {
            let mut connected = [true; Port::COUNT];
            for port in Port::ALL {
                if let Some(dir) = port.direction() {
                    connected[port.index()] = topo.neighbor(NodeId(n), dir).is_some();
                }
            }
            connected
        });
        let neighbors = (0..len)
            .map(|n| {
                let mut row = [u32::MAX; 4];
                for dir in crate::geometry::Direction::ALL {
                    if let Some(m) = topo.neighbor(NodeId(n), dir) {
                        row[dir as usize] = m.0 as u32;
                    }
                }
                row
            })
            .collect();
        Ok(Network {
            topo,
            neighbors,
            vc_classes,
            params,
            routers: vec![Router::new(); len],
            store,
            nis: (0..len).map(|_| Ni::new(&params)).collect(),
            source: BlockFifos::new(len * params.vnets),
            link_in: (0..len)
                .map(|_| (0..Port::COUNT).map(|_| VecDeque::new()).collect())
                .collect(),
            credit_in: (0..len).map(|_| VecDeque::new()).collect(),
            routing,
            ejected: Vec::new(),
            gating: GatingMode::Static,
            link_latency: std::collections::HashMap::new(),
            faults: None,
            fault_stats: FaultStats::default(),
            active: ActiveState::new(len),
            engine: StepEngine::ActiveSet,
            stage_cycles: StageCycles::default(),
            pending_credits: Vec::new(),
            pending_links: Vec::new(),
            va_scratch: vec![u8::MAX; Port::COUNT * params.vcs_per_port],
            now: 0,
        })
    }

    /// Installs a [`FaultPlan`], replacing any previous one and resetting
    /// the fault counters. An empty plan removes fault injection entirely —
    /// stepping then takes the identical code path (and produces bit-identical
    /// results) to a network that never had a plan installed.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the plan names links that are not mesh
    /// links or schedules empty windows.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        plan.validate(self.topo.as_dyn())?;
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultState::new(plan))
        };
        self.fault_stats = FaultStats::default();
        Ok(())
    }

    /// Fault consequence counters accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Whether a *finite* fault window (transient outage or router freeze)
    /// is currently active. While true, stalled flits may simply be waiting
    /// the fault out, so deadlock watchdogs should not count these cycles.
    pub fn fault_hold_active(&self) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.hold_active(self.now))
    }

    /// Whether the router at `node` is frozen by a fault at `now`.
    fn frozen(&self, node: usize, now: u64) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.router_frozen(node, now))
    }

    /// Overrides the traversal latency of the directed link `from -> to`
    /// (cycles, covering ST+LT; minimum 1).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are not topology neighbors or `cycles == 0`.
    pub fn set_link_latency(&mut self, from: NodeId, to: NodeId, cycles: u64) {
        assert!(cycles >= 1, "link latency must be at least one cycle");
        let adjacent = crate::geometry::Direction::ALL
            .into_iter()
            .any(|d| self.neighbor_of(from.0, d) == Some(to));
        assert!(adjacent, "{from} and {to} are not topology neighbors");
        self.link_latency.insert((from.0, to.0), cycles);
    }

    /// The neighbor of `node` in direction `d`, from the precomputed table.
    #[inline]
    fn neighbor_of(&self, node: usize, d: crate::geometry::Direction) -> Option<NodeId> {
        let v = self.neighbors[node][d as usize];
        (v != u32::MAX).then_some(NodeId(v as usize))
    }

    /// Narrows a vnet's VC range to the escape-class subrange the routing
    /// function assigns this hop (the dateline classes of TOPOLOGY.md).
    /// With one class — every mesh router — the range is returned untouched,
    /// which is the classic, bit-identical code path. Ejection (`Local`)
    /// keeps the full range: class discipline only orders link channels.
    #[inline]
    fn class_range(
        &self,
        node: usize,
        out_idx: usize,
        dst: NodeId,
        range: std::ops::Range<usize>,
    ) -> std::ops::Range<usize> {
        if self.vc_classes <= 1 || out_idx == Port::Local.index() {
            return range;
        }
        let class = self.routing.vc_class(
            self.topo.as_dyn(),
            NodeId(node),
            Port::from_index(out_idx),
            dst,
        );
        let sub = range.len() / self.vc_classes;
        let start = range.start + class * sub;
        start..start + sub
    }

    /// The traversal latency of the directed link `from -> to`.
    fn link_latency(&self, from: NodeId, to: NodeId) -> u64 {
        *self
            .link_latency
            .get(&(from.0, to.0))
            .unwrap_or(&self.params.link_delay)
    }

    /// Switches the gating discipline (default: [`GatingMode::Static`]).
    pub fn set_gating_mode(&mut self, mode: GatingMode) {
        let now = self.now;
        let was_reactive = matches!(self.gating, GatingMode::Reactive { .. });
        let is_reactive = matches!(mode, GatingMode::Reactive { .. });
        if was_reactive && !is_reactive {
            // Static mode stops the sleep clock: materialize open intervals.
            for r in &mut self.routers {
                if let Some(from) = r.sleep_accum_from.take() {
                    r.sleep_cycles += now - from;
                }
            }
        } else if is_reactive && !was_reactive {
            // Restart the clock for routers already asleep.
            for r in &mut self.routers {
                if r.counting && r.sleep == SleepState::Asleep {
                    r.sleep_accum_from = Some(now);
                }
            }
        }
        self.gating = mode;
        self.sync_sleep_events();
    }

    /// Per-router `(sleep_cycles, wakeups)` under reactive gating.
    ///
    /// Sleep cycles are accounted lazily: a router asleep since cycle `f`
    /// with counting enabled carries an open interval that this query adds
    /// (`now - f`) without mutating anything, so reads mid-sleep match the
    /// old per-cycle accumulation exactly.
    pub fn sleep_stats(&self) -> Vec<(u64, u64)> {
        self.routers
            .iter()
            .map(|r| {
                let open = r.sleep_accum_from.map_or(0, |from| self.now - from);
                (r.sleep_cycles + open, r.wakeups)
            })
            .collect()
    }

    /// The mesh this network is built on.
    ///
    /// # Panics
    ///
    /// Panics if the network was built on a non-mesh topology; use
    /// [`Network::topology`] for topology-agnostic access.
    pub fn mesh(&self) -> &Mesh2D {
        self.topo.as_mesh().expect("network topology is not a mesh")
    }

    /// The topology this network is built on (see TOPOLOGY.md).
    pub fn topology(&self) -> &dyn Topology {
        self.topo.as_dyn()
    }

    /// Router parameters.
    pub fn params(&self) -> &RouterParams {
        &self.params
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Read access to a router (stats, tests).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.0]
    }

    /// Flits buffered in a router's input VCs. O(1): served from the
    /// active-set occupancy counters.
    pub fn buffered_flits(&self, node: NodeId) -> usize {
        self.active.buffered[node.0] as usize
    }

    /// Credits available on an output VC (free downstream buffer slots).
    pub fn credit_count(&self, node: NodeId, port: Port, vc: usize) -> u32 {
        self.store.credits[self.store.vc_id(node.0, port.index(), vc)]
    }

    /// Whether an output VC is currently allocated to a packet.
    pub fn output_allocated(&self, node: NodeId, port: Port, vc: usize) -> bool {
        self.store.out_alloc[self.store.vc_id(node.0, port.index(), vc)] != FREE_VC
    }

    /// Per-stage busy-cycle counters accumulated since construction.
    pub fn stage_cycles(&self) -> StageCycles {
        self.stage_cycles
    }

    /// Powers routers on/off. `active[i]` corresponds to node `i`.
    ///
    /// Power-gating is an *error-checked contract*: if a flit is ever
    /// delivered to a dark router, [`Network::step`] fails with
    /// [`SimError::DarkRouterEntered`], which is how the test suite proves
    /// CDOR never uses dark resources.
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the node count.
    pub fn set_power_mask(&mut self, active: &[bool]) {
        assert_eq!(active.len(), self.routers.len(), "mask length mismatch");
        for (r, &on) in self.routers.iter_mut().zip(active) {
            r.powered_on = on;
        }
        self.sync_sleep_events();
    }

    /// Number of powered-on routers.
    pub fn powered_on_count(&self) -> usize {
        self.routers.iter().filter(|r| r.powered_on).count()
    }

    /// Enables or disables activity counting on every router (used to limit
    /// power accounting to the measurement window). Open sleep-accounting
    /// intervals are materialized (off) or started (on) so the lazy scheme
    /// matches per-cycle accumulation at the boundary.
    pub fn set_counting(&mut self, on: bool) {
        let now = self.now;
        let reactive = matches!(self.gating, GatingMode::Reactive { .. });
        for r in &mut self.routers {
            if on {
                if reactive && r.sleep == SleepState::Asleep && r.sleep_accum_from.is_none() {
                    r.sleep_accum_from = Some(now);
                }
            } else if let Some(from) = r.sleep_accum_from.take() {
                r.sleep_cycles += now - from;
            }
            r.counting = on;
        }
    }

    /// Aggregate activity over all routers.
    pub fn activity(&self) -> RouterActivity {
        self.routers
            .iter()
            .fold(RouterActivity::default(), |acc, r| acc.merge(&r.activity))
    }

    /// Per-router activity snapshot.
    pub fn activity_per_router(&self) -> Vec<RouterActivity> {
        self.routers.iter().map(|r| r.activity).collect()
    }

    /// Queues a packet at its source NI.
    ///
    /// # Panics
    ///
    /// Panics if the source node is dark (traffic generators must only drive
    /// powered-on nodes) or out of range, or if the packet does not fit a
    /// source-queue entry: an id or creation cycle past `u32::MAX`, or more
    /// than [`MAX_PACKET_FLITS`] flits.
    pub fn enqueue_packet(&mut self, p: Packet) {
        assert!(p.src.0 < self.routers.len(), "packet source out of range");
        assert!(
            p.dst.0 < self.routers.len(),
            "packet destination out of range"
        );
        assert!(
            self.routers[p.src.0].powered_on,
            "cannot inject at dark node {}",
            p.src
        );
        assert!(
            usize::from(p.vnet) < self.params.vnets,
            "packet vnet {} out of {} vnets",
            p.vnet,
            self.params.vnets
        );
        assert!(
            (1..=MAX_PACKET_FLITS).contains(&p.len),
            "packet length {} outside 1..={MAX_PACKET_FLITS} flits",
            p.len
        );
        assert!(
            u32::try_from(p.id.0).is_ok(),
            "packet id {} does not fit 32 bits",
            p.id.0
        );
        assert!(
            u32::try_from(p.created).is_ok(),
            "packet creation cycle {} does not fit 32 bits",
            p.created
        );
        let vnet = usize::from(p.vnet);
        let node = p.src.0;
        let was_idle = self.nis[node].is_idle();
        self.source
            .push_back(node * self.params.vnets + vnet, Queued::pack(&p));
        self.nis[node].queued += 1;
        self.active.queued_packets += 1;
        if was_idle {
            self.active.busy_nis += 1;
        }
        self.active.ni.insert(node);
    }

    /// Flits delivered to NIs since the last call. The buffer behind the
    /// iterator is kept for the next cycle's ejections, so draining every
    /// cycle allocates nothing once it has grown to the busiest cycle.
    pub fn drain_ejections(&mut self) -> std::vec::Drain<'_, Ejection> {
        self.ejected.drain(..)
    }

    /// Flits currently inside the network (router buffers + links);
    /// excludes packets still whole in source queues or mid-injection at an
    /// NI. O(1): served from the active-set occupancy counters.
    pub fn in_flight(&self) -> usize {
        self.active.total_buffered + self.active.total_links
    }

    /// Whether the network and all source queues are completely empty. O(1).
    pub fn is_drained(&self) -> bool {
        self.in_flight() == 0 && self.active.busy_nis == 0
    }

    /// Selects the cycle engine (default: [`StepEngine::ActiveSet`]).
    ///
    /// The engines are bit-identical at every cycle and a reference step
    /// leaves the work-lists exact, so switching mid-run is safe. The
    /// reference is for tests and the engine bench, not hot paths.
    pub fn set_step_engine(&mut self, engine: StepEngine) {
        self.engine = engine;
    }

    /// How long the network is guaranteed to produce no events.
    ///
    /// `Active` whenever any flit, credit, or busy NI exists — delivering a
    /// credit is an observable [`StepReport`] event, so credits in flight
    /// block quiescence too. Otherwise the earliest scheduled fault or
    /// sleep event bounds the quiet window.
    pub fn quiescence(&self) -> Quiescence {
        let a = &self.active;
        if a.total_buffered + a.total_links + a.total_credits + a.busy_nis > 0 {
            return Quiescence::Active;
        }
        let fault_next = self.faults.as_ref().and_then(|f| f.next_event_cycle());
        let sleep_next = a.sleep_events.first().map(|&(c, _)| c);
        match (fault_next, sleep_next) {
            (None, None) => Quiescence::Indefinite,
            (f, s) => {
                let next = f.into_iter().chain(s).min().expect("one side is Some");
                Quiescence::Until(next.max(self.now))
            }
        }
    }

    /// Fast-forwards `now` to the earlier of `bound` and the next scheduled
    /// event when the network is quiescent; returns the cycles skipped.
    ///
    /// Skipped cycles are observably identical to stepped ones: with no
    /// flits, credits, or busy NIs, every stage is a no-op and the
    /// [`StepReport`] would be all-zero, and the jump never passes a
    /// scheduled fault or sleep event (those fire when stepping resumes at
    /// the target cycle). Returns 0 under [`StepEngine::ExhaustiveSweep`],
    /// which steps every cycle as the reference, when the network is
    /// active, or when `bound <= now`.
    pub fn skip_idle_cycles(&mut self, bound: u64) -> u64 {
        if self.engine == StepEngine::ExhaustiveSweep || bound <= self.now {
            return 0;
        }
        let target = match self.quiescence() {
            Quiescence::Active => return 0,
            Quiescence::Until(t) => t.min(bound),
            Quiescence::Indefinite => bound,
        };
        let skipped = target.saturating_sub(self.now);
        self.now = target;
        skipped
    }

    /// Asserts every active-set invariant against a ground-truth rescan.
    /// Test support for the differential suite; not part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if any counter or work-list disagrees with actual state.
    #[doc(hidden)]
    pub fn validate_active_sets(&self) {
        let a = &self.active;
        let mut links = 0;
        let mut credits = 0;
        let mut buffered = 0;
        let mut busy = 0;
        let mut queued = 0;
        for node in 0..self.routers.len() {
            let l: usize = self.link_in[node].iter().map(VecDeque::len).sum();
            assert_eq!(a.link_pending[node] as usize, l, "link_pending[{node}]");
            assert!(l == 0 || a.link.contains(node), "link set missing {node}");
            let c = self.credit_in[node].len() + self.nis[node].credit_queue.len();
            assert_eq!(a.credit_pending[node] as usize, c, "credit_pending[{node}]");
            assert!(
                c == 0 || a.credit.contains(node),
                "credit set missing {node}"
            );
            let mut b = 0;
            let mut allocated = 0;
            let mut routed = 0;
            let mut active = 0;
            for port in 0..Port::COUNT {
                let pid = self.store.port_id(node, port);
                for vc in 0..self.params.vcs_per_port {
                    let id = pid * self.params.vcs_per_port + vc;
                    let occ = self.store.occupancy(id);
                    assert!(
                        self.store.has_slots(node)
                            || (occ == 0 && self.store.phase[id] == VcPhase::Idle),
                        "router {node} holds no flit slots but input VC {id} is not idle and empty"
                    );
                    assert!(
                        occ <= self.params.buffer_depth,
                        "input VC {id} holds {occ} flits, past buffer_depth {}",
                        self.params.buffer_depth
                    );
                    b += occ;
                    let bit = self.store.occ_mask[pid] & (1 << vc) != 0;
                    assert_eq!(bit, occ > 0, "occ_mask bit for vc id {id}");
                    let routed_bit = self.store.routed_mask[pid] & (1 << vc) != 0;
                    assert_eq!(
                        routed_bit,
                        self.store.phase[id] == VcPhase::Routed,
                        "routed_mask bit for vc id {id}"
                    );
                    let active_bit = self.store.active_mask[pid] & (1 << vc) != 0;
                    assert_eq!(
                        active_bit,
                        self.store.phase[id] == VcPhase::Active,
                        "active_mask bit for vc id {id}"
                    );
                    routed += u32::from(routed_bit);
                    active += u32::from(active_bit);
                    if let Some(front) = self.store.front(id) {
                        assert_eq!(
                            u64::from(self.store.head_arrived[id]),
                            front.arrived(),
                            "head mirror {id}"
                        );
                        assert_eq!(
                            self.store.head_is_head[id],
                            front.kind().is_head(),
                            "head-kind mirror {id}"
                        );
                        assert_eq!(self.store.head_vnet[id], front.vnet(), "vnet mirror {id}");
                    }
                    let holder = self.store.out_alloc[id];
                    let alloc_bit = self.store.alloc_mask[pid] & (1 << vc) != 0;
                    assert_eq!(
                        alloc_bit,
                        holder != FREE_VC,
                        "alloc_mask bit for out id {id}"
                    );
                    if holder != FREE_VC {
                        allocated += 1;
                        let holder = holder as usize;
                        assert_eq!(
                            self.store.state(holder),
                            VcState::Active {
                                out_port: Port::from_index(port),
                                out_vc: vc,
                            },
                            "output VC {id} held by input VC {holder} not pointing back"
                        );
                    }
                }
            }
            assert_eq!(
                self.store.alloc_count[node] as usize, allocated,
                "alloc_count[{node}]"
            );
            assert_eq!(
                self.store.routed_count[node], routed,
                "routed_count[{node}]"
            );
            assert_eq!(
                self.store.active_count[node], active,
                "active_count[{node}]"
            );
            assert_eq!(a.buffered[node] as usize, b, "buffered[{node}]");
            assert!(
                b == 0 || a.router.contains(node),
                "router set missing {node}"
            );
            let ni_busy = !self.nis[node].is_idle();
            assert!(!ni_busy || a.ni.contains(node), "ni set missing {node}");
            let vnets = self.params.vnets;
            let q: usize = (node * vnets..(node + 1) * vnets)
                .map(|queue| self.source.len(queue))
                .sum();
            assert_eq!(self.nis[node].queued as usize, q, "queued at NI {node}");
            links += l;
            credits += c;
            buffered += b;
            busy += usize::from(ni_busy);
            queued += q;
        }
        assert_eq!(a.total_links, links, "total_links");
        assert_eq!(a.total_credits, credits, "total_credits");
        assert_eq!(a.total_buffered, buffered, "total_buffered");
        assert_eq!(a.busy_nis, busy, "busy_nis");
        assert_eq!(a.queued_packets, queued, "queued_packets");
        assert_eq!(
            a.sleep_events.len(),
            a.sleep_event_at.iter().flatten().count(),
            "sleep event queue out of lockstep with per-node entries"
        );
        for (node, &at) in a.sleep_event_at.iter().enumerate() {
            if let Some(at) = at {
                assert!(a.sleep_events.contains(&(at, node)), "orphan entry {node}");
            }
        }
        if matches!(self.gating, GatingMode::Reactive { .. }) {
            for (node, r) in self.routers.iter().enumerate() {
                if r.powered_on && r.sleep != SleepState::Asleep {
                    assert!(
                        a.sleep_event_at[node].is_some(),
                        "router {node} is {:?} but has no armed sleep check",
                        r.sleep
                    );
                }
            }
        }
    }

    /// Advances the network by one cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DarkRouterEntered`] if a flit reaches a
    /// power-gated router, which indicates a routing-function bug, and
    /// [`SimError::LimitExceeded`] once the cycle passes `u32::MAX`, the
    /// largest a flit stores.
    pub fn step(&mut self) -> Result<StepReport, SimError> {
        self.step_observed(None)
    }

    /// Advances the network by one cycle, reporting pipeline events to an
    /// optional [`Probe`].
    ///
    /// The probe only *observes*: it receives copies of event data and never
    /// touches network state, so stepping with `Some(probe)` produces state
    /// bit-identical to stepping with `None` (pinned by the determinism
    /// suite).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Network::step`].
    pub fn step_observed(
        &mut self,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<StepReport, SimError> {
        let now = self.now;
        // Flits keep their cycle stamps in 32 bits.
        if now > u64::from(u32::MAX) {
            return Err(SimError::LimitExceeded {
                what: "cycle",
                limit: u64::from(u32::MAX),
            });
        }
        let mut events = 0usize;

        // The reference trusts no work-list: every stage visits every node.
        if self.engine == StepEngine::ExhaustiveSweep {
            let len = self.routers.len();
            let a = &mut self.active;
            for set in [
                &mut a.link,
                &mut a.credit,
                &mut a.ni,
                &mut a.router,
                &mut a.sleep_due,
            ] {
                set.fill(len);
            }
        }

        // Stage -2: report scheduled fault transitions (observation only;
        // not pipeline progress, so not counted in `events`).
        self.emit_fault_events(now, probe.as_deref_mut());

        // Stage -1: reactive sleep/wake transitions.
        self.update_sleep_states(now, probe.as_deref_mut());

        // Stage 0: deliver credits.
        let credit_events = self.deliver_credits(now);

        // Stage 1: deliver link flits (BW + RC). A dark-router contract
        // violation aborts the cycle, but credits already produced (e.g. by
        // dropping VCs) must still land in the queues.
        let link_events = match self.deliver_flits(now, probe.as_deref_mut()) {
            Ok(n) => n,
            Err(e) => {
                self.flush_pending();
                return Err(e);
            }
        };

        // Stage 2: NI injection (BW + RC at the local port).
        let inject_events = self.inject(now, probe.as_deref_mut());

        // Stage 2b: re-route (or drop) packets parked on permanently dead
        // links. No-op without a fault plan.
        events += self.fault_reroute(now, probe.as_deref_mut());

        // Stage 3: VC allocation.
        let va_events = self.vc_allocate(now, probe.as_deref_mut());

        // Stage 4: switch allocation + traversal.
        let (sa_events, ejections) = self.switch_allocate(now, probe);

        // Land this cycle's link traversals and credit returns in the
        // per-node queues (all arrivals are strictly in the future, so no
        // stage this cycle could have observed them).
        self.flush_pending();

        let sc = &mut self.stage_cycles;
        sc.credit += u64::from(credit_events > 0);
        sc.link += u64::from(link_events > 0);
        sc.inject += u64::from(inject_events > 0);
        sc.va += u64::from(va_events > 0);
        sc.sa += u64::from(sa_events > 0);
        sc.eject += u64::from(ejections > 0);
        events += credit_events + link_events + inject_events + va_events + sa_events;

        self.now += 1;
        Ok(StepReport { events, ejections })
    }

    /// Flushes the cycle's batched link traversals and credit returns into
    /// the per-node queues, updating the in-flight counters and work-lists.
    /// Append order within each queue matches the order the stage bodies
    /// produced the entries, which both engines generate identically.
    fn flush_pending(&mut self) {
        let mut credits = std::mem::take(&mut self.pending_credits);
        for pc in credits.drain(..) {
            let node = pc.node as usize;
            if pc.port == NI_PORT {
                self.nis[node]
                    .credit_queue
                    .push_back((pc.arrive, pc.vc as usize));
            } else {
                self.credit_in[node].push_back(TimedCredit {
                    arrive: pc.arrive,
                    port: pc.port,
                    vc: pc.vc,
                });
            }
            self.active.credit_pending[node] += 1;
            self.active.total_credits += 1;
            self.active.credit.insert(node);
        }
        self.pending_credits = credits;
        let mut links = std::mem::take(&mut self.pending_links);
        for pl in links.drain(..) {
            let node = pl.node as usize;
            self.link_in[node][pl.port as usize].push_back(TimedFlit {
                arrive: pl.arrive,
                flit: pl.flit,
                vc: pl.vc,
            });
            self.active.link_pending[node] += 1;
            self.active.total_links += 1;
            self.active.link.insert(node);
        }
        self.pending_links = links;
    }

    /// Emits scheduled fault transitions whose cycle has come, in schedule
    /// order, to the probe and the counters.
    fn emit_fault_events(&mut self, now: u64, mut probe: Option<&mut (dyn Probe + '_)>) {
        let Some(fs) = self.faults.as_mut() else {
            return;
        };
        while let Some((cycle, ev)) = fs.pop_event_at(now) {
            match ev {
                FaultEvent::LinkDown { .. } => self.fault_stats.link_down_events += 1,
                FaultEvent::LinkUp { .. } => self.fault_stats.link_up_events += 1,
                FaultEvent::RouterFrozen { .. } => self.fault_stats.freeze_events += 1,
                FaultEvent::RouterThawed { .. } => self.fault_stats.thaw_events += 1,
                _ => {}
            }
            if let Some(p) = probe.as_deref_mut() {
                p.on_fault(cycle, &ev);
            }
        }
    }

    /// Reactive-gating bookkeeping: complete wakeups and put idle routers to
    /// sleep. Asleep cycles are accounted lazily via `sleep_accum_from`
    /// (materialized on wake, counting changes, and stats reads), so no
    /// step pays a per-cycle scan for settled sleepers.
    fn update_sleep_states(&mut self, now: u64, mut probe: Option<&mut (dyn Probe + '_)>) {
        let GatingMode::Reactive { idle_threshold, .. } = self.gating else {
            return;
        };
        // Move due checks into `sleep_due` to visit them in node order (the
        // queue orders by cycle first, which may interleave nodes).
        while let Some(&(c, node)) = self.active.sleep_events.first() {
            if c > now {
                break;
            }
            self.active.sleep_events.pop_first();
            self.active.sleep_event_at[node] = None;
            self.active.sleep_due.insert(node);
        }
        let mut due = std::mem::take(&mut self.active.sleep_due);
        due.retain_visit(|node| {
            self.check_sleep_state(node, now, idle_threshold, probe.as_deref_mut());
            false
        });
        self.active.sleep_due = due;
    }

    /// Re-evaluates one router's sleep state. A due check has just been
    /// disarmed, so every branch that leaves the router awake re-arms one.
    /// On a router that is not due (the reference visits every node) this
    /// is a no-op: its armed check is no later than any re-arm.
    fn check_sleep_state(
        &mut self,
        node: usize,
        now: u64,
        idle_threshold: u64,
        probe: Option<&mut (dyn Probe + '_)>,
    ) {
        let r = &self.routers[node];
        if !r.powered_on {
            return;
        }
        match r.sleep {
            SleepState::Waking { ready_at } if ready_at <= now => {
                self.finish_wake(node, now, probe);
            }
            SleepState::Waking { ready_at } => {
                // Stale-early check; the wake completes at `ready_at`.
                self.arm_sleep_event(node, ready_at);
            }
            SleepState::On => {
                // A router holding buffered flits or output-VC allocations
                // must stay awake; both are O(1) counter reads.
                let holds_state =
                    self.active.buffered[node] > 0 || self.store.alloc_count[node] > 0;
                if !holds_state && now.saturating_sub(r.last_activity) >= idle_threshold {
                    self.fall_asleep(node, now, probe);
                } else {
                    // Not yet idle long enough (or blocked holding state):
                    // check again at the earliest possible sleep cycle. A
                    // busy router re-arms far ahead; only a *blocked* idle
                    // router polls cycle by cycle.
                    self.arm_sleep_event(node, (r.last_activity + idle_threshold).max(now + 1));
                }
            }
            SleepState::Asleep => {}
        }
    }

    /// Puts an idle router to sleep: state change, lazy-accounting interval
    /// start, disarm, probe event.
    fn fall_asleep(&mut self, node: usize, now: u64, probe: Option<&mut (dyn Probe + '_)>) {
        let r = &mut self.routers[node];
        r.sleep = SleepState::Asleep;
        if r.counting {
            debug_assert!(r.sleep_accum_from.is_none(), "nested sleep interval");
            r.sleep_accum_from = Some(now);
        }
        self.disarm_sleep_event(node);
        if let Some(p) = probe {
            p.on_sleep_transition(now, NodeId(node), true);
        }
    }

    /// Completes a wake: the router is operational again and its idle clock
    /// restarts, so the next sleep check is armed a full threshold out.
    fn finish_wake(&mut self, node: usize, now: u64, probe: Option<&mut (dyn Probe + '_)>) {
        let r = &mut self.routers[node];
        r.sleep = SleepState::On;
        r.last_activity = now;
        self.disarm_sleep_event(node);
        if let GatingMode::Reactive { idle_threshold, .. } = self.gating {
            self.arm_sleep_event(node, now + idle_threshold);
        }
        if let Some(p) = probe {
            p.on_sleep_transition(now, NodeId(node), false);
        }
    }

    /// Arms (or re-arms) the scheduled sleep-state check for `node`,
    /// keeping the earlier of an existing and the new cycle — early checks
    /// are re-verified and re-armed, so earlier is always safe.
    fn arm_sleep_event(&mut self, node: usize, at: u64) {
        match self.active.sleep_event_at[node] {
            Some(existing) if existing <= at => {}
            existing => {
                if let Some(existing) = existing {
                    self.active.sleep_events.remove(&(existing, node));
                }
                self.active.sleep_events.insert((at, node));
                self.active.sleep_event_at[node] = Some(at);
            }
        }
    }

    /// Removes any scheduled sleep-state check for `node`.
    fn disarm_sleep_event(&mut self, node: usize) {
        if let Some(at) = self.active.sleep_event_at[node].take() {
            self.active.sleep_events.remove(&(at, node));
        }
    }

    /// Rebuilds the sleep-event queue from router state. Called whenever
    /// gating mode or the power mask changes wholesale.
    fn sync_sleep_events(&mut self) {
        self.active.sleep_events.clear();
        self.active
            .sleep_event_at
            .iter_mut()
            .for_each(|e| *e = None);
        let GatingMode::Reactive { idle_threshold, .. } = self.gating else {
            return;
        };
        let now = self.now;
        for node in 0..self.routers.len() {
            let r = &self.routers[node];
            if !r.powered_on {
                continue;
            }
            let at = match r.sleep {
                SleepState::On => (r.last_activity + idle_threshold).max(now),
                SleepState::Waking { ready_at } => ready_at.max(now),
                SleepState::Asleep => continue,
            };
            self.arm_sleep_event(node, at);
        }
    }

    /// Triggers a wake on a sleeping router; returns whether the router can
    /// accept flits *this* cycle. A scheduled
    /// [`ScheduledFault::WakeupDelay`](crate::fault::ScheduledFault) adds its
    /// extra latency to the wake being triggered here.
    fn ensure_awake(
        &mut self,
        node: usize,
        now: u64,
        probe: Option<&mut (dyn Probe + '_)>,
    ) -> bool {
        match self.gating {
            GatingMode::Static => true,
            GatingMode::Reactive { wakeup_latency, .. } => match self.routers[node].sleep {
                SleepState::On => true,
                SleepState::Waking { .. } => false,
                SleepState::Asleep => {
                    let extra = match self.faults.as_mut() {
                        Some(fs) => fs.take_wakeup_delay(node, now),
                        None => None,
                    };
                    let mut ready_at = now + wakeup_latency;
                    if let Some(extra) = extra {
                        ready_at += extra;
                        self.fault_stats.wakeup_delays += 1;
                        if let Some(p) = probe {
                            p.on_fault(
                                now,
                                &FaultEvent::WakeupDelayed {
                                    node: NodeId(node),
                                    extra,
                                },
                            );
                        }
                    }
                    let r = &mut self.routers[node];
                    r.sleep = SleepState::Waking { ready_at };
                    // Close the lazy sleep interval: the transition cycle
                    // and this wake-trigger cycle both counted as asleep
                    // under the per-cycle sweep, hence the `+ 1`.
                    if let Some(from) = r.sleep_accum_from.take() {
                        r.sleep_cycles += now - from + 1;
                    }
                    if r.counting {
                        r.wakeups += 1;
                    }
                    self.arm_sleep_event(node, ready_at);
                    false
                }
            },
        }
    }

    fn deliver_credits(&mut self, now: u64) -> usize {
        let mut events = 0;
        let mut set = std::mem::take(&mut self.active.credit);
        set.retain_visit(|node| {
            events += self.deliver_credits_at(node, now);
            self.active.credit_pending[node] > 0
        });
        self.active.credit = set;
        events
    }

    /// Stage-0 body for one node: lands every credit whose arrival cycle
    /// has come, on both the router's output ports and the local NI.
    fn deliver_credits_at(&mut self, node: usize, now: u64) -> usize {
        let mut events = 0;
        while let Some(c) = self.credit_in[node].front() {
            if c.arrive > now {
                break;
            }
            let c = self.credit_in[node].pop_front().expect("checked front");
            let out_id = self
                .store
                .vc_id(node, usize::from(c.port), usize::from(c.vc));
            self.store.credits[out_id] += 1;
            debug_assert!(
                self.store.credits[out_id] <= self.params.buffer_depth as u32,
                "credit overflow at node {node} port {} vc {}",
                c.port,
                c.vc
            );
            self.active.credit_pending[node] -= 1;
            self.active.total_credits -= 1;
            events += 1;
        }
        let ni = &mut self.nis[node];
        while let Some(&(arrive, vc)) = ni.credit_queue.front() {
            if arrive > now {
                break;
            }
            ni.credit_queue.pop_front();
            ni.credits[vc] += 1;
            debug_assert!(ni.credits[vc] <= self.params.buffer_depth as u32);
            self.active.credit_pending[node] -= 1;
            self.active.total_credits -= 1;
            events += 1;
        }
        events
    }

    fn deliver_flits(
        &mut self,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<usize, SimError> {
        let mut events = 0;
        // The error (a dark-router contract violation) aborts the stage at
        // the offender: nodes after it are retained untouched.
        let mut err = None;
        let mut set = std::mem::take(&mut self.active.link);
        set.retain_visit(|node| {
            if err.is_none() {
                match self.deliver_flits_at(node, now, probe.as_deref_mut()) {
                    Ok(n) => events += n,
                    Err(e) => err = Some(e),
                }
            }
            self.active.link_pending[node] > 0
        });
        self.active.link = set;
        if let Some(e) = err {
            return Err(e);
        }
        Ok(events)
    }

    /// Stage-1 body for one node: lands every arrived link flit (BW + RC).
    fn deliver_flits_at(
        &mut self,
        node: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> Result<usize, SimError> {
        // A frozen router accepts nothing; arrivals wait on the link.
        if self.frozen(node, now) {
            return Ok(0);
        }
        let mut events = 0;
        for port_idx in 0..Port::COUNT {
            while let Some(tf) = self.link_in[node][port_idx].front() {
                if tf.arrive > now {
                    break;
                }
                if !self.routers[node].powered_on {
                    return Err(SimError::DarkRouterEntered {
                        node: NodeId(node),
                        cycle: now,
                    });
                }
                // Under reactive gating, an arriving flit at a sleeping
                // router triggers the wake and waits out the latency.
                if !self.ensure_awake(node, now, probe.as_deref_mut()) {
                    break;
                }
                let tf = self.link_in[node][port_idx]
                    .pop_front()
                    .expect("checked front");
                self.active.link_pending[node] -= 1;
                self.active.total_links -= 1;
                self.buffer_write(
                    node,
                    Port::from_index(port_idx),
                    usize::from(tf.vc),
                    tf.flit,
                    now,
                    probe.as_deref_mut(),
                );
                events += 1;
            }
        }
        Ok(events)
    }

    /// BW stage: writes a flit into an input VC; runs RC if it exposes a new
    /// packet head at the buffer front. A VC in [`VcState::Dropping`]
    /// consumes the flit instead (returning its credit) until the tail ends
    /// the doomed packet.
    fn buffer_write(
        &mut self,
        node: usize,
        port: Port,
        vc: usize,
        mut flit: Flit,
        now: u64,
        probe: Option<&mut (dyn Probe + '_)>,
    ) {
        debug_assert_eq!(
            self.params.vc_vnet(vc),
            flit.vnet(),
            "flit on vnet {} written into VC {vc} of another partition",
            flit.vnet()
        );
        flit.set_arrived(now);
        self.routers[node].last_activity = now;
        let id = self.store.vc_id(node, port.index(), vc);
        if self.store.phase[id] == VcPhase::Dropping {
            debug_assert!(!flit.kind().is_head(), "head flit arrived on a dropping VC");
            self.fault_stats.flits_dropped += 1;
            if flit.kind().is_tail() {
                self.store.set_phase(id, VcPhase::Idle);
            }
            self.return_credit(node, port, vc, now);
            return;
        }
        debug_assert!(
            self.store.occupancy(id) < self.params.buffer_depth,
            "buffer overflow at node {node} {port} vc {vc}: credit protocol violated"
        );
        let was_empty = self.store.occupancy(id) == 0;
        let is_head = flit.kind().is_head();
        self.store.push_flit(id, flit);
        self.active.buffered[node] += 1;
        self.active.total_buffered += 1;
        self.active.router.insert(node);
        if was_empty && is_head && self.store.phase[id] == VcPhase::Idle {
            self.resolve_route(node, port, vc, now, probe);
        }
        if self.routers[node].counting {
            self.routers[node].activity.buffer_writes += 1;
        }
    }

    /// Fault-aware route computation for a packet at `node` heading to
    /// `dst`. Without a fault plan this is exactly the plain routing
    /// function. With one, a *strict* pass avoids every currently-unusable
    /// resource (faulted links, frozen next routers); if that fails, a
    /// *lenient* pass avoids only permanently dead links, preferring to wait
    /// out transient faults on the primary route over dropping.
    fn compute_route(&self, node: usize, dst: NodeId, now: u64) -> RouteDecision {
        let Some(fs) = self.faults.as_ref() else {
            return RouteDecision::Forward(self.routing.route(
                self.topo.as_dyn(),
                NodeId(node),
                dst,
            ));
        };
        let strict =
            |a: NodeId, b: NodeId| !fs.link_faulted(a.0, b.0, now) && !fs.router_frozen(b.0, now);
        match self
            .routing
            .route_degraded(self.topo.as_dyn(), NodeId(node), dst, &strict)
        {
            RouteDecision::Forward(p) => RouteDecision::Forward(p),
            RouteDecision::Drop => {
                let lenient = |a: NodeId, b: NodeId| !fs.link_dead(a.0, b.0, now);
                self.routing
                    .route_degraded(self.topo.as_dyn(), NodeId(node), dst, &lenient)
            }
        }
    }

    /// Installs a route for the packet heading an input VC, dropping
    /// unroutable packets (and any complete follow-on packets that are also
    /// unroutable) until the VC is routed, idle, or left in
    /// [`VcState::Dropping`].
    fn resolve_route(
        &mut self,
        node: usize,
        port: Port,
        vc: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) {
        let id = self.store.vc_id(node, port.index(), vc);
        loop {
            let dst = match self.store.front(id) {
                None => {
                    self.store.set_phase(id, VcPhase::Idle);
                    return;
                }
                Some(head) => {
                    assert!(
                        head.kind().is_head(),
                        "non-head flit {head:?} at the front of an unrouted VC"
                    );
                    head.dst()
                }
            };
            match self.compute_route(node, dst, now) {
                RouteDecision::Forward(out_port) => {
                    debug_assert!(
                        self.store.connected[self.store.port_id(node, out_port.index())],
                        "routing chose unconnected port {out_port} at node {node}"
                    );
                    self.store
                        .set_state(id, VcState::RouteComputed { out_port });
                    return;
                }
                RouteDecision::Drop => {
                    if !self.drop_head_packet(node, port, vc, now, probe.as_deref_mut()) {
                        return; // VC left in Dropping; flits still in flight.
                    }
                    // Tail consumed; the VC may already hold the next
                    // packet's head — route (or drop) that one too.
                }
            }
        }
    }

    /// Discards the packet whose head flit fronts an input VC, returning a
    /// credit for every buffered flit. Returns `true` when the tail was
    /// among them (VC back to [`VcState::Idle`]); `false` when flits are
    /// still in flight and the VC stays in [`VcState::Dropping`].
    fn drop_head_packet(
        &mut self,
        node: usize,
        port: Port,
        vc: usize,
        now: u64,
        probe: Option<&mut (dyn Probe + '_)>,
    ) -> bool {
        let id = self.store.vc_id(node, port.index(), vc);
        let (packet, measured) = {
            let head = self
                .store
                .front(id)
                .expect("drop target has a buffered head flit");
            debug_assert!(head.kind().is_head());
            (head.packet(), head.measured())
        };
        self.fault_stats.packets_dropped += 1;
        if measured {
            self.fault_stats.measured_packets_dropped += 1;
        }
        if let Some(p) = probe {
            p.on_fault(
                now,
                &FaultEvent::PacketDropped {
                    node: NodeId(node),
                    packet,
                    measured,
                },
            );
        }
        loop {
            let flit = match self.store.pop_flit(id) {
                Some(f) => f,
                None => {
                    self.store.set_phase(id, VcPhase::Dropping);
                    return false;
                }
            };
            self.active.buffered[node] -= 1;
            self.active.total_buffered -= 1;
            self.fault_stats.flits_dropped += 1;
            self.return_credit(node, port, vc, now);
            if flit.kind().is_tail() {
                self.store.set_phase(id, VcPhase::Idle);
                return true;
            }
        }
    }

    /// Re-routes (or drops) packets that are parked in input VCs whose
    /// chosen output link has since died permanently. Only packets that have
    /// not sent a single flit (head still buffered) are touched — packets
    /// mid-crossing complete on the dead link, keeping faults fail-stop at
    /// packet granularity. Returns the number of actions taken.
    fn fault_reroute(&mut self, now: u64, mut probe: Option<&mut (dyn Probe + '_)>) -> usize {
        if self.faults.is_none() {
            return 0;
        }
        let mut actions = 0;
        // Parked packets have buffered head flits, so the router work-list
        // covers every candidate. Read-only iteration: the body never
        // inserts into the router set.
        let set = std::mem::take(&mut self.active.router);
        set.for_each(|node| {
            actions += self.fault_reroute_at(node, now, probe.as_deref_mut());
        });
        self.active.router = set;
        actions
    }

    /// Stage-2b body for one node: re-route or drop head-parked packets
    /// whose chosen output link has died permanently.
    fn fault_reroute_at(
        &mut self,
        node: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> usize {
        if self.frozen(node, now) {
            return 0;
        }
        let mut actions = 0;
        {
            for in_port in 0..Port::COUNT {
                for in_vc in 0..self.params.vcs_per_port {
                    let id = self.store.vc_id(node, in_port, in_vc);
                    let (out_port, held_vc) = {
                        match self.store.state(id) {
                            VcState::RouteComputed { out_port } => (out_port, None),
                            VcState::Active { out_port, out_vc } => (out_port, Some(out_vc)),
                            VcState::Idle | VcState::Dropping => continue,
                        }
                    };
                    let Port::Dir(d) = out_port else { continue };
                    let (packet, dst, is_head) = {
                        let Some(front) = self.store.front(id) else {
                            continue;
                        };
                        (front.packet(), front.dst(), front.kind().is_head())
                    };
                    if !is_head {
                        continue; // packet already crossing; let it finish
                    }
                    let next = self.neighbor_of(node, d).expect("routed off the topology");
                    let dead = self
                        .faults
                        .as_ref()
                        .is_some_and(|f| f.link_dead(node, next.0, now));
                    if !dead {
                        continue;
                    }
                    let port = Port::from_index(in_port);
                    // Release any output VC the packet holds; nothing has
                    // crossed yet, so this is safe.
                    if let Some(out_vc) = held_vc {
                        let out_id = self.store.vc_id(node, out_port.index(), out_vc);
                        self.store.free_out(node, out_id);
                    }
                    match self.compute_route(node, dst, now) {
                        RouteDecision::Forward(new_port) => {
                            debug_assert_ne!(new_port, out_port, "rerouted onto the dead link");
                            self.store
                                .set_state(id, VcState::RouteComputed { out_port: new_port });
                            self.fault_stats.reroutes += 1;
                            if let Some(p) = probe.as_deref_mut() {
                                p.on_fault(
                                    now,
                                    &FaultEvent::PacketRerouted {
                                        node: NodeId(node),
                                        packet,
                                    },
                                );
                            }
                        }
                        RouteDecision::Drop => {
                            if self.drop_head_packet(node, port, in_vc, now, probe.as_deref_mut()) {
                                self.resolve_route(node, port, in_vc, now, probe.as_deref_mut());
                            }
                        }
                    }
                    actions += 1;
                }
            }
        }
        actions
    }

    /// Returns one credit upstream for a flit that left (or was dropped
    /// from) the input VC `(port, vc)` at `node`.
    ///
    /// Credits are *staged* in [`Network::pending_credits`] and landed in
    /// the upstream queues by [`Network::flush_pending`] at the end of the
    /// step: arrivals are strictly in the future (stage 1 already ran), so
    /// batching is unobservable, and it keeps the allocator loops free of
    /// scattered queue pushes.
    fn return_credit(&mut self, node: usize, port: Port, vc: usize, now: u64) {
        let arrive = now + self.params.credit_delay;
        let vc = vc as u8;
        match port {
            Port::Local => {
                self.pending_credits.push(PendingCredit {
                    node: node as u32,
                    port: NI_PORT,
                    vc,
                    arrive,
                });
            }
            Port::Dir(d) => {
                let upstream = self
                    .neighbor_of(node, d)
                    .expect("flit entered through an edge port");
                self.pending_credits.push(PendingCredit {
                    node: upstream.0 as u32,
                    port: Port::Dir(d.opposite()).index() as u8,
                    vc,
                    arrive,
                });
            }
        }
    }

    fn inject(&mut self, now: u64, mut probe: Option<&mut (dyn Probe + '_)>) -> usize {
        let mut events = 0;
        let mut set = std::mem::take(&mut self.active.ni);
        set.retain_visit(|node| {
            events += self.inject_at(node, now, probe.as_deref_mut());
            !self.nis[node].is_idle()
        });
        self.active.ni = set;
        events
    }

    /// Stage-2 body for one node: injects at most one flit from the local
    /// NI (BW + RC at the local port).
    fn inject_at(
        &mut self,
        node: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> usize {
        // An idle NI has nothing to do (and must not trigger wake-ups).
        if self.nis[node].is_idle() {
            return 0;
        }
        // A frozen router's NI cannot inject.
        if self.frozen(node, now) {
            return 0;
        }
        // A sleeping router must wake before its NI can inject.
        if !self.ensure_awake(node, now, probe.as_deref_mut()) {
            return 0;
        }
        let mut events = 0;
        // Continue an in-progress packet first: wormhole injection never
        // interleaves two packets on the local port.
        let ni = &mut self.nis[node];
        if ni.injecting.is_none() {
            // Pick the next packet round-robin over vnet queues, then a
            // free VC within that packet's vnet partition.
            let vnets = self.params.vnets;
            'pick: for k in 0..vnets {
                let vq = (ni.vnet_rr + k) % vnets;
                let queue = node * vnets + vq;
                let Some(pkt) = self.source.front(queue).map(|q| q.unpack(node, vq)) else {
                    continue;
                };
                let range = self.params.vnet_vcs(pkt.vnet);
                let width = range.len();
                for j in 0..width {
                    let v = range.start + (ni.vc_rr + j) % width;
                    if ni.credits[v] > 0 {
                        ni.vc_rr = (v - range.start + 1) % width;
                        ni.vnet_rr = (vq + 1) % vnets;
                        ni.inject_vc = v;
                        ni.injecting = Some((pkt, 0, now));
                        ni.queued -= 1;
                        self.source.pop_front(queue);
                        self.active.queued_packets -= 1;
                        break 'pick;
                    }
                }
            }
        }
        let ni = &mut self.nis[node];
        if let Some((pkt, seq, head_cycle)) = ni.injecting {
            let v = ni.inject_vc;
            if ni.credits[v] > 0 {
                ni.credits[v] -= 1;
                let flit = pkt.flit(seq, head_cycle);
                let done = seq + 1 == pkt.len;
                self.nis[node].injecting = if done {
                    None
                } else {
                    Some((pkt, seq + 1, head_cycle))
                };
                self.buffer_write(node, Port::Local, v, flit, now, probe.as_deref_mut());
                if let Some(p) = probe {
                    p.on_injection(now, NodeId(node));
                }
                events += 1;
            }
        }
        // The whole backlog has drained once the last flit of the last
        // queued packet goes in; the early returns above never flip this.
        if self.nis[node].is_idle() {
            self.active.busy_nis -= 1;
        }
        events
    }

    /// Commits one VC-allocation grant: marks the output VC held by
    /// `(in_port, in_vc)`, flips the input VC to `Active`, and bumps the
    /// activity counter / probe. Shared by the oracle and fast VA bodies so
    /// the observable mutation is identical by construction.
    #[allow(clippy::too_many_arguments)]
    fn grant_vc(
        &mut self,
        node: usize,
        in_port: usize,
        in_vc: usize,
        out_idx: usize,
        out_vc: usize,
        now: u64,
        probe: Option<&mut (dyn Probe + '_)>,
    ) {
        let id = self.store.vc_id(node, in_port, in_vc);
        let out_id = self.store.vc_id(node, out_idx, out_vc);
        self.store.alloc_out(node, out_id, id as u32);
        self.store.set_state(
            id,
            VcState::Active {
                out_port: Port::from_index(out_idx),
                out_vc,
            },
        );
        let router = &mut self.routers[node];
        if router.counting {
            router.activity.vc_allocations += 1;
        }
        if let Some(p) = probe {
            p.on_vc_alloc(now, NodeId(node));
        }
    }

    fn vc_allocate(&mut self, now: u64, mut probe: Option<&mut (dyn Probe + '_)>) -> usize {
        let mut grants = 0;
        let reference = self.engine == StepEngine::ExhaustiveSweep;
        // VA requests need a buffered head flit, so the router work-list
        // covers every requester. Read-only iteration: granting touches
        // VC/alloc state, never buffer occupancy.
        let set = std::mem::take(&mut self.active.router);
        set.for_each(|node| {
            grants += if reference {
                self.vc_allocate_at(node, now, probe.as_deref_mut())
            } else {
                self.vc_allocate_at_fast(node, now, probe.as_deref_mut())
            };
        });
        self.active.router = set;
        grants
    }

    /// Stage-3 oracle body for one node: separable VC allocation with
    /// rotating priority per output port, written the allocation-heavy
    /// reference way (gather → filter → sort by rotated distance). The
    /// differential suite pins [`Network::vc_allocate_at_fast`] against it
    /// cycle for cycle.
    fn vc_allocate_at(
        &mut self,
        node: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> usize {
        let mut grants = 0;
        let vcs = self.params.vcs_per_port;
        let id_space = Port::COUNT * vcs;
        if !self.routers[node].is_operational() || self.frozen(node, now) {
            return 0;
        }
        {
            // Gather requests: (priority id, in_port, in_vc, out_port).
            let mut requests: Vec<(usize, usize, usize, usize)> = Vec::new();
            for in_port in 0..Port::COUNT {
                for in_vc in 0..vcs {
                    let id = self.store.vc_id(node, in_port, in_vc);
                    if let VcState::RouteComputed { out_port } = self.store.state(id) {
                        if let Some(head) = self.store.front(id) {
                            debug_assert!(head.kind().is_head());
                            if head.arrived() + self.params.va_delay <= now {
                                requests.push((
                                    in_port * vcs + in_vc,
                                    in_port,
                                    in_vc,
                                    out_port.index(),
                                ));
                            }
                        }
                    }
                }
            }
            if requests.is_empty() {
                return 0;
            }
            for out_idx in 0..Port::COUNT {
                let out_pid = self.store.port_id(node, out_idx);
                let ptr = self.store.va_rr[out_pid] as usize;
                let mut reqs: Vec<&(usize, usize, usize, usize)> = requests
                    .iter()
                    .filter(|(_, _, _, o)| *o == out_idx)
                    .collect();
                if reqs.is_empty() {
                    continue;
                }
                // Rotating priority: order by distance from the pointer.
                reqs.sort_by_key(|(id, _, _, _)| (id + id_space - ptr) % id_space);
                let mut last_granted_id = None;
                for &&(id, in_port, in_vc, _) in reqs.iter() {
                    // Grant a free output VC from the packet's own vnet
                    // partition — vnets never share VCs, which is what
                    // breaks request/response protocol-deadlock cycles —
                    // narrowed to the routing function's escape class when
                    // it declares more than one.
                    let front = self
                        .store
                        .front(self.store.vc_id(node, in_port, in_vc))
                        .expect("VA requester has a buffered head flit");
                    let (vnet, dst) = (front.vnet(), front.dst());
                    let range = self.class_range(node, out_idx, dst, self.params.vnet_vcs(vnet));
                    let out_vc = range
                        .clone()
                        .find(|&v| self.store.out_alloc[out_pid * vcs + v] == FREE_VC);
                    let Some(out_vc) = out_vc else { continue };
                    self.grant_vc(
                        node,
                        in_port,
                        in_vc,
                        out_idx,
                        out_vc,
                        now,
                        probe.as_deref_mut(),
                    );
                    last_granted_id = Some(id);
                    grants += 1;
                }
                if let Some(id) = last_granted_id {
                    self.store.va_rr[out_pid] = ((id + 1) % id_space) as u32;
                }
            }
        }
        grants
    }

    /// Stage-3 fast body for one node: the same separable rotating-priority
    /// allocator as [`Network::vc_allocate_at`], restructured to stream over
    /// the SoA arrays without allocating.
    ///
    /// Equivalence argument: each input VC requests at most one output port,
    /// so the ids in the oracle's per-output request list are unique and its
    /// stable sort by rotated distance `(id - ptr) mod id_space` yields the
    /// same visit order as scanning ids in rotated ascending order from
    /// `ptr` — which is what the scan below does, skipping non-requesters
    /// via the scratch table.
    fn vc_allocate_at_fast(
        &mut self,
        node: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> usize {
        let vcs = self.store.vcs();
        let id_space = Port::COUNT * vcs;
        // O(1) early-out: no VC on this node awaits a VC grant.
        if self.store.routed_count[node] == 0 {
            return 0;
        }
        if !self.routers[node].is_operational() || self.frozen(node, now) {
            return 0;
        }
        // Fill the request scratch: local id -> requested out port index
        // (u8::MAX = no request). A requester is Routed *and* occupied
        // (`routed & occ`), so a port with none costs two mask loads.
        let mut any = false;
        for in_port in 0..Port::COUNT {
            let in_pid = self.store.port_id(node, in_port);
            let mut mask = self.store.routed_mask[in_pid] & self.store.occ_mask[in_pid];
            while mask != 0 {
                let in_vc = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let id = in_pid * vcs + in_vc;
                if u64::from(self.store.head_arrived[id]) + self.params.va_delay <= now {
                    self.va_scratch[in_port * vcs + in_vc] = self.store.route_port[id];
                    any = true;
                }
            }
        }
        if !any {
            return 0;
        }
        let mut grants = 0;
        for out_idx in 0..Port::COUNT {
            let out_pid = self.store.port_id(node, out_idx);
            let ptr = self.store.va_rr[out_pid] as usize;
            let mut last_granted = None;
            for k in 0..id_space {
                let local = (ptr + k) % id_space;
                if self.va_scratch[local] != out_idx as u8 {
                    continue;
                }
                let (in_port, in_vc) = (local / vcs, local % vcs);
                let id = self.store.vc_id(node, in_port, in_vc);
                let mut range = self.params.vnet_vcs(self.store.head_vnet[id]);
                if self.vc_classes > 1 {
                    // Escape-class narrowing; guarded so single-class
                    // topologies never touch the front flit here.
                    let dst = self
                        .store
                        .front(id)
                        .expect("VA requester has a buffered head flit")
                        .dst();
                    range = self.class_range(node, out_idx, dst, range);
                }
                let Some(out_vc) = self.store.first_free_out_vc(out_pid, range) else {
                    continue;
                };
                self.grant_vc(
                    node,
                    in_port,
                    in_vc,
                    out_idx,
                    out_vc,
                    now,
                    probe.as_deref_mut(),
                );
                last_granted = Some(local);
                grants += 1;
            }
            if let Some(local) = last_granted {
                self.store.va_rr[out_pid] = ((local + 1) % id_space) as u32;
            }
        }
        // Clear only this node's scratch (at most id_space bytes).
        self.va_scratch[..id_space].fill(u8::MAX);
        grants
    }

    fn switch_allocate(
        &mut self,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> (usize, usize) {
        let mut grants = 0;
        let mut ejections = 0;
        let reference = self.engine == StepEngine::ExhaustiveSweep;
        // The last stage of the cycle drains the router work-list: a node
        // stays only while flits remain buffered. Traversal stages link
        // flits and credits for the end-of-step flush, never touching a
        // work-list.
        let mut set = std::mem::take(&mut self.active.router);
        set.retain_visit(|node| {
            let (g, e) = if reference {
                self.switch_allocate_at(node, now, probe.as_deref_mut())
            } else {
                self.switch_allocate_at_fast(node, now, probe.as_deref_mut())
            };
            grants += g;
            ejections += e;
            self.active.buffered[node] > 0
        });
        self.active.router = set;
        (grants, ejections)
    }

    /// Whether SA may send this flit toward `out_port` under the current
    /// fault set: a *head* flit may not start crossing a faulted link or
    /// enter a frozen router, while body and tail flits always pass —
    /// packets mid-crossing complete, keeping faults fail-stop at packet
    /// granularity (no wormhole truncation).
    #[inline]
    fn sa_fault_ok(&self, node: usize, is_head: bool, out_port: Port, now: u64) -> bool {
        if !is_head {
            return true;
        }
        if let (Port::Dir(d), Some(fs)) = (out_port, self.faults.as_ref()) {
            let next = self.neighbor_of(node, d).expect("routed off the topology");
            if fs.link_faulted(node, next.0, now) || fs.router_frozen(next.0, now) {
                return false;
            }
        }
        true
    }

    /// Stage-4 oracle body for one node: two-stage switch allocation (input
    /// then output arbitration) followed by switch/link traversal of
    /// winners, written the reference min-rank way. The differential suite
    /// pins [`Network::switch_allocate_at_fast`] against it cycle for cycle.
    fn switch_allocate_at(
        &mut self,
        node: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> (usize, usize) {
        let mut grants = 0;
        let mut ejections = 0;
        let vcs = self.params.vcs_per_port;
        if !self.routers[node].is_operational() || self.frozen(node, now) {
            return (0, 0);
        }
        {
            // SA stage 1: one candidate VC per input port.
            let mut stage1: Vec<(usize, usize, Port, usize)> = Vec::new(); // (in_port, in_vc, out_port, out_vc)
            for in_port in 0..Port::COUNT {
                let ptr = self.store.sa_in_rr[self.store.port_id(node, in_port)] as usize;
                let mut best: Option<(usize, usize, Port, usize)> = None;
                let mut best_rank = usize::MAX;
                for in_vc in 0..vcs {
                    let id = self.store.vc_id(node, in_port, in_vc);
                    let VcState::Active { out_port, out_vc } = self.store.state(id) else {
                        continue;
                    };
                    let Some(head) = self.store.front(id) else {
                        continue;
                    };
                    if head.arrived() + self.params.sa_delay > now {
                        continue;
                    }
                    // Ejection has an ideal sink: no credit check.
                    if out_port != Port::Local
                        && self.store.credits[self.store.vc_id(node, out_port.index(), out_vc)] == 0
                    {
                        continue;
                    }
                    if !self.sa_fault_ok(node, head.kind().is_head(), out_port, now) {
                        continue;
                    }
                    let rank = (in_vc + vcs - ptr) % vcs;
                    if rank < best_rank {
                        best_rank = rank;
                        best = Some((in_port, in_vc, out_port, out_vc));
                    }
                }
                if let Some(c) = best {
                    stage1.push(c);
                }
            }
            // SA stage 2: one winner per output port.
            for out_idx in 0..Port::COUNT {
                let ptr = self.store.sa_out_rr[self.store.port_id(node, out_idx)] as usize;
                let mut winner: Option<(usize, usize, Port, usize)> = None;
                let mut best_rank = usize::MAX;
                for &(in_port, in_vc, out_port, out_vc) in &stage1 {
                    if out_port.index() != out_idx {
                        continue;
                    }
                    let rank = (in_port + Port::COUNT - ptr) % Port::COUNT;
                    if rank < best_rank {
                        best_rank = rank;
                        winner = Some((in_port, in_vc, out_port, out_vc));
                    }
                }
                let Some((in_port, in_vc, out_port, out_vc)) = winner else {
                    continue;
                };
                self.grant_switch(node, in_port, in_vc, out_idx, now, probe.as_deref_mut());
                let ejected = self.traverse(
                    node,
                    in_port,
                    in_vc,
                    out_port,
                    out_vc,
                    now,
                    probe.as_deref_mut(),
                );
                grants += 1;
                if ejected {
                    ejections += 1;
                }
            }
        }
        (grants, ejections)
    }

    /// Commits one switch grant: advances both rotating-priority pointers
    /// and fires the probe. Shared by the oracle and fast SA bodies.
    fn grant_switch(
        &mut self,
        node: usize,
        in_port: usize,
        in_vc: usize,
        out_idx: usize,
        now: u64,
        probe: Option<&mut (dyn Probe + '_)>,
    ) {
        let vcs = self.store.vcs();
        let in_pid = self.store.port_id(node, in_port);
        let out_pid = self.store.port_id(node, out_idx);
        self.store.sa_in_rr[in_pid] = ((in_vc + 1) % vcs) as u32;
        self.store.sa_out_rr[out_pid] = ((in_port + 1) % Port::COUNT) as u32;
        if let Some(p) = probe {
            p.on_switch_grant(now, NodeId(node));
        }
    }

    /// Stage-4 fast body for one node: the same two-stage allocator as
    /// [`Network::switch_allocate_at`], restructured to stream over the SoA
    /// arrays with a stack-resident stage-1 table and no heap allocation.
    ///
    /// Equivalence argument: within one input port the ranks
    /// `(in_vc - ptr) mod vcs` of the eligible VCs are distinct, so the
    /// oracle's min-rank winner is exactly the first eligible VC met when
    /// scanning `in_vc` in rotated ascending order from `ptr` — and likewise
    /// for stage 2 over input ports. Stage 1 is fully computed before stage
    /// 2 commits anything in both bodies, and each winner touches a distinct
    /// `(in_port, in_vc)`, so grant order cannot change the outcome.
    fn switch_allocate_at_fast(
        &mut self,
        node: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> (usize, usize) {
        let mut grants = 0;
        let mut ejections = 0;
        let vcs = self.store.vcs();
        // O(1) early-out: no VC on this node holds an output grant.
        if self.store.active_count[node] == 0 {
            return (0, 0);
        }
        if !self.routers[node].is_operational() || self.frozen(node, now) {
            return (0, 0);
        }
        // SA stage 1: first eligible VC per input port, in rotated order
        // (equals the oracle's min-rank winner; ranks are distinct). A
        // candidate is Active *and* occupied, so the per-port candidate set
        // is one mask intersection; rotating the word by the round-robin
        // pointer makes ascending bit order exactly rank order (bits below
        // `ptr` wrap to positions `64 - ptr + v`, above every unwrapped
        // candidate since `vcs <= 64`).
        let mut stage1: [Option<(u8, u8, u8)>; Port::COUNT] = [None; Port::COUNT]; // (in_vc, out_port, out_vc)
        let mut any = false;
        for (in_port, slot) in stage1.iter_mut().enumerate() {
            let in_pid = self.store.port_id(node, in_port);
            let cand = self.store.active_mask[in_pid] & self.store.occ_mask[in_pid];
            if cand == 0 {
                continue;
            }
            let ptr = self.store.sa_in_rr[in_pid] as usize;
            let mut rot = cand.rotate_right(ptr as u32);
            while rot != 0 {
                let k = rot.trailing_zeros() as usize;
                rot &= rot - 1;
                let in_vc = (ptr + k) & 63;
                let id = in_pid * vcs + in_vc;
                if u64::from(self.store.head_arrived[id]) + self.params.sa_delay > now {
                    continue;
                }
                let out_port_idx = self.store.route_port[id] as usize;
                let out_vc = self.store.route_vc[id] as usize;
                let out_port = Port::from_index(out_port_idx);
                // Ejection has an ideal sink: no credit check.
                if out_port != Port::Local
                    && self.store.credits[self.store.vc_id(node, out_port_idx, out_vc)] == 0
                {
                    continue;
                }
                if !self.sa_fault_ok(node, self.store.head_is_head[id], out_port, now) {
                    continue;
                }
                *slot = Some((in_vc as u8, out_port_idx as u8, out_vc as u8));
                any = true;
                break;
            }
        }
        if !any {
            return (0, 0);
        }
        // SA stage 2: first matching input port per output port, in rotated
        // order from the stage-2 pointer.
        for out_idx in 0..Port::COUNT {
            let out_pid = self.store.port_id(node, out_idx);
            let ptr = self.store.sa_out_rr[out_pid] as usize;
            let mut winner = None;
            for k in 0..Port::COUNT {
                let in_port = (ptr + k) % Port::COUNT;
                if let Some((in_vc, op, ov)) = stage1[in_port] {
                    if op as usize == out_idx {
                        winner = Some((in_port, in_vc as usize, ov as usize));
                        break;
                    }
                }
            }
            let Some((in_port, in_vc, out_vc)) = winner else {
                continue;
            };
            self.grant_switch(node, in_port, in_vc, out_idx, now, probe.as_deref_mut());
            let ejected = self.traverse(
                node,
                in_port,
                in_vc,
                Port::from_index(out_idx),
                out_vc,
                now,
                probe.as_deref_mut(),
            );
            grants += 1;
            if ejected {
                ejections += 1;
            }
        }
        (grants, ejections)
    }

    /// ST + LT for one granted flit; returns whether it was an ejection.
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        &mut self,
        node: usize,
        in_port: usize,
        in_vc: usize,
        out_port: Port,
        out_vc: usize,
        now: u64,
        mut probe: Option<&mut (dyn Probe + '_)>,
    ) -> bool {
        let id = self.store.vc_id(node, in_port, in_vc);
        let flit = self.store.pop_flit(id).expect("SA granted an empty VC");
        {
            let router = &mut self.routers[node];
            router.last_activity = now;
            if router.counting {
                router.activity.buffer_reads += 1;
                router.activity.crossbar_traversals += 1;
                router.activity.switch_allocations += 1;
                if out_port != Port::Local {
                    router.activity.link_flits += 1;
                }
            }
        }
        self.active.buffered[node] -= 1;
        self.active.total_buffered -= 1;

        // Credit return for the freed input slot.
        let in_port_t = Port::from_index(in_port);
        self.return_credit(node, in_port_t, in_vc, now);

        // Downstream delivery.
        let is_tail = flit.kind().is_tail();
        let ejected = match out_port {
            Port::Local => {
                self.ejected.push(Ejection {
                    flit,
                    at: now + self.params.link_delay,
                });
                if let Some(p) = probe.as_deref_mut() {
                    p.on_ejection(now, NodeId(node));
                }
                true
            }
            Port::Dir(d) => {
                // Consume a downstream credit.
                let out_id = self.store.vc_id(node, out_port.index(), out_vc);
                debug_assert!(self.store.credits[out_id] > 0, "SA granted without credit");
                self.store.credits[out_id] -= 1;
                let next = self
                    .neighbor_of(node, d)
                    .expect("routing sent flit off the topology");
                let next_in_port = Port::Dir(d.opposite()).index();
                let latency = self.link_latency(NodeId(node), next);
                // Staged, landed by flush_pending at end of step: at most
                // one flit per (node, port) queue per cycle, and arrivals
                // are strictly after this cycle's stage 1, so batching is
                // unobservable.
                self.pending_links.push(PendingLink {
                    arrive: now + latency,
                    flit,
                    node: next.0 as u32,
                    port: next_in_port as u8,
                    vc: out_vc as u8,
                });
                if let Some(p) = probe.as_deref_mut() {
                    p.on_link_traversal(now, NodeId(node), next);
                }
                false
            }
        };

        if is_tail {
            // Release the output VC and recycle the input VC: route the next
            // buffered head (fault-aware), or go idle.
            let out_id = self.store.vc_id(node, out_port.index(), out_vc);
            self.store.free_out(node, out_id);
            self.store.set_phase(id, VcPhase::Idle);
            if self.store.occupancy(id) > 0 {
                self.resolve_route(node, in_port_t, in_vc, now, probe);
            }
        }
        ejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlitKind, PacketId};
    use crate::routing::XyRouting;

    fn net() -> Network {
        Network::new(
            Mesh2D::paper_4x4(),
            RouterParams::paper(),
            Box::new(XyRouting),
        )
        .unwrap()
    }

    fn packet(id: u64, src: usize, dst: usize, len: u32, created: u64) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            len,
            created,
            measured: true,
            vnet: 0,
        }
    }

    fn run_until_drained(net: &mut Network, max_cycles: u64) -> Vec<Ejection> {
        let mut ejections = Vec::new();
        for _ in 0..max_cycles {
            net.step().unwrap();
            ejections.extend(net.drain_ejections());
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained(), "network failed to drain");
        ejections
    }

    #[test]
    fn queued_entry_rebuilds_the_packet() {
        for (measured, len, vnet) in [(true, 5, 0), (false, 1, 1), (true, MAX_PACKET_FLITS, 3)] {
            let p = Packet {
                measured,
                len,
                vnet,
                ..packet(u64::from(u32::MAX), 6, 15, 1, u64::from(u32::MAX) - 1)
            };
            assert_eq!(Queued::pack(&p).unpack(6, usize::from(vnet)), p);
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=127 flits")]
    fn oversized_packet_length_is_rejected() {
        net().enqueue_packet(packet(1, 0, 15, MAX_PACKET_FLITS + 1, 0));
    }

    #[test]
    #[should_panic(expected = "packet id 4294967296 does not fit 32 bits")]
    fn packet_id_past_32_bits_is_rejected() {
        let mut net = net();
        net.enqueue_packet(packet(u64::from(u32::MAX), 0, 15, 1, 0));
        net.enqueue_packet(packet(u64::from(u32::MAX) + 1, 0, 15, 1, 0));
    }

    #[test]
    #[should_panic(expected = "creation cycle 4294967296 does not fit 32 bits")]
    fn creation_cycle_past_32_bits_is_rejected() {
        net().enqueue_packet(packet(1, 0, 15, 1, u64::from(u32::MAX) + 1));
    }

    #[test]
    fn stepping_past_the_32_bit_cycle_is_an_error() {
        let mut net = net();
        assert_eq!(
            net.skip_idle_cycles(u64::from(u32::MAX)),
            u64::from(u32::MAX)
        );
        net.step().expect("the last 32-bit cycle still steps");
        match net.step() {
            Err(SimError::LimitExceeded { what, limit }) => {
                assert_eq!((what, limit), ("cycle", u64::from(u32::MAX)));
            }
            other => panic!("expected a cycle limit error, got {other:?}"),
        }
    }

    #[test]
    fn single_packet_is_delivered_intact() {
        let mut net = net();
        net.enqueue_packet(packet(1, 0, 15, 5, 0));
        let ej = run_until_drained(&mut net, 500);
        assert_eq!(ej.len(), 5, "all 5 flits delivered");
        assert!(ej.iter().all(|e| e.flit.dst() == NodeId(15)));
        let kinds: Vec<FlitKind> = ej.iter().map(|e| e.flit.kind()).collect();
        assert_eq!(kinds[0], FlitKind::Head);
        assert_eq!(kinds[4], FlitKind::Tail);
        // Flits of one packet arrive in order.
        let seqs: Vec<u32> = ej.iter().map(|e| e.flit.seq()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn self_addressed_packet_is_delivered_locally() {
        let mut net = net();
        net.enqueue_packet(packet(1, 5, 5, 5, 0));
        let ej = run_until_drained(&mut net, 200);
        assert_eq!(ej.len(), 5);
        assert!(ej
            .iter()
            .all(|e| e.flit.src() == NodeId(5) && e.flit.dst() == NodeId(5)));
    }

    #[test]
    fn many_packets_all_delivered_no_loss_no_dup() {
        let mut net = net();
        let mut expected = 0u64;
        let mut id = 0;
        for src in 0..16 {
            for dst in 0..16 {
                net.enqueue_packet(packet(id, src, dst, 5, 0));
                id += 1;
                expected += 5;
            }
        }
        let ej = run_until_drained(&mut net, 20_000);
        assert_eq!(ej.len() as u64, expected);
        // No duplicated (packet, seq) pairs.
        let mut seen = std::collections::HashSet::new();
        for e in &ej {
            assert!(
                seen.insert((e.flit.packet(), e.flit.seq())),
                "duplicate flit"
            );
        }
    }

    #[test]
    fn stage_busy_counters_track_work() {
        let mut net = net();
        // Idle stepping adds nothing.
        for _ in 0..5 {
            net.step().unwrap();
        }
        assert_eq!(net.stage_cycles(), StageCycles::default());
        net.enqueue_packet(packet(1, 0, 15, 5, 0));
        run_until_drained(&mut net, 500);
        let sc = net.stage_cycles();
        // 5 flits injected one per cycle; every stage saw work at least once.
        assert!(sc.inject >= 5, "inject busy {} < 5", sc.inject);
        assert!(sc.va >= 1);
        assert!(sc.sa >= 5, "sa busy {} < 5", sc.sa);
        assert!(sc.link >= 5);
        assert!(sc.credit >= 5);
        assert!(sc.eject >= 5);
        // A busy-cycle counter never exceeds elapsed cycles.
        assert!(sc.sa <= net.now());
        // Both engines count identically.
        let mut a = self::net();
        let mut b = self::net();
        b.set_step_engine(StepEngine::ExhaustiveSweep);
        for n in [&mut a, &mut b] {
            n.enqueue_packet(packet(2, 3, 12, 5, 0));
            run_until_drained(n, 500);
        }
        assert_eq!(a.stage_cycles(), b.stage_cycles());
    }

    #[test]
    fn dark_router_entry_is_reported() {
        let mut net = net();
        // Gate node 1, which is on the XY path 0 -> 3.
        let mut mask = vec![true; 16];
        mask[1] = false;
        net.set_power_mask(&mask);
        net.enqueue_packet(packet(1, 0, 3, 1, 0));
        let mut saw_err = false;
        for _ in 0..100 {
            match net.step() {
                Err(SimError::DarkRouterEntered { node, .. }) => {
                    assert_eq!(node, NodeId(1));
                    saw_err = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_err, "dark-router violation not detected");
    }

    #[test]
    fn injection_at_dark_node_panics() {
        let mut net = net();
        let mut mask = vec![true; 16];
        mask[7] = false;
        net.set_power_mask(&mask);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.enqueue_packet(packet(1, 7, 0, 1, 0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn credits_are_conserved() {
        // After draining, every output port must be back to full credits.
        let mut net = net();
        for i in 0..40 {
            net.enqueue_packet(packet(i, (i % 16) as usize, ((i * 7) % 16) as usize, 5, 0));
        }
        run_until_drained(&mut net, 20_000);
        // Let residual credits in flight land.
        for _ in 0..10 {
            net.step().unwrap();
        }
        for n in net.mesh().nodes() {
            for p in Port::ALL {
                for v in 0..4 {
                    assert_eq!(
                        net.credit_count(n, p, v),
                        4,
                        "node {n} port {p:?} vc {v} did not return to full credits"
                    );
                    assert!(!net.output_allocated(n, p, v));
                }
            }
        }
    }

    #[test]
    fn activity_counts_only_when_enabled() {
        let mut net = net();
        net.enqueue_packet(packet(1, 0, 3, 5, 0));
        run_until_drained(&mut net, 500);
        assert_eq!(net.activity().buffer_writes, 0, "counting disabled");

        net.set_counting(true);
        net.enqueue_packet(packet(2, 0, 3, 5, 0));
        run_until_drained(&mut net, 500);
        let act = net.activity();
        // 5 flits x 4 routers on path (0,1,2,3) buffer writes.
        assert_eq!(act.buffer_writes, 20);
        assert_eq!(act.buffer_reads, 20);
        assert_eq!(act.crossbar_traversals, 20);
        // 3 link hops x 5 flits (ejection not counted as link).
        assert_eq!(act.link_flits, 15);
        // One VC allocation per router on the path.
        assert_eq!(act.vc_allocations, 4);
    }

    #[test]
    fn wormhole_blocks_do_not_interleave_packets_per_vc() {
        // Saturate one destination from many sources; afterwards verify
        // per-packet flit order at ejection was strictly sequential.
        let mut net = net();
        for i in 0..30 {
            net.enqueue_packet(packet(i, (i % 15) as usize, 15, 5, 0));
        }
        let ej = run_until_drained(&mut net, 30_000);
        let mut next_seq: std::collections::HashMap<PacketId, u32> = Default::default();
        for e in &ej {
            let want = next_seq.entry(e.flit.packet()).or_insert(0);
            assert_eq!(
                e.flit.seq(),
                *want,
                "packet {:?} out of order",
                e.flit.packet()
            );
            *want += 1;
        }
        for (_, n) in next_seq {
            assert_eq!(n, 5);
        }
    }

    fn packet_on_vnet(id: u64, src: usize, dst: usize, len: u32, vnet: u8) -> Packet {
        Packet {
            vnet,
            ..packet(id, src, dst, len, 0)
        }
    }

    #[test]
    fn two_vnet_traffic_is_delivered_and_partitioned() {
        let mut net = Network::new(
            Mesh2D::paper_4x4(),
            RouterParams::paper_two_vnets(),
            Box::new(XyRouting),
        )
        .unwrap();
        for i in 0..40 {
            let vnet = (i % 2) as u8;
            net.enqueue_packet(packet_on_vnet(
                i,
                (i % 16) as usize,
                ((i * 3) % 16) as usize,
                5,
                vnet,
            ));
        }
        // Debug asserts inside buffer_write enforce the partitioning.
        let ej = run_until_drained(&mut net, 50_000);
        assert_eq!(ej.len(), 40 * 5);
        assert!(ej.iter().any(|e| e.flit.vnet() == 0));
        assert!(ej.iter().any(|e| e.flit.vnet() == 1));
    }

    #[test]
    fn vnet_out_of_range_is_rejected() {
        let mut net = net(); // single-vnet config
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.enqueue_packet(packet_on_vnet(1, 0, 1, 1, 1));
        }));
        assert!(
            result.is_err(),
            "vnet 1 must be rejected on a 1-vnet network"
        );
    }

    #[test]
    fn vnets_do_not_starve_each_other() {
        // Saturate vnet 0 with a heavy stream; a single vnet-1 packet must
        // still get through promptly (its VC partition is private).
        let mut net = Network::new(
            Mesh2D::paper_4x4(),
            RouterParams::paper_two_vnets(),
            Box::new(XyRouting),
        )
        .unwrap();
        for i in 0..100 {
            net.enqueue_packet(packet_on_vnet(i, 0, 3, 5, 0));
        }
        net.enqueue_packet(packet_on_vnet(1000, 0, 3, 1, 1));
        let mut vnet1_at = None;
        for _ in 0..20_000 {
            net.step().unwrap();
            for e in net.drain_ejections() {
                if e.flit.vnet() == 1 && vnet1_at.is_none() {
                    vnet1_at = Some(e.at);
                }
            }
            if net.is_drained() {
                break;
            }
        }
        let at = vnet1_at.expect("vnet-1 packet delivered");
        // It must not wait for the entire vnet-0 stream (500 flits at
        // 1/cycle would be ~500+ cycles).
        assert!(at < 400, "vnet-1 packet delayed to {at}");
    }

    #[test]
    fn reactive_gating_puts_idle_routers_to_sleep() {
        let mut net = net();
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold: 50,
            wakeup_latency: 10,
        });
        net.set_counting(true);
        // No traffic at all: every router should sleep after the threshold.
        for _ in 0..200 {
            net.step().unwrap();
        }
        let stats = net.sleep_stats();
        for (i, &(sleep, wake)) in stats.iter().enumerate() {
            assert!(sleep >= 140, "router {i} slept only {sleep} cycles");
            assert_eq!(wake, 0, "router {i} woke without traffic");
        }
    }

    #[test]
    fn reactive_wakeup_delays_delivery() {
        // Same single packet, with and without reactive gating on a cold
        // network: the gated run pays wakeup latency at every hop.
        let deliver = |reactive: bool| -> u64 {
            let mut net = net();
            if reactive {
                net.set_gating_mode(GatingMode::Reactive {
                    idle_threshold: 1, // sleep almost immediately
                    wakeup_latency: 8,
                });
                // Let everything fall asleep.
                for _ in 0..20 {
                    net.step().unwrap();
                }
            }
            net.enqueue_packet(packet(1, 0, 3, 1, net.now()));
            let mut last = 0;
            for _ in 0..2000 {
                net.step().unwrap();
                if let Some(e) = net.drain_ejections().next_back() {
                    last = e.at - e.flit.created();
                    break;
                }
                if net.is_drained() {
                    break;
                }
            }
            assert!(last > 0, "packet not delivered");
            last
        };
        let cold = deliver(true);
        let warm = deliver(false);
        assert!(
            cold >= warm + 8,
            "reactive run {cold} must pay at least one wakeup over {warm}"
        );
    }

    #[test]
    fn reactive_gating_still_delivers_everything() {
        let mut net = net();
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold: 20,
            wakeup_latency: 10,
        });
        for i in 0..30 {
            net.enqueue_packet(packet(i, (i % 16) as usize, ((i * 5) % 16) as usize, 5, 0));
        }
        let ej = run_until_drained(&mut net, 30_000);
        assert_eq!(ej.len(), 30 * 5);
    }

    #[test]
    fn busy_routers_do_not_sleep() {
        let mut net = net();
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold: 5,
            wakeup_latency: 50,
        });
        net.set_counting(true);
        // Saturating stream through node 1 keeps the path awake.
        for i in 0..200 {
            net.enqueue_packet(packet(i, 0, 3, 5, 0));
        }
        let ej = run_until_drained(&mut net, 100_000);
        assert_eq!(ej.len(), 1000);
        // Path routers (0..3) should have negligible sleep compared to far
        // corner routers.
        let stats = net.sleep_stats();
        assert!(
            stats[12].0 > stats[1].0,
            "corner should sleep more than path"
        );
    }

    #[test]
    fn slow_link_delays_delivery_proportionally() {
        // Same packet with/without a 6-cycle link 0->1 on a 0->3 path.
        let deliver = |slow: bool| -> u64 {
            let mut net = net();
            if slow {
                net.set_link_latency(NodeId(0), NodeId(1), 6);
            }
            net.enqueue_packet(packet(1, 0, 3, 1, 0));
            let ej = run_until_drained(&mut net, 500);
            ej[0].at
        };
        let fast = deliver(false);
        let slow = deliver(true);
        assert_eq!(
            slow,
            fast + 4,
            "6-cycle link replaces the default 2-cycle one"
        );
    }

    #[test]
    fn link_latency_default_matches_params() {
        let net = net();
        assert_eq!(net.link_latency(NodeId(0), NodeId(1)), 2);
    }

    #[test]
    #[should_panic(expected = "not topology neighbors")]
    fn non_neighbor_link_override_panics() {
        let mut net = net();
        net.set_link_latency(NodeId(0), NodeId(5), 3);
    }

    #[test]
    fn static_mode_never_sleeps() {
        let mut net = net();
        net.set_counting(true);
        for _ in 0..500 {
            net.step().unwrap();
        }
        assert!(net.sleep_stats().iter().all(|&(s, w)| s == 0 && w == 0));
    }

    #[test]
    fn step_reports_progress_events() {
        let mut net = net();
        net.enqueue_packet(packet(1, 0, 1, 1, 0));
        let mut total_events = 0;
        for _ in 0..50 {
            total_events += net.step().unwrap().events;
        }
        assert!(total_events > 0);
    }

    #[test]
    fn active_set_invariants_hold_through_traffic() {
        let mut net = net();
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold: 15,
            wakeup_latency: 6,
        });
        for i in 0..25 {
            net.enqueue_packet(packet(i, (i % 16) as usize, ((i * 7) % 16) as usize, 5, 0));
        }
        for _ in 0..400 {
            net.step().unwrap();
            net.validate_active_sets();
            net.drain_ejections();
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained());
        // Settle and re-check with the network idle.
        for _ in 0..100 {
            net.step().unwrap();
        }
        net.validate_active_sets();
    }

    #[test]
    fn engines_are_bit_identical_per_cycle() {
        let feed = |net: &mut Network| {
            for i in 0..30 {
                net.enqueue_packet(packet(i, (i % 16) as usize, ((i * 5) % 16) as usize, 4, 0));
            }
        };
        let mut active = net();
        let mut oracle = net();
        oracle.set_step_engine(StepEngine::ExhaustiveSweep);
        assert_eq!(active.engine, StepEngine::ActiveSet);
        feed(&mut active);
        feed(&mut oracle);
        for cycle in 0..600 {
            let a = active.step().unwrap();
            let o = oracle.step().unwrap();
            assert_eq!(a, o, "step reports diverged at cycle {cycle}");
            assert!(
                active.drain_ejections().eq(oracle.drain_ejections()),
                "ejections diverged at cycle {cycle}"
            );
            assert_eq!(active.in_flight(), oracle.in_flight());
            if active.is_drained() && oracle.is_drained() {
                break;
            }
        }
        assert!(active.is_drained() && oracle.is_drained());
    }

    fn members(set: &NodeSet) -> Vec<usize> {
        let mut out = Vec::new();
        set.for_each(|n| out.push(n));
        out
    }

    /// `NodeSet` against a `BTreeSet` reference at and around word
    /// boundaries: `fill` sets exactly `0..len` (the tail word masked),
    /// `for_each` visits in ascending order, and `retain_visit` visits every
    /// member once and drops exactly the rejected ones.
    #[test]
    fn node_set_matches_btreeset_reference() {
        for len in [1, 63, 64, 65, 130] {
            let mut set = NodeSet::new(len);
            set.insert(len - 1);
            set.fill(len);
            assert_eq!(members(&set), (0..len).collect::<Vec<_>>(), "fill({len})");
            assert_eq!(set.words.len(), len.div_ceil(64), "fill({len}) word count");

            let mut set = NodeSet::new(len);
            let mut reference = BTreeSet::new();
            for k in (0..len).filter(|k| k % 3 != 0) {
                let n = (k * 37 + 11) % len;
                set.insert(n);
                reference.insert(n);
            }
            let expected: Vec<usize> = reference.iter().copied().collect();
            assert_eq!(members(&set), expected, "for_each order at {len}");
            let mut visited = Vec::new();
            set.retain_visit(|n| {
                visited.push(n);
                n % 5 != 2
            });
            assert_eq!(visited, expected, "retain_visit order at {len}");
            reference.retain(|n| n % 5 != 2);
            assert_eq!(members(&set), reference.iter().copied().collect::<Vec<_>>());
            for n in 0..len {
                assert_eq!(set.contains(n), reference.contains(&n), "node {n} of {len}");
            }
        }
    }

    /// The reference engine checks the work-lists instead of trusting them:
    /// with a queued packet's NI dropped from its list, the reference still
    /// injects while the active-set engine, which visits only the list,
    /// does not.
    #[test]
    fn reference_engine_ignores_the_work_lists() {
        for (engine, injects) in [
            (StepEngine::ExhaustiveSweep, true),
            (StepEngine::ActiveSet, false),
        ] {
            let mut net = net();
            net.set_step_engine(engine);
            net.enqueue_packet(packet(1, 0, 15, 5, 0));
            net.active.ni = NodeSet::new(net.routers.len());
            let report = net.step().unwrap();
            assert_eq!(report.events > 0, injects, "{engine:?}");
            assert_eq!(net.stage_cycles().inject, u64::from(injects), "{engine:?}");
        }
    }

    #[test]
    fn engine_switch_mid_run_is_safe() {
        let mut net = net();
        for i in 0..20 {
            net.enqueue_packet(packet(i, (i % 16) as usize, ((i * 3) % 16) as usize, 5, 0));
        }
        for cycle in 0..2_000 {
            if cycle % 7 == 3 {
                net.set_step_engine(StepEngine::ExhaustiveSweep);
            } else {
                net.set_step_engine(StepEngine::ActiveSet);
            }
            net.step().unwrap();
            net.validate_active_sets();
            net.drain_ejections();
            if net.is_drained() {
                break;
            }
        }
        assert!(net.is_drained(), "mixed-engine run failed to drain");
    }

    #[test]
    fn quiescence_tracks_pending_work() {
        let mut net = net();
        assert_eq!(net.quiescence(), Quiescence::Indefinite, "empty network");
        net.enqueue_packet(packet(1, 0, 3, 1, 0));
        assert_eq!(net.quiescence(), Quiescence::Active, "busy NI");
        let mut guard = 0;
        while !net.is_drained() {
            net.step().unwrap();
            guard += 1;
            assert!(guard < 500);
        }
        // Credits may still be in flight right after the last ejection.
        while net.quiescence() == Quiescence::Active {
            net.step().unwrap();
            guard += 1;
            assert!(guard < 500);
        }
        assert_eq!(net.quiescence(), Quiescence::Indefinite, "fully settled");
    }

    #[test]
    fn skip_idle_cycles_jumps_quiescent_network() {
        let mut net = net();
        assert_eq!(net.skip_idle_cycles(1_000), 1_000, "indefinitely quiet");
        assert_eq!(net.now(), 1_000);
        assert_eq!(net.skip_idle_cycles(500), 0, "bound in the past");
        net.set_step_engine(StepEngine::ExhaustiveSweep);
        assert_eq!(net.skip_idle_cycles(2_000), 0, "the reference never skips");
        net.set_step_engine(StepEngine::ActiveSet);
        net.enqueue_packet(packet(1, 0, 3, 1, 1_000));
        assert_eq!(net.skip_idle_cycles(2_000), 0, "active network never skips");
    }

    #[test]
    fn skip_idle_cycles_stops_at_sleep_events() {
        let mut net = net();
        net.set_gating_mode(GatingMode::Reactive {
            idle_threshold: 50,
            wakeup_latency: 10,
        });
        net.set_counting(true);
        // Every router arms a sleep check at cycle 50; the skip must stop
        // there, not jump the whole window.
        let skipped = net.skip_idle_cycles(10_000);
        assert_eq!(skipped, 50, "must stop at the first scheduled sleep check");
        // Stepping/skipping through the events must reproduce the same
        // sleep accounting as stepping every cycle (see
        // reactive_gating_puts_idle_routers_to_sleep). Once every router is
        // asleep no events remain armed and the skip jumps straight to the
        // bound.
        while net.now() < 200 {
            if net.skip_idle_cycles(200) == 0 {
                net.step().unwrap();
            }
            net.validate_active_sets();
        }
        for (i, &(sleep, wake)) in net.sleep_stats().iter().enumerate() {
            assert_eq!(sleep, 150, "router {i} slept {sleep} of 150 cycles");
            assert_eq!(wake, 0);
        }
    }
}
