//! Deterministic fault injection: schedules, runtime state and statistics.
//!
//! The fault model is **schedule-driven**: every fault is fixed in a
//! [`FaultPlan`] *before* the simulation starts, so stepping consumes no
//! randomness and the same `(plan, traffic seed)` pair replays
//! bit-identically at any worker count. Four fault classes are modeled
//! (see `FAULT_MODEL.md` at the repository root for the full taxonomy and
//! semantics):
//!
//! - [`ScheduledFault::LinkDrop`] — a *transient* outage of one directed
//!   link over a half-open cycle window `[start, end)`,
//! - [`ScheduledFault::LinkKill`] — a *permanent* failure of one directed
//!   link from a given cycle on,
//! - [`ScheduledFault::RouterFreeze`] — a router stops accepting, arbitrating
//!   and forwarding flits over a finite window (buffered flits are retained),
//! - [`ScheduledFault::WakeupDelay`] — under reactive gating, the next
//!   sleep-to-wake transition of a router pays extra latency (a wake-up that
//!   "doesn't complete on time").
//!
//! Faults are **fail-stop at packet granularity**: a fault only blocks
//! packets that have not started crossing the affected resource (head flits);
//! packets already mid-crossing complete, which preserves the wormhole
//! invariant that a packet's flits stay contiguous per VC and never strands
//! a partial packet downstream.
//!
//! ```
//! use noc_sim::fault::FaultPlan;
//! use noc_sim::geometry::NodeId;
//! use noc_sim::topology::Mesh2D;
//!
//! let mesh = Mesh2D::paper_4x4();
//! let plan = FaultPlan::new()
//!     .link_drop(NodeId(0), NodeId(1), 100, 200) // transient outage
//!     .link_kill(NodeId(5), NodeId(6), 500);     // permanent failure
//! assert!(plan.validate(&mesh).is_ok());
//! assert_eq!(plan.len(), 2);
//! ```

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;
use crate::geometry::{Direction, NodeId};
use crate::packet::PacketId;
use crate::probe::Probe;
use crate::topology::{topo_nodes, Topology};

/// One scheduled fault in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduledFault {
    /// Transient outage of the directed link `from -> to` over the half-open
    /// window `[start, end)`: new packets cannot start crossing while it is
    /// active; the link recovers at `end`.
    LinkDrop {
        /// Upstream node of the directed link.
        from: NodeId,
        /// Downstream node of the directed link.
        to: NodeId,
        /// First faulty cycle.
        start: u64,
        /// First healthy cycle again (exclusive end).
        end: u64,
    },
    /// Permanent failure of the directed link `from -> to` from cycle `at`
    /// on: packets are re-routed around it or cleanly dropped.
    LinkKill {
        /// Upstream node of the directed link.
        from: NodeId,
        /// Downstream node of the directed link.
        to: NodeId,
        /// First faulty cycle (never recovers).
        at: u64,
    },
    /// The router at `node` freezes over `[start, end)`: it accepts no
    /// flits, runs no allocation and forwards nothing, but retains all
    /// buffered state and resumes at `end`. Windows must be finite so no
    /// flit is stranded forever.
    RouterFreeze {
        /// The frozen router.
        node: NodeId,
        /// First frozen cycle.
        start: u64,
        /// First operational cycle again (exclusive end).
        end: u64,
    },
    /// Under [`GatingMode::Reactive`](crate::network::GatingMode), the first
    /// sleep-to-wake transition of `node` at or after cycle `at` takes
    /// `extra` additional cycles (a delayed wake-up). One-shot.
    WakeupDelay {
        /// The router whose wake-up is delayed.
        node: NodeId,
        /// Earliest cycle the delay applies to.
        at: u64,
        /// Additional wake-up latency in cycles.
        extra: u64,
    },
}

/// A deterministic schedule of faults, fixed before the run starts.
///
/// Build one with the chained setters ([`FaultPlan::link_drop`], …), with
/// [`FaultPlan::kill_router`] for whole-router failures, or sample one with
/// [`FaultPlan::random`]. An empty plan is exactly equivalent to no fault
/// injection at all — the simulator takes the identical code path, so
/// results are bit-identical (pinned by the fault-injection test suite).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

/// Knobs for [`FaultPlan::random`]: expected fault intensity per resource
/// over a scheduling horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomFaultConfig {
    /// Cycle horizon over which fault start times are drawn.
    pub horizon: u64,
    /// Probability that a given directed link suffers one transient outage.
    pub transient_prob: f64,
    /// Minimum transient outage length in cycles.
    pub outage_min: u64,
    /// Maximum transient outage length in cycles.
    pub outage_max: u64,
    /// Number of directed links to kill permanently.
    pub permanent_kills: usize,
    /// Probability that a given router suffers one freeze window.
    pub freeze_prob: f64,
    /// Minimum freeze length in cycles.
    pub freeze_min: u64,
    /// Maximum freeze length in cycles.
    pub freeze_max: u64,
    /// Probability that a given router gets one delayed wake-up.
    pub wakeup_delay_prob: f64,
    /// Extra wake-up latency in cycles for delayed wake-ups.
    pub wakeup_extra: u64,
}

impl RandomFaultConfig {
    /// A gentle default: occasional short transient outages, no permanent
    /// kills, no freezes.
    pub fn light(horizon: u64) -> Self {
        RandomFaultConfig {
            horizon,
            transient_prob: 0.1,
            outage_min: 20,
            outage_max: 100,
            permanent_kills: 0,
            freeze_prob: 0.0,
            freeze_min: 20,
            freeze_max: 100,
            wakeup_delay_prob: 0.0,
            wakeup_extra: 50,
        }
    }

    /// Scales the per-resource probabilities and kill count by `factor`
    /// (clamping probabilities to 1.0) — the knob the `resilience` bench
    /// sweeps.
    pub fn scaled(&self, factor: f64) -> Self {
        RandomFaultConfig {
            transient_prob: (self.transient_prob * factor).min(1.0),
            freeze_prob: (self.freeze_prob * factor).min(1.0),
            wakeup_delay_prob: (self.wakeup_delay_prob * factor).min(1.0),
            permanent_kills: ((self.permanent_kills as f64) * factor).round() as usize,
            ..*self
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults; bit-identical to running without one).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Adds a transient outage of `from -> to` over `[start, end)`.
    #[must_use]
    pub fn link_drop(mut self, from: NodeId, to: NodeId, start: u64, end: u64) -> Self {
        self.faults.push(ScheduledFault::LinkDrop {
            from,
            to,
            start,
            end,
        });
        self
    }

    /// Adds a permanent kill of `from -> to` from cycle `at` on.
    #[must_use]
    pub fn link_kill(mut self, from: NodeId, to: NodeId, at: u64) -> Self {
        self.faults.push(ScheduledFault::LinkKill { from, to, at });
        self
    }

    /// Adds a router freeze of `node` over `[start, end)`.
    #[must_use]
    pub fn router_freeze(mut self, node: NodeId, start: u64, end: u64) -> Self {
        self.faults
            .push(ScheduledFault::RouterFreeze { node, start, end });
        self
    }

    /// Adds a one-shot delayed wake-up at `node` (first wake at or after
    /// `at` pays `extra` additional cycles).
    #[must_use]
    pub fn wakeup_delay(mut self, node: NodeId, at: u64, extra: u64) -> Self {
        self.faults
            .push(ScheduledFault::WakeupDelay { node, at, extra });
        self
    }

    /// Kills every directed link touching `node` (both directions to each
    /// topology neighbor) at cycle `at` — a whole-router fail-stop.
    #[must_use]
    pub fn kill_router(mut self, topo: &dyn Topology, node: NodeId, at: u64) -> Self {
        for d in Direction::ALL {
            if let Some(n) = topo.neighbor(node, d) {
                self.faults.push(ScheduledFault::LinkKill {
                    from: node,
                    to: n,
                    at,
                });
                self.faults.push(ScheduledFault::LinkKill {
                    from: n,
                    to: node,
                    at,
                });
            }
        }
        self
    }

    /// Whether the plan permanently kills `from -> to` at any point.
    pub fn kills_link(&self, from: NodeId, to: NodeId) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, ScheduledFault::LinkKill { from: a, to: b, .. } if *a == from && *b == to)
        })
    }

    /// Validates the plan against a topology: every link fault must name a
    /// pair of neighbors and every window must be non-empty (finite windows
    /// guarantee no flit waits forever on a transient fault).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] describing the first offending fault.
    pub fn validate(&self, topo: &dyn Topology) -> Result<(), SimError> {
        let neighbors = |a: NodeId, b: NodeId| -> bool {
            Direction::ALL
                .into_iter()
                .any(|d| topo.neighbor(a, d) == Some(b))
        };
        let in_range = |n: NodeId| -> bool { n.0 < topo.len() };
        for f in &self.faults {
            match *f {
                ScheduledFault::LinkDrop {
                    from,
                    to,
                    start,
                    end,
                } => {
                    if !in_range(from) || !in_range(to) || !neighbors(from, to) {
                        return Err(SimError::InvalidConfig(format!(
                            "fault plan: {from} -> {to} is not a topology link"
                        )));
                    }
                    if end <= start {
                        return Err(SimError::InvalidConfig(format!(
                            "fault plan: empty outage window [{start}, {end}) on {from} -> {to}"
                        )));
                    }
                }
                ScheduledFault::LinkKill { from, to, .. } => {
                    if !in_range(from) || !in_range(to) || !neighbors(from, to) {
                        return Err(SimError::InvalidConfig(format!(
                            "fault plan: {from} -> {to} is not a topology link"
                        )));
                    }
                }
                ScheduledFault::RouterFreeze { node, start, end } => {
                    if !in_range(node) {
                        return Err(SimError::InvalidConfig(format!(
                            "fault plan: frozen router {node} outside the topology"
                        )));
                    }
                    if end <= start {
                        return Err(SimError::InvalidConfig(format!(
                            "fault plan: empty freeze window [{start}, {end}) on {node}"
                        )));
                    }
                }
                ScheduledFault::WakeupDelay { node, .. } => {
                    if !in_range(node) {
                        return Err(SimError::InvalidConfig(format!(
                            "fault plan: wakeup delay at {node} outside the topology"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Samples a random plan over the links and routers of the **active**
    /// region, deterministically from `seed`: same arguments, same plan.
    ///
    /// Links and routers are visited in a fixed order (ascending node id,
    /// [`Direction::ALL`] order), so the draw sequence — and therefore the
    /// plan — is reproducible across platforms and worker counts.
    ///
    /// # Panics
    ///
    /// Panics if `active.len() != topo.len()` or a window range is inverted.
    pub fn random(
        topo: &dyn Topology,
        active: &[bool],
        cfg: &RandomFaultConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(active.len(), topo.len(), "mask length mismatch");
        assert!(cfg.outage_min <= cfg.outage_max, "inverted outage range");
        assert!(cfg.freeze_min <= cfg.freeze_max, "inverted freeze range");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        // Directed links between active neighbors, fixed order.
        let links: Vec<(NodeId, NodeId)> = topo_nodes(topo)
            .filter(|n| active[n.0])
            .flat_map(|n| {
                Direction::ALL
                    .into_iter()
                    .filter_map(move |d| topo.neighbor(n, d))
                    .map(move |m| (n, m))
            })
            .filter(|(_, m)| active[m.0])
            .collect();
        for &(a, b) in &links {
            if cfg.transient_prob > 0.0 && rng.gen_bool(cfg.transient_prob) {
                let start = rng.gen_range(0..cfg.horizon.max(1));
                let len = rng.gen_range(cfg.outage_min.max(1)..=cfg.outage_max.max(1));
                plan = plan.link_drop(a, b, start, start + len);
            }
        }
        for _ in 0..cfg.permanent_kills.min(links.len()) {
            let (a, b) = links[rng.gen_range(0..links.len())];
            let at = rng.gen_range(0..cfg.horizon.max(1));
            plan = plan.link_kill(a, b, at);
        }
        for n in topo_nodes(topo).filter(|n| active[n.0]) {
            if cfg.freeze_prob > 0.0 && rng.gen_bool(cfg.freeze_prob) {
                let start = rng.gen_range(0..cfg.horizon.max(1));
                let len = rng.gen_range(cfg.freeze_min.max(1)..=cfg.freeze_max.max(1));
                plan = plan.router_freeze(n, start, start + len);
            }
            if cfg.wakeup_delay_prob > 0.0 && rng.gen_bool(cfg.wakeup_delay_prob) {
                let at = rng.gen_range(0..cfg.horizon.max(1));
                plan = plan.wakeup_delay(n, at, cfg.wakeup_extra);
            }
        }
        plan
    }
}

/// A fault-related event, reported through [`Probe::on_fault`].
///
/// Scheduled transitions (`LinkDown`/`LinkUp`/`RouterFrozen`/`RouterThawed`)
/// fire when the schedule crosses them; consequences
/// (`PacketDropped`/`PacketRerouted`/`WakeupDelayed`) fire when the pipeline
/// takes the corresponding action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The directed link `from -> to` became unusable; `until` is the
    /// scheduled recovery cycle, or `None` for a permanent kill.
    LinkDown {
        /// Upstream node.
        from: NodeId,
        /// Downstream node.
        to: NodeId,
        /// Recovery cycle (exclusive), or `None` if permanent.
        until: Option<u64>,
    },
    /// The directed link `from -> to` recovered from a transient outage.
    LinkUp {
        /// Upstream node.
        from: NodeId,
        /// Downstream node.
        to: NodeId,
    },
    /// The router at `node` froze until cycle `until` (exclusive).
    RouterFrozen {
        /// The frozen router.
        node: NodeId,
        /// First operational cycle again.
        until: u64,
    },
    /// The router at `node` thawed and resumed operation.
    RouterThawed {
        /// The recovered router.
        node: NodeId,
    },
    /// A sleeping router's wake-up was delayed by `extra` cycles.
    WakeupDelayed {
        /// The router whose wake-up was delayed.
        node: NodeId,
        /// Additional cycles paid.
        extra: u64,
    },
    /// A packet was cleanly dropped at `node` because no usable path to its
    /// destination remained.
    PacketDropped {
        /// Router where the packet was removed.
        node: NodeId,
        /// The dropped packet.
        packet: PacketId,
        /// Whether the packet was generated in the measurement window.
        measured: bool,
    },
    /// A waiting packet was re-routed around a permanently dead link.
    PacketRerouted {
        /// Router where the route was recomputed.
        node: NodeId,
        /// The re-routed packet.
        packet: PacketId,
    },
}

/// Counters of fault activity over a run, returned by
/// [`Network::fault_stats`](crate::network::Network::fault_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets cleanly dropped (no usable path).
    pub packets_dropped: u64,
    /// Of those, packets generated during the measurement window.
    pub measured_packets_dropped: u64,
    /// Individual flits removed by drops.
    pub flits_dropped: u64,
    /// Packets re-routed around permanently dead links after their initial
    /// route computation.
    pub reroutes: u64,
    /// Wake-ups that paid extra latency.
    pub wakeup_delays: u64,
    /// Link-down transitions (transient starts and permanent kills).
    pub link_down_events: u64,
    /// Link-up transitions (transient recoveries).
    pub link_up_events: u64,
    /// Router freeze transitions.
    pub freeze_events: u64,
    /// Router thaw transitions.
    pub thaw_events: u64,
}

/// Runtime fault state compiled from a [`FaultPlan`], owned by the network.
///
/// All queries are pure functions of `(plan, now)` — no randomness, no
/// hidden state besides the consumed one-shot wake-up delays and the event
/// cursor — which is what makes replay deterministic.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// Transient windows per directed link, sorted by start.
    outages: BTreeMap<(usize, usize), Vec<(u64, u64)>>,
    /// Earliest permanent-kill cycle per directed link.
    dead_at: BTreeMap<(usize, usize), u64>,
    /// Freeze windows per router, sorted by start.
    freezes: BTreeMap<usize, Vec<(u64, u64)>>,
    /// One-shot wake-up delays per router: `(at, extra, consumed)`.
    wake_delays: BTreeMap<usize, Vec<(u64, u64, bool)>>,
    /// Scheduled transitions in cycle order, for probe emission.
    timeline: Vec<(u64, FaultEvent)>,
    /// Next timeline entry to emit.
    next_event: usize,
}

impl FaultState {
    /// Compiles a plan into queryable runtime state.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut outages: BTreeMap<(usize, usize), Vec<(u64, u64)>> = BTreeMap::new();
        let mut dead_at: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        let mut freezes: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        let mut wake_delays: BTreeMap<usize, Vec<(u64, u64, bool)>> = BTreeMap::new();
        let mut timeline: Vec<(u64, FaultEvent)> = Vec::new();
        for f in plan.faults() {
            match *f {
                ScheduledFault::LinkDrop {
                    from,
                    to,
                    start,
                    end,
                } => {
                    outages
                        .entry((from.0, to.0))
                        .or_default()
                        .push((start, end));
                    timeline.push((
                        start,
                        FaultEvent::LinkDown {
                            from,
                            to,
                            until: Some(end),
                        },
                    ));
                    timeline.push((end, FaultEvent::LinkUp { from, to }));
                }
                ScheduledFault::LinkKill { from, to, at } => {
                    let e = dead_at.entry((from.0, to.0)).or_insert(at);
                    *e = (*e).min(at);
                    timeline.push((
                        at,
                        FaultEvent::LinkDown {
                            from,
                            to,
                            until: None,
                        },
                    ));
                }
                ScheduledFault::RouterFreeze { node, start, end } => {
                    freezes.entry(node.0).or_default().push((start, end));
                    timeline.push((start, FaultEvent::RouterFrozen { node, until: end }));
                    timeline.push((end, FaultEvent::RouterThawed { node }));
                }
                ScheduledFault::WakeupDelay { node, at, extra } => {
                    wake_delays
                        .entry(node.0)
                        .or_default()
                        .push((at, extra, false));
                }
            }
        }
        for windows in outages.values_mut() {
            windows.sort_unstable();
        }
        for windows in freezes.values_mut() {
            windows.sort_unstable();
        }
        for delays in wake_delays.values_mut() {
            delays.sort_unstable();
        }
        // Stable sort keeps same-cycle events in schedule order.
        timeline.sort_by_key(|&(cycle, _)| cycle);
        FaultState {
            outages,
            dead_at,
            freezes,
            wake_delays,
            timeline,
            next_event: 0,
        }
    }

    /// Whether `from -> to` is unusable for *new* packets at `now`
    /// (transient outage active, or permanently dead).
    pub fn link_faulted(&self, from: usize, to: usize, now: u64) -> bool {
        if self.link_dead(from, to, now) {
            return true;
        }
        self.outages
            .get(&(from, to))
            .is_some_and(|ws| ws.iter().any(|&(s, e)| (s..e).contains(&now)))
    }

    /// Whether `from -> to` is permanently dead at `now`.
    pub fn link_dead(&self, from: usize, to: usize, now: u64) -> bool {
        self.dead_at.get(&(from, to)).is_some_and(|&at| now >= at)
    }

    /// Whether the router at `node` is frozen at `now`.
    pub fn router_frozen(&self, node: usize, now: u64) -> bool {
        self.freezes
            .get(&node)
            .is_some_and(|ws| ws.iter().any(|&(s, e)| (s..e).contains(&now)))
    }

    /// Consumes and returns the pending wake-up delay for `node` at `now`,
    /// if one is scheduled (one-shot).
    pub fn take_wakeup_delay(&mut self, node: usize, now: u64) -> Option<u64> {
        let delays = self.wake_delays.get_mut(&node)?;
        for d in delays.iter_mut() {
            if !d.2 && d.0 <= now {
                d.2 = true;
                return Some(d.1);
            }
        }
        None
    }

    /// Whether any *finite* fault window (transient outage or freeze) is
    /// active at `now`. While true, blocked flits are waiting the fault out,
    /// so the deadlock watchdog must not count those cycles as stalled.
    pub fn hold_active(&self, now: u64) -> bool {
        self.outages
            .values()
            .chain(self.freezes.values())
            .flatten()
            .any(|&(s, e)| (s..e).contains(&now))
    }

    /// Cycle of the next unemitted scheduled transition, regardless of how
    /// far away it is. Idle fast-forward uses this to bound quiet windows:
    /// a quiescent network may jump at most to this cycle.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.timeline.get(self.next_event).map(|&(cycle, _)| cycle)
    }

    /// The next unemitted scheduled transition, if its cycle has come.
    pub fn pop_event_at(&mut self, now: u64) -> Option<(u64, FaultEvent)> {
        let &(cycle, ev) = self.timeline.get(self.next_event)?;
        if cycle > now {
            return None;
        }
        self.next_event += 1;
        Some((cycle, ev))
    }
}

/// A probe that records every [`FaultEvent`] with its cycle — the bench
/// binaries use it to export fault timelines into run manifests.
#[derive(Debug, Default)]
pub struct FaultLog {
    events: Vec<(u64, FaultEvent)>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded `(cycle, event)` pairs, in emission order.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }
}

impl Probe for FaultLog {
    fn on_fault(&mut self, cycle: u64, event: &FaultEvent) {
        self.events.push((cycle, *event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(plan.validate(&Mesh2D::paper_4x4()).is_ok());
    }

    #[test]
    fn validate_rejects_non_neighbor_links() {
        let mesh = Mesh2D::paper_4x4();
        let plan = FaultPlan::new().link_kill(NodeId(0), NodeId(5), 0);
        assert!(plan.validate(&mesh).is_err());
        let plan = FaultPlan::new().link_drop(NodeId(0), NodeId(2), 0, 10);
        assert!(plan.validate(&mesh).is_err());
    }

    #[test]
    fn validate_rejects_empty_windows() {
        let mesh = Mesh2D::paper_4x4();
        let plan = FaultPlan::new().link_drop(NodeId(0), NodeId(1), 10, 10);
        assert!(plan.validate(&mesh).is_err());
        let plan = FaultPlan::new().router_freeze(NodeId(3), 20, 10);
        assert!(plan.validate(&mesh).is_err());
    }

    #[test]
    fn kill_router_covers_all_incident_links() {
        let mesh = Mesh2D::paper_4x4();
        // Node 5 is interior: 4 neighbors, 8 directed links.
        let plan = FaultPlan::new().kill_router(&mesh, NodeId(5), 100);
        assert_eq!(plan.len(), 8);
        assert!(plan.kills_link(NodeId(5), NodeId(4)));
        assert!(plan.kills_link(NodeId(4), NodeId(5)));
        assert!(plan.validate(&mesh).is_ok());
        // Corner node 0: 2 neighbors, 4 directed links.
        assert_eq!(FaultPlan::new().kill_router(&mesh, NodeId(0), 0).len(), 4);
    }

    #[test]
    fn state_queries_respect_windows() {
        let plan = FaultPlan::new()
            .link_drop(NodeId(0), NodeId(1), 100, 200)
            .link_kill(NodeId(1), NodeId(2), 150)
            .router_freeze(NodeId(5), 50, 60);
        let fs = FaultState::new(&plan);
        assert!(!fs.link_faulted(0, 1, 99));
        assert!(fs.link_faulted(0, 1, 100));
        assert!(fs.link_faulted(0, 1, 199));
        assert!(!fs.link_faulted(0, 1, 200), "transient outage recovers");
        assert!(!fs.link_dead(0, 1, 150), "transient is not dead");
        assert!(!fs.link_faulted(1, 2, 149));
        assert!(fs.link_dead(1, 2, 150));
        assert!(fs.link_faulted(1, 2, 1_000_000), "kill never recovers");
        assert!(fs.router_frozen(5, 55));
        assert!(!fs.router_frozen(5, 60));
        assert!(fs.hold_active(55));
        assert!(fs.hold_active(150));
        assert!(
            !fs.hold_active(250),
            "only finite windows hold the watchdog"
        );
    }

    #[test]
    fn wakeup_delay_is_one_shot() {
        let plan = FaultPlan::new().wakeup_delay(NodeId(3), 100, 40);
        let mut fs = FaultState::new(&plan);
        assert_eq!(fs.take_wakeup_delay(3, 50), None, "not yet scheduled");
        assert_eq!(fs.take_wakeup_delay(3, 120), Some(40));
        assert_eq!(fs.take_wakeup_delay(3, 130), None, "consumed");
        assert_eq!(fs.take_wakeup_delay(4, 120), None, "other node unaffected");
    }

    #[test]
    fn timeline_is_sorted_and_pops_in_order() {
        let plan = FaultPlan::new()
            .link_kill(NodeId(1), NodeId(2), 300)
            .link_drop(NodeId(0), NodeId(1), 100, 200);
        let mut fs = FaultState::new(&plan);
        assert!(fs.pop_event_at(50).is_none());
        let (c1, e1) = fs.pop_event_at(100).unwrap();
        assert_eq!(c1, 100);
        assert!(matches!(
            e1,
            FaultEvent::LinkDown {
                until: Some(200),
                ..
            }
        ));
        assert!(fs.pop_event_at(100).is_none(), "next event is at 200");
        let (c2, e2) = fs.pop_event_at(400).unwrap();
        assert_eq!(c2, 200);
        assert!(matches!(e2, FaultEvent::LinkUp { .. }));
        let (c3, e3) = fs.pop_event_at(400).unwrap();
        assert_eq!(c3, 300);
        assert!(matches!(e3, FaultEvent::LinkDown { until: None, .. }));
        assert!(fs.pop_event_at(10_000).is_none());
    }

    #[test]
    fn random_plans_are_deterministic_in_seed() {
        let mesh = Mesh2D::paper_4x4();
        let active = vec![true; 16];
        let cfg = RandomFaultConfig {
            permanent_kills: 2,
            freeze_prob: 0.3,
            wakeup_delay_prob: 0.3,
            ..RandomFaultConfig::light(5_000)
        };
        let a = FaultPlan::random(&mesh, &active, &cfg, 42);
        let b = FaultPlan::random(&mesh, &active, &cfg, 42);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::random(&mesh, &active, &cfg, 43);
        assert_ne!(a, c, "different seed, different plan");
        assert!(a.validate(&mesh).is_ok());
    }

    #[test]
    fn random_plans_stay_inside_the_active_region() {
        let mesh = Mesh2D::paper_4x4();
        let mut active = vec![false; 16];
        for n in [0usize, 1, 4, 5] {
            active[n] = true;
        }
        let cfg = RandomFaultConfig {
            transient_prob: 1.0,
            permanent_kills: 3,
            freeze_prob: 1.0,
            wakeup_delay_prob: 1.0,
            ..RandomFaultConfig::light(1_000)
        };
        let plan = FaultPlan::random(&mesh, &active, &cfg, 7);
        assert!(!plan.is_empty());
        for f in plan.faults() {
            match *f {
                ScheduledFault::LinkDrop { from, to, .. }
                | ScheduledFault::LinkKill { from, to, .. } => {
                    assert!(
                        active[from.0] && active[to.0],
                        "{from}->{to} outside region"
                    );
                }
                ScheduledFault::RouterFreeze { node, .. }
                | ScheduledFault::WakeupDelay { node, .. } => {
                    assert!(active[node.0], "{node} outside region");
                }
            }
        }
    }

    #[test]
    fn scaled_config_clamps_probabilities() {
        let cfg = RandomFaultConfig {
            transient_prob: 0.4,
            permanent_kills: 2,
            ..RandomFaultConfig::light(1_000)
        };
        let hot = cfg.scaled(4.0);
        assert_eq!(hot.transient_prob, 1.0);
        assert_eq!(hot.permanent_kills, 8);
        let zero = cfg.scaled(0.0);
        assert_eq!(zero.transient_prob, 0.0);
        assert_eq!(zero.permanent_kills, 0);
    }

    #[test]
    fn fault_log_records_events() {
        let mut log = FaultLog::new();
        let ev = FaultEvent::LinkUp {
            from: NodeId(0),
            to: NodeId(1),
        };
        log.on_fault(17, &ev);
        assert_eq!(log.events(), &[(17, ev)]);
    }
}
