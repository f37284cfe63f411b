//! Closed-loop (request/response) simulation.
//!
//! Synthetic open-loop traffic cannot express protocols: a shared-L2 read
//! is a *request* packet that triggers a *response* packet from the home
//! bank. [`ClosedLoopSim`] drives a [`Network`] with a [`ProtocolAgent`]
//! that sees every delivered packet and may schedule new ones — enough to
//! model MESI-style request/response flows over the paper's tiled LLC
//! (Table 1), with requests and responses on separate virtual networks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use crate::error::SimError;
use crate::geometry::NodeId;
use crate::network::Network;
use crate::packet::{Packet, PacketId};

/// A fully received packet (its tail flit reached the destination NI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Packet id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node (where it was delivered).
    pub dst: NodeId,
    /// Virtual network it travelled on.
    pub vnet: u8,
    /// Generation cycle.
    pub created: u64,
    /// Delivery cycle (tail at NI).
    pub at: u64,
}

/// The protocol logic attached to every NI.
pub trait ProtocolAgent: Debug {
    /// Spontaneous traffic this cycle (e.g. cores issuing requests).
    fn generate(&mut self, now: u64) -> Vec<Packet>;

    /// Reaction to a delivered packet: `(send_at, packet)` pairs to inject
    /// later (e.g. the home bank's response after its access latency).
    fn on_packet(&mut self, delivered: &Delivered, now: u64) -> Vec<(u64, Packet)>;

    /// Whether the protocol has outstanding work (in-flight transactions);
    /// the driver keeps stepping an otherwise-drained network while true.
    fn busy(&self) -> bool;
}

/// Outcome counters of a closed-loop run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClosedLoopStats {
    /// Packets delivered per vnet index.
    pub delivered_per_vnet: Vec<u64>,
    /// Total cycles simulated.
    pub cycles: u64,
}

/// Drives a network with a protocol agent.
#[derive(Debug)]
pub struct ClosedLoopSim<A: ProtocolAgent> {
    net: Network,
    agent: A,
    /// Scheduled future sends, min-heap on send cycle.
    pending: BinaryHeap<Reverse<(u64, u64, PendingPacket)>>,
    /// Tie-break counter for heap ordering stability.
    seq: u64,
}

/// Wrapper to give `Packet` a total order for the heap (by id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingPacket(Packet);

impl Ord for PendingPacket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.id.cmp(&other.0.id)
    }
}
impl PartialOrd for PendingPacket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<A: ProtocolAgent> ClosedLoopSim<A> {
    /// Creates the driver.
    pub fn new(net: Network, agent: A) -> Self {
        ClosedLoopSim {
            net,
            agent,
            pending: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The protocol agent.
    pub fn agent(&self) -> &A {
        &self.agent
    }

    /// Runs for `warmup + measure` cycles of generation, then drains
    /// outstanding protocol work (bounded by `drain_max` extra cycles).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (dark routers, deadlock watchdogs are
    /// the caller's responsibility via the network's gating contract).
    pub fn run(
        &mut self,
        generate_cycles: u64,
        drain_max: u64,
    ) -> Result<ClosedLoopStats, SimError> {
        let mut stats = ClosedLoopStats::default();
        let hard_end = generate_cycles + drain_max;
        loop {
            let now = self.net.now();
            if now >= hard_end {
                break;
            }
            if now >= generate_cycles
                && !self.agent.busy()
                && self.pending.is_empty()
                && self.net.is_drained()
            {
                break;
            }

            if now < generate_cycles {
                for p in self.agent.generate(now) {
                    self.net.enqueue_packet(p);
                }
            }
            // Past the generation window the agent is driven only by
            // deliveries, so a quiescent network can fast-forward to the
            // next scheduled send (or the drain deadline) instead of
            // stepping empty cycles one by one.
            if now >= generate_cycles {
                let mut bound = hard_end;
                if let Some(Reverse((at, _, _))) = self.pending.peek() {
                    bound = bound.min(*at);
                }
                if self.net.skip_idle_cycles(bound) > 0 {
                    continue;
                }
            }
            // Release scheduled sends due this cycle.
            while let Some(&Reverse((at, _, PendingPacket(p)))) = self.pending.peek() {
                if at > now {
                    break;
                }
                self.pending.pop();
                self.net.enqueue_packet(p);
            }

            self.net.step()?;

            // Reassemble ej->packet: the tail flit carries everything we
            // need (packets are delivered in order per (src, id)).
            let after = self.net.now();
            for e in self.net.drain_ejections() {
                if !e.flit.kind().is_tail() {
                    continue;
                }
                let d = Delivered {
                    id: e.flit.packet(),
                    src: e.flit.src(),
                    dst: e.flit.dst(),
                    vnet: e.flit.vnet(),
                    created: e.flit.created(),
                    at: e.at,
                };
                let v = usize::from(d.vnet);
                if stats.delivered_per_vnet.len() <= v {
                    stats.delivered_per_vnet.resize(v + 1, 0);
                }
                stats.delivered_per_vnet[v] += 1;
                for (at, p) in self.agent.on_packet(&d, e.at.max(after)) {
                    self.seq += 1;
                    self.pending.push(Reverse((at, self.seq, PendingPacket(p))));
                }
            }
        }
        stats.cycles = self.net.now();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterParams;
    use crate::routing::XyRouting;
    use crate::topology::Mesh2D;

    /// A ping-pong agent: node 0 sends a request to node 15; node 15
    /// replies on vnet 1; repeat `rounds` times.
    #[derive(Debug)]
    struct PingPong {
        rounds: u64,
        sent: u64,
        completed: u64,
        next_id: u64,
        rtts: Vec<u64>,
        issue_at: std::collections::HashMap<PacketId, u64>,
    }

    impl PingPong {
        fn new(rounds: u64) -> Self {
            PingPong {
                rounds,
                sent: 0,
                completed: 0,
                next_id: 0,
                rtts: Vec::new(),
                issue_at: Default::default(),
            }
        }

        fn request(&mut self, now: u64) -> Packet {
            let id = PacketId(self.next_id);
            self.next_id += 1;
            self.sent += 1;
            self.issue_at.insert(id, now);
            Packet {
                id,
                src: NodeId(0),
                dst: NodeId(15),
                len: 1,
                created: now,
                measured: true,
                vnet: 0,
            }
        }
    }

    impl ProtocolAgent for PingPong {
        fn generate(&mut self, now: u64) -> Vec<Packet> {
            if now == 0 {
                vec![self.request(now)]
            } else {
                Vec::new()
            }
        }

        fn on_packet(&mut self, d: &Delivered, now: u64) -> Vec<(u64, Packet)> {
            match d.vnet {
                0 => {
                    // Home node replies with a 5-flit response after a
                    // 6-cycle service latency.
                    let id = PacketId(1_000_000 + d.id.0);
                    vec![(
                        now + 6,
                        Packet {
                            id,
                            src: NodeId(15),
                            dst: NodeId(0),
                            len: 5,
                            created: now + 6,
                            measured: true,
                            vnet: 1,
                        },
                    )]
                }
                _ => {
                    // Response arrived back at the requester.
                    let req_id = PacketId(d.id.0 - 1_000_000);
                    let issued = self.issue_at.remove(&req_id).expect("matching request");
                    self.rtts.push(now - issued);
                    self.completed += 1;
                    if self.sent < self.rounds {
                        let p = self.request(now);
                        vec![(now + 1, p)]
                    } else {
                        Vec::new()
                    }
                }
            }
        }

        fn busy(&self) -> bool {
            self.completed < self.rounds
        }
    }

    #[test]
    fn ping_pong_completes_all_rounds() {
        let net = Network::new(
            Mesh2D::paper_4x4(),
            RouterParams::paper_two_vnets(),
            Box::new(XyRouting),
        )
        .unwrap();
        let mut sim = ClosedLoopSim::new(net, PingPong::new(20));
        let stats = sim.run(1, 100_000).unwrap();
        assert_eq!(sim.agent().completed, 20);
        assert_eq!(stats.delivered_per_vnet, vec![20, 20]);
        // Round trip: 6 hops out + 7 back-ish at 5 cyc/hop + service + the
        // response serialization; anything in 60..150 is sane.
        let mean: f64 = sim.agent().rtts.iter().sum::<u64>() as f64 / sim.agent().rtts.len() as f64;
        assert!((60.0..150.0).contains(&mean), "mean RTT {mean}");
    }

    #[test]
    fn closed_loop_respects_drain_budget() {
        // An agent that is always busy must be cut off by drain_max.
        #[derive(Debug)]
        struct Forever;
        impl ProtocolAgent for Forever {
            fn generate(&mut self, _now: u64) -> Vec<Packet> {
                Vec::new()
            }
            fn on_packet(&mut self, _d: &Delivered, _now: u64) -> Vec<(u64, Packet)> {
                Vec::new()
            }
            fn busy(&self) -> bool {
                true
            }
        }
        let net = Network::new(
            Mesh2D::paper_4x4(),
            RouterParams::paper(),
            Box::new(XyRouting),
        )
        .unwrap();
        let mut sim = ClosedLoopSim::new(net, Forever);
        let stats = sim.run(10, 500).unwrap();
        assert_eq!(stats.cycles, 510);
    }
}
