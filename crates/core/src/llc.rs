//! Shared-L2 request/response traffic (MESI-style read flow) over the
//! sprint region.
//!
//! Table 1's memory system is a shared, tiled L2 with MESI coherence: a
//! core's L1 miss sends a *request* packet to the line's home bank and the
//! bank answers with a *data response*. This module models that flow as a
//! [`ProtocolAgent`]: requests travel on vnet 0 (single-flit control
//! packets), responses on vnet 1 (5-flit cache-line data), and the home
//! bank is chosen by address hash over the available banks.
//!
//! Under NoC-sprinting the LLC working set is remapped onto the *active*
//! banks (the in-network alternative to §3.4's bypass paths); under
//! full-sprinting all 16 banks are home to some addresses.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use noc_sim::closed_loop::{Delivered, ProtocolAgent};
use noc_sim::geometry::NodeId;
use noc_sim::packet::{Packet, PacketId};
use noc_sim::stats::LatencySample;

/// Id bit distinguishing responses from their requests: the top bit of the
/// 32 bits a flit keeps of a packet id, so request ids stay below it.
const RESPONSE_BIT: u64 = 1 << 31;

/// The LLC read-flow agent.
#[derive(Debug)]
pub struct LlcAgent {
    cores: Vec<NodeId>,
    banks: Vec<NodeId>,
    /// Request probability per core per cycle.
    request_rate: f64,
    /// Bank access latency (cycles).
    bank_latency: u64,
    rng: SmallRng,
    next_id: u64,
    outstanding: HashMap<PacketId, u64>,
    /// Completed round-trip latencies (request issue to response delivery).
    rtts: LatencySample,
}

impl LlcAgent {
    /// Creates the agent.
    ///
    /// # Panics
    ///
    /// Panics on empty core/bank sets or a rate outside `(0, 1]`.
    pub fn new(
        cores: Vec<NodeId>,
        banks: Vec<NodeId>,
        request_rate: f64,
        bank_latency: u64,
        seed: u64,
    ) -> Self {
        assert!(!cores.is_empty(), "need at least one requesting core");
        assert!(!banks.is_empty(), "need at least one home bank");
        assert!(
            request_rate > 0.0 && request_rate <= 1.0,
            "request rate {request_rate} outside (0, 1]"
        );
        LlcAgent {
            cores,
            banks,
            request_rate,
            bank_latency,
            rng: SmallRng::seed_from_u64(seed),
            next_id: 0,
            outstanding: HashMap::new(),
            rtts: LatencySample::new(),
        }
    }

    /// Completed round-trip latencies.
    pub fn round_trips(&self) -> &LatencySample {
        &self.rtts
    }

    /// Requests still awaiting their response.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }
}

impl ProtocolAgent for LlcAgent {
    fn generate(&mut self, now: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for i in 0..self.cores.len() {
            if self.rng.gen_bool(self.request_rate) {
                let src = self.cores[i];
                // Address hash: uniform over home banks.
                let bank = self.banks[self.rng.gen_range(0..self.banks.len())];
                assert!(self.next_id < RESPONSE_BIT, "request ids exhausted");
                let id = PacketId(self.next_id);
                self.next_id += 1;
                self.outstanding.insert(id, now);
                out.push(Packet {
                    id,
                    src,
                    dst: bank,
                    len: 1,
                    created: now,
                    measured: true,
                    vnet: 0,
                });
            }
        }
        out
    }

    fn on_packet(&mut self, d: &Delivered, now: u64) -> Vec<(u64, Packet)> {
        match d.vnet {
            0 => {
                // Request reached its home bank: data response after the
                // bank access latency, back to the requester.
                let send_at = now + self.bank_latency;
                vec![(
                    send_at,
                    Packet {
                        id: PacketId(d.id.0 | RESPONSE_BIT),
                        src: d.dst,
                        dst: d.src,
                        len: 5,
                        created: send_at,
                        measured: true,
                        vnet: 1,
                    },
                )]
            }
            _ => {
                // Response back at the core: complete the transaction.
                let req = PacketId(d.id.0 & !RESPONSE_BIT);
                if let Some(issued) = self.outstanding.remove(&req) {
                    self.rtts.record(now - issued);
                }
                Vec::new()
            }
        }
    }

    fn busy(&self) -> bool {
        !self.outstanding.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::closed_loop::ClosedLoopSim;
    use noc_sim::network::Network;
    use noc_sim::router::RouterParams;
    use noc_sim::routing::XyRouting;
    use noc_sim::topology::Mesh2D;

    use crate::cdor::CdorRouting;
    use crate::sprint_topology::SprintSet;

    fn run_llc(cores: Vec<NodeId>, banks: Vec<NodeId>, gated: Option<&SprintSet>) -> LatencySample {
        let mesh = Mesh2D::paper_4x4();
        let params = RouterParams::paper_two_vnets();
        let net = match gated {
            Some(set) => {
                let mut n = Network::new(mesh, params, Box::new(CdorRouting::new(set))).unwrap();
                n.set_power_mask(set.mask());
                n
            }
            None => Network::new(mesh, params, Box::new(XyRouting)).unwrap(),
        };
        let agent = LlcAgent::new(cores, banks, 0.02, 6, 5);
        let mut sim = ClosedLoopSim::new(net, agent);
        sim.run(4_000, 20_000).unwrap();
        assert_eq!(sim.agent().outstanding(), 0, "all transactions complete");
        sim.agent().round_trips().clone()
    }

    #[test]
    fn llc_flow_completes_on_full_mesh() {
        let mesh = Mesh2D::paper_4x4();
        let all: Vec<NodeId> = mesh.nodes().collect();
        let rtts = run_llc(all.clone(), all, None);
        assert!(
            rtts.count() > 50,
            "transactions completed: {}",
            rtts.count()
        );
        let mean = rtts.mean().unwrap();
        // ~2.67 hops out + service 6 + return with 5-flit serialization.
        assert!((30.0..90.0).contains(&mean), "mean RTT {mean}");
    }

    #[test]
    fn llc_flow_completes_inside_sprint_region() {
        let set = SprintSet::paper(4);
        let active = set.active_nodes().to_vec();
        let rtts = run_llc(active.clone(), active, Some(&set));
        assert!(rtts.count() > 10);
    }

    #[test]
    fn region_remapped_banks_beat_full_mesh_banks() {
        // The locality claim: 4 cores hitting 4 nearby banks round-trip
        // faster than 4 cores hashing across all 16 banks.
        let set = SprintSet::paper(4);
        let active = set.active_nodes().to_vec();
        let mesh = Mesh2D::paper_4x4();
        let region = run_llc(active.clone(), active.clone(), Some(&set))
            .mean()
            .unwrap();
        let spread = run_llc(active, mesh.nodes().collect(), None)
            .mean()
            .unwrap();
        assert!(
            region < spread,
            "in-region banks {region} should beat spread banks {spread}"
        );
    }

    #[test]
    fn rates_and_inputs_validated() {
        let r = std::panic::catch_unwind(|| LlcAgent::new(vec![], vec![NodeId(0)], 0.1, 6, 0));
        assert!(r.is_err());
        let r =
            std::panic::catch_unwind(|| LlcAgent::new(vec![NodeId(0)], vec![NodeId(0)], 0.0, 6, 0));
        assert!(r.is_err());
    }
}
