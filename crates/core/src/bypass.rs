//! LLC bypass paths for dark tiles (§3.4).
//!
//! On a tile-based CMP every tile holds a bank of the shared L2, so gating
//! a tile's router would normally cut off its bank. The paper adopts the
//! NoRD-style remedy: dedicated **bypass paths** let cache traffic skirt
//! around power-gated routers without waking them — "some complimentary
//! techniques such as bypass paths \[4\] can be leveraged to avoid completely
//! isolating cache banks from the network. We accommodate this method in
//! our design."
//!
//! The model here is analytic: a bank access travels the active region on
//! the normal network (five-cycle hops), exits at the active node nearest
//! the bank, and covers the remaining distance on bypass wires at a fixed
//! per-hop latency — no router pipeline, no VC allocation, no wakeups.

use noc_sim::geometry::NodeId;
use noc_sim::router::RouterParams;

use crate::sprint_topology::SprintSet;

/// Latency/energy model of the bypass wiring.
///
/// ```
/// use noc_sim::geometry::NodeId;
/// use noc_sim::router::RouterParams;
/// use noc_sprinting::bypass::BypassModel;
/// use noc_sprinting::sprint_topology::SprintSet;
///
/// let set = SprintSet::paper(4);
/// let m = BypassModel::nord_like();
/// // A dark bank is reached without waking any router...
/// let via_bypass = m.access_latency(&set, &RouterParams::paper(), NodeId(0), NodeId(15));
/// // ...and no slower than the wake-the-path alternative.
/// let via_wake = m.wake_alternative_latency(&set, &RouterParams::paper(), NodeId(0), NodeId(15), 10);
/// assert!(via_bypass < via_wake);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BypassModel {
    /// Cycles per mesh hop on the bypass wires (latch-to-latch, no router
    /// pipeline).
    pub per_hop_latency: u64,
    /// Dynamic energy per flit per bypass hop (J) — a bare repeated wire
    /// plus a latch, cheaper than a router traversal.
    pub per_hop_energy: f64,
    /// Always-on leakage of the bypass circuitry per dark node (W).
    pub leakage_per_node: f64,
    /// Cycles to access the L2 bank itself once reached.
    pub bank_latency: u64,
}

impl BypassModel {
    /// NoRD-class calibration at 45 nm: 2-cycle bypass hops, ~6 pJ/flit/hop
    /// of wire energy, ~0.1 mW of latch/driver leakage per dark node, and a
    /// 6-cycle bank access.
    pub fn nord_like() -> Self {
        BypassModel {
            per_hop_latency: 2,
            per_hop_energy: 6.0e-12,
            leakage_per_node: 0.1e-3,
            bank_latency: 6,
        }
    }

    /// The active node closest (Manhattan) to `bank`; ties break on the
    /// lower node id. This is where traffic leaves the powered region.
    pub fn egress_node(&self, set: &SprintSet, bank: NodeId) -> NodeId {
        let mesh = set.mesh();
        *set.active_nodes()
            .iter()
            .min_by_key(|&&n| (mesh.hops(n, bank), n.0))
            .expect("sprint sets are never empty")
    }

    /// One-way latency (cycles) from an active `src` to the L2 bank at
    /// `bank`, using the powered network inside the region and bypass wires
    /// outside it.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not active.
    pub fn access_latency(
        &self,
        set: &SprintSet,
        params: &RouterParams,
        src: NodeId,
        bank: NodeId,
    ) -> u64 {
        assert!(
            set.is_active(src),
            "bank access must originate in the region"
        );
        let mesh = set.mesh();
        if set.is_active(bank) {
            // Plain network access: hops + ejection, then the bank.
            return (u64::from(mesh.hops(src, bank)) + 1) * params.hop_latency()
                + self.bank_latency;
        }
        let egress = self.egress_node(set, bank);
        let network_part = (u64::from(mesh.hops(src, egress)) + 1) * params.hop_latency();
        let bypass_part = u64::from(mesh.hops(egress, bank)) * self.per_hop_latency;
        network_part + bypass_part + self.bank_latency
    }

    /// Round-trip latency (request + response) to a bank.
    pub fn round_trip(
        &self,
        set: &SprintSet,
        params: &RouterParams,
        src: NodeId,
        bank: NodeId,
    ) -> u64 {
        2 * self.access_latency(set, params, src, bank)
    }

    /// Latency of serving the same access by *waking* the gated routers on
    /// the path instead (the reactive-gating alternative): normal network
    /// latency plus one wakeup stall.
    pub fn wake_alternative_latency(
        &self,
        set: &SprintSet,
        params: &RouterParams,
        src: NodeId,
        bank: NodeId,
        wakeup_latency: u64,
    ) -> u64 {
        let mesh = set.mesh();
        let base = (u64::from(mesh.hops(src, bank)) + 1) * params.hop_latency() + self.bank_latency;
        if set.is_active(bank) {
            base
        } else {
            base + wakeup_latency
        }
    }

    /// Average bypass energy per dark-bank access (J), for an access from
    /// `src` to `bank`.
    pub fn access_energy(&self, set: &SprintSet, bank: NodeId) -> f64 {
        let mesh = set.mesh();
        if set.is_active(bank) {
            return 0.0;
        }
        let egress = self.egress_node(set, bank);
        f64::from(mesh.hops(egress, bank)) * self.per_hop_energy
    }

    /// Standing leakage of the bypass wiring for a sprint set (W).
    pub fn standing_leakage(&self, set: &SprintSet) -> f64 {
        set.dark_nodes().count() as f64 * self.leakage_per_node
    }
}

impl Default for BypassModel {
    fn default() -> Self {
        Self::nord_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BypassModel {
        BypassModel::nord_like()
    }

    #[test]
    fn in_region_access_is_plain_network() {
        let set = SprintSet::paper(4); // {0,1,4,5}
        let m = model();
        let p = RouterParams::paper();
        // 0 -> bank at 5: 2 hops + ejection = 3 * 5 + bank 6 = 21.
        assert_eq!(m.access_latency(&set, &p, NodeId(0), NodeId(5)), 21);
    }

    #[test]
    fn dark_bank_goes_through_bypass() {
        let set = SprintSet::paper(4);
        let m = model();
        let p = RouterParams::paper();
        // Bank at node 15 (dark). Egress = nearest active node to 15 = 5.
        assert_eq!(m.egress_node(&set, NodeId(15)), NodeId(5));
        // 0 -> 5: (2+1)*5 = 15; bypass 5 -> 15: 4 hops * 2 = 8; bank 6.
        assert_eq!(m.access_latency(&set, &p, NodeId(0), NodeId(15)), 29);
    }

    #[test]
    fn bypass_beats_waking_for_nearby_banks() {
        // The design point: for typical accesses the bypass path is no
        // slower than waking a router (10-cycle class wakeups), and it
        // never pays the wake energy.
        let set = SprintSet::paper(4);
        let m = model();
        let p = RouterParams::paper();
        for bank in set.dark_nodes() {
            let via_bypass = m.access_latency(&set, &p, NodeId(0), bank);
            let via_wake = m.wake_alternative_latency(&set, &p, NodeId(0), bank, 10);
            // Bypass hops are 2 cycles vs 5 for routed hops, so the bypass
            // can even win outright; allow a small constant slack.
            assert!(
                via_bypass <= via_wake + 6,
                "bank {bank}: bypass {via_bypass} vs wake {via_wake}"
            );
        }
    }

    #[test]
    fn round_trip_is_twice_one_way() {
        let set = SprintSet::paper(8);
        let m = model();
        let p = RouterParams::paper();
        let one = m.access_latency(&set, &p, NodeId(0), NodeId(15));
        assert_eq!(m.round_trip(&set, &p, NodeId(0), NodeId(15)), 2 * one);
    }

    #[test]
    fn energy_zero_inside_region_positive_outside() {
        let set = SprintSet::paper(4);
        let m = model();
        assert_eq!(m.access_energy(&set, NodeId(1)), 0.0);
        assert!(m.access_energy(&set, NodeId(15)) > 0.0);
    }

    #[test]
    fn standing_leakage_scales_with_dark_count() {
        let m = model();
        let l4 = m.standing_leakage(&SprintSet::paper(4));
        let l12 = m.standing_leakage(&SprintSet::paper(12));
        assert!(l4 > l12, "more dark nodes leak more bypass circuitry");
        assert_eq!(m.standing_leakage(&SprintSet::paper(16)), 0.0);
    }

    #[test]
    #[should_panic(expected = "originate in the region")]
    fn dark_source_rejected() {
        let set = SprintSet::paper(4);
        let _ = model().access_latency(&set, &RouterParams::paper(), NodeId(15), NodeId(0));
    }
}
