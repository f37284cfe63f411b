//! Link (inter-router wire) power model.
//!
//! Links are repeated global wires. Dynamic energy is proportional to wire
//! length and flit width; leakage comes from the repeaters. The
//! thermal-aware floorplan of the paper lengthens some links (Fig. 5b), which
//! this model prices via the `length_mm` parameter; the paper cites SMART
//!-style clockless repeated wires [Krishna et al.] to keep the *latency* of
//! those longer links at one cycle.

use crate::tech::{OperatingPoint, TechNode};

/// Wire capacitance energy per bit per millimetre at vnom (J).
const E_WIRE_PER_BIT_MM: f64 = 40e-15;
/// Repeater leakage per bit per millimetre at vnom (W).
const P_LEAK_PER_BIT_MM: f64 = 0.12e-6;

/// Power model of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPowerModel {
    /// Process node.
    pub tech: TechNode,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Physical length in millimetres.
    pub length_mm: f64,
}

impl LinkPowerModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics if `length_mm` is not positive.
    pub fn new(tech: TechNode, flit_bits: u32, length_mm: f64) -> Self {
        assert!(length_mm > 0.0, "link length must be positive");
        LinkPowerModel {
            tech,
            flit_bits,
            length_mm,
        }
    }

    /// The paper's baseline: 128-bit, 1 mm hop at 45 nm (2 mm tile pitch
    /// would double it; 1 mm is a compact tile).
    pub fn paper() -> Self {
        Self::new(TechNode::nm45(), 128, 1.0)
    }

    /// Dynamic energy of one flit traversal (J).
    pub fn energy_per_flit(&self, op: &OperatingPoint) -> f64 {
        E_WIRE_PER_BIT_MM
            * f64::from(self.flit_bits)
            * self.length_mm
            * op.energy_scale(&self.tech)
            * self.tech.cap_scale
    }

    /// Standby leakage (W) while the link drivers are powered.
    pub fn leakage(&self, op: &OperatingPoint) -> f64 {
        P_LEAK_PER_BIT_MM
            * f64::from(self.flit_bits)
            * self.length_mm
            * op.leakage_scale(&self.tech)
    }

    /// Average power at a given flit rate over a window (W).
    pub fn power_at_flit_rate(&self, op: &OperatingPoint, flits_per_cycle: f64) -> f64 {
        let flits_per_s = flits_per_cycle * op.freq_ghz * 1e9;
        flits_per_s * self.energy_per_flit(op) + self.leakage(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_length_and_width() {
        let op = OperatingPoint::nominal();
        let short = LinkPowerModel::new(TechNode::nm45(), 128, 1.0);
        let long = LinkPowerModel::new(TechNode::nm45(), 128, 3.0);
        assert!((long.energy_per_flit(&op) / short.energy_per_flit(&op) - 3.0).abs() < 1e-12);
        let narrow = LinkPowerModel::new(TechNode::nm45(), 64, 1.0);
        assert!((short.energy_per_flit(&op) / narrow.energy_per_flit(&op) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn paper_link_energy_ballpark() {
        // ~5 pJ/flit/mm class for a 128-bit link: plausible for 45 nm.
        let e = LinkPowerModel::paper().energy_per_flit(&OperatingPoint::nominal());
        assert!((1e-12..20e-12).contains(&e), "link energy {e} J/flit");
    }

    #[test]
    fn power_includes_leakage_at_zero_activity_limit() {
        let m = LinkPowerModel::paper();
        let op = OperatingPoint::nominal();
        let p = m.power_at_flit_rate(&op, 1e-12);
        assert!((p - m.leakage(&op)).abs() / m.leakage(&op) < 0.01);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn rejects_zero_length() {
        let _ = LinkPowerModel::new(TechNode::nm45(), 128, 0.0);
    }
}
