//! Technology node and operating-point scaling laws.
//!
//! The model follows the first-order laws DSENT and McPAT build on:
//!
//! - **dynamic energy** per operation scales as `C · V²` (capacitance fixed
//!   per node, supply squared), so dynamic *power* scales as `C · V² · f · α`
//!   for activity factor `α`;
//! - **leakage power** scales roughly linearly with supply (`I_leak` nearly
//!   constant over the small sub-nominal V range, `P = I·V`), so scaling V/f
//!   down reduces dynamic power much faster than leakage — which is exactly
//!   the trend of the paper's Fig. 2.

use std::fmt;

/// A CMOS process node with nominal supply and leakage characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechNode {
    /// Feature size in nanometres.
    pub feature_nm: f64,
    /// Nominal supply voltage (V).
    pub vnom: f64,
    /// Leakage multiplier relative to the 45 nm reference (captures the
    /// exponential growth of leakage with scaling).
    pub leakage_scale: f64,
    /// Dynamic-capacitance multiplier relative to the 45 nm reference.
    pub cap_scale: f64,
}

impl TechNode {
    /// The 45 nm node used throughout the paper's evaluation.
    pub fn nm45() -> Self {
        TechNode {
            feature_nm: 45.0,
            vnom: 1.0,
            leakage_scale: 1.0,
            cap_scale: 1.0,
        }
    }

    /// A 32 nm node: smaller capacitance, higher leakage density.
    pub fn nm32() -> Self {
        TechNode {
            feature_nm: 32.0,
            vnom: 0.9,
            leakage_scale: 1.6,
            cap_scale: 0.72,
        }
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm @ {} V", self.feature_nm, self.vnom)
    }
}

/// A (supply voltage, clock frequency) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Clock frequency (GHz).
    pub freq_ghz: f64,
}

impl OperatingPoint {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if either value is non-positive.
    pub fn new(vdd: f64, freq_ghz: f64) -> Self {
        assert!(vdd > 0.0, "vdd must be positive");
        assert!(freq_ghz > 0.0, "frequency must be positive");
        OperatingPoint { vdd, freq_ghz }
    }

    /// The paper's Fig. 2 sweep: (1.0 V, 2 GHz), (0.9 V, 1.5 GHz),
    /// (0.75 V, 1.0 GHz).
    pub fn fig2_sweep() -> [OperatingPoint; 3] {
        [
            OperatingPoint::new(1.0, 2.0),
            OperatingPoint::new(0.9, 1.5),
            OperatingPoint::new(0.75, 1.0),
        ]
    }

    /// Nominal operating point of the paper's CMP (Table 1: 2 GHz).
    pub fn nominal() -> Self {
        OperatingPoint::new(1.0, 2.0)
    }

    /// Cycle time in seconds.
    pub fn cycle_seconds(&self) -> f64 {
        1e-9 / self.freq_ghz
    }

    /// Dynamic-power scale factor relative to `(vnom, fref)`: `(V/Vn)² (f/fr)`.
    pub fn dynamic_scale(&self, tech: &TechNode, fref_ghz: f64) -> f64 {
        (self.vdd / tech.vnom).powi(2) * (self.freq_ghz / fref_ghz)
    }

    /// Dynamic-*energy* scale factor relative to `vnom`: `(V/Vn)²`.
    pub fn energy_scale(&self, tech: &TechNode) -> f64 {
        (self.vdd / tech.vnom).powi(2)
    }

    /// Leakage-power scale factor relative to `vnom`: linear in `V`.
    pub fn leakage_scale(&self, tech: &TechNode) -> f64 {
        (self.vdd / tech.vnom) * tech.leakage_scale
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} V, {} GHz", self.vdd, self.freq_ghz)
    }
}

impl Default for OperatingPoint {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_matches_table1() {
        let op = OperatingPoint::nominal();
        assert_eq!(op.vdd, 1.0);
        assert_eq!(op.freq_ghz, 2.0);
        assert!((op.cycle_seconds() - 0.5e-9).abs() < 1e-18);
    }

    #[test]
    fn dynamic_scales_quadratically_with_v_linearly_with_f() {
        let tech = TechNode::nm45();
        let half_v = OperatingPoint::new(0.5, 2.0);
        assert!((half_v.dynamic_scale(&tech, 2.0) - 0.25).abs() < 1e-12);
        let half_f = OperatingPoint::new(1.0, 1.0);
        assert!((half_f.dynamic_scale(&tech, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn leakage_scales_linearly_with_v() {
        let tech = TechNode::nm45();
        let op = OperatingPoint::new(0.75, 1.0);
        assert!((op.leakage_scale(&tech) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn leakage_ratio_grows_as_vf_scale_down() {
        // The qualitative message of Fig. 2: leakage share of total power
        // rises monotonically across the sweep.
        let tech = TechNode::nm45();
        let mut last_ratio = 0.0;
        for op in OperatingPoint::fig2_sweep() {
            let dynamic = op.dynamic_scale(&tech, 2.0);
            let leak = op.leakage_scale(&tech);
            let ratio = leak / (leak + dynamic);
            assert!(ratio > last_ratio, "leakage share must grow at {op}");
            last_ratio = ratio;
        }
    }

    #[test]
    fn smaller_nodes_leak_more() {
        assert!(TechNode::nm32().leakage_scale > TechNode::nm45().leakage_scale);
    }

    #[test]
    #[should_panic(expected = "vdd must be positive")]
    fn rejects_nonpositive_voltage() {
        let _ = OperatingPoint::new(0.0, 1.0);
    }
}
