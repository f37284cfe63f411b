//! Gate-inventory area model for the routing logic.
//!
//! Backs the paper's synthesis claim (Fig. 6): CDOR adds two connectivity
//! bits and a handful of gates per output-port routing circuit over plain
//! DOR, which Synopsys DC at 45 nm reported as **< 2% router area overhead**.
//! We reproduce the claim with a NAND2-equivalent gate inventory of both
//! routing circuits against the full router area.

/// NAND2-equivalent gate area at 45 nm (µm²).
const NAND2_UM2: f64 = 1.06;
/// SRAM/register cell area per buffer bit (µm²) — register-file style.
const BUFFER_BIT_UM2: f64 = 1.9;
/// Crossbar area per bit² term: a 5x5 crossbar costs roughly
/// `ports² * flit_bits * XBAR_POINT_UM2`.
const XBAR_POINT_UM2: f64 = 0.55;
/// Gate-equivalents of one n-bit magnitude comparator.
fn comparator_gates(bits: u32) -> f64 {
    6.0 * f64::from(bits)
}

/// Structural inputs for the area model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaConfig {
    /// Flit width in bits.
    pub flit_bits: u32,
    /// VCs per port.
    pub vcs_per_port: usize,
    /// Buffer depth per VC.
    pub buffer_depth: usize,
    /// Router ports.
    pub ports: usize,
    /// Coordinate register width (bits per axis); 4x4 mesh needs 2, but
    /// routers are synthesized with headroom (paper-class designs use 4).
    pub coord_bits: u32,
}

impl AreaConfig {
    /// Table 1 router.
    pub fn paper() -> Self {
        AreaConfig {
            flit_bits: 128,
            vcs_per_port: 4,
            buffer_depth: 4,
            ports: 5,
            coord_bits: 4,
        }
    }
}

impl Default for AreaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Area of router building blocks (µm²).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterArea {
    /// Input buffers.
    pub buffers: f64,
    /// Crossbar.
    pub crossbar: f64,
    /// VC + switch allocators.
    pub allocators: f64,
    /// Routing logic (DOR or CDOR).
    pub routing: f64,
}

impl RouterArea {
    /// Total router area (µm²).
    pub fn total(&self) -> f64 {
        self.buffers + self.crossbar + self.allocators + self.routing
    }
}

/// Area model comparing DOR and CDOR routing logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaModel {
    /// Router structure.
    pub config: AreaConfig,
}

impl AreaModel {
    /// Creates the model.
    pub fn new(config: AreaConfig) -> Self {
        AreaModel { config }
    }

    /// Gate-equivalents of the per-router DOR routing logic: per output-port
    /// circuit, two coordinate comparators (X and Y) plus ~20 gates of
    /// direction decode.
    pub fn dor_routing_gates(&self) -> f64 {
        let per_port = 2.0 * comparator_gates(self.config.coord_bits) + 20.0;
        per_port * self.config.ports as f64
    }

    /// Gate-equivalents of CDOR routing logic: DOR plus, per switch, two
    /// connectivity-bit registers (Cw, Ce) and per-port ~12 extra AND/OR
    /// terms implementing the convex detour cases of Algorithm 2 (Fig. 6).
    pub fn cdor_routing_gates(&self) -> f64 {
        let register_bits = 2.0 * 6.0; // 2 flops at ~6 gate-eq each
        self.dor_routing_gates() + register_bits + 12.0 * self.config.ports as f64
    }

    /// Gate-equivalents of LBDR routing logic (Flich et al., the general
    /// irregular-topology scheme the paper adapts): per switch, **twelve
    /// configuration bits** — 8 routing bits `R_xy` + 4 connectivity bits —
    /// plus the second-level AND/OR terms evaluating the quadrant rules per
    /// output port.
    fn lbdr_routing_gates(&self) -> f64 {
        let register_bits = 12.0 * 6.0; // 12 flops
        self.dor_routing_gates() + register_bits + 18.0 * self.config.ports as f64
    }

    /// Router with LBDR routing (the 12-bit general scheme).
    pub fn lbdr_router(&self) -> RouterArea {
        self.router_area(self.lbdr_routing_gates())
    }

    /// LBDR area overhead relative to the DOR router, as a fraction.
    pub fn lbdr_overhead(&self) -> f64 {
        let dor = self.dor_router().total();
        (self.lbdr_router().total() - dor) / dor
    }

    /// Full router area with the given routing-logic gate count.
    fn router_area(&self, routing_gates: f64) -> RouterArea {
        let c = &self.config;
        let buffer_bits = (c.flit_bits as usize * c.vcs_per_port * c.buffer_depth * c.ports) as f64;
        // Allocators: VA is ~(ports*vcs)² arbitration cells, SA ~ports²*vcs.
        let va_gates = ((c.ports * c.vcs_per_port) as f64).powi(2) * 2.2;
        let sa_gates = (c.ports as f64).powi(2) * c.vcs_per_port as f64 * 3.0;
        RouterArea {
            buffers: buffer_bits * BUFFER_BIT_UM2,
            crossbar: (c.ports as f64).powi(2) * f64::from(c.flit_bits) * XBAR_POINT_UM2,
            allocators: (va_gates + sa_gates) * NAND2_UM2,
            routing: routing_gates * NAND2_UM2,
        }
    }

    /// Router with conventional DOR routing.
    pub fn dor_router(&self) -> RouterArea {
        self.router_area(self.dor_routing_gates())
    }

    /// Router with CDOR routing (connectivity bits + convex cases).
    pub fn cdor_router(&self) -> RouterArea {
        self.router_area(self.cdor_routing_gates())
    }

    /// CDOR area overhead relative to the DOR router, as a fraction.
    pub fn cdor_overhead(&self) -> f64 {
        let dor = self.dor_router().total();
        let cdor = self.cdor_router().total();
        (cdor - dor) / dor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdor_overhead_below_two_percent() {
        // The paper's synthesis result: < 2% over a conventional DOR switch.
        let m = AreaModel::new(AreaConfig::paper());
        let o = m.cdor_overhead();
        assert!(o > 0.0, "CDOR must cost something");
        assert!(
            o < 0.02,
            "CDOR overhead {o:.4} exceeds the paper's 2% bound"
        );
    }

    #[test]
    fn buffers_dominate_router_area() {
        let a = AreaModel::new(AreaConfig::paper()).dor_router();
        assert!(a.buffers > a.crossbar);
        assert!(a.buffers > a.allocators);
        assert!(a.buffers > 0.3 * a.total());
    }

    #[test]
    fn router_area_is_plausible_for_45nm() {
        // A 128-bit 5-port 4-VC router at 45 nm lands in the 0.01-0.1 mm²
        // class.
        let t = AreaModel::new(AreaConfig::paper()).dor_router().total();
        assert!((10_000.0..100_000.0).contains(&t), "router {t} µm²");
    }

    #[test]
    fn cdor_gate_count_exceeds_dor() {
        let m = AreaModel::new(AreaConfig::paper());
        assert!(m.cdor_routing_gates() > m.dor_routing_gates());
    }

    #[test]
    fn cdor_is_cheaper_than_lbdr() {
        // §3.2: Flich et al.'s scheme "requires twelve extra bits per
        // switch"; CDOR's whole point is doing convex regions with two.
        let m = AreaModel::new(AreaConfig::paper());
        assert!(m.cdor_routing_gates() < m.lbdr_routing_gates());
        assert!(m.cdor_overhead() < m.lbdr_overhead());
    }

    #[test]
    fn overhead_shrinks_with_bigger_buffers() {
        // Fixed routing-logic delta over a larger router => smaller fraction.
        let small = AreaModel::new(AreaConfig {
            buffer_depth: 2,
            ..AreaConfig::paper()
        });
        let big = AreaModel::new(AreaConfig {
            buffer_depth: 8,
            ..AreaConfig::paper()
        });
        assert!(big.cdor_overhead() < small.cdor_overhead());
    }
}
