//! DSENT-class router power model.
//!
//! Power is split into per-component **dynamic** energy (charged per
//! operation: buffer write/read, crossbar traversal, allocator grant, clock
//! tick) and **leakage** (charged per second while the router is powered).
//! Per-operation energies are a capacitance inventory evaluated at `C · V²`;
//! the constants below are calibrated to DSENT's published ballpark for a
//! five-port 128-bit wormhole router at 45 nm (total power of a few tens of
//! mW at 2 GHz under moderate load, with leakage a comparable share —
//! reproducing the paper's Fig. 2).

use noc_sim::router::RouterActivity;

use crate::tech::{OperatingPoint, TechNode};

/// Reference frequency the dynamic constants are quoted at (GHz).
const FREF_GHZ: f64 = 2.0;

/// Per-bit dynamic energies at `vnom`, in joules/bit (45 nm reference).
mod cal {
    /// Buffer (register-file) write energy per bit.
    pub(super) const E_BUF_WR: f64 = 22e-15;
    /// Buffer read energy per bit.
    pub(super) const E_BUF_RD: f64 = 18e-15;
    /// Crossbar traversal energy per bit (5x5 matrix crossbar).
    pub(super) const E_XBAR: f64 = 31e-15;
    /// VC-allocator energy per successful allocation (per whole op, J).
    pub(super) const E_VA: f64 = 0.9e-12;
    /// Switch-allocator energy per grant (J).
    pub(super) const E_SA: f64 = 0.7e-12;
    /// Clock-tree dynamic energy per cycle per buffered bit of state (J).
    pub(super) const E_CLK_PER_BIT: f64 = 0.045e-15;
    /// Leakage power per buffer bit at vnom (W).
    pub(super) const P_LEAK_BUF_PER_BIT: f64 = 0.55e-6;
    /// Leakage of the crossbar per bit of flit width (W).
    pub(super) const P_LEAK_XBAR_PER_BIT: f64 = 6.0e-6;
    /// Leakage of each allocator (W).
    pub(super) const P_LEAK_ALLOC: f64 = 0.35e-3;
    /// Clock-network leakage per buffered bit (W).
    pub(super) const P_LEAK_CLK_PER_BIT: f64 = 0.04e-6;
}

/// Structural parameters of the router being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Flit width in bits (Table 1: 128).
    pub flit_bits: u32,
    /// Virtual channels per input port.
    pub vcs_per_port: usize,
    /// Flit slots per VC.
    pub buffer_depth: usize,
    /// Number of ports (5 for a mesh router).
    pub ports: usize,
}

impl RouterConfig {
    /// Table 1 configuration: 128-bit flits, 4 VCs x 4 flits, 5 ports.
    pub fn paper() -> Self {
        RouterConfig {
            flit_bits: 128,
            vcs_per_port: 4,
            buffer_depth: 4,
            ports: 5,
        }
    }

    /// Fig. 2 study configuration: 2 VCs per port, 4-flit deep.
    pub fn fig2() -> Self {
        RouterConfig {
            vcs_per_port: 2,
            ..Self::paper()
        }
    }

    /// Total buffer storage bits across the router.
    pub fn buffer_bits(&self) -> u64 {
        self.flit_bits as u64
            * self.vcs_per_port as u64
            * self.buffer_depth as u64
            * self.ports as u64
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Power split by router component (W).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentPower {
    /// Input buffers.
    pub buffer: f64,
    /// Crossbar.
    pub crossbar: f64,
    /// VC allocator.
    pub va: f64,
    /// Switch allocator.
    pub sa: f64,
    /// Clock tree.
    pub clock: f64,
}

impl ComponentPower {
    /// Sum over components.
    pub fn total(&self) -> f64 {
        self.buffer + self.crossbar + self.va + self.sa + self.clock
    }

    /// Element-wise sum.
    pub fn add(&self, other: &ComponentPower) -> ComponentPower {
        ComponentPower {
            buffer: self.buffer + other.buffer,
            crossbar: self.crossbar + other.crossbar,
            va: self.va + other.va,
            sa: self.sa + other.sa,
            clock: self.clock + other.clock,
        }
    }

    /// Element-wise scale.
    pub fn scale(&self, k: f64) -> ComponentPower {
        ComponentPower {
            buffer: self.buffer * k,
            crossbar: self.crossbar * k,
            va: self.va * k,
            sa: self.sa * k,
            clock: self.clock * k,
        }
    }
}

/// Dynamic + leakage power of one router (W).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterPower {
    /// Activity-proportional power.
    pub dynamic: ComponentPower,
    /// Standby power.
    pub leakage: ComponentPower,
}

impl RouterPower {
    /// Total router power (W).
    pub fn total(&self) -> f64 {
        self.dynamic.total() + self.leakage.total()
    }

    /// Leakage share of total power in `[0, 1]`.
    pub fn leakage_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.leakage.total() / t
        }
    }

    /// Element-wise sum.
    pub fn add(&self, other: &RouterPower) -> RouterPower {
        RouterPower {
            dynamic: self.dynamic.add(&other.dynamic),
            leakage: self.leakage.add(&other.leakage),
        }
    }
}

/// The router power model: evaluates dynamic energies and leakage for a
/// [`RouterConfig`] on a [`TechNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterPowerModel {
    /// Process node.
    pub tech: TechNode,
    /// Router structure.
    pub config: RouterConfig,
}

impl RouterPowerModel {
    /// Creates the model.
    pub fn new(tech: TechNode, config: RouterConfig) -> Self {
        RouterPowerModel { tech, config }
    }

    /// The paper's evaluation model: Table 1 router at 45 nm.
    pub fn paper() -> Self {
        Self::new(TechNode::nm45(), RouterConfig::paper())
    }

    /// Dynamic energy of one buffer write (J) at the operating point.
    fn energy_buffer_write(&self, op: &OperatingPoint) -> f64 {
        cal::E_BUF_WR * f64::from(self.config.flit_bits) * self.scale_e(op)
    }

    /// Dynamic energy of one buffer read (J).
    fn energy_buffer_read(&self, op: &OperatingPoint) -> f64 {
        cal::E_BUF_RD * f64::from(self.config.flit_bits) * self.scale_e(op)
    }

    /// Dynamic energy of one crossbar traversal (J).
    fn energy_crossbar(&self, op: &OperatingPoint) -> f64 {
        cal::E_XBAR * f64::from(self.config.flit_bits) * self.scale_e(op)
    }

    /// Dynamic energy of one VC allocation (J).
    fn energy_va(&self, op: &OperatingPoint) -> f64 {
        cal::E_VA * self.scale_e(op)
    }

    /// Dynamic energy of one switch-allocator grant (J).
    fn energy_sa(&self, op: &OperatingPoint) -> f64 {
        cal::E_SA * self.scale_e(op)
    }

    /// Clock-tree dynamic power (W): charged every cycle while powered.
    fn clock_dynamic_power(&self, op: &OperatingPoint) -> f64 {
        cal::E_CLK_PER_BIT * self.config.buffer_bits() as f64 * self.scale_e(op) * op.freq_ghz * 1e9
    }

    /// Leakage power breakdown (W) while powered on.
    pub fn leakage(&self, op: &OperatingPoint) -> ComponentPower {
        let s = op.leakage_scale(&self.tech);
        ComponentPower {
            buffer: cal::P_LEAK_BUF_PER_BIT * self.config.buffer_bits() as f64 * s,
            crossbar: cal::P_LEAK_XBAR_PER_BIT * f64::from(self.config.flit_bits) * s,
            va: cal::P_LEAK_ALLOC * s,
            sa: cal::P_LEAK_ALLOC * s,
            clock: cal::P_LEAK_CLK_PER_BIT * self.config.buffer_bits() as f64 * s,
        }
    }

    /// Average power from measured simulator activity over `cycles` cycles.
    ///
    /// This is the DSENT-style interface: the cycle-level simulator counts
    /// events ([`RouterActivity`]) and the power model prices them.
    pub fn power_from_activity(
        &self,
        op: &OperatingPoint,
        activity: &RouterActivity,
        cycles: u64,
    ) -> RouterPower {
        assert!(cycles > 0, "activity window must be nonempty");
        let window_s = cycles as f64 * op.cycle_seconds();
        let dynamic = ComponentPower {
            buffer: (activity.buffer_writes as f64 * self.energy_buffer_write(op)
                + activity.buffer_reads as f64 * self.energy_buffer_read(op))
                / window_s,
            crossbar: activity.crossbar_traversals as f64 * self.energy_crossbar(op) / window_s,
            va: activity.vc_allocations as f64 * self.energy_va(op) / window_s,
            sa: activity.switch_allocations as f64 * self.energy_sa(op) / window_s,
            clock: self.clock_dynamic_power(op),
        };
        RouterPower {
            dynamic,
            leakage: self.leakage(op),
        }
    }

    /// Analytic power at an average per-node injection rate (flits/cycle),
    /// as used for the standalone router study of Fig. 2.
    ///
    /// Every injected flit is written, read and crossed once per router it
    /// visits; Fig. 2 evaluates a single router, so the rate is applied
    /// directly as flits/cycle through it.
    pub fn power_at_injection_rate(
        &self,
        op: &OperatingPoint,
        flits_per_cycle: f64,
    ) -> RouterPower {
        assert!(
            (0.0..=f64::from(self.config.ports as u32)).contains(&flits_per_cycle),
            "rate {flits_per_cycle} flits/cycle exceeds port bandwidth"
        );
        let fhz = op.freq_ghz * 1e9;
        let flits_per_s = flits_per_cycle * fhz;
        // One VA/SA op per packet/flit respectively; assume the paper's
        // 5-flit packets for the allocator rates.
        let packets_per_s = flits_per_s / 5.0;
        let dynamic = ComponentPower {
            buffer: flits_per_s * (self.energy_buffer_write(op) + self.energy_buffer_read(op)),
            crossbar: flits_per_s * self.energy_crossbar(op),
            va: packets_per_s * self.energy_va(op),
            sa: flits_per_s * self.energy_sa(op),
            clock: self.clock_dynamic_power(op),
        };
        RouterPower {
            dynamic,
            leakage: self.leakage(op),
        }
    }

    fn scale_e(&self, op: &OperatingPoint) -> f64 {
        op.energy_scale(&self.tech) * self.tech.cap_scale
    }

    /// Reference frequency for dynamic constants (GHz).
    pub fn fref_ghz() -> f64 {
        FREF_GHZ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RouterPowerModel {
        RouterPowerModel::new(TechNode::nm45(), RouterConfig::fig2())
    }

    #[test]
    fn fig2_total_power_is_tens_of_milliwatts() {
        let m = model();
        let p = m.power_at_injection_rate(&OperatingPoint::nominal(), 0.4);
        let total_mw = p.total() * 1e3;
        assert!(
            (5.0..100.0).contains(&total_mw),
            "router power {total_mw} mW out of DSENT ballpark"
        );
    }

    #[test]
    fn fig2_leakage_share_rises_across_sweep() {
        let m = model();
        let mut last = 0.0;
        for op in OperatingPoint::fig2_sweep() {
            let p = m.power_at_injection_rate(&op, 0.4);
            let frac = p.leakage_fraction();
            assert!(frac > last, "leakage share must rise at {op}: {frac}");
            last = frac;
        }
    }

    #[test]
    fn fig2_leakage_exceeds_dynamic_at_low_vf() {
        // "...and even exceeds that of dynamic power in some cases."
        let m = model();
        let p = m.power_at_injection_rate(&OperatingPoint::new(0.75, 1.0), 0.4);
        assert!(
            p.leakage.total() > p.dynamic.total(),
            "leakage {} should exceed dynamic {} at 0.75 V / 1 GHz",
            p.leakage.total(),
            p.dynamic.total()
        );
    }

    #[test]
    fn leakage_is_significant_at_nominal() {
        // "leakage power contributes a significant portion" — at least ~25%
        // at nominal V/f under 0.4 flits/cycle.
        let m = model();
        let p = m.power_at_injection_rate(&OperatingPoint::nominal(), 0.4);
        let f = p.leakage_fraction();
        assert!((0.2..0.7).contains(&f), "leakage fraction {f}");
    }

    #[test]
    fn dynamic_power_proportional_to_rate() {
        let m = model();
        let op = OperatingPoint::nominal();
        let p1 = m.power_at_injection_rate(&op, 0.1);
        let p2 = m.power_at_injection_rate(&op, 0.2);
        let d1 = p1.dynamic.total() - p1.dynamic.clock;
        let d2 = p2.dynamic.total() - p2.dynamic.clock;
        assert!((d2 / d1 - 2.0).abs() < 1e-9);
        // Leakage does not change with rate.
        assert!((p1.leakage.total() - p2.leakage.total()).abs() < 1e-15);
    }

    #[test]
    fn activity_interface_matches_analytic_rate() {
        // Feeding the analytic rate as explicit counts must give the same
        // dynamic power.
        let m = model();
        let op = OperatingPoint::nominal();
        let cycles = 1_000_000u64;
        let flits = (0.4 * cycles as f64) as u64;
        let act = RouterActivity {
            buffer_writes: flits,
            buffer_reads: flits,
            crossbar_traversals: flits,
            vc_allocations: flits / 5,
            switch_allocations: flits,
            link_flits: flits,
        };
        let from_act = m.power_from_activity(&op, &act, cycles);
        let analytic = m.power_at_injection_rate(&op, 0.4);
        assert!((from_act.total() - analytic.total()).abs() / analytic.total() < 1e-3);
    }

    #[test]
    fn buffer_bits_match_structure() {
        assert_eq!(RouterConfig::paper().buffer_bits(), 128 * 4 * 4 * 5);
        assert_eq!(RouterConfig::fig2().buffer_bits(), 128 * 2 * 4 * 5);
    }

    #[test]
    fn bigger_buffers_leak_more() {
        let small = RouterPowerModel::new(TechNode::nm45(), RouterConfig::fig2());
        let big = RouterPowerModel::new(TechNode::nm45(), RouterConfig::paper());
        let op = OperatingPoint::nominal();
        assert!(big.leakage(&op).buffer > small.leakage(&op).buffer);
    }

    #[test]
    fn component_power_algebra() {
        let a = ComponentPower {
            buffer: 1.0,
            crossbar: 2.0,
            va: 3.0,
            sa: 4.0,
            clock: 5.0,
        };
        assert_eq!(a.total(), 15.0);
        assert_eq!(a.add(&a).total(), 30.0);
        assert_eq!(a.scale(0.5).total(), 7.5);
    }

    #[test]
    #[should_panic(expected = "exceeds port bandwidth")]
    fn rejects_impossible_rates() {
        let m = model();
        let _ = m.power_at_injection_rate(&OperatingPoint::nominal(), 10.0);
    }
}
