//! Power-gating mechanics: wakeup cost and break-even time.
//!
//! Gating a router saves its leakage but costs wakeup energy (recharging the
//! virtual-VDD rail) and wakeup latency. Gating pays off only when the idle
//! period exceeds the **break-even time** (BET). The paper's observation is
//! that traffic-driven gating schemes (Catnap, NoRD, router parking) make
//! *reactive* decisions with frequent wakeups, whereas NoC-sprinting derives
//! the gating set from the sprint level, guaranteeing idle periods equal to
//! the entire sprint phase — far beyond BET.

/// Parameters of the power-gating circuit around one router.
///
/// ```
/// use noc_power::gating::GatingParams;
///
/// let g = GatingParams::paper_router();
/// // A reactive 100-cycle nap costs more wakeup energy than it saves, while
/// // a sprint-scoped idle period (a whole 1 s sprint at 2 GHz) saves nearly
/// // all the leakage.
/// assert!(g.net_energy_saved(100) < 0.0);
/// assert!(g.net_energy_saved(2_000_000_000) > 0.99 * g.leakage_saved_w);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingParams {
    /// Leakage power saved while gated (W) — the router's leakage minus the
    /// sleep-transistor residual.
    pub leakage_saved_w: f64,
    /// Energy to wake the domain up (J): rail recharge + state restore.
    pub wakeup_energy_j: f64,
    /// Cycles from wakeup trigger until the router can accept flits.
    pub wakeup_latency_cycles: u64,
    /// Clock frequency (GHz) used to convert cycles to seconds.
    pub freq_ghz: f64,
}

impl GatingParams {
    /// Representative 45 nm values for the paper's router: ~4 mW leakage
    /// saved, ~2 nJ wakeup, ~10 cycles wakeup latency at 2 GHz.
    pub fn paper_router() -> Self {
        GatingParams {
            leakage_saved_w: 4.0e-3,
            wakeup_energy_j: 2.0e-9,
            wakeup_latency_cycles: 10,
            freq_ghz: 2.0,
        }
    }

    /// Net energy saved (J) by gating for an idle period of `idle_cycles`;
    /// negative when the period is below break-even.
    pub fn net_energy_saved(&self, idle_cycles: u64) -> f64 {
        let idle_s = idle_cycles as f64 / (self.freq_ghz * 1e9);
        self.leakage_saved_w * idle_s - self.wakeup_energy_j
    }
}

impl Default for GatingParams {
    fn default() -> Self {
        Self::paper_router()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_router_bet_is_hundreds_of_cycles() {
        // 2 nJ / 4 mW = 500 ns = 1000 cycles at 2 GHz: the class of BET that
        // makes reactive gating hard but sprint-scoped gating trivial.
        let g = GatingParams::paper_router();
        assert!(g.net_energy_saved(100) < 0.0);
        assert!(g.net_energy_saved(100_000) > 0.0);
    }

    #[test]
    fn sprint_length_idle_periods_dwarf_bet() {
        // A 1-second sprint at 2 GHz is 2e9 cycles of guaranteed idleness
        // for gated routers; saving must approach leakage * time.
        let g = GatingParams::paper_router();
        let cycles = 2_000_000_000u64;
        let saved = g.net_energy_saved(cycles);
        let ideal = g.leakage_saved_w * 1.0;
        assert!(saved > 0.99 * ideal);
    }

    #[test]
    fn zero_idle_period_costs_energy() {
        assert!(GatingParams::paper_router().net_energy_saved(0) < 0.0);
    }
}
