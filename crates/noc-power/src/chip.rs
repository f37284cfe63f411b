//! McPAT-class chip power budget for a Niagara2-style tiled CMP.
//!
//! Reproduces the paper's Fig. 3 experiment: during *nominal* operation
//! (single active core, everything else dark) the NoC share of chip power
//! grows from ~18% at 4 cores to ~42% at 32 cores, because the network
//! cannot be fully gated — a dark router would block packet forwarding and
//! access to the shared, distributed LLC.
//!
//! The same budget supplies the per-tile powers for the sprint experiments
//! (Fig. 8 core power, Fig. 12 thermal maps).

/// What an inactive core is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing at full frequency.
    Active,
    /// Clock-gated but powered: leaks and burns clock/standby power.
    Idle,
    /// Power-gated (dark silicon): only a residual leak through the sleep
    /// transistors remains.
    Gated,
}

/// Calibrated component powers (W) for one Niagara2-class tile at 45 nm,
/// 2 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPowerParams {
    /// One core, active at full frequency.
    pub core_active_w: f64,
    /// Idle (clock-gated) core power as a fraction of active.
    pub idle_fraction: f64,
    /// Power-gated core residual as a fraction of active.
    pub gated_fraction: f64,
    /// One shared-L2 bank (one per tile).
    pub l2_bank_w: f64,
    /// One NoC node (router + its link drivers), powered, light traffic.
    pub noc_per_node_w: f64,
    /// Residual power of a power-gated NoC node as a fraction of powered.
    pub noc_gated_fraction: f64,
    /// Memory-controller base power.
    pub mc_base_w: f64,
    /// Memory-controller increment per core.
    pub mc_per_core_w: f64,
    /// Fixed "others" (PCIe controllers, misc IO).
    pub other_w: f64,
}

impl ChipPowerParams {
    /// Calibration used for the paper reproduction (see DESIGN.md): lands
    /// the Fig. 3 NoC shares at 18/26/35/42% for 4/8/16/32 cores.
    fn niagara2_like() -> Self {
        ChipPowerParams {
            core_active_w: 3.0,
            idle_fraction: 0.65,
            gated_fraction: 0.02,
            l2_bank_w: 0.30,
            noc_per_node_w: 0.40,
            noc_gated_fraction: 0.03,
            mc_base_w: 0.80,
            mc_per_core_w: 0.0125,
            other_w: 2.0,
        }
    }
}

impl Default for ChipPowerParams {
    fn default() -> Self {
        Self::niagara2_like()
    }
}

/// Chip power split by subsystem (W), the Fig. 3 categories.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChipPowerBreakdown {
    /// All cores.
    pub cores: f64,
    /// Shared L2 banks.
    pub l2: f64,
    /// Network-on-chip (routers + links).
    pub noc: f64,
    /// Memory controllers.
    pub mc: f64,
    /// Everything else (PCIe, misc).
    pub other: f64,
}

impl ChipPowerBreakdown {
    /// Total chip power (W).
    pub fn total(&self) -> f64 {
        self.cores + self.l2 + self.noc + self.mc + self.other
    }

    /// NoC share of total in `[0, 1]`.
    pub fn noc_fraction(&self) -> f64 {
        self.noc / self.total()
    }
}

/// The chip-level power model.
///
/// ```
/// use noc_power::chip::ChipPowerModel;
///
/// let m = ChipPowerModel::paper();
/// // Fig. 3: the NoC's share of nominal chip power grows with core count.
/// let f16 = m.nominal_breakdown(16).noc_fraction();
/// let f32 = m.nominal_breakdown(32).noc_fraction();
/// assert!(f16 > 0.3 && f32 > f16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPowerModel {
    /// Component calibration.
    pub params: ChipPowerParams,
}

impl ChipPowerModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: ChipPowerParams) -> Self {
        ChipPowerModel { params }
    }

    /// The paper's calibrated Niagara2-class model.
    pub fn paper() -> Self {
        Self::new(ChipPowerParams::niagara2_like())
    }

    /// Power of one core in a given state (W).
    pub fn core_power(&self, state: CoreState) -> f64 {
        let p = &self.params;
        match state {
            CoreState::Active => p.core_active_w,
            CoreState::Idle => p.core_active_w * p.idle_fraction,
            CoreState::Gated => p.core_active_w * p.gated_fraction,
        }
    }

    /// Total core-subsystem power with `active` running cores out of
    /// `total`, the rest in `inactive` state (W).
    ///
    /// # Panics
    ///
    /// Panics if `active > total`.
    fn cores_power(&self, total: usize, active: usize, inactive: CoreState) -> f64 {
        assert!(active <= total, "more active cores than cores");
        active as f64 * self.core_power(CoreState::Active)
            + (total - active) as f64 * self.core_power(inactive)
    }

    /// NoC power with `nodes_on` powered nodes out of `total` (W).
    pub fn noc_power(&self, total: usize, nodes_on: usize) -> f64 {
        assert!(nodes_on <= total, "more powered NoC nodes than nodes");
        let p = &self.params;
        nodes_on as f64 * p.noc_per_node_w
            + (total - nodes_on) as f64 * p.noc_per_node_w * p.noc_gated_fraction
    }

    /// Fig. 3: chip breakdown during nominal operation — one active core,
    /// the rest power-gated, the entire NoC and all L2 banks powered
    /// (conventional sprinting has no NoC gating story).
    pub fn nominal_breakdown(&self, n_cores: usize) -> ChipPowerBreakdown {
        let p = &self.params;
        ChipPowerBreakdown {
            cores: self.cores_power(n_cores, 1, CoreState::Gated),
            l2: n_cores as f64 * p.l2_bank_w,
            noc: self.noc_power(n_cores, n_cores),
            mc: p.mc_base_w + p.mc_per_core_w * n_cores as f64,
            other: p.other_w,
        }
    }

    /// Chip breakdown during a sprint: `active` running cores, the others in
    /// `inactive` state, `noc_nodes_on` powered network nodes. L2 banks are
    /// tile-coupled: a bank stays powered while its NoC node is on and is
    /// gated (bypassed, §3.4) with it.
    pub fn sprint_breakdown(
        &self,
        n_cores: usize,
        active: usize,
        inactive: CoreState,
        noc_nodes_on: usize,
    ) -> ChipPowerBreakdown {
        let p = &self.params;
        let l2 = noc_nodes_on as f64 * p.l2_bank_w
            + (n_cores - noc_nodes_on) as f64 * p.l2_bank_w * p.gated_fraction;
        ChipPowerBreakdown {
            cores: self.cores_power(n_cores, active, inactive),
            l2,
            noc: self.noc_power(n_cores, noc_nodes_on),
            mc: p.mc_base_w + p.mc_per_core_w * n_cores as f64,
            other: p.other_w,
        }
    }

    /// Power of one tile (core + its L2 bank + its NoC node) for the thermal
    /// model's per-block power trace (W).
    pub fn tile_power(&self, core: CoreState, noc_on: bool) -> f64 {
        let p = &self.params;
        let noc = if noc_on {
            p.noc_per_node_w
        } else {
            p.noc_per_node_w * p.noc_gated_fraction
        };
        // L2 banks stay powered while their node is on (shared LLC); a gated
        // node's bank is bypassed and gated with it.
        let l2 = if noc_on {
            p.l2_bank_w
        } else {
            p.l2_bank_w * p.gated_fraction
        };
        self.core_power(core) + l2 + noc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_noc_shares_match_paper() {
        // Paper: NoC accounts for 18%, 26%, 35%, 42% of chip power at
        // 4/8/16/32 cores in nominal mode. Allow +/- 2.5 points.
        let m = ChipPowerModel::paper();
        let expect = [(4usize, 0.18), (8, 0.26), (16, 0.35), (32, 0.42)];
        for (n, want) in expect {
            let frac = m.nominal_breakdown(n).noc_fraction();
            assert!(
                (frac - want).abs() < 0.025,
                "{n}-core NoC share {frac:.3} vs paper {want}"
            );
        }
    }

    #[test]
    fn core_share_shrinks_as_dark_silicon_grows() {
        // "the power ratio for the single active core keeps decreasing".
        let m = ChipPowerModel::paper();
        let mut last = f64::INFINITY;
        for n in [4, 8, 16, 32] {
            let b = m.nominal_breakdown(n);
            let frac = b.cores / b.total();
            assert!(frac < last);
            last = frac;
        }
    }

    #[test]
    fn core_state_ordering() {
        let m = ChipPowerModel::paper();
        assert!(m.core_power(CoreState::Active) > m.core_power(CoreState::Idle));
        assert!(m.core_power(CoreState::Idle) > m.core_power(CoreState::Gated));
        assert!(
            m.core_power(CoreState::Gated) > 0.0,
            "sleep transistors leak"
        );
    }

    #[test]
    fn gating_inactive_cores_saves_power() {
        let m = ChipPowerModel::paper();
        let idle = m.cores_power(16, 4, CoreState::Idle);
        let gated = m.cores_power(16, 4, CoreState::Gated);
        let full = m.cores_power(16, 16, CoreState::Idle);
        assert!(gated < idle);
        assert!(idle < full);
    }

    #[test]
    fn noc_gating_scales_with_nodes_on() {
        let m = ChipPowerModel::paper();
        let full = m.noc_power(16, 16);
        let four = m.noc_power(16, 4);
        assert!(four < full * 0.35, "4-node NoC {four} vs full {full}");
        assert!(four > full * 0.05, "residual leakage still present");
    }

    #[test]
    fn tile_power_composition() {
        let m = ChipPowerModel::paper();
        let hot = m.tile_power(CoreState::Active, true);
        let dark = m.tile_power(CoreState::Gated, false);
        assert!(hot > 3.0 && hot < 5.0, "active tile {hot} W");
        assert!(dark < 0.2, "dark tile {dark} W");
    }

    #[test]
    fn sprint_breakdown_totals_are_consistent() {
        let m = ChipPowerModel::paper();
        let b = m.sprint_breakdown(16, 4, CoreState::Gated, 4);
        let manual = b.cores + b.l2 + b.noc + b.mc + b.other;
        assert!((b.total() - manual).abs() < 1e-12);
        // Intermediate sprint burns less than full sprint.
        let full = m.sprint_breakdown(16, 16, CoreState::Gated, 16);
        assert!(b.total() < full.total());
    }

    #[test]
    #[should_panic(expected = "more active cores")]
    fn rejects_overcommitted_cores() {
        let _ = ChipPowerModel::paper().cores_power(4, 5, CoreState::Idle);
    }
}
