//! HotSpot-class RC thermal grid.
//!
//! The die is discretized into a `W x H` grid of blocks (the paper's Fig. 12
//! abstracts the 16-core CMP as 16 blocks, each comprising a core, its local
//! caches and its network resources). Each block has:
//!
//! - a vertical thermal resistance to ambient (through TIM, spreader and heat
//!   sink),
//! - lateral resistances to its four neighbors (silicon conduction),
//! - an extra lateral path to ambient on chip-boundary edges (spreading into
//!   the package periphery) — this is what makes a uniformly powered chip
//!   hottest at the *center*, as in Fig. 12a,
//! - a thermal capacitance for transient analysis.
//!
//! Steady state is solved by Gauss–Seidel relaxation; transients by forward
//! Euler with a stability-checked step.

use std::fmt;

/// Thermal parameters of the block grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridParams {
    /// Vertical block-to-ambient resistance (K/W).
    pub r_vertical: f64,
    /// Lateral block-to-block resistance (K/W).
    pub r_lateral: f64,
    /// Extra boundary-edge-to-ambient resistance (K/W) per exposed edge.
    pub r_edge: f64,
    /// Block thermal capacitance (J/K).
    pub capacitance: f64,
    /// Ambient temperature (K). HotSpot's default 45 °C.
    pub ambient: f64,
}

impl GridParams {
    /// Calibration for the paper's 16-block, 4x4 floorplan (see DESIGN.md):
    /// fitted by grid search against the three Fig. 12 peaks — full
    /// sprinting (~3.7 W/tile) peaks near 358 K at the center, a 4-tile
    /// corner sprint near 348 K, and the thermal-aware floorplan's spread
    /// sprint cooler still.
    pub fn paper_16block() -> Self {
        GridParams {
            r_vertical: 16.0,
            r_lateral: 10.0,
            r_edge: 50.0,
            capacitance: 40.0e-3,
            ambient: 318.15,
        }
    }

    /// Validates positivity of all parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive resistances or capacitance.
    fn assert_valid(&self) {
        assert!(self.r_vertical > 0.0, "r_vertical must be positive");
        assert!(self.r_lateral > 0.0, "r_lateral must be positive");
        assert!(self.r_edge > 0.0, "r_edge must be positive");
        assert!(self.capacitance > 0.0, "capacitance must be positive");
        assert!(self.ambient > 0.0, "ambient must be positive kelvin");
    }
}

impl Default for GridParams {
    fn default() -> Self {
        Self::paper_16block()
    }
}

/// A temperature field over the block grid (K), row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureField {
    width: usize,
    height: usize,
    temps: Vec<f64>,
}

impl TemperatureField {
    /// Grid width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Temperature of block `(x, y)`.
    pub fn at(&self, x: usize, y: usize) -> f64 {
        self.temps[y * self.width + x]
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.temps
    }

    /// Peak temperature and its block index.
    pub fn peak(&self) -> (usize, f64) {
        self.temps
            .iter()
            .copied()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |(bi, bt), (i, t)| {
                if t > bt {
                    (i, t)
                } else {
                    (bi, bt)
                }
            })
    }

    /// Mean temperature.
    pub fn mean(&self) -> f64 {
        self.temps.iter().sum::<f64>() / self.temps.len() as f64
    }
}

impl fmt::Display for TemperatureField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for y in 0..self.height {
            for x in 0..self.width {
                if x > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:7.2}", self.at(x, y))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The RC thermal grid solver.
///
/// ```
/// use noc_thermal::grid::ThermalGrid;
///
/// let grid = ThermalGrid::paper();
/// let field = grid.steady_state(&vec![3.7; 16]); // full-sprint power map
/// let (block, peak) = field.peak();
/// assert!([5, 6, 9, 10].contains(&block), "hotspot at the chip center");
/// assert!(peak > 350.0);
/// ```
#[derive(Debug, Clone)]
pub struct ThermalGrid {
    width: usize,
    height: usize,
    params: GridParams,
    /// Current block temperatures (K) for transient stepping.
    temps: Vec<f64>,
}

impl ThermalGrid {
    /// Creates a grid at ambient temperature.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions or invalid parameters.
    pub fn new(width: usize, height: usize, params: GridParams) -> Self {
        assert!(width > 0 && height > 0, "grid must be nonempty");
        params.assert_valid();
        ThermalGrid {
            width,
            height,
            params,
            temps: vec![params.ambient; width * height],
        }
    }

    /// The paper's 4x4 / 16-block configuration.
    pub fn paper() -> Self {
        Self::new(4, 4, GridParams::paper_16block())
    }

    /// Grid parameters.
    pub fn params(&self) -> &GridParams {
        &self.params
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Whether the grid has no blocks (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current temperatures.
    pub fn field(&self) -> TemperatureField {
        TemperatureField {
            width: self.width,
            height: self.height,
            temps: self.temps.clone(),
        }
    }

    fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (x, y) = (i % self.width, i / self.width);
        let w = self.width;
        let h = self.height;
        [
            (x > 0).then(|| i - 1),
            (x + 1 < w).then(|| i + 1),
            (y > 0).then(|| i - w),
            (y + 1 < h).then(|| i + w),
        ]
        .into_iter()
        .flatten()
    }

    /// Number of chip-boundary edges of block `i` (0 interior, up to 2 at
    /// corners on grids larger than 1x1).
    fn exposed_edges(&self, i: usize) -> usize {
        let (x, y) = (i % self.width, i / self.width);
        usize::from(x == 0)
            + usize::from(x + 1 == self.width)
            + usize::from(y == 0)
            + usize::from(y + 1 == self.height)
    }

    /// Net heat inflow (W) to block `i` at temperatures `t` with power `p`.
    fn inflow(&self, t: &[f64], power: &[f64], i: usize) -> f64 {
        let gp = &self.params;
        let mut q = power[i];
        q += (gp.ambient - t[i]) / gp.r_vertical;
        q += self.exposed_edges(i) as f64 * (gp.ambient - t[i]) / gp.r_edge;
        for j in self.neighbors(i) {
            q += (t[j] - t[i]) / gp.r_lateral;
        }
        q
    }

    /// Solves the steady-state temperature field for the given block powers
    /// (W), by Gauss–Seidel relaxation to the given residual tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the block count.
    pub fn steady_state(&self, power: &[f64]) -> TemperatureField {
        assert_eq!(power.len(), self.len(), "power trace length mismatch");
        let gp = &self.params;
        let mut t = vec![gp.ambient; self.len()];
        // Diagonal conductance per block (W/K).
        let diag: Vec<f64> = (0..self.len())
            .map(|i| {
                1.0 / gp.r_vertical
                    + self.exposed_edges(i) as f64 / gp.r_edge
                    + self.neighbors(i).count() as f64 / gp.r_lateral
            })
            .collect();
        for _ in 0..100_000 {
            let mut max_delta: f64 = 0.0;
            for i in 0..self.len() {
                let mut rhs = power[i]
                    + gp.ambient / gp.r_vertical
                    + self.exposed_edges(i) as f64 * gp.ambient / gp.r_edge;
                for j in self.neighbors(i) {
                    rhs += t[j] / gp.r_lateral;
                }
                let new = rhs / diag[i];
                max_delta = max_delta.max((new - t[i]).abs());
                t[i] = new;
            }
            if max_delta < 1e-9 {
                break;
            }
        }
        TemperatureField {
            width: self.width,
            height: self.height,
            temps: t,
        }
    }

    /// Advances the transient solution by `dt` seconds under constant block
    /// powers, using forward Euler with internal sub-stepping for stability.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` differs from the block count or `dt <= 0`.
    pub fn step_transient(&mut self, power: &[f64], dt: f64) {
        assert_eq!(power.len(), self.len(), "power trace length mismatch");
        assert!(dt > 0.0, "dt must be positive");
        let gp = self.params;
        // Stability: dt_sub < C / G_max; take a 4x margin.
        let g_max = 1.0 / gp.r_vertical + 4.0 / gp.r_lateral + 2.0 / gp.r_edge;
        let dt_stable = gp.capacitance / g_max / 4.0;
        let substeps = (dt / dt_stable).ceil().max(1.0) as usize;
        let h = dt / substeps as f64;
        let mut next = self.temps.clone();
        for _ in 0..substeps {
            for (i, slot) in next.iter_mut().enumerate() {
                let q = self.inflow(&self.temps, power, i);
                *slot = self.temps[i] + h * q / gp.capacitance;
            }
            std::mem::swap(&mut self.temps, &mut next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_power_stays_at_ambient() {
        let g = ThermalGrid::paper();
        let f = g.steady_state(&[0.0; 16]);
        for &t in f.as_slice() {
            assert!((t - g.params().ambient).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_power_peaks_at_center() {
        // Fig. 12a: full-sprinting with near-uniform power produces a
        // center hotspot.
        let g = ThermalGrid::paper();
        let f = g.steady_state(&[3.7; 16]);
        let (peak_idx, peak_t) = f.peak();
        assert!(
            [5, 6, 9, 10].contains(&peak_idx),
            "peak at block {peak_idx}, expected a center block"
        );
        // Corners are the coolest.
        let corner = f.at(0, 0);
        assert!(peak_t > corner + 0.5, "no center-edge gradient");
    }

    #[test]
    fn steady_state_conserves_energy() {
        // Total inflow must be zero at steady state: generated power equals
        // power leaving through vertical + edge paths.
        let g = ThermalGrid::paper();
        let power: Vec<f64> = (0..16).map(|i| 0.3 * i as f64).collect();
        let f = g.steady_state(&power);
        for i in 0..16 {
            let q = g.inflow(f.as_slice(), &power, i);
            assert!(q.abs() < 1e-6, "block {i} residual {q}");
        }
    }

    #[test]
    fn more_power_means_hotter() {
        let g = ThermalGrid::paper();
        let low = g.steady_state(&[1.0; 16]);
        let high = g.steady_state(&[2.0; 16]);
        for i in 0..16 {
            assert!(high.as_slice()[i] > low.as_slice()[i]);
        }
    }

    #[test]
    fn clustered_power_is_hotter_than_spread_power() {
        // The core claim behind thermal-aware floorplanning: the same total
        // power concentrated in adjacent blocks peaks hotter than spread to
        // the four corners.
        let g = ThermalGrid::paper();
        let mut clustered = vec![0.15; 16];
        for i in [0, 1, 4, 5] {
            clustered[i] = 3.7;
        }
        let mut spread = vec![0.15; 16];
        for i in [0, 3, 12, 15] {
            spread[i] = 3.7;
        }
        let (_, peak_c) = g.steady_state(&clustered).peak();
        let (_, peak_s) = g.steady_state(&spread).peak();
        assert!(
            peak_c > peak_s + 0.5,
            "clustered {peak_c} should exceed spread {peak_s}"
        );
    }

    #[test]
    fn transient_approaches_steady_state() {
        let mut g = ThermalGrid::paper();
        let power = vec![2.0; 16];
        let target = g.steady_state(&power);
        // Simulate long enough (tau ~ R*C ~ 12 * 0.04 = 0.5 s per block).
        for _ in 0..100 {
            g.step_transient(&power, 0.1);
        }
        let f = g.field();
        for i in 0..16 {
            assert!(
                (f.as_slice()[i] - target.as_slice()[i]).abs() < 0.05,
                "block {i}: transient {} vs steady {}",
                f.as_slice()[i],
                target.as_slice()[i]
            );
        }
    }

    #[test]
    fn transient_heating_is_monotonic_from_ambient() {
        let mut g = ThermalGrid::paper();
        let power = vec![3.0; 16];
        let mut last = g.field().mean();
        for _ in 0..20 {
            g.step_transient(&power, 0.05);
            let m = g.field().mean();
            assert!(m >= last - 1e-9);
            last = m;
        }
    }

    #[test]
    fn field_display_renders_grid() {
        let g = ThermalGrid::paper();
        let s = g.field().to_string();
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_power_length_panics() {
        let g = ThermalGrid::paper();
        let _ = g.steady_state(&[1.0; 3]);
    }
}
