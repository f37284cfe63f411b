//! Spatially-resolved sprint transient: the block grid coupled to a shared
//! phase-change layer.
//!
//! The lumped model of [`crate::sprint`] captures *when* the PCM budget
//! runs out; this module adds *where* the die overheats first. Each block
//! exchanges heat with a single PCM layer spread over the die; sprinting
//! ends when either the PCM is exhausted **and** some block reaches
//! `T_max`, or a hotspot reaches `T_max` early despite remaining latent
//! budget — which is exactly the failure mode thermal-aware floorplanning
//! (Fig. 12 / Algorithm 3) postpones.

use crate::grid::{TemperatureField, ThermalGrid};
use crate::pcm::{PcmState, PhaseChangeMaterial};

/// Outcome of a spatial sprint run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialSprintOutcome {
    /// Seconds until some block hit `T_max` (`None`: survived the horizon).
    pub shutdown_at: Option<f64>,
    /// Block index that hit `T_max` first, if any.
    pub hotspot_block: Option<usize>,
    /// PCM melt fraction at the end.
    pub final_melt_fraction: f64,
    /// Peak block temperature observed (K).
    pub peak_temp: f64,
    /// Temperature field at the end of the run.
    pub final_field: TemperatureField,
}

/// The coupled grid + PCM simulator.
#[derive(Debug, Clone)]
pub struct GridSprintSim {
    grid: ThermalGrid,
    pcm: PcmState,
    /// PCM layer temperature (K).
    t_pcm: f64,
    /// Block-to-PCM coupling resistance (K/W) per block.
    r_pcm: f64,
    /// PCM sensible capacitance (J/K).
    c_pcm: f64,
    /// Junction shutdown threshold (K).
    t_max: f64,
}

impl GridSprintSim {
    /// Creates the coupled simulator with the die at ambient and the PCM
    /// solid.
    ///
    /// # Panics
    ///
    /// Panics on non-positive coupling parameters.
    pub fn new(
        grid: ThermalGrid,
        material: PhaseChangeMaterial,
        r_pcm: f64,
        c_pcm: f64,
        t_max: f64,
    ) -> Self {
        assert!(r_pcm > 0.0, "r_pcm must be positive");
        assert!(c_pcm > 0.0, "c_pcm must be positive");
        let ambient = grid.params().ambient;
        GridSprintSim {
            grid,
            pcm: PcmState::solid(material),
            t_pcm: ambient,
            r_pcm,
            c_pcm,
            t_max,
        }
    }

    /// Paper-scale configuration: the Fig. 12 grid, the §4 PCM, a 3 K/W
    /// per-block coupling, 0.8 J/K of sensible PCM capacitance and the
    /// 358.15 K shutdown limit.
    pub fn paper() -> Self {
        Self::new(
            ThermalGrid::paper(),
            PhaseChangeMaterial::paper(),
            3.0,
            0.8,
            358.15,
        )
    }

    /// Current PCM melt fraction.
    pub fn melt_fraction(&self) -> f64 {
        self.pcm.melt_fraction()
    }

    /// Runs the sprint under constant per-block power until a block reaches
    /// `T_max` or `horizon` seconds elapse.
    ///
    /// # Panics
    ///
    /// Panics if `power.len()` mismatches the grid or `dt <= 0`.
    pub fn run(&mut self, power: &[f64], horizon: f64, dt: f64) -> SpatialSprintOutcome {
        assert!(dt > 0.0, "dt must be positive");
        assert_eq!(power.len(), self.grid.len(), "power trace length mismatch");
        let blocks = self.grid.len() as f64;
        let mut t = 0.0;
        let mut peak: f64 = self.grid.field().peak().1;
        let mut shutdown_at = None;
        let mut hotspot = None;
        while t < horizon {
            // Heat exchanged between each block and the PCM layer this step
            // is handled as an extra per-block power term.
            let field = self.grid.field();
            let mut q_pcm = 0.0;
            let adjusted: Vec<f64> = (0..self.grid.len())
                .map(|i| {
                    let q = (field.as_slice()[i] - self.t_pcm) / self.r_pcm;
                    q_pcm += q;
                    power[i] - q
                })
                .collect();
            self.grid.step_transient(&adjusted, dt);

            // PCM side: sensible heating until melt, latent during melt.
            let melt_t = self.pcm.material.melt_temp;
            let heat = q_pcm * dt;
            if heat >= 0.0 {
                if self.t_pcm < melt_t {
                    let to_melt = (melt_t - self.t_pcm) * self.c_pcm;
                    if heat <= to_melt {
                        self.t_pcm += heat / self.c_pcm;
                    } else {
                        self.t_pcm = melt_t;
                        let overflow = self.pcm.absorb(heat - to_melt);
                        self.t_pcm += overflow / self.c_pcm;
                    }
                } else if !self.pcm.is_fully_melted() {
                    let overflow = self.pcm.absorb(heat);
                    self.t_pcm += overflow / self.c_pcm;
                } else {
                    self.t_pcm += heat / self.c_pcm;
                }
            } else {
                // Cooling through the PCM: release latent heat first.
                let released = self.pcm.release(-heat);
                self.t_pcm -= (-heat - released) / self.c_pcm;
            }
            debug_assert!(blocks > 0.0);

            t += dt;
            let (idx, p) = self.grid.field().peak();
            peak = peak.max(p);
            if p >= self.t_max {
                shutdown_at = Some(t);
                hotspot = Some(idx);
                break;
            }
        }
        SpatialSprintOutcome {
            shutdown_at,
            hotspot_block: hotspot,
            final_melt_fraction: self.pcm.melt_fraction(),
            peak_temp: peak,
            final_field: self.grid.field(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn powers(active: &[usize], hot: f64) -> Vec<f64> {
        let mut p = vec![0.08; 16];
        for &i in active {
            p[i] = hot;
        }
        p
    }

    #[test]
    fn full_sprint_hits_tmax_in_seconds() {
        let mut sim = GridSprintSim::paper();
        let out = sim.run(&powers(&(0..16).collect::<Vec<_>>(), 3.7), 30.0, 1e-3);
        let at = out.shutdown_at.expect("62 W must overwhelm the package");
        assert!((0.1..20.0).contains(&at), "shutdown at {at} s");
        assert!(out.peak_temp >= 358.0);
    }

    #[test]
    fn four_core_cluster_outlasts_full_sprint() {
        let full_at = {
            let mut sim = GridSprintSim::paper();
            sim.run(&powers(&(0..16).collect::<Vec<_>>(), 3.7), 60.0, 1e-3)
                .shutdown_at
                .expect("full sprint must shut down")
        };
        let mut sim = GridSprintSim::paper();
        let cluster = sim.run(&powers(&[0, 1, 4, 5], 3.7), 60.0, 1e-3);
        match cluster.shutdown_at {
            None => {} // sustained: strictly better
            Some(at) => assert!(at > full_at, "cluster {at} vs full {full_at}"),
        }
    }

    #[test]
    fn spread_cluster_outlasts_corner_cluster() {
        // The spatial version of the floorplanning claim: the same four
        // active tiles survive longer when spread to the corners.
        let corner = {
            let mut sim = GridSprintSim::paper();
            sim.run(&powers(&[0, 1, 4, 5], 9.0), 60.0, 1e-3)
        };
        let spread = {
            let mut sim = GridSprintSim::paper();
            sim.run(&powers(&[0, 3, 12, 15], 9.0), 60.0, 1e-3)
        };
        match (corner.shutdown_at, spread.shutdown_at) {
            (Some(c), Some(s)) => assert!(s > c, "spread {s} vs corner {c}"),
            (Some(_), None) => {} // spread sustained, corner died: even better
            (None, _) => panic!("corner cluster at 9.0 W/tile should overheat"),
        }
    }

    #[test]
    fn pcm_absorbs_before_runaway() {
        // With the PCM attached, the melt fraction should be well advanced
        // by shutdown (the latent heat did real work).
        let mut sim = GridSprintSim::paper();
        let out = sim.run(&powers(&(0..16).collect::<Vec<_>>(), 3.7), 60.0, 1e-3);
        assert!(
            out.final_melt_fraction > 0.3,
            "melt fraction {} too small — PCM not participating",
            out.final_melt_fraction
        );
    }

    #[test]
    fn gentle_power_survives_horizon() {
        let mut sim = GridSprintSim::paper();
        let out = sim.run(&powers(&[0], 3.7), 5.0, 1e-3);
        assert!(out.shutdown_at.is_none());
        assert!(out.peak_temp < 358.15);
    }

    #[test]
    fn pcm_temperature_plateaus_at_melt() {
        let mut sim = GridSprintSim::paper();
        let _ = sim.run(&powers(&(0..16).collect::<Vec<_>>(), 3.7), 1.0, 1e-3);
        // Mid-melt: PCM pinned near the melt temperature.
        if !sim.pcm.is_fully_melted() && sim.melt_fraction() > 0.0 {
            assert!((sim.t_pcm - 331.15).abs() < 1.0, "pcm at {}", sim.t_pcm);
        }
    }
}
