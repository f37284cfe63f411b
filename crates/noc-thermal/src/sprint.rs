//! Lumped sprint thermal model: the three-phase timeline of Fig. 1.
//!
//! The die + package is a single RC node coupled to a PCM layer:
//!
//! - **phase 1** — temperature rises from ambient toward `T_inf = T_amb + P·R`
//!   until the PCM melt point,
//! - **phase 2** — the plateau: net inflow is absorbed by latent heat at
//!   constant `T_melt`,
//! - **phase 3** — the PCM is exhausted; temperature rises again until
//!   `T_max`, where the system terminates all but one core (`t_one`).
//!
//! NoC-sprinting improves all three phases by sprinting at lower power:
//! shallower slopes in phases 1 and 3 and a longer plateau in phase 2
//! (§4.4: +55.4% melt duration on average).

use crate::pcm::{PcmState, PhaseChangeMaterial};

/// Durations of the three sprint phases (s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprintPhases {
    /// Phase 1: ambient to `T_melt`.
    pub rise_to_melt: f64,
    /// Phase 2: the melt plateau.
    pub melt: f64,
    /// Phase 3: `T_melt` to `T_max`.
    pub rise_to_max: f64,
}

impl SprintPhases {
    /// Total sprint duration until thermal shutdown (s); infinite when the
    /// power is sustainable.
    pub fn total(&self) -> f64 {
        self.rise_to_melt + self.melt + self.rise_to_max
    }
}

/// Which phase a timeline sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprintPhase {
    /// Heating toward the melt point (phase 1).
    Rise,
    /// Melt plateau (phase 2).
    Melt,
    /// Post-melt heating toward `T_max` (phase 3).
    PostMelt,
    /// After thermal shutdown: single-core operation / cooling.
    Cooldown,
}

/// One sample of a simulated sprint timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Time since sprint start (s).
    pub time: f64,
    /// Junction temperature (K).
    pub temp: f64,
    /// PCM melt fraction in `[0, 1]`.
    pub melt_fraction: f64,
    /// Phase label.
    pub phase: SprintPhase,
}

/// The lumped die/package RC node with attached PCM.
///
/// ```
/// use noc_thermal::sprint::SprintThermalModel;
///
/// let m = SprintThermalModel::paper();
/// // A ~62 W full-chip sprint melts the PCM in about a second...
/// let full = m.phase_durations(62.0);
/// assert!(full.melt < 1.5);
/// // ...while a gated intermediate sprint holds the plateau far longer.
/// assert!(m.phase_durations(30.0).melt > 2.0 * full.melt);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprintThermalModel {
    /// Die-to-ambient thermal resistance (K/W).
    pub resistance: f64,
    /// Die + package thermal capacitance (J/K).
    pub capacitance: f64,
    /// Ambient temperature (K).
    pub ambient: f64,
    /// Maximum junction temperature before shutdown (K).
    pub t_max: f64,
    /// The PCM layer.
    pub pcm: PhaseChangeMaterial,
}

impl SprintThermalModel {
    /// Paper-scale calibration: 45 °C ambient, 85 °C `T_max`, paraffin PCM at
    /// 58 °C, and a package that can sustain ~15 W — so that the ~62 W
    /// full-chip sprint melts the PCM in about one second ("the chip can
    /// sustain computational sprinting for one second in the worst case").
    pub fn paper() -> Self {
        SprintThermalModel {
            resistance: 2.67,
            capacitance: 1.5,
            ambient: 318.15,
            t_max: 358.15,
            pcm: PhaseChangeMaterial::paper(),
        }
    }

    /// Steady-state temperature under constant power (K).
    fn t_inf(&self, power: f64) -> f64 {
        self.ambient + power * self.resistance
    }

    /// Analytic phase durations under constant sprint power (W).
    ///
    /// Components are `f64::INFINITY` where the corresponding threshold is
    /// never reached (e.g. `rise_to_max` when `T_inf <= T_max`).
    pub fn phase_durations(&self, power: f64) -> SprintPhases {
        let rc = self.resistance * self.capacitance;
        let t_inf = self.t_inf(power);
        let rise_to_melt = if t_inf <= self.pcm.melt_temp {
            f64::INFINITY
        } else {
            -rc * ((t_inf - self.pcm.melt_temp) / (t_inf - self.ambient)).ln()
        };
        let net_at_melt = power - (self.pcm.melt_temp - self.ambient) / self.resistance;
        let melt = self.pcm.melt_duration(net_at_melt);
        let rise_to_max = if t_inf <= self.t_max {
            f64::INFINITY
        } else {
            -rc * ((t_inf - self.t_max) / (t_inf - self.pcm.melt_temp)).ln()
        };
        SprintPhases {
            rise_to_melt,
            melt,
            rise_to_max,
        }
    }

    /// Sprint duration until thermal shutdown under constant power (s);
    /// infinite for sustainable power levels.
    pub fn sprint_duration(&self, power: f64) -> f64 {
        self.phase_durations(power).total()
    }

    /// Simulates the Fig. 1 timeline: sprint at `sprint_power` until either
    /// `T_max` is reached or `work_seconds` of sprinting completed, then
    /// drop to `nominal_power` and cool for `cooldown_seconds`.
    pub fn simulate(
        &self,
        sprint_power: f64,
        nominal_power: f64,
        work_seconds: f64,
        cooldown_seconds: f64,
        dt: f64,
    ) -> Vec<TimelinePoint> {
        assert!(dt > 0.0, "dt must be positive");
        let mut temp = self.ambient;
        let mut pcm = PcmState::solid(self.pcm);
        let mut points = Vec::new();
        let mut time = 0.0;
        let mut sprinting = true;
        // The horizon is finalized when the sprint ends (work done or T_max
        // reached): cooldown_seconds past that instant.
        let mut end = work_seconds + cooldown_seconds;
        while time <= end {
            if sprinting && (temp >= self.t_max || time >= work_seconds) {
                sprinting = false;
                end = time + cooldown_seconds;
            }
            let power = if sprinting {
                sprint_power
            } else {
                nominal_power
            };
            let phase = if !sprinting {
                SprintPhase::Cooldown
            } else if pcm.is_fully_melted() {
                SprintPhase::PostMelt
            } else if temp >= self.pcm.melt_temp {
                SprintPhase::Melt
            } else {
                SprintPhase::Rise
            };
            points.push(TimelinePoint {
                time,
                temp,
                melt_fraction: pcm.melt_fraction(),
                phase,
            });

            // Advance one step.
            let mut state = LumpedState { temp, pcm };
            self.step_state(&mut state, power, dt);
            temp = state.temp;
            pcm = state.pcm;
            time += dt;
        }
        points
    }

    /// Advances a lumped thermal state by `dt` seconds under constant chip
    /// power — the stateful core of [`SprintThermalModel::simulate`],
    /// exposed so multi-burst runtimes can carry thermal state across jobs.
    pub fn step_state(&self, state: &mut LumpedState, power: f64, dt: f64) {
        let net = power - (state.temp - self.ambient) / self.resistance;
        let heat = net * dt;
        if state.temp >= self.pcm.melt_temp && !state.pcm.is_fully_melted() && heat > 0.0 {
            // Plateau: latent heat absorbs the inflow; any overflow past
            // full melt heats the die.
            let overflow = state.pcm.absorb(heat);
            state.temp += overflow / self.capacitance;
        } else if state.temp <= self.pcm.melt_temp && state.pcm.melt_fraction() > 0.0 && heat < 0.0
        {
            // Re-freezing: stored latent heat buffers the cooling.
            let released = state.pcm.release(-heat);
            state.temp -= (-heat - released) / self.capacitance;
        } else {
            let mut new_temp = state.temp + heat / self.capacitance;
            // Clamp a crossing into the melt band from below.
            if heat > 0.0 && state.temp < self.pcm.melt_temp && new_temp > self.pcm.melt_temp {
                let past = (new_temp - self.pcm.melt_temp) * self.capacitance;
                let overflow = state.pcm.absorb(past);
                new_temp = self.pcm.melt_temp + overflow / self.capacitance;
            }
            state.temp = new_temp;
        }
    }

    /// A fresh lumped state: die at ambient, PCM solid.
    pub fn initial_state(&self) -> LumpedState {
        LumpedState {
            temp: self.ambient,
            pcm: PcmState::solid(self.pcm),
        }
    }
}

/// Mutable lumped die + PCM state for stateful stepping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LumpedState {
    /// Junction temperature (K).
    pub temp: f64,
    /// PCM melting state.
    pub pcm: PcmState,
}

impl Default for SprintThermalModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SprintThermalModel {
        SprintThermalModel::paper()
    }

    #[test]
    fn full_chip_sprint_lasts_about_one_second() {
        // 62 W full sprint (16 Niagara2-class tiles + uncore) melts the
        // paper PCM in roughly a second.
        let d = model().phase_durations(62.0);
        assert!(
            (0.5..1.6).contains(&d.melt),
            "melt plateau {} s, expected ~1 s",
            d.melt
        );
        assert!(d.total().is_finite());
    }

    #[test]
    fn lower_power_sprints_longer_in_every_phase() {
        let m = model();
        let hi = m.phase_durations(62.0);
        let lo = m.phase_durations(35.0);
        assert!(lo.rise_to_melt > hi.rise_to_melt);
        assert!(lo.melt > hi.melt);
        assert!(lo.rise_to_max > hi.rise_to_max);
    }

    #[test]
    fn sustainable_power_never_shuts_down() {
        let m = model();
        let p = (m.t_max - m.ambient) / m.resistance * 0.9;
        assert!(m.sprint_duration(p).is_infinite());
    }

    #[test]
    fn melt_duration_ratio_matches_net_power_ratio() {
        let m = model();
        let plateau_loss = (m.pcm.melt_temp - m.ambient) / m.resistance;
        let ratio = m.phase_durations(35.0).melt / m.phase_durations(62.0).melt;
        let expect = (62.0 - plateau_loss) / (35.0 - plateau_loss);
        assert!((ratio - expect).abs() < 1e-9);
        assert!(ratio > 1.0);
    }

    #[test]
    fn simulated_timeline_visits_all_phases() {
        let m = model();
        // Sprint long enough to exhaust the PCM and hit T_max.
        let pts = m.simulate(62.0, 8.0, 10.0, 2.0, 1e-3);
        let phases: std::collections::HashSet<_> =
            pts.iter().map(|p| format!("{:?}", p.phase)).collect();
        for ph in ["Rise", "Melt", "PostMelt", "Cooldown"] {
            assert!(phases.contains(ph), "missing phase {ph}");
        }
        // Temperature never exceeds T_max by more than a step's worth.
        assert!(pts.iter().all(|p| p.temp <= m.t_max + 0.5));
    }

    #[test]
    fn plateau_holds_melt_temperature() {
        let m = model();
        let pts = m.simulate(62.0, 8.0, 10.0, 0.0, 1e-3);
        for p in pts.iter().filter(|p| p.phase == SprintPhase::Melt) {
            assert!(
                (p.temp - m.pcm.melt_temp).abs() < 0.2,
                "plateau at {} K, melt {} K",
                p.temp,
                m.pcm.melt_temp
            );
        }
    }

    #[test]
    fn simulated_melt_duration_matches_analytic() {
        let m = model();
        let pts = m.simulate(62.0, 8.0, 10.0, 0.0, 1e-4);
        let melt_time: f64 = pts
            .windows(2)
            .filter(|w| w[0].phase == SprintPhase::Melt)
            .map(|w| w[1].time - w[0].time)
            .sum();
        let analytic = m.phase_durations(62.0).melt;
        assert!(
            (melt_time - analytic).abs() / analytic < 0.05,
            "simulated {melt_time} vs analytic {analytic}"
        );
    }

    #[test]
    fn cooldown_returns_toward_ambient() {
        let m = model();
        let pts = m.simulate(62.0, 0.0, 3.0, 30.0, 1e-3);
        let last = pts.last().unwrap();
        assert!(last.temp < m.ambient + 2.0, "end temp {} K", last.temp);
    }

    #[test]
    fn shutdown_triggers_at_t_max_under_endless_work() {
        let m = model();
        let pts = m.simulate(62.0, 8.0, 1e9, 1.0, 1e-3);
        let peak = pts.iter().map(|p| p.temp).fold(f64::MIN, f64::max);
        assert!(
            (peak - m.t_max).abs() < 0.5,
            "peak {peak} vs t_max {}",
            m.t_max
        );
    }
}
