//! Multi-burst sprint runtime: a chip's life as a sequence of sprints.
//!
//! A single sprint (Fig. 1) is one trip through the phases; a real chip
//! sprints repeatedly, and the PCM must *re-freeze* between bursts — if
//! jobs arrive faster than the latent heat drains, later sprints start
//! with a depleted budget and hit `T_max` early. [`SprintRuntime`] carries
//! the lumped thermal state across jobs so exactly that dynamics appears:
//! arrival spacing, policy, and sprint level together decide how much of
//! each job runs at sprint speed versus single-core crawl.

use noc_thermal::sprint::LumpedState;
use noc_workload::profile::BenchmarkProfile;
use noc_workload::speedup::ExecutionModel;

use crate::controller::SprintPolicy;
use crate::experiment::Experiment;

/// A job arriving at the chip.
#[derive(Debug, Clone, Copy)]
pub struct SprintJob {
    /// Workload profile (decides the sprint level and speedup).
    pub profile: BenchmarkProfile,
    /// Work size: seconds of single-core execution.
    pub serial_seconds: f64,
    /// Arrival time (absolute seconds).
    pub arrival: f64,
}

/// Outcome record of one processed job.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// When execution started (>= arrival).
    pub start: f64,
    /// When the job finished.
    pub finish: f64,
    /// Sprint level used.
    pub level: u32,
    /// Seconds executed at sprint speed.
    pub sprint_seconds: f64,
    /// Seconds executed in single-core fallback after a thermal cutoff.
    pub fallback_seconds: f64,
    /// Chip energy consumed by this job (J).
    pub energy: f64,
    /// PCM melt fraction when the job finished.
    pub melt_fraction_after: f64,
}

impl JobRecord {
    /// Job latency from arrival (including any queueing) to finish.
    pub fn turnaround(&self, arrival: f64) -> f64 {
        self.finish - arrival
    }

    /// Whether the thermal envelope cut the sprint short.
    pub fn thermally_limited(&self) -> bool {
        self.fallback_seconds > 0.0
    }
}

/// The stateful runtime.
///
/// ```
/// use noc_sprinting::controller::SprintPolicy;
/// use noc_sprinting::experiment::Experiment;
/// use noc_sprinting::runtime::{SprintJob, SprintRuntime};
/// use noc_workload::profile::by_name;
///
/// let mut rt = SprintRuntime::new(Experiment::paper(), SprintPolicy::NocSprinting);
/// let r = rt.process(&SprintJob {
///     profile: by_name("dedup").expect("in roster"),
///     serial_seconds: 0.5,
///     arrival: 0.0,
/// });
/// assert_eq!(r.level, 4);
/// assert!(!r.thermally_limited());
/// ```
#[derive(Debug)]
pub struct SprintRuntime {
    exp: Experiment,
    policy: SprintPolicy,
    state: LumpedState,
    clock: f64,
    /// Integration step (s).
    dt: f64,
    records: Vec<JobRecord>,
}

impl SprintRuntime {
    /// Creates a runtime at ambient temperature.
    pub fn new(exp: Experiment, policy: SprintPolicy) -> Self {
        let state = exp.sprint_thermal.initial_state();
        SprintRuntime {
            exp,
            policy,
            state,
            clock: 0.0,
            dt: 1e-3,
            records: Vec::new(),
        }
    }

    /// Current junction temperature (K).
    pub fn temperature(&self) -> f64 {
        self.state.temp
    }

    /// Current PCM melt fraction.
    pub fn melt_fraction(&self) -> f64 {
        self.state.pcm.melt_fraction()
    }

    /// Current time (s).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Processed-job records.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Deep-idle chip power between jobs (W): everything gated, uncore in
    /// its retention states. Must sit below the plateau-sustainable power
    /// ((T_melt - T_amb) / R ≈ 4.9 W for the paper package) or the PCM can
    /// never refreeze between sprints.
    const IDLE_POWER_W: f64 = 3.0;

    /// Idles (deep-idle mode) until `until` seconds; the PCM refreezes as
    /// the package sheds heat.
    fn idle_until(&mut self, until: f64) {
        while self.clock < until {
            let step = self.dt.min(until - self.clock);
            self.exp
                .sprint_thermal
                .step_state(&mut self.state, Self::IDLE_POWER_W, step);
            self.clock += step;
        }
    }

    /// Processes one job: sprint until done or `T_max`, then fall back to
    /// single-core execution for the remainder.
    pub fn process(&mut self, job: &SprintJob) -> JobRecord {
        if job.arrival > self.clock {
            self.idle_until(job.arrival);
        }
        let start = self.clock;
        let model = ExecutionModel::new(job.profile);
        let level = self.exp.controller.sprint_level(self.policy, &job.profile);
        let sprint_power = self.exp.chip_sprint_power(self.policy, &job.profile);
        let nominal_power = self
            .exp
            .chip_sprint_power(SprintPolicy::NonSprinting, &job.profile);
        let t_max = self.exp.sprint_thermal.t_max;

        // Work remaining, in seconds of *sprint-mode* execution.
        let mut sprint_left = job.serial_seconds * model.time(level);
        let mut sprint_seconds = 0.0;
        let mut energy = 0.0;
        while sprint_left > 0.0 && self.state.temp < t_max {
            let step = self.dt.min(sprint_left);
            self.exp
                .sprint_thermal
                .step_state(&mut self.state, sprint_power, step);
            self.clock += step;
            sprint_seconds += step;
            sprint_left -= step;
            energy += sprint_power * step;
        }

        // Thermal cutoff: the rest crawls on one core at nominal power.
        let mut fallback_seconds = 0.0;
        if sprint_left > 0.0 {
            let fraction_left = sprint_left / (job.serial_seconds * model.time(level));
            let mut crawl_left = job.serial_seconds * fraction_left;
            while crawl_left > 0.0 {
                let step = self.dt.min(crawl_left);
                self.exp
                    .sprint_thermal
                    .step_state(&mut self.state, nominal_power, step);
                self.clock += step;
                fallback_seconds += step;
                crawl_left -= step;
                energy += nominal_power * step;
            }
        }

        let record = JobRecord {
            start,
            finish: self.clock,
            level,
            sprint_seconds,
            fallback_seconds,
            energy,
            melt_fraction_after: self.state.pcm.melt_fraction(),
        };
        self.records.push(record);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_workload::profile::by_name;

    fn job(name: &str, work: f64, arrival: f64) -> SprintJob {
        SprintJob {
            profile: by_name(name).expect("in roster"),
            serial_seconds: work,
            arrival,
        }
    }

    fn runtime(policy: SprintPolicy) -> SprintRuntime {
        SprintRuntime::new(Experiment::paper(), policy)
    }

    #[test]
    fn single_short_job_finishes_at_sprint_speed() {
        let mut rt = runtime(SprintPolicy::NocSprinting);
        let r = rt.process(&job("dedup", 0.5, 0.0));
        assert!(!r.thermally_limited(), "short job must fit the budget");
        let expected = 0.5 * ExecutionModel::new(by_name("dedup").unwrap()).time(4);
        assert!((r.finish - expected).abs() < 0.01, "finish {}", r.finish);
    }

    #[test]
    fn monster_job_hits_the_thermal_wall_under_full_sprinting() {
        let mut rt = runtime(SprintPolicy::FullSprinting);
        let r = rt.process(&job("blackscholes", 60.0, 0.0));
        assert!(r.thermally_limited(), "60 s of work must exhaust the PCM");
        assert!(r.fallback_seconds > 0.0);
        assert!(rt.temperature() > 330.0);
    }

    #[test]
    fn back_to_back_sprints_deplete_the_budget() {
        // Two full sprints with no gap: the second starts with melted PCM
        // and gets cut off sooner.
        let mut rt = runtime(SprintPolicy::FullSprinting);
        let a = rt.process(&job("bodytrack", 12.0, 0.0));
        let start2 = rt.now();
        let b = rt.process(&job("bodytrack", 12.0, start2));
        assert!(
            b.sprint_seconds <= a.sprint_seconds + 1e-6,
            "second sprint {} vs first {}",
            b.sprint_seconds,
            a.sprint_seconds
        );
    }

    #[test]
    fn idle_gaps_refreeze_the_pcm() {
        let mut rt = runtime(SprintPolicy::FullSprinting);
        let a = rt.process(&job("bodytrack", 12.0, 0.0));
        assert!(a.melt_fraction_after > 0.5);
        // A long idle gap lets the PCM refreeze...
        let resume = rt.now() + 120.0;
        rt.idle_until(resume);
        assert!(
            rt.melt_fraction() < a.melt_fraction_after * 0.8,
            "melt fraction {} did not recover",
            rt.melt_fraction()
        );
        // ...restoring most of the sprint budget.
        let b = rt.process(&job("bodytrack", 12.0, rt.now()));
        assert!(b.sprint_seconds > a.sprint_seconds * 0.6);
    }

    #[test]
    fn noc_sprinting_outlasts_full_on_the_same_trace() {
        // Same medium job stream: the NoC-sprinting runtime spends less of
        // it in single-core fallback.
        let fallback_of = |policy| {
            let mut rt = runtime(policy);
            let mut total_fallback = 0.0;
            for i in 0..4 {
                let r = rt.process(&job("streamcluster", 8.0, i as f64 * 3.0));
                total_fallback += r.fallback_seconds;
            }
            total_fallback
        };
        let full = fallback_of(SprintPolicy::FullSprinting);
        let ns = fallback_of(SprintPolicy::NocSprinting);
        assert!(
            ns < full,
            "NoC-sprinting fallback {ns} should undercut full {full}"
        );
    }

    #[test]
    fn records_accumulate() {
        let mut rt = runtime(SprintPolicy::NocSprinting);
        rt.process(&job("vips", 0.2, 0.0));
        rt.process(&job("dedup", 0.2, 1.0));
        assert_eq!(rt.records().len(), 2);
        assert!(rt.records()[1].start >= 1.0);
    }
}
