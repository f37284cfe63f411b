//! The execution-time model.
//!
//! Normalized to `T(1) = 1`, the time on `n` cores is
//!
//! ```text
//! T(n) = s  +  (1 - s) / min(n, L)  +  a·(n - 1)  +  g·max(0, n - L) / L
//! ```
//!
//! where `s` is the serial fraction, `L` the parallelism limit, `a` the
//! per-core scheduling/synchronization/interconnect overhead and `g` the
//! oversubscription penalty. The four terms map directly onto the paper's
//! explanation of Fig. 4: Amdahl scaling up to the application's intrinsic
//! parallelism, plus overheads from "thread scheduling, synchronization, and
//! long interconnect delay due to the spread of computation resources" that
//! eventually *reverse* the gains.

use crate::profile::BenchmarkProfile;

/// Per-phase split of an execution, used for time-weighted power accounting
/// (Fig. 8): during the serial phase one core works while the other sprint
/// cores idle; during the rest all `n` are busy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeBreakdown {
    /// Time with a single busy core (the serial phase).
    pub serial: f64,
    /// Time with all `n` active cores busy (parallel work + overheads).
    pub parallel: f64,
}

impl TimeBreakdown {
    /// Total normalized execution time.
    pub fn total(&self) -> f64 {
        self.serial + self.parallel
    }
}

/// Evaluates the execution-time law for one benchmark.
///
/// ```
/// use noc_workload::profile::by_name;
/// use noc_workload::speedup::{ExecutionModel, OPTIMAL_TOLERANCE};
///
/// let vips = ExecutionModel::new(by_name("vips").expect("in roster"));
/// assert_eq!(vips.optimal_cores(16, OPTIMAL_TOLERANCE), 8);
/// assert!(vips.time(16) > vips.time(8), "oversubscription hurts");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionModel {
    /// The benchmark profile.
    pub profile: BenchmarkProfile,
}

impl ExecutionModel {
    /// Creates a model for a profile.
    pub fn new(profile: BenchmarkProfile) -> Self {
        ExecutionModel { profile }
    }

    /// Normalized execution time on `n` cores (`T(1) = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn time(&self, n: u32) -> f64 {
        assert!(n >= 1, "need at least one core");
        self.breakdown(n).total()
    }

    /// Serial/parallel split of `time(n)`.
    pub fn breakdown(&self, n: u32) -> TimeBreakdown {
        assert!(n >= 1, "need at least one core");
        let p = &self.profile;
        let s = p.serial_fraction;
        let l = f64::from(p.parallelism_limit);
        let nf = f64::from(n);
        let eff = nf.min(l);
        let amdahl = (1.0 - s) / eff;
        let overhead = p.overhead_per_core * (nf - 1.0);
        let oversub = p.oversubscription_penalty * ((nf - l).max(0.0) / l);
        TimeBreakdown {
            serial: s,
            parallel: amdahl + overhead + oversub,
        }
    }

    /// Speedup over single-core execution.
    pub fn speedup(&self, n: u32) -> f64 {
        1.0 / self.time(n)
    }

    /// The smallest core count whose time is within `tolerance`
    /// (fractional, e.g. `0.03`) of the best achievable over `1..=max_n`.
    ///
    /// This is the paper's "optimal number of cores ... allocating just
    /// enough power to support the maximal performance speedup": among
    /// near-optimal configurations, fewer cores win.
    pub fn optimal_cores(&self, max_n: u32, tolerance: f64) -> u32 {
        assert!(max_n >= 1, "need at least one core");
        assert!(tolerance >= 0.0, "negative tolerance");
        let best = (1..=max_n)
            .map(|n| self.time(n))
            .fold(f64::INFINITY, f64::min);
        (1..=max_n)
            .find(|&n| self.time(n) <= best * (1.0 + tolerance))
            .expect("some core count achieves within tolerance of the best")
    }

    /// Execution-time curve over `1..=max_n` (Fig. 4 series).
    pub fn curve(&self, max_n: u32) -> Vec<(u32, f64)> {
        (1..=max_n).map(|n| (n, self.time(n))).collect()
    }
}

/// Default tolerance used by the sprint controller when picking the optimal
/// level: 3% of the best execution time.
pub const OPTIMAL_TOLERANCE: f64 = 0.03;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{by_name, parsec_suite, ScalabilityClass};

    fn model(name: &str) -> ExecutionModel {
        ExecutionModel::new(by_name(name).unwrap())
    }

    #[test]
    fn single_core_time_is_one() {
        for b in parsec_suite() {
            let t = ExecutionModel::new(b).time(1);
            assert!((t - 1.0).abs() < 1e-12, "{}: T(1) = {t}", b.name);
        }
    }

    #[test]
    fn blackscholes_scales_to_sixteen() {
        let m = model("blackscholes");
        // The tolerance-based optimum may trade 1-2 cores for a within-3%
        // time, but a scalable benchmark must land near the full machine.
        assert!(m.optimal_cores(16, OPTIMAL_TOLERANCE) >= 14);
        assert_eq!(m.optimal_cores(16, 0.0), 16, "strict optimum is all cores");
        assert!(m.speedup(16) > 6.0, "speedup {}", m.speedup(16));
    }

    #[test]
    fn freqmine_is_flat() {
        // "the execution time is almost identical at different
        // configurations".
        let m = model("freqmine");
        for n in 1..=16 {
            let t = m.time(n);
            assert!((0.85..=1.1).contains(&t), "T({n}) = {t}");
        }
        assert!(m.optimal_cores(16, OPTIMAL_TOLERANCE) <= 4);
    }

    #[test]
    fn swaptions_peaks_then_degrades() {
        let m = model("swaptions");
        let opt = m.optimal_cores(16, OPTIMAL_TOLERANCE);
        assert!((2..=8).contains(&opt), "optimal {opt}");
        // Full 16-core execution is slower than the optimum — and can be
        // slower than serial ("suffer from delay penalty").
        assert!(m.time(16) > m.time(opt) * 1.5);
    }

    #[test]
    fn vips_degrades_beyond_its_limit() {
        let m = model("vips");
        let t8 = m.time(8);
        let t16 = m.time(16);
        assert!(t16 > t8, "vips must slow down past 8 cores");
        assert!(m.speedup(8) > 3.0);
    }

    #[test]
    fn dedup_optimal_level_is_four() {
        // §4.4 analyzes dedup "whose optimal level of sprinting is 4".
        let m = model("dedup");
        assert_eq!(m.optimal_cores(16, OPTIMAL_TOLERANCE), 4);
    }

    #[test]
    fn suite_mean_speedups_match_fig7_shape() {
        // Paper: NoC-sprinting 3.6x mean speedup, full-sprinting 1.9x.
        let suite = parsec_suite();
        let n = suite.len() as f64;
        let mut ns_sum = 0.0;
        let mut full_sum = 0.0;
        for b in &suite {
            let m = ExecutionModel::new(*b);
            let opt = m.optimal_cores(16, OPTIMAL_TOLERANCE);
            ns_sum += m.speedup(opt);
            full_sum += m.speedup(16);
        }
        let ns_mean = ns_sum / n;
        let full_mean = full_sum / n;
        assert!(
            (3.0..4.2).contains(&ns_mean),
            "NoC-sprinting mean speedup {ns_mean} vs paper 3.6"
        );
        assert!(
            (1.5..2.4).contains(&full_mean),
            "full-sprinting mean speedup {full_mean} vs paper 1.9"
        );
        assert!(ns_mean > full_mean * 1.5, "fine-grained must clearly win");
    }

    #[test]
    fn breakdown_sums_to_time() {
        for b in parsec_suite() {
            let m = ExecutionModel::new(b);
            for n in [1, 4, 16] {
                let bd = m.breakdown(n);
                assert!((bd.total() - m.time(n)).abs() < 1e-12);
                assert!(bd.serial >= 0.0 && bd.parallel >= 0.0);
            }
        }
    }

    #[test]
    fn optimal_prefers_fewer_cores_within_tolerance() {
        // A perfectly flat benchmark must pick 1 core.
        let flat = BenchmarkProfileFlat::get();
        let m = ExecutionModel::new(flat);
        assert_eq!(m.optimal_cores(16, 0.05), 1);
    }

    struct BenchmarkProfileFlat;
    impl BenchmarkProfileFlat {
        fn get() -> crate::profile::BenchmarkProfile {
            crate::profile::BenchmarkProfile::new(
                "flat",
                1.0,
                1,
                0.0,
                0.0,
                0.01,
                0.1,
                ScalabilityClass::Serial,
            )
        }
    }

    #[test]
    fn scalable_class_monotone_up_to_sixteen() {
        for b in parsec_suite()
            .into_iter()
            .filter(|b| b.class == ScalabilityClass::Scalable)
        {
            let m = ExecutionModel::new(b);
            for n in 1..16 {
                assert!(m.time(n + 1) < m.time(n), "{} not monotone at {n}", b.name);
            }
        }
    }

    #[test]
    fn curve_has_requested_length() {
        let c = model("vips").curve(16);
        assert_eq!(c.len(), 16);
        assert_eq!(c[0], (1, 1.0));
    }
}
