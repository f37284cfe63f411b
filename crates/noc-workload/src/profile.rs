//! PARSEC 2.1 benchmark scalability profiles.
//!
//! The paper characterizes PARSEC on gem5 (Fig. 4) into three classes:
//! benchmarks that **scale** to all 16 cores (blackscholes, bodytrack), a
//! **serial** benchmark that gains nothing from extra cores (freqmine), and
//! benchmarks that **peak then degrade** — speedup grows to a modest core
//! count, then thread scheduling, synchronization and the longer
//! interconnect paths of a spread-out computation make additional cores
//! *hurt* (vips, swaptions, ...).
//!
//! We encode each benchmark as an analytic profile (see
//! [`crate::speedup::ExecutionModel`] for the law) with parameters chosen so
//! that the suite-level aggregates land on the paper's headline numbers:
//! fine-grained sprinting to the per-benchmark optimum gives ~3.6x mean
//! speedup while all-core full-sprinting gives only ~1.9x (Fig. 7).
//! Parameters were set from the qualitative shapes in Fig. 4; this is the
//! documented substitution for running PARSEC itself (DESIGN.md §2).

/// Scalability class of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalabilityClass {
    /// Speedup keeps growing through 16 cores.
    Scalable,
    /// Mostly sequential; extra cores are wasted.
    Serial,
    /// Speedup peaks at an intermediate core count, then degrades.
    PeakThenDegrade,
}

/// Analytic scalability profile of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name (PARSEC 2.1).
    pub name: &'static str,
    /// Serial fraction of the single-core execution time (Amdahl's `s`).
    pub serial_fraction: f64,
    /// Intrinsic parallelism limit: cores beyond this count do no useful
    /// division of work.
    pub parallelism_limit: u32,
    /// Per-core overhead slope: scheduling/synchronization/interconnect time
    /// added per additional active core (fraction of T(1)).
    pub overhead_per_core: f64,
    /// Oversubscription penalty: extra time per unit of
    /// `(n - limit) / limit` once the parallelism limit is exceeded.
    pub oversubscription_penalty: f64,
    /// Average NoC injection rate while executing (flits/cycle/node);
    /// the paper observes PARSEC never exceeds 0.3.
    pub injection_rate: f64,
    /// Fraction of network traffic headed to the memory controller (the
    /// master node in the paper's system) rather than peer cores: cache
    /// misses and off-chip accesses. Drives the hotspot component of the
    /// synthesized traffic.
    pub memory_intensity: f64,
    /// Scalability class (for reporting).
    pub class: ScalabilityClass,
}

impl BenchmarkProfile {
    /// Builds a profile; validates ranges.
    ///
    /// # Panics
    ///
    /// Panics if fractions are outside `[0, 1]` or the limit is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &'static str,
        serial_fraction: f64,
        parallelism_limit: u32,
        overhead_per_core: f64,
        oversubscription_penalty: f64,
        injection_rate: f64,
        memory_intensity: f64,
        class: ScalabilityClass,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&serial_fraction),
            "serial fraction outside [0, 1]"
        );
        assert!(parallelism_limit >= 1, "parallelism limit must be >= 1");
        assert!(overhead_per_core >= 0.0, "negative overhead");
        assert!(oversubscription_penalty >= 0.0, "negative penalty");
        assert!(
            (0.0..=1.0).contains(&injection_rate),
            "injection rate outside [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&memory_intensity),
            "memory intensity outside [0, 1]"
        );
        BenchmarkProfile {
            name,
            serial_fraction,
            parallelism_limit,
            overhead_per_core,
            oversubscription_penalty,
            injection_rate,
            memory_intensity,
            class,
        }
    }
}

/// The 13-benchmark PARSEC 2.1 roster with calibrated profiles.
pub fn parsec_suite() -> Vec<BenchmarkProfile> {
    use ScalabilityClass::*;
    vec![
        BenchmarkProfile::new("blackscholes", 0.03, 16, 0.0020, 0.00, 0.05, 0.15, Scalable),
        BenchmarkProfile::new("bodytrack", 0.05, 16, 0.0030, 0.00, 0.10, 0.20, Scalable),
        BenchmarkProfile::new(
            "canneal",
            0.22,
            4,
            0.0100,
            0.50,
            0.22,
            0.50,
            PeakThenDegrade,
        ),
        BenchmarkProfile::new("dedup", 0.20, 4, 0.0100, 0.35, 0.18, 0.35, PeakThenDegrade),
        BenchmarkProfile::new(
            "facesim",
            0.10,
            8,
            0.0060,
            0.60,
            0.15,
            0.30,
            PeakThenDegrade,
        ),
        BenchmarkProfile::new("ferret", 0.12, 4, 0.0080, 0.40, 0.16, 0.30, PeakThenDegrade),
        BenchmarkProfile::new(
            "fluidanimate",
            0.06,
            8,
            0.0040,
            0.30,
            0.20,
            0.25,
            PeakThenDegrade,
        ),
        BenchmarkProfile::new("freqmine", 0.88, 16, 0.0020, 0.00, 0.04, 0.25, Serial),
        BenchmarkProfile::new(
            "raytrace",
            0.25,
            4,
            0.0100,
            0.30,
            0.08,
            0.20,
            PeakThenDegrade,
        ),
        BenchmarkProfile::new(
            "streamcluster",
            0.15,
            8,
            0.0100,
            0.50,
            0.28,
            0.45,
            PeakThenDegrade,
        ),
        BenchmarkProfile::new(
            "swaptions",
            0.08,
            4,
            0.0120,
            0.50,
            0.06,
            0.10,
            PeakThenDegrade,
        ),
        BenchmarkProfile::new("vips", 0.07, 8, 0.0070, 0.55, 0.14, 0.30, PeakThenDegrade),
        BenchmarkProfile::new("x264", 0.10, 8, 0.0080, 0.45, 0.12, 0.25, PeakThenDegrade),
    ]
}

/// Looks a benchmark up by name (case-insensitive).
pub fn by_name(name: &str) -> Option<BenchmarkProfile> {
    parsec_suite()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_thirteen_parsec_benchmarks() {
        let names: Vec<&str> = parsec_suite().iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 13);
        for n in [
            "blackscholes",
            "bodytrack",
            "canneal",
            "dedup",
            "facesim",
            "ferret",
            "fluidanimate",
            "freqmine",
            "raytrace",
            "streamcluster",
            "swaptions",
            "vips",
            "x264",
        ] {
            assert!(names.contains(&n), "missing {n}");
        }
    }

    #[test]
    fn injection_rates_below_paper_bound() {
        // "the average network injection rate never exceeds 0.3 flits/cycle".
        for b in parsec_suite() {
            assert!(
                b.injection_rate <= 0.3,
                "{} rate {}",
                b.name,
                b.injection_rate
            );
        }
    }

    #[test]
    fn classes_match_fig4_examples() {
        assert_eq!(
            by_name("blackscholes").unwrap().class,
            ScalabilityClass::Scalable
        );
        assert_eq!(
            by_name("bodytrack").unwrap().class,
            ScalabilityClass::Scalable
        );
        assert_eq!(by_name("freqmine").unwrap().class, ScalabilityClass::Serial);
        assert_eq!(
            by_name("vips").unwrap().class,
            ScalabilityClass::PeakThenDegrade
        );
        assert_eq!(
            by_name("swaptions").unwrap().class,
            ScalabilityClass::PeakThenDegrade
        );
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert!(by_name("VIPS").is_some());
        assert!(by_name("doesnotexist").is_none());
    }

    #[test]
    #[should_panic(expected = "serial fraction")]
    fn rejects_bad_serial_fraction() {
        let _ = BenchmarkProfile::new("x", 1.5, 4, 0.0, 0.0, 0.1, 0.1, ScalabilityClass::Serial);
    }

    #[test]
    #[should_panic(expected = "memory intensity")]
    fn rejects_bad_memory_intensity() {
        let _ = BenchmarkProfile::new("x", 0.5, 4, 0.0, 0.0, 0.1, 1.5, ScalabilityClass::Serial);
    }

    #[test]
    fn memory_intensities_are_moderate() {
        // Cache-missy benchmarks (canneal, streamcluster) lead; compute-
        // bound ones (swaptions, blackscholes) trail.
        let canneal = by_name("canneal").unwrap().memory_intensity;
        let swaptions = by_name("swaptions").unwrap().memory_intensity;
        assert!(canneal > swaptions);
        for b in parsec_suite() {
            assert!((0.05..=0.6).contains(&b.memory_intensity), "{}", b.name);
        }
    }
}
