//! Seeds for load sweeps (booksim-style latency-vs-load curves).
//!
//! A network configuration is characterized by its latency-vs-offered-load
//! curve: flat near zero load ("zero-load latency"), rising with queueing,
//! and diverging at the saturation throughput. Every operating point of a
//! curve is an **independent** simulation: its network, traffic generator
//! and routing function are built from scratch and its RNG seed is a pure
//! function of `(base_seed, point_index)` (see [`point_seed`]). Points can
//! therefore run in any order — or on any thread — and produce
//! bit-identical results; the `SyntheticJob` fan-out of the
//! `noc-sprinting` crate relies on this.

/// Derives the RNG seed of sweep point `index` from the sweep's base seed.
///
/// The derivation is a splitmix64 mix of both inputs — a pure function, so
/// serial and parallel executions (and any thread count) agree on every
/// point's seed, and distinct points get decorrelated streams even for
/// adjacent indices.
#[must_use]
pub fn point_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::router::RouterParams;
    use crate::routing::XyRouting;
    use crate::sim::{SimConfig, SimOutcome, Simulation};
    use crate::topology::Mesh2D;
    use crate::traffic::{Placement, TrafficGen, TrafficPattern};

    /// Uniform-random XY curve of the paper's 4x4 mesh from 4% to ~92%
    /// load in 8% steps, one independently seeded simulation per point.
    fn quick_curve() -> Vec<(f64, SimOutcome)> {
        let mesh = Mesh2D::paper_4x4();
        (0..12u32)
            .map(|i| {
                let load = 0.04 + 0.08 * f64::from(i);
                let net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).unwrap();
                let seed = point_seed(7, i as usize);
                let traffic = TrafficGen::new(
                    TrafficPattern::UniformRandom,
                    Placement::full(&mesh),
                    load,
                    5,
                    seed,
                )
                .unwrap();
                let out = Simulation::new(net, traffic, SimConfig::quick())
                    .run()
                    .unwrap();
                (load, out)
            })
            .collect()
    }

    #[test]
    fn latency_curve_is_increasing_overall() {
        let curve = quick_curve();
        let first = curve[0].1.stats.avg_packet_latency();
        let last_unsat = curve
            .iter()
            .rev()
            .find(|(_, out)| !out.stats.saturated)
            .unwrap()
            .1
            .stats
            .avg_packet_latency();
        assert!(last_unsat > first, "queueing must grow with load");
    }

    #[test]
    fn uniform_4x4_saturates_in_the_classic_band() {
        // XY on a 4x4 with 4 VCs saturates somewhere around 0.35-0.7
        // flits/cycle/node for uniform random.
        let curve = quick_curve();
        let (onset, _) = curve
            .iter()
            .find(|(_, out)| out.stats.saturated)
            .expect("sweep reaches saturation");
        assert!(
            (0.3..0.8).contains(onset),
            "saturation onset {onset} out of band"
        );
        let peak = curve
            .iter()
            .map(|(_, out)| out.stats.accepted_throughput())
            .fold(0.0, f64::max);
        assert!(peak > 0.3);
    }

    #[test]
    fn zero_load_latency_matches_expectation() {
        let z = quick_curve()[0].1.stats.avg_network_latency();
        // ~ (avg hops 2.67 + ejection) * 5 + serialization 4 ≈ 22.
        assert!((15.0..30.0).contains(&z), "zero-load {z}");
    }

    #[test]
    fn point_seed_is_pure_and_decorrelated() {
        assert_eq!(point_seed(7, 3), point_seed(7, 3));
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 7, u64::MAX] {
            for i in 0..64 {
                assert!(
                    seen.insert(point_seed(base, i)),
                    "collision at ({base}, {i})"
                );
            }
        }
        // Adjacent indices must not map to adjacent seeds.
        assert!(point_seed(7, 0).abs_diff(point_seed(7, 1)) > 1 << 20);
    }
}
