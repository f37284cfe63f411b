//! Latency and throughput statistics.
//!
//! Two complementary accumulators:
//!
//! - [`LatencySample`] keeps the population exactly, as one count per
//!   distinct value, and answers exact nearest-rank quantiles. Latencies in
//!   cycles repeat heavily (tens of thousands of packets share a few dozen
//!   values), so memory scales with the distinct values, not with the
//!   observations, and the counts are already in sorted order.
//! - [`StreamingHistogram`] is a log-bucketed (HDR-style) sketch: O(1)
//!   record, O(buckets) quantile, fixed memory, mergeable — the right shape
//!   for always-on telemetry where the exact answer is not needed.

use std::collections::BTreeMap;

/// Online accumulator for a latency population.
///
/// Stores one count per distinct value, ascending, plus the observation
/// count and the `u64` sum, so every answer is exact and the same as over
/// the full list of observations. Values are keyed in 32 bits, which holds
/// any latency of a run whose cycles fit a flit's 32-bit stamps, and each
/// value is counted in 32 bits, which holds every packet of a run whose
/// packet ids fit them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySample {
    /// Observations per distinct value. Two samples are equal when they hold
    /// the same population, whatever the insertion order.
    counts: BTreeMap<u32, u32>,
    /// Number of observations (the sum of `counts`).
    total: u64,
    /// Sum of the observations.
    sum: u64,
}

impl LatencySample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` passes `u32::MAX`, which no run that
    /// [`crate::sim::SimConfig::validate`] accepts can measure, or if one
    /// value is observed more than `u32::MAX` times.
    pub fn record(&mut self, cycles: u64) {
        let key = u32::try_from(cycles)
            .unwrap_or_else(|_| panic!("latency {cycles} does not fit 32 bits"));
        let count = self.counts.entry(key).or_insert(0);
        *count = count
            .checked_add(1)
            .unwrap_or_else(|| panic!("latency {cycles} observed more than 2^32 - 1 times"));
        self.total += 1;
        self.sum += cycles;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.total as usize
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Maximum observation.
    pub fn max(&self) -> Option<u64> {
        self.counts.last_key_value().map(|(&v, _)| u64::from(v))
    }

    /// Minimum observation.
    pub fn min(&self) -> Option<u64> {
        self.counts.first_key_value().map(|(&v, _)| u64::from(v))
    }

    /// `q`-quantile (0.0..=1.0) by nearest-rank over the sorted population.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * (self.total as f64 - 1.0)).round() as u64).min(self.total - 1);
        let mut seen = 0u64;
        for (&v, &c) in &self.counts {
            seen += u64::from(c);
            if seen > rank {
                return Some(u64::from(v));
            }
        }
        unreachable!("rank {rank} below the total {}", self.total)
    }

    /// Histogram with the given bucket width; returns `(bucket_start, count)`
    /// pairs for nonempty buckets in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn histogram(&self, bucket: u64) -> Vec<(u64, usize)> {
        assert!(bucket > 0, "bucket width must be positive");
        let mut out: Vec<(u64, usize)> = Vec::new();
        for (&v, &c) in &self.counts {
            let start = u64::from(v) / bucket * bucket;
            match out.last_mut() {
                Some((s, n)) if *s == start => *n += c as usize,
                _ => out.push((start, c as usize)),
            }
        }
        out
    }

    /// Copies every observation into a [`StreamingHistogram`] (telemetry
    /// export).
    pub fn to_streaming(&self) -> StreamingHistogram {
        let mut h = StreamingHistogram::new();
        for (&v, &c) in &self.counts {
            h.record_n(u64::from(v), u64::from(c));
        }
        h
    }
}

/// Sub-bucket resolution of [`StreamingHistogram`]: each power-of-two range
/// is split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `2^-SUB_BITS` (~3.1%).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range at `SUB_BITS` resolution.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-bucketed streaming histogram: O(1) [`StreamingHistogram::record`],
/// O(buckets) [`StreamingHistogram::quantile`], fixed ~15 KiB footprint.
///
/// Values below `2^SUB_BITS` are stored exactly; larger values land in
/// buckets of relative width `2^-SUB_BITS` (~3.1%), so reported quantiles
/// are within that bound of the exact nearest-rank answer. Histograms over
/// the same bucketing merge losslessly ([`StreamingHistogram::merge`]),
/// which is what lets per-point telemetry aggregate across a parallel run.
#[derive(Clone)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for StreamingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingHistogram")
            .field("count", &self.total)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("mean", &self.mean())
            .finish_non_exhaustive()
    }
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of a value. Exact for `v < 2^SUB_BITS`; otherwise
    /// the top `SUB_BITS + 1` significant bits select the bucket.
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
        SUB + (e - SUB_BITS) as usize * SUB + sub
    }

    /// Lower bound of bucket `idx`.
    fn lower_bound(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let e = SUB_BITS + ((idx - SUB) / SUB) as u32;
        let sub = ((idx - SUB) % SUB) as u64;
        (SUB as u64 + sub) << (e - SUB_BITS)
    }

    /// Representative value reported for bucket `idx` (midpoint, exact for
    /// the unit-width low buckets).
    fn representative(idx: usize) -> u64 {
        let lower = Self::lower_bound(idx);
        if idx < SUB {
            return lower;
        }
        let e = SUB_BITS + ((idx - SUB) / SUB) as u32;
        let width = 1u64 << (e - SUB_BITS);
        lower + width / 2
    }

    /// Records one observation. O(1).
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations. O(1).
    fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(v)] += n;
        self.total += n;
        self.sum += u128::from(v) * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of all observations (`u128`, so 2^64 observations of
    /// `u64::MAX` cannot overflow). Exposed for telemetry snapshots that
    /// must serialize and re-merge histograms without losing precision —
    /// `mean() * count()` would round through `f64`.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// `q`-quantile (0.0..=1.0) by nearest-rank over the buckets: the
    /// representative value of the bucket holding the rank. Within
    /// `2^-SUB_BITS` (~3.1%) of the exact answer.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * (self.total as f64 - 1.0)).round() as u64).min(self.total - 1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                // Clamp to the observed range so sparse extremes stay exact.
                return Some(Self::representative(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Adds every bucket of `other` into `self` (lossless for identical
    /// bucketing, which all histograms of this type share).
    pub fn merge(&mut self, other: &StreamingHistogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nonempty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::lower_bound(i), c))
            .collect()
    }
}

/// Aggregated output of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// End-to-end packet latency (creation to tail delivery), cycles.
    pub packet_latency: LatencySample,
    /// Network latency (head injection to tail delivery), cycles.
    pub network_latency: LatencySample,
    /// Measured packets delivered.
    pub packets_delivered: u64,
    /// Measured flits delivered.
    pub flits_delivered: u64,
    /// All flits (measured or not) delivered *during* the measurement
    /// window; the basis for accepted throughput.
    pub window_flits: u64,
    /// Cycles in the measurement window.
    pub measure_cycles: u64,
    /// Number of traffic-generating nodes.
    pub traffic_nodes: usize,
    /// Offered load, flits/cycle/node.
    pub offered_load: f64,
    /// Whether the run failed to drain measured packets in the drain budget
    /// (the operating point is beyond saturation).
    pub saturated: bool,
}

impl SimStats {
    /// Accepted throughput in flits/cycle/node over the measurement window.
    pub fn accepted_throughput(&self) -> f64 {
        if self.measure_cycles == 0 || self.traffic_nodes == 0 {
            return 0.0;
        }
        self.window_flits as f64 / self.measure_cycles as f64 / self.traffic_nodes as f64
    }

    /// Mean packet latency (cycles); `f64::INFINITY` when nothing delivered
    /// (deep saturation).
    pub fn avg_packet_latency(&self) -> f64 {
        self.packet_latency.mean().unwrap_or(f64::INFINITY)
    }

    /// Mean network latency (cycles).
    pub fn avg_network_latency(&self) -> f64 {
        self.network_latency.mean().unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_stats() {
        let s = LatencySample::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.quantile(0.5).is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn mean_and_extremes() {
        let mut s = LatencySample::new();
        for v in [10, 20, 30] {
            s.record(v);
        }
        assert_eq!(s.mean(), Some(20.0));
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(30));
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = LatencySample::new();
        for v in 1..=100 {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(100));
        let p50 = s.quantile(0.5).unwrap();
        assert!((49..=52).contains(&p50));
        let p99 = s.quantile(0.99).unwrap();
        assert!((98..=100).contains(&p99));
    }

    #[test]
    fn quantiles_see_records_made_after_a_query() {
        let mut s = LatencySample::new();
        for v in [5u64, 1, 9] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(9));
        // Record after querying: the new value must be seen.
        s.record(0);
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(9));
        assert_eq!(s.mean(), Some(15.0 / 4.0));
    }

    #[test]
    fn histogram_buckets() {
        let mut s = LatencySample::new();
        for v in [1, 2, 9, 10, 11, 25] {
            s.record(v);
        }
        let h = s.histogram(10);
        assert_eq!(h, vec![(0, 3), (10, 2), (20, 1)]);
    }

    #[test]
    fn throughput_computation() {
        let stats = SimStats {
            packet_latency: LatencySample::new(),
            network_latency: LatencySample::new(),
            packets_delivered: 100,
            flits_delivered: 500,
            window_flits: 500,
            measure_cycles: 1000,
            traffic_nodes: 5,
            offered_load: 0.1,
            saturated: false,
        };
        assert!((stats.accepted_throughput() - 0.1).abs() < 1e-12);
        assert_eq!(stats.avg_packet_latency(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_out_of_range_panics() {
        let mut s = LatencySample::new();
        s.record(1);
        let _ = s.quantile(1.5);
    }

    #[test]
    fn latency_keys_hold_32_bits() {
        let mut s = LatencySample::new();
        s.record(u64::from(u32::MAX));
        assert_eq!(s.max(), Some(u64::from(u32::MAX)));
        assert_eq!(s.mean(), Some(f64::from(u32::MAX)));
    }

    #[test]
    #[should_panic(expected = "latency 4294967296 does not fit 32 bits")]
    fn latency_past_32_bits_panics() {
        LatencySample::new().record(1 << 32);
    }

    #[test]
    fn streaming_empty_has_no_stats() {
        let h = StreamingHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_none());
        assert!(h.quantile(0.5).is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn streaming_small_values_are_exact() {
        let mut h = StreamingHistogram::new();
        for v in [0u64, 1, 2, 3, 30, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(31));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn streaming_quantile_error_is_bounded() {
        let mut exact = LatencySample::new();
        let mut h = StreamingHistogram::new();
        // A skewed population spanning several octaves.
        let mut x = 1u64;
        for i in 0..10_000u64 {
            let v = 10 + (x % 5000) + i % 7;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            exact.record(v);
            h.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let e = exact.quantile(q).unwrap() as f64;
            let a = h.quantile(q).unwrap() as f64;
            assert!(
                (a - e).abs() <= e * 0.04 + 1.0,
                "q={q}: streaming {a} vs exact {e}"
            );
        }
        assert_eq!(h.count(), exact.count() as u64);
        let me = exact.mean().unwrap();
        assert!((h.mean().unwrap() - me).abs() < 1e-9, "mean is exact");
    }

    #[test]
    fn streaming_bucket_bounds_are_consistent() {
        // lower_bound(index(v)) <= v for all v across octave boundaries.
        for v in (0u64..2000).chain([1 << 20, (1 << 20) + 13, u64::MAX / 2, u64::MAX]) {
            let idx = StreamingHistogram::index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            let lo = StreamingHistogram::lower_bound(idx);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            if idx + 1 < BUCKETS {
                let next = StreamingHistogram::lower_bound(idx + 1);
                assert!(v < next, "value {v} beyond next bucket {next}");
            }
        }
    }

    #[test]
    fn streaming_merge_equals_combined_stream() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        let mut all = StreamingHistogram::new();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * 3);
            all.record(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.buckets(), all.buckets());
        for q in [0.25, 0.5, 0.75] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn sample_exports_to_streaming() {
        let mut s = LatencySample::new();
        for v in [4u64, 8, 100, 1000] {
            s.record(v);
        }
        let h = s.to_streaming();
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(4));
        assert_eq!(h.max(), Some(1000));
    }
}
