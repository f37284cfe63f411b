//! `LatencySample` answers exactly what a sorted list of every observation
//! answers: count, mean bits, extremes, nearest-rank quantiles, histograms,
//! the streaming export and population equality, whatever the insertion
//! order.

use std::collections::BTreeMap;

use noc_sim::stats::{LatencySample, StreamingHistogram};
use proptest::prelude::*;

/// The reference: every observation, sorted ascending.
struct Sorted(Vec<u64>);

impl Sorted {
    fn new(values: &[u64]) -> Self {
        let mut v = values.to_vec();
        v.sort_unstable();
        Sorted(v)
    }

    fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<u64>() as f64 / self.0.len() as f64)
    }

    fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.0.len();
        (n > 0).then(|| self.0[((q * (n as f64 - 1.0)).round() as usize).min(n - 1)])
    }

    fn histogram(&self, bucket: u64) -> Vec<(u64, usize)> {
        let mut map = BTreeMap::new();
        for &v in &self.0 {
            *map.entry(v / bucket * bucket).or_insert(0) += 1;
        }
        map.into_iter().collect()
    }

    fn streaming(&self) -> StreamingHistogram {
        let mut h = StreamingHistogram::new();
        for &v in &self.0 {
            h.record(v);
        }
        h
    }
}

fn sample(values: impl IntoIterator<Item = u64>) -> LatencySample {
    let mut s = LatencySample::new();
    for v in values {
        s.record(v);
    }
    s
}

/// Latency-like populations: few distinct values with many repeats, spread
/// by a scale so some populations are wide and sparse.
fn population() -> impl Strategy<Value = Vec<u64>> {
    (prop::collection::vec(0u64..200, 0..300), 1u64..=5_000)
        .prop_map(|(raw, scale)| raw.into_iter().map(|v| 10 + v * scale).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counts_answer_like_the_sorted_reference(values in population(), bucket in 1u64..400) {
        let reference = Sorted::new(&values);
        let s = sample(values.iter().copied());
        prop_assert_eq!(s.count(), reference.0.len());
        prop_assert_eq!(s.mean().map(f64::to_bits), reference.mean().map(f64::to_bits));
        prop_assert_eq!(s.min(), reference.0.first().copied());
        prop_assert_eq!(s.max(), reference.0.last().copied());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(s.quantile(q), reference.quantile(q));
        }
        prop_assert_eq!(s.histogram(bucket), reference.histogram(bucket));
        let (got, want) = (s.to_streaming(), reference.streaming());
        prop_assert_eq!(got.buckets(), want.buckets());
        prop_assert_eq!(got.count(), want.count());
        prop_assert_eq!(got.sum(), want.sum());
        prop_assert_eq!(got.min(), want.min());
        prop_assert_eq!(got.max(), want.max());
    }

    #[test]
    fn equality_is_on_the_population(values in population(), extra in 0u64..1_000) {
        let forward = sample(values.iter().copied());
        let backward = sample(values.iter().rev().copied());
        prop_assert_eq!(&forward, &backward);
        let mut grown = backward.clone();
        grown.record(extra);
        prop_assert_ne!(&forward, &grown);
    }
}
