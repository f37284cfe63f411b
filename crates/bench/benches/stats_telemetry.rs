//! Criterion microbenchmarks of the statistics path: repeated quantile
//! queries against the naive clone-and-sort baseline, the exact
//! [`LatencySample`], and the log-bucketed [`StreamingHistogram`].
//!
//! The naive baseline clones and re-sorts the raw observations on *every*
//! query — O(n log n) per call. [`LatencySample`] keeps one count per
//! distinct value in sorted order, so a query walks the distinct values
//! (O(d)) and memory grows with `d`, not with the observations; the
//! streaming histogram never stores raw samples at all (O(1) record,
//! O(buckets) quantile).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use noc_sim::stats::{LatencySample, StreamingHistogram};

/// Deterministic pseudo-latencies (splitmix64 stream, bounded to a
/// plausible cycle range).
fn latencies(n: usize) -> Vec<u64> {
    let mut z = 0x243f_6a88_85a3_08d3u64;
    (0..n)
        .map(|_| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (x ^ (x >> 31)) % 2_000 + 10
        })
        .collect()
}

/// The pre-telemetry implementation: clone + sort on every query.
fn naive_quantile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted.get(rank).copied()
}

fn bench_quantile_queries(c: &mut Criterion) {
    const QUERIES: &[f64] = &[0.5, 0.9, 0.95, 0.99];
    let mut group = c.benchmark_group("quantile_queries");
    for &n in &[1_000usize, 100_000] {
        let raw = latencies(n);
        group.throughput(Throughput::Elements(QUERIES.len() as u64));

        group.bench_with_input(BenchmarkId::new("naive_clone_sort", n), &raw, |b, raw| {
            b.iter(|| {
                QUERIES
                    .iter()
                    .map(|&q| naive_quantile(raw, q).unwrap())
                    .sum::<u64>()
            })
        });

        let mut sample = LatencySample::new();
        for &v in &raw {
            sample.record(v);
        }
        group.bench_with_input(BenchmarkId::new("exact_counts", n), &sample, |b, sample| {
            b.iter(|| {
                QUERIES
                    .iter()
                    .map(|&q| sample.quantile(q).unwrap())
                    .sum::<u64>()
            })
        });

        let mut hist = StreamingHistogram::new();
        for &v in &raw {
            hist.record(v);
        }
        group.bench_with_input(BenchmarkId::new("streaming", n), &hist, |b, hist| {
            b.iter(|| {
                QUERIES
                    .iter()
                    .map(|&q| hist.quantile(q).unwrap())
                    .sum::<u64>()
            })
        });
    }
    group.finish();
}

fn bench_record_throughput(c: &mut Criterion) {
    let raw = latencies(100_000);
    let mut group = c.benchmark_group("record_100k");
    group.throughput(Throughput::Elements(raw.len() as u64));
    group.bench_function("latency_sample", |b| {
        b.iter(|| {
            let mut s = LatencySample::new();
            for &v in &raw {
                s.record(v);
            }
            s
        })
    });
    group.bench_function("streaming_histogram", |b| {
        b.iter(|| {
            let mut h = StreamingHistogram::new();
            for &v in &raw {
                h.record(v);
            }
            h
        })
    });
    group.finish();
}

criterion_group!(benches, bench_quantile_queries, bench_record_throughput);
criterion_main!(benches);
