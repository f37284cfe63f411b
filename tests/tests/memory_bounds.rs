//! Heap bounds on a simulated operating point and on a latency sample.
//!
//! A counting global allocator tracks live and peak heap bytes. One point's
//! peak live heap sets how much a simulating daemon holds per worker, so the
//! two heaviest points of the end-to-end sweep are pinned below a bound:
//! source-queue entries and latency samples must not grow with the number
//! of packets a point delivers. Every measurement holds one lock, so tests
//! of this binary never overlap their windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use noc_sim::stats::LatencySample;
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::Experiment;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static MEASURE: Mutex<()> = Mutex::new(());

const KIB: usize = 1024;

/// Runs `f` and returns the peak live heap above the starting level, in
/// bytes.
fn peak_heap(f: impl FnOnce()) -> usize {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(start)
}

fn point(topology: TopologySpec, level: usize, rate: f64) -> SyntheticJob {
    SyntheticJob {
        topology,
        level,
        pattern: TrafficPattern::UniformRandom,
        rate,
        seed: 11,
        baseline: SyntheticBaseline::NocSprinting,
    }
}

/// The fully lit 64-node circulant near its knee (the end-to-end sweep's
/// largest delivered-packet count) and the saturated 4x4 mesh (its longest
/// source queues) each peak below 640 KiB of live heap.
#[test]
fn heaviest_points_stay_under_the_heap_bound() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let experiment = Experiment::paper();
    let jobs = [
        point(TopologySpec::Circulant { n: 64, skip: 9 }, 64, 0.16),
        point(TopologySpec::default(), 8, 0.95),
    ];
    for job in jobs {
        let peak = peak_heap(|| {
            job.run(&experiment).expect("point runs");
        });
        assert!(
            peak <= 640 * KIB,
            "{} level {} load {}: peak live heap {} KiB > 640 KiB",
            job.topology.wire_name(),
            job.level,
            job.rate,
            peak / KIB
        );
    }
}

/// A latency sample's memory follows its distinct values, not its
/// observations.
#[test]
fn latency_sample_memory_follows_distinct_values() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let start = LIVE.load(Ordering::Relaxed);
    let mut sample = LatencySample::new();
    for i in 0..1_000_000u64 {
        sample.record(20 + (i * 37) % 100);
    }
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(start);
    assert_eq!(sample.count(), 1_000_000);
    assert!(
        held < 16 * KIB,
        "sample of 100 distinct values holds {held} bytes"
    );
}
