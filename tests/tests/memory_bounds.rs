//! Heap bounds on a simulated operating point and on a latency sample, and
//! the simulation loop's allocator calls per cycle.
//!
//! A counting global allocator tracks live and peak heap bytes, and each
//! thread's allocator calls. One point's peak live heap sets how much a
//! simulating daemon holds per worker, so the heaviest points of the
//! end-to-end sweeps are pinned below a bound: flits, source-queue entries
//! and latency samples must stay compact and must not grow with the number
//! of packets a point delivers. Every measurement holds one lock, so tests
//! of this binary never overlap their windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use noc_sim::network::{Ejection, Network};
use noc_sim::packet::Flit;
use noc_sim::probe::Probe;
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::stats::LatencySample;
use noc_sim::topology::{Mesh2D, TopologySpec};
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::Experiment;

// A buffered flit, a paper router's per-VC ring (4 slots) and an ejection.
const _: () = assert!(std::mem::size_of::<Flit>() <= 28);
const _: () = assert!(4 * std::mem::size_of::<Flit>() <= 128);
const _: () = assert!(std::mem::size_of::<Ejection>() <= 40);

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread, so other threads of the test binary never count.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
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

/// The end-to-end sweeps' heaviest points each peak below their bound of
/// live heap, about 15% above the measured peak:
/// - the fully lit 64-node circulant near its knee (the cold sweep's
///   largest delivered-packet count), measured 290 KiB;
/// - the saturated 4x4 mesh (the cold sweep's longest source queues),
///   measured 343 KiB;
/// - the 64-node circulant at level 16 past its knee (the fleet's heaviest
///   point), measured 678 KiB.
#[test]
fn heaviest_points_stay_under_the_heap_bound() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let experiment = Experiment::paper();
    let circulant = TopologySpec::Circulant { n: 64, skip: 9 };
    let bounds = [
        (point(circulant, 64, 0.16), 335),
        (point(TopologySpec::default(), 8, 0.95), 395),
        (point(circulant, 16, 0.25), 780),
    ];
    for (job, bound_kib) in bounds {
        let peak = peak_heap(|| {
            job.run(&experiment).expect("point runs");
        });
        assert!(
            peak <= bound_kib * KIB,
            "{} level {} load {}: peak live heap {} KiB > {bound_kib} KiB",
            job.topology.wire_name(),
            job.level,
            job.rate,
            peak / KIB
        );
    }
}

/// Reads this thread's allocator calls at every epoch of a run.
struct CallsPerEpoch(Vec<(u64, u64)>);

impl Probe for CallsPerEpoch {
    fn epoch_interval(&self) -> u64 {
        1_000
    }

    fn on_epoch(&mut self, cycle: u64, _net: &Network) {
        self.0.push((cycle, CALLS.with(Cell::get)));
    }
}

/// After warm-up the simulation loop allocates nothing per cycle: over
/// 8,000 measured cycles of an unsaturated 4x4 mesh (uniform traffic at
/// 0.1 flits/cycle/node) the allocator is called exactly 4 times — two
/// latency-sample B-tree leaves for newly seen latencies and two credit
/// queues growing past an earlier high-water mark. Any per-cycle allocation
/// would add at least 8,000.
#[test]
fn simulation_loop_allocates_nothing_per_cycle_after_warmup() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mesh = Mesh2D::paper_4x4();
    let net = Network::new(mesh, RouterParams::paper(), Box::new(XyRouting)).expect("network");
    let traffic = TrafficGen::new(
        TrafficPattern::UniformRandom,
        Placement::full(&mesh),
        0.1,
        5,
        11,
    )
    .expect("traffic");
    let mut probe = CallsPerEpoch(Vec::with_capacity(64));
    let out = Simulation::new(net, traffic, SimConfig::sweep())
        .run_observed(Some(&mut probe))
        .expect("point runs");
    assert!(!out.stats.saturated);
    let calls_at = |cycle| {
        probe
            .0
            .iter()
            .find(|&&(c, _)| c == cycle)
            .map(|&(_, calls)| calls)
            .expect("epoch reached")
    };
    // The window ends before the snapshot at the end of measurement.
    assert_eq!(calls_at(11_000) - calls_at(3_000), 4);
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
