//! Heap bounds on a simulated operating point, on a latency sample and on
//! the wire codec, and allocator-call counts of the simulation loop and of
//! decoding a job.
//!
//! A counting global allocator tracks live and peak heap bytes, and each
//! thread's allocator calls. One point's peak live heap sets how much a
//! simulating daemon holds per worker, so the heaviest points of the
//! end-to-end sweeps are pinned below a bound: flits, source-queue entries
//! and latency samples must stay compact and must not grow with the number
//! of packets a point delivers. A warm daemon's heap is the wire's: a
//! decoded request and a loaded cache are pinned the same way, and so is
//! decoding a job, which must allocate nothing for the bytes it reads
//! past. Every measurement holds one lock, so tests of this binary never
//! overlap their windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use noc_sim::geometry::NodeId;
use noc_sim::network::{Ejection, Network};
use noc_sim::packet::Flit;
use noc_sim::probe::Probe;
use noc_sim::router::RouterParams;
use noc_sim::routing::XyRouting;
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::stats::LatencySample;
use noc_sim::topology::{Mesh2D, TopologySpec};
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::config::SystemConfig;
use noc_sprinting::controller::SprintController;
use noc_sprinting::experiment::NetworkMetrics;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{DiskResultCache, ServiceRequest, SubmitRequest};
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

/// The paper experiment on a `side` x `side` mesh with the short
/// simulation phases, as `scale_study --mesh side --quick` runs it.
fn big_mesh_quick(side: u16) -> Experiment {
    let mut e = Experiment::quick();
    e.system = SystemConfig {
        core_count: u32::from(side) * u32::from(side),
        mesh_width: side,
        mesh_height: side,
        ..SystemConfig::paper()
    };
    e.controller = SprintController::new(e.system.mesh(), NodeId(0));
    e
}

/// The end-to-end sweeps' heaviest points each peak below their bound of
/// live heap, about 15% above the measured peak:
/// - the fully lit 64-node circulant near its knee (the cold sweep's
///   largest delivered-packet count), measured 287 KiB;
/// - the saturated 4x4 mesh (the cold sweep's longest source queues),
///   measured 223 KiB;
/// - the 64-node circulant at level 16 past its knee (the fleet's heaviest
///   point), measured 382 KiB;
/// - a level-16 sprint on a 32x32 mesh, measured 1,309 KiB: only the 16
///   routers that carry flits hold flit slots (2,240 bytes each), where
///   slots for all 1,024 routers would add 2.2 MiB.
#[test]
fn heaviest_points_stay_under_the_heap_bound() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let paper = Experiment::paper();
    let big = big_mesh_quick(32);
    let circulant = TopologySpec::Circulant { n: 64, skip: 9 };
    let mesh32 = TopologySpec::Mesh {
        width: 32,
        height: 32,
    };
    let bounds = [
        (&paper, point(circulant, 64, 0.16), 330),
        (&paper, point(TopologySpec::default(), 8, 0.95), 257),
        (&paper, point(circulant, 16, 0.25), 440),
        (&big, point(mesh32, 16, 0.15), 1_505),
    ];
    for (experiment, job, bound_kib) in bounds {
        let peak = peak_heap(|| {
            job.run(experiment).expect("point runs");
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

/// The jobs of one full-sweep `replay_warm` batch: 256 points of the
/// default `pareto_explore` grid, each with its own full 64-bit seed.
fn sweep_jobs() -> Vec<SyntheticJob> {
    let topologies = ["mesh4x4", "circ16s3", "circ16s5"];
    (0..256u64)
        .map(|i| SyntheticJob {
            topology: TopologySpec::from_wire_name(topologies[i as usize % 3])
                .expect("valid topology"),
            level: [4, 8, 12, 16][i as usize / 3 % 4],
            pattern: TrafficPattern::UniformRandom,
            rate: 0.02 * (1 + i % 20) as f64,
            seed: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            baseline: SyntheticBaseline::NocSprinting,
        })
        .collect()
}

/// Decoding a 256-job `submit` line (31,008 bytes) peaks at 12,305 bytes of
/// live heap, the decoded request itself; bounded about 15% above. Built
/// as a document tree first, the same line peaked at 159,999 bytes.
#[test]
fn decoding_a_full_sweep_submit_stays_under_the_heap_bound() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let line = ServiceRequest::Submit(SubmitRequest {
        id: "replay-256".to_string(),
        label: "service".to_string(),
        priority: 0,
        jobs: sweep_jobs(),
    })
    .to_json_line();
    let peak = peak_heap(|| {
        let req = ServiceRequest::from_json_line(&line).expect("submit decodes");
        assert!(matches!(req, ServiceRequest::Submit(ref s) if s.jobs.len() == 256));
    });
    assert!(
        peak <= 14 * KIB,
        "{}-byte submit: peak live heap {peak} bytes > 14 KiB",
        line.len()
    );
}

/// Opening a cache of one 256-record segment peaks at 50,870 bytes of live
/// heap: the loaded tables, the reader's buffer and one line buffer, never
/// the whole segment; bounded about 15% above. Reading the whole segment
/// and a document tree per line, it peaked at 113,475 bytes.
#[test]
fn opening_a_cache_segment_stays_under_the_heap_bound() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("noc-memory-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = sweep_jobs();
    {
        let (cache, _) = DiskResultCache::open(&dir, "v").expect("create");
        for (i, job) in jobs.iter().enumerate() {
            let x = i as f64;
            cache.memory().insert(
                job.cache_key(),
                NetworkMetrics {
                    avg_packet_latency: 20.0 + x / 7.0,
                    avg_network_latency: 18.0 + x / 9.0,
                    network_power: 0.01 + x / 1e5,
                    accepted_throughput: 0.1 + x / 1e4,
                    saturated: i % 5 == 0,
                },
            );
        }
        assert_eq!(cache.persist_jobs(&jobs).expect("persist"), 256);
    }
    let mut loaded = 0;
    let peak = peak_heap(|| {
        let (cache, report) = DiskResultCache::open(&dir, "v").expect("open");
        loaded = report.loaded;
        drop(cache);
    });
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded, 256);
    assert!(
        peak <= 57 * KIB,
        "256-record segment: peak live heap {peak} bytes > 57 KiB"
    );
}

/// Decoding a job makes exactly 0 allocator calls, however many bytes of
/// unknown fields (long strings, escapes, nested arrays) it reads past.
#[test]
fn decoding_a_job_allocates_nothing_for_its_length() {
    let _guard = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let job = r#""topology":"circ16s5","level":8,"pattern":"uniform","rate":0.25,"seed":"0x9e3779b97f4a7c15","baseline":"noc_sprinting""#;
    let padding = format!(
        r#""note":"{}","escaped":"{}","deep":{}0{}"#,
        "x".repeat(4096),
        "\\n\\u00e9\\\"".repeat(256),
        "[1,".repeat(60),
        "]".repeat(60)
    );
    let lines = [
        format!("{{{job}}}"),
        format!("{{{padding},{job}}}"),
        format!("{{{job},{padding},{padding}}}"),
    ];
    for line in &lines {
        let before = CALLS.with(Cell::get);
        let decoded = SyntheticJob::from_json_line(line);
        let calls = CALLS.with(Cell::get) - before;
        assert_eq!(decoded.expect("job decodes").level, 8);
        assert_eq!(calls, 0, "{}-byte job line", line.len());
    }
}
