//! Live service metrics: a std-only registry of atomic counters, gauges and
//! log-bucketed histograms, versioned stats snapshots, and Prometheus text
//! exposition.
//!
//! The design rule is **lock-free where hot**: the admission and runner hot
//! paths touch only `AtomicU64`s ([`Counter`], [`Gauge`]); the only mutex in
//! the layer guards [`HistogramHandle`], which is recorded from the per-batch
//! collector thread (already serialized) and read briefly by snapshot
//! requests. Handles are resolved once at construction and cached — the
//! registry's name map is never consulted on a per-point path. With no
//! `stats` consumer attached the point event stream is bit-identical to a
//! build without metrics (pinned by `stats_wire` tests), extending the
//! non-perturbation contract of the offline telemetry layer.
//!
//! Wire encoding (declared in [`crate::wire`]) follows `point` events: u64
//! counts and histogram buckets are `"0x…"` hex strings, gauge f64s are
//! hex-encoded **bit patterns** so snapshots merge and compare exactly,
//! and only human-facing wall-clock fields (`uptime_ms`, slow-point
//! durations) are plain JSON numbers. Histogram merging is exact: the log
//! buckets are summed by lower bound, never resampled, so a fleet-level
//! histogram equals what a single daemon would have recorded.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use noc_sim::network::StageCycles;
use noc_sim::stats::StreamingHistogram;

pub use crate::wire::{HistogramSnapshot, MetricsSnapshot, ShardHealth, SlowPoint, StatsSnapshot};

// ---------------------------------------------------------------------------
// Primitives: Counter, Gauge, HistogramHandle
// ---------------------------------------------------------------------------

/// A monotonically non-decreasing event count. All operations are relaxed
/// atomics — counters are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to at least `v` (monotonic max). Used to mirror an
    /// external monotonic source (e.g. the result cache's own hit counter)
    /// into the registry at snapshot time without ever moving backwards
    /// under concurrent snapshots.
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time f64 measurement, stored as IEEE-754 bits in an atomic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to at least `v`. Valid for **non-negative** values
    /// only (the IEEE bit pattern of non-negative f64s orders like the
    /// values, so `fetch_max` on bits is a lock-free running maximum —
    /// exactly what a high-water mark needs).
    pub fn set_max(&self, v: f64) {
        debug_assert!(v >= 0.0, "Gauge::set_max is only valid for non-negative values");
        self.0.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A shared handle to a log-bucketed [`StreamingHistogram`]. The mutex is
/// deliberate: histograms are recorded from one collector thread per batch
/// and read by occasional snapshots, never from the per-point worker loop.
#[derive(Debug, Default)]
pub struct HistogramHandle(Mutex<StreamingHistogram>);

impl HistogramHandle {
    /// An empty histogram.
    pub fn new() -> HistogramHandle {
        HistogramHandle(Mutex::new(StreamingHistogram::new()))
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        lock_recover(&self.0).record(v);
    }

    /// A consistent copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_histogram(&lock_recover(&self.0))
    }
}

/// Recovers a poisoned mutex: metrics must keep working even if a panicking
/// thread died while holding a histogram lock (`StreamingHistogram` has no
/// invalid intermediate states worth dying over).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of metrics. Names follow Prometheus conventions
/// (`noc_points_completed_total`, optionally with a `{label="value"}`
/// suffix); the name → handle maps are mutex-guarded, so callers on hot
/// paths must resolve their handles once up front and hold the `Arc`s.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramHandle>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name`, created at zero if new.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            lock_recover(&self.counters)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// The gauge registered under `name`, created at `0.0` if new.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(lock_recover(&self.gauges).entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, created empty if new.
    pub fn histogram(&self, name: &str) -> Arc<HistogramHandle> {
        Arc::clone(
            lock_recover(&self.histograms)
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// A consistent-enough snapshot of every registered metric, sorted by
    /// name. Individual metrics are read atomically; the set as a whole is
    /// not a global atomic cut (counters keep moving), which is fine — the
    /// accounting identity is preserved by reading outcome counters before
    /// the submission counter (see [`ServiceMetrics::snapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock_recover(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock_recover(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock_recover(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

impl HistogramSnapshot {
    /// Copies the live histogram's state.
    pub fn from_histogram(h: &StreamingHistogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            buckets: h.buckets(),
        }
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate quantile by nearest rank over the log buckets, clamped
    /// to the observed `[min, max]`. `q` is in `[0, 1]`; returns 0 when
    /// empty. Resolution matches the source histogram (~3% per octave).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lower, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lower.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self` exactly: bucket counts are summed by
    /// lower bound, count/sum add, min/max widen. Because both sides use
    /// the same bucket layout (fixed `SUB_BITS`), the merge commutes and
    /// equals the histogram a single observer would have recorded.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(lower, n) in &other.buckets {
            *merged.entry(lower).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

impl MetricsSnapshot {
    /// Looks up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Sets (replacing or inserting, keeping name order) a counter.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        match self.counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.counters[i].1 = v,
            Err(i) => self.counters.insert(i, (name.to_string(), v)),
        }
    }

    /// Sets (replacing or inserting, keeping name order) a gauge.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].1 = v,
            Err(i) => self.gauges.insert(i, (name.to_string(), v)),
        }
    }

    /// Merges `other` into `self`: counters and gauges sum by name,
    /// histograms merge exactly by name. This is the fleet aggregation
    /// rule — shard metrics are disjoint per shard, so summing counters
    /// and bucket-merging histograms reproduces what one daemon serving
    /// the whole batch would report.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (name, v) in &other.counters {
            *counters.entry(name.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();
        let mut gauges: BTreeMap<String, f64> = self.gauges.drain(..).collect();
        for (name, v) in &other.gauges {
            *gauges.entry(name.clone()).or_insert(0.0) += v;
        }
        self.gauges = gauges.into_iter().collect();
        let mut histograms: BTreeMap<String, HistogramSnapshot> =
            self.histograms.drain(..).collect();
        for (name, h) in &other.histograms {
            histograms.entry(name.clone()).or_default().merge(h);
        }
        self.histograms = histograms.into_iter().collect();
    }
}

// ---------------------------------------------------------------------------
// Slow points
// ---------------------------------------------------------------------------

/// A bounded, most-recent-first log of slow points.
#[derive(Debug)]
pub struct SlowPointLog {
    entries: Mutex<VecDeque<SlowPoint>>,
    cap: usize,
}

impl SlowPointLog {
    /// A log keeping at most `cap` entries (oldest evicted first).
    pub fn new(cap: usize) -> SlowPointLog {
        SlowPointLog {
            entries: Mutex::new(VecDeque::new()),
            cap,
        }
    }

    /// Appends an entry, evicting the oldest past capacity.
    pub fn push(&self, p: SlowPoint) {
        let mut entries = lock_recover(&self.entries);
        if entries.len() == self.cap {
            entries.pop_front();
        }
        entries.push_back(p);
    }

    /// The retained entries, oldest first.
    pub fn to_vec(&self) -> Vec<SlowPoint> {
        lock_recover(&self.entries).iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// Shard health & the versioned stats snapshot
// ---------------------------------------------------------------------------

/// Schema version emitted in every [`StatsSnapshot`]; parsers reject
/// versions they don't know.
pub const STATS_SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Per-pipeline-stage busy-cycle totals
// ---------------------------------------------------------------------------

/// Accumulated per-pipeline-stage busy-cycle totals across every simulation
/// a component has run — the service-level aggregate of the per-run
/// [`StageCycles`] counters. Shared (via `Arc`) between the experiment
/// runner, which folds each finished run in, and the stats snapshot, which
/// exposes the totals as `noc_sim_stage_busy_cycles{stage="..."}` gauges so
/// `noc_top` can show which pipeline stage dominates the fleet's work.
/// All operations are relaxed atomics — statistics, not synchronization.
#[derive(Debug, Default)]
pub struct StageBusyTotals {
    credit: AtomicU64,
    link: AtomicU64,
    inject: AtomicU64,
    va: AtomicU64,
    sa: AtomicU64,
    eject: AtomicU64,
}

impl StageBusyTotals {
    /// All totals at zero.
    pub fn new() -> StageBusyTotals {
        StageBusyTotals::default()
    }

    /// Folds one finished run's per-stage busy-cycle counters in.
    pub fn record(&self, sc: &StageCycles) {
        self.credit.fetch_add(sc.credit, Ordering::Relaxed);
        self.link.fetch_add(sc.link, Ordering::Relaxed);
        self.inject.fetch_add(sc.inject, Ordering::Relaxed);
        self.va.fetch_add(sc.va, Ordering::Relaxed);
        self.sa.fetch_add(sc.sa, Ordering::Relaxed);
        self.eject.fetch_add(sc.eject, Ordering::Relaxed);
    }

    /// The totals as `(stage label, busy cycles)` pairs, in pipeline order.
    pub fn totals(&self) -> [(&'static str, u64); 6] {
        [
            ("credit", self.credit.load(Ordering::Relaxed)),
            ("link", self.link.load(Ordering::Relaxed)),
            ("inject", self.inject.load(Ordering::Relaxed)),
            ("va", self.va.load(Ordering::Relaxed)),
            ("sa", self.sa.load(Ordering::Relaxed)),
            ("eject", self.eject.load(Ordering::Relaxed)),
        ]
    }

    /// The stage with the most busy cycles, or `None` before any work.
    pub fn dominant(&self) -> Option<(&'static str, u64)> {
        self.totals()
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .filter(|&(_, n)| n > 0)
    }
}

// ---------------------------------------------------------------------------
// Service metrics: the concrete instrument set
// ---------------------------------------------------------------------------

/// Default slow-point threshold: a point is flagged when its uncached wall
/// time exceeds this multiple of the running mean of uncached points.
pub const DEFAULT_SLOW_POINT_FACTOR: f64 = 8.0;

/// How many slow points a [`ServiceMetrics`] retains.
pub const SLOW_POINT_LOG_CAP: usize = 32;

/// The concrete instrument set for one serving engine: request counters by
/// verb, batch/point outcome counters, a point-latency histogram, a batch
/// wall-time histogram, and the slow-point detector. All per-point methods
/// touch only pre-resolved atomics plus (on the collector thread) the
/// latency histogram mutex — nothing here runs on the runner's worker loop.
#[derive(Debug)]
pub struct ServiceMetrics {
    registry: MetricsRegistry,
    started: Instant,
    engine: String,
    code_version: String,
    slow_factor: f64,
    slow_log: SlowPointLog,
    request_errors: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    cancellations: Arc<Counter>,
    batches: Arc<Counter>,
    points_submitted: Arc<Counter>,
    points_completed: Arc<Counter>,
    points_failed: Arc<Counter>,
    points_cancelled: Arc<Counter>,
    slow_points_total: Arc<Counter>,
    point_latency_us: Arc<HistogramHandle>,
    batch_wall_ms: Arc<HistogramHandle>,
    // Running mean of *uncached* point wall times (µs), for slow detection.
    miss_count: AtomicU64,
    miss_us_total: AtomicU64,
}

impl ServiceMetrics {
    /// Instruments for engine `engine` at version `code_version`.
    pub fn new(engine: &str, code_version: &str) -> ServiceMetrics {
        let registry = MetricsRegistry::new();
        let c = |name: &str| registry.counter(name);
        ServiceMetrics {
            request_errors: c("noc_request_errors_total"),
            busy_rejections: c("noc_busy_rejections_total"),
            cancellations: c("noc_cancellations_total"),
            batches: c("noc_batches_total"),
            points_submitted: c("noc_points_submitted_total"),
            points_completed: c("noc_points_completed_total"),
            points_failed: c("noc_points_failed_total"),
            points_cancelled: c("noc_points_cancelled_total"),
            slow_points_total: c("noc_slow_points_total"),
            point_latency_us: registry.histogram("noc_point_latency_us"),
            batch_wall_ms: registry.histogram("noc_batch_wall_ms"),
            registry,
            started: Instant::now(),
            engine: engine.to_string(),
            code_version: code_version.to_string(),
            slow_factor: DEFAULT_SLOW_POINT_FACTOR,
            slow_log: SlowPointLog::new(SLOW_POINT_LOG_CAP),
            miss_count: AtomicU64::new(0),
            miss_us_total: AtomicU64::new(0),
        }
    }

    /// Sets the slow-point threshold factor (must be positive).
    pub fn set_slow_point_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "slow-point factor must be positive");
        self.slow_factor = factor;
    }

    /// The configured slow-point threshold factor.
    pub fn slow_point_factor(&self) -> f64 {
        self.slow_factor
    }

    /// The underlying registry, for engine-specific extra metrics
    /// (queue depth, cache state, runner utilization…).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Milliseconds since construction.
    pub fn uptime_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Counts one request of verb `verb` (`submit`, `cancel`, `ping`,
    /// `stats`, `shutdown`).
    pub fn count_request(&self, verb: &str) {
        self.registry
            .counter(&format!("noc_requests_total{{verb=\"{verb}\"}}"))
            .inc();
    }

    /// Counts one unparseable or unanswerable request.
    pub fn count_request_error(&self) {
        self.request_errors.inc();
    }

    /// Counts one batch rejected with `busy`.
    pub fn busy_rejected(&self) {
        self.busy_rejections.inc();
    }

    /// Counts one `cancel` received.
    pub fn cancel_received(&self) {
        self.cancellations.inc();
    }

    /// Counts one batch admitted with `points` points. Must be called
    /// before any of the batch's outcomes are counted — the accounting
    /// identity `submitted == completed + failed + cancelled + in_flight`
    /// depends on submissions leading outcomes.
    pub fn batch_admitted(&self, points: usize) {
        self.batches.inc();
        self.points_submitted.add(points as u64);
    }

    /// Records one finished batch's wall time.
    pub fn batch_done(&self, wall_ms: f64) {
        self.batch_wall_ms.record(wall_ms.round().max(0.0) as u64);
    }

    /// Records one completed point: latency histogram plus, for uncached
    /// points, the slow-point detector. The detector compares against the
    /// running mean *before* this point is folded in, and only engages
    /// once four uncached points have been seen (a cold-start mean of one
    /// sample would flag normal variance).
    pub fn point_completed(&self, config_hash: u64, seed: u64, cache_hit: bool, duration_ms: f64) {
        self.points_completed.inc();
        let us = (duration_ms * 1e3).round().max(0.0) as u64;
        self.point_latency_us.record(us);
        if cache_hit {
            return;
        }
        let prior_count = self.miss_count.load(Ordering::Relaxed);
        let prior_total = self.miss_us_total.load(Ordering::Relaxed);
        if prior_count >= 4 {
            let mean_us = prior_total as f64 / prior_count as f64;
            if mean_us > 0.0 && us as f64 > self.slow_factor * mean_us {
                self.slow_points_total.inc();
                self.slow_log.push(SlowPoint {
                    config_hash,
                    seed,
                    duration_ms,
                    mean_ms: mean_us / 1e3,
                    factor: us as f64 / mean_us,
                });
            }
        }
        self.miss_count.fetch_add(1, Ordering::Relaxed);
        self.miss_us_total.fetch_add(us, Ordering::Relaxed);
    }

    /// Counts one failed point.
    pub fn point_failed(&self) {
        self.points_failed.inc();
    }

    /// Counts one cancelled point.
    pub fn point_cancelled(&self) {
        self.points_cancelled.inc();
    }

    /// Builds the versioned snapshot. The derived in-flight gauge is
    /// computed from the snapshot's **own** counter reads — the registry's
    /// sorted map reads the outcome counters (`cancelled` / `completed` /
    /// `failed`) before `submitted`, and submissions lead outcomes on the
    /// serving path, so `submitted >= completed + failed + cancelled`
    /// holds inside every snapshot even while a batch is mid-flight and
    /// the identity checked by `telemetry_check --stats` can never go
    /// negative.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut metrics = self.registry.snapshot();
        let done = metrics.counter("noc_points_cancelled_total").unwrap_or(0)
            + metrics.counter("noc_points_completed_total").unwrap_or(0)
            + metrics.counter("noc_points_failed_total").unwrap_or(0);
        let submitted = metrics
            .counter("noc_points_submitted_total")
            .unwrap_or(0)
            .max(done);
        metrics.set_counter("noc_points_submitted_total", submitted);
        metrics.set_gauge("noc_points_in_flight", (submitted - done) as f64);
        StatsSnapshot {
            schema: STATS_SCHEMA_VERSION,
            engine: self.engine.clone(),
            code_version: self.code_version.clone(),
            uptime_ms: self.uptime_ms(),
            metrics,
            slow_points: self.slow_log.to_vec(),
            shards: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (v0.0.4)
// ---------------------------------------------------------------------------

/// Renders a snapshot as Prometheus text exposition format v0.0.4.
/// Counters and gauges map directly; histograms are rendered as `summary`
/// series (pre-computed p50/p90/p99 quantiles plus `_sum`/`_count`) because
/// the log buckets don't align with Prometheus' cumulative `le` convention.
/// Also emits `noc_info{engine,code_version} 1` and `noc_uptime_ms`, and
/// one `noc_shard_up{shard}` gauge per known shard.
pub fn render_prometheus(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut type_line = |out: &mut String, base: &str, ty: &str| {
        if typed.insert(base.to_string()) {
            out.push_str(&format!("# TYPE {base} {ty}\n"));
        }
    };
    type_line(&mut out, "noc_info", "gauge");
    out.push_str(&format!(
        "noc_info{{engine=\"{}\",code_version=\"{}\"}} 1\n",
        escape_label(&s.engine),
        escape_label(&s.code_version)
    ));
    type_line(&mut out, "noc_uptime_ms", "gauge");
    out.push_str(&format!("noc_uptime_ms {}\n", fmt_value(s.uptime_ms)));
    for (name, v) in &s.metrics.counters {
        type_line(&mut out, base_name(name), "counter");
        out.push_str(&format!("{name} {v}\n"));
    }
    for (name, v) in &s.metrics.gauges {
        type_line(&mut out, base_name(name), "gauge");
        out.push_str(&format!("{name} {}\n", fmt_value(*v)));
    }
    for (name, h) in &s.metrics.histograms {
        type_line(&mut out, name, "summary");
        if h.count > 0 {
            for q in [0.5, 0.9, 0.99] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", h.quantile(q)));
            }
        }
        out.push_str(&format!("{name}_sum {}\n", fmt_value(h.sum as f64)));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }
    for sh in &s.shards {
        type_line(&mut out, "noc_shard_up", "gauge");
        out.push_str(&format!(
            "noc_shard_up{{shard=\"{}\"}} {}\n",
            sh.shard,
            u8::from(sh.alive)
        ));
    }
    out
}

fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Strictly validates Prometheus text exposition v0.0.4: metric and label
/// names match the spec grammar, label values are properly quoted/escaped,
/// sample values parse as f64 (or `NaN`/`+Inf`/`-Inf`), every sample's
/// family has a preceding `# TYPE` line with a known type, no family is
/// typed twice, and at least one sample is present. Returns the sample
/// count.
///
/// # Errors
///
/// Describes the first offending line.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            return Err(format!("line {n}: empty line"));
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.strip_prefix(' ').unwrap_or(comment);
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let ty = it.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                }
                if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&ty) {
                    return Err(format!("line {n}: unknown metric type {ty:?}"));
                }
                if typed.insert(name.to_string(), ty.to_string()).is_some() {
                    return Err(format!("line {n}: family {name:?} typed twice"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
                }
            }
            // Other comments are legal and carry no structure.
            continue;
        }
        let (name, rest) = parse_sample_name(line).map_err(|e| format!("line {n}: {e}"))?;
        let family = family_of(&name, &typed);
        match typed.get(&family) {
            Some(_) => {}
            None => {
                return Err(format!(
                    "line {n}: sample {name:?} has no preceding # TYPE for {family:?}"
                ))
            }
        }
        let mut fields = rest.split_whitespace();
        let value = fields.next().ok_or(format!("line {n}: missing sample value"))?;
        if !["NaN", "+Inf", "-Inf"].contains(&value) && value.parse::<f64>().is_err() {
            return Err(format!("line {n}: bad sample value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            // Optional timestamp must be integral milliseconds.
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: bad timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {n}: trailing garbage after sample"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".into());
    }
    Ok(samples)
}

/// Summary/histogram samples named `<family>_sum` / `<family>_count` (and
/// histogram `_bucket`) belong to the family that declared the TYPE.
fn family_of(name: &str, typed: &BTreeMap<String, String>) -> String {
    for suffix in ["_sum", "_count", "_bucket"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some(ty) = typed.get(base) {
                if ty == "summary" || ty == "histogram" {
                    return base.to_string();
                }
            }
        }
    }
    name.to_string()
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `name[{label="value",…}]` off the front of a sample line,
/// returning the bare metric name and the remainder (value + optional
/// timestamp).
fn parse_sample_name(line: &str) -> Result<(String, &str), String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    let name = &line[..i];
    if !valid_metric_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            // Label name.
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if !valid_label_name(&line[start..i]) {
                return Err(format!("bad label name in {name:?}"));
            }
            if i >= bytes.len() || bytes[i] != b'=' {
                return Err("expected '=' after label name".into());
            }
            i += 1;
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err("expected '\"' opening label value".into());
            }
            i += 1;
            // Label value with \\ \" \n escapes.
            loop {
                match bytes.get(i) {
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(b'\\') => match bytes.get(i + 1) {
                        Some(b'\\' | b'"' | b'n') => i += 2,
                        _ => return Err("bad escape in label value".into()),
                    },
                    Some(_) => i += 1,
                    None => return Err("unterminated label value".into()),
                }
            }
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}' after label value".into()),
            }
        }
    }
    if i >= bytes.len() || bytes[i] != b' ' {
        return Err("expected space before sample value".into());
    }
    Ok((name.to_string(), &line[i + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::JsonValue;

    #[test]
    fn counters_and_gauges_are_atomic_and_monotone() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.observe(3); // below current → no-op
        assert_eq!(c.get(), 5);
        c.observe(9);
        assert_eq!(c.get(), 9);
        let g = Gauge::new();
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0); // below current → no-op
        assert_eq!(g.get(), 2.5);
        g.set_max(7.25);
        assert_eq!(g.get(), 7.25);
    }

    #[test]
    fn stage_busy_totals_accumulate_and_rank() {
        let t = StageBusyTotals::new();
        assert_eq!(t.dominant(), None);
        t.record(&StageCycles {
            credit: 5,
            link: 9,
            inject: 1,
            va: 2,
            sa: 10,
            eject: 3,
        });
        t.record(&StageCycles {
            sa: 7,
            ..StageCycles::default()
        });
        assert_eq!(t.dominant(), Some(("sa", 17)));
        let totals = t.totals();
        assert_eq!(totals[0], ("credit", 5));
        assert_eq!(totals[1], ("link", 9));
        assert_eq!(totals[5], ("eject", 3));
    }

    #[test]
    fn registry_returns_the_same_handle_for_the_same_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("noc_x_total");
        let b = r.counter("noc_x_total");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("noc_x_total"), Some(2));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn histogram_snapshot_merge_is_exact() {
        // Two disjoint recorders vs one recorder seeing everything: the
        // merged snapshot must be identical, buckets included.
        let (a, b, whole) = (
            HistogramHandle::new(),
            HistogramHandle::new(),
            HistogramHandle::new(),
        );
        for v in [1u64, 3, 7, 900, 65536, 65537] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 7, 1_000_000, 40] {
            b.record(v);
            whole.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn histogram_snapshot_round_trips_through_json() {
        let h = HistogramHandle::new();
        for v in [0u64, 1, 2, 31, 32, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        let parsed =
            HistogramSnapshot::from_json(&JsonValue::parse(&snap.to_json().to_json()).unwrap())
                .unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn snapshot_quantiles_are_clamped_and_ranked() {
        let h = HistogramHandle::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert!((1..=100).contains(&p50), "p50 {p50} out of range");
        assert!(p99 >= p50 && p99 <= 100, "p99 {p99} out of range");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn metrics_snapshot_merge_sums_and_merges() {
        let (ra, rb) = (MetricsRegistry::new(), MetricsRegistry::new());
        ra.counter("noc_a_total").add(3);
        rb.counter("noc_a_total").add(4);
        rb.counter("noc_b_total").add(1);
        ra.gauge("noc_g").set(1.5);
        rb.gauge("noc_g").set(2.0);
        ra.histogram("noc_h").record(5);
        rb.histogram("noc_h").record(500);
        let mut merged = ra.snapshot();
        merged.merge(&rb.snapshot());
        assert_eq!(merged.counter("noc_a_total"), Some(7));
        assert_eq!(merged.counter("noc_b_total"), Some(1));
        assert_eq!(merged.gauge("noc_g"), Some(3.5));
        let h = merged.histogram("noc_h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 505, 5, 500));
    }

    #[test]
    fn stats_snapshot_round_trips_and_rejects_unknown_schema() {
        let mut m = ServiceMetrics::new("noc-serve", "1.2.3+cache-v1+tag");
        m.set_slow_point_factor(3.0);
        m.count_request("submit");
        m.batch_admitted(5);
        for i in 0..5 {
            m.point_completed(0x10 + i, 0x20 + i, false, 1.0);
        }
        // 100x the mean → flagged.
        m.point_completed(0xdead, 0xbeef, false, 100.0);
        m.point_failed();
        let mut snap = m.snapshot();
        snap.shards.push(ShardHealth {
            shard: 0,
            socket: "/tmp/s0.sock".into(),
            alive: true,
            engine: "noc-serve".into(),
            code_version: "1.2.3".into(),
            uptime_ms: 12.5,
        });
        let line = snap.to_json().to_json();
        let parsed = StatsSnapshot::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.slow_points.len(), 1);
        assert_eq!(parsed.slow_points[0].config_hash, 0xdead);
        // in_flight derived: 6 submitted later... 5 admitted + 1 extra
        // completion observed → submitted floor rises to cover outcomes.
        let submitted = parsed.metrics.counter("noc_points_submitted_total").unwrap();
        let done = parsed.metrics.counter("noc_points_completed_total").unwrap()
            + parsed.metrics.counter("noc_points_failed_total").unwrap()
            + parsed.metrics.counter("noc_points_cancelled_total").unwrap();
        let in_flight = parsed.metrics.gauge("noc_points_in_flight").unwrap();
        assert_eq!(submitted, done + in_flight as u64);

        let mut bad = snap.to_json();
        if let JsonValue::Obj(pairs) = &mut bad {
            pairs[0].1 = JsonValue::Num(99.0);
        }
        assert!(StatsSnapshot::from_json(&bad).is_err());
    }

    #[test]
    fn slow_point_detector_needs_history_and_excludes_hits() {
        let m = ServiceMetrics::new("noc-serve", "v");
        // First four uncached points never flag, however extreme.
        for i in 0..4 {
            m.point_completed(i, i, false, 1000.0 * (i + 1) as f64);
        }
        assert!(m.snapshot().slow_points.is_empty());
        // A cache hit is never flagged and doesn't move the mean.
        m.point_completed(0xaa, 0xbb, true, 1e9);
        assert!(m.snapshot().slow_points.is_empty());
        // An uncached outlier is flagged against the uncached mean.
        m.point_completed(0xcc, 0xdd, false, 1e6);
        let slow = m.snapshot().slow_points;
        assert_eq!(slow.len(), 1);
        assert_eq!((slow[0].config_hash, slow[0].seed), (0xcc, 0xdd));
        assert!(slow[0].factor > DEFAULT_SLOW_POINT_FACTOR);
    }

    #[test]
    fn slow_point_log_is_bounded() {
        let log = SlowPointLog::new(3);
        for i in 0..10u64 {
            log.push(SlowPoint {
                config_hash: i,
                seed: i,
                duration_ms: 1.0,
                mean_ms: 0.1,
                factor: 10.0,
            });
        }
        let kept: Vec<u64> = log.to_vec().iter().map(|p| p.config_hash).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn prometheus_render_passes_the_strict_validator() {
        let m = ServiceMetrics::new("noc-serve", "1.0.0+cache-v1+quick");
        m.count_request("submit");
        m.count_request("stats");
        m.batch_admitted(2);
        m.point_completed(1, 2, false, 1.5);
        m.point_completed(3, 4, true, 0.0);
        m.batch_done(3.0);
        m.registry().gauge("noc_queue_depth").set(0.0);
        let mut snap = m.snapshot();
        snap.shards.push(ShardHealth {
            shard: 1,
            socket: "/tmp/x".into(),
            alive: false,
            engine: String::new(),
            code_version: String::new(),
            uptime_ms: 0.0,
        });
        let text = render_prometheus(&snap);
        let samples = validate_prometheus(&text).expect("render must satisfy the validator");
        assert!(samples >= 10, "expected a rich exposition, got {samples} samples");
        assert!(text.contains("# TYPE noc_point_latency_us summary"));
        assert!(text.contains("noc_requests_total{verb=\"submit\"} 1"));
        assert!(text.contains("noc_shard_up{shard=\"1\"} 0"));
    }

    #[test]
    fn prometheus_validator_rejects_malformed_lines() {
        let cases = [
            ("noc_a 1\n", "no preceding # TYPE"),
            ("# TYPE noc_a counter\nnoc_a one\n", "bad sample value"),
            ("# TYPE noc_a counter\n# TYPE noc_a gauge\nnoc_a 1\n", "typed twice"),
            ("# TYPE 9bad counter\n", "bad metric name"),
            ("# TYPE noc_a counter\nnoc_a{x=\"unterminated} 1\n", "unterminated"),
            ("# TYPE noc_a counter\nnoc_a{9x=\"v\"} 1\n", "bad label name"),
            ("# TYPE noc_a counter\n\nnoc_a 1\n", "empty line"),
            ("# TYPE noc_a counter\n", "no samples"),
            ("# TYPE noc_a counter\nnoc_a 1 2 3\n", "trailing garbage"),
        ];
        for (text, want) in cases {
            let err = validate_prometheus(text).expect_err(text);
            assert!(err.contains(want), "{text:?} → {err:?} (wanted {want:?})");
        }
        // Escapes, timestamps, NaN/Inf, HELP and free comments are legal.
        let ok = "# a free comment\n# HELP noc_a something\n# TYPE noc_a gauge\n\
                  noc_a{x=\"a\\\"b\\\\c\\nd\"} NaN 123\nnoc_a +Inf\n";
        assert_eq!(validate_prometheus(ok), Ok(2));
    }

    #[test]
    fn uptime_is_monotone() {
        let m = ServiceMetrics::new("noc-serve", "v");
        let a = m.uptime_ms();
        let b = m.uptime_ms();
        assert!(b >= a && a >= 0.0);
    }
}
