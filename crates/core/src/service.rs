//! `noc-serve`: a long-lived sweep-evaluation service with a persistent
//! result cache.
//!
//! The figure binaries rebuild the world on every invocation; this module
//! is the layer that keeps it warm. A [`SweepService`] owns one
//! [`Experiment`] configuration, one deterministic parallel
//! [`ExperimentRunner`] and one [`DiskResultCache`], and turns JSONL
//! *operating-point requests* into streamed JSONL *result events*:
//!
//! ```text
//! submit ──▶ accepted ──▶ progress*  (completion order)
//!                    └──▶ point / point_failed*  (strict index order)
//!                    └──▶ done  (batch summary)
//! ```
//!
//! The full wire contract — field tables, lifecycle, cache-key definition
//! and invalidation rules — lives in `SERVICE.md` at the repository root.
//! Every message is declared once in [`crate::wire`], which generates its
//! encoder, its decoder and the schema tables embedded in SERVICE.md
//! ([`schema_reference`]); a test in this module fails if the document
//! drifts from the code.
//!
//! Three properties the contract pins:
//!
//! - **Determinism**: a batch's `point` events carry exactly the metrics a
//!   fresh serial run of the same [`SyntheticJob`]s would produce, at any
//!   worker count, whether served from cache or simulated.
//! - **Ordering**: within one request, `point`/`point_failed` events are
//!   streamed in strict job-index order (out-of-order completions are
//!   buffered); `progress` events report completions as they happen.
//! - **Persistence**: results survive daemon restarts via append-only JSONL
//!   cache segments keyed by `config hash ⊕ seed ⊕ version stamp`, with
//!   crash-safe (write-tmp-then-rename) compaction. A cache hit is
//!   bit-identical to a fresh run — `f64`s are stored by bit pattern.
//!
//! Everything is `std`-only (threads + channels); a `point` event is a
//! [`ManifestPoint`] with the request id spliced in.

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::experiment::{Experiment, NetworkMetrics};
use crate::metrics::{ServiceMetrics, StatsSnapshot};
use crate::runner::{lock_recover, ExperimentRunner, ResultCache, SyntheticJob};
use crate::telemetry::{ManifestPoint, RunManifest};
pub use crate::wire::{
    schema_reference, BatchSummary, CacheRecord, ServiceRequest, ServiceResponse, SubmitRequest,
};

// ---------------------------------------------------------------------------
// Version stamp
// ---------------------------------------------------------------------------

/// On-disk cache format revision; bumped whenever [`CacheRecord`]'s layout
/// or the metrics codec changes, invalidating older segments.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The code-version stamp written into every [`CacheRecord`]:
/// `<crate version>+cache-v<format>+<experiment tag>`. Entries whose stamp
/// differs from the running daemon's are ignored on load and dropped by
/// compaction — the cache-invalidation rule documented in SERVICE.md.
///
/// `experiment_tag` names the daemon's experiment configuration (e.g.
/// `"paper"` or `"quick"`); one cache directory must only ever serve one
/// configuration, and the tag makes a mix-up inert instead of wrong.
pub fn code_version(experiment_tag: &str) -> String {
    format!(
        "{}+cache-v{CACHE_FORMAT_VERSION}+{experiment_tag}",
        env!("CARGO_PKG_VERSION")
    )
}

// ---------------------------------------------------------------------------
// Metric pairs
// ---------------------------------------------------------------------------

/// The named scalar metrics every `point` event and manifest point carries,
/// in wire order. `saturated` is encoded as `0.0`/`1.0`.
pub const METRIC_FIELDS: [&str; 5] = [
    "avg_packet_latency",
    "avg_network_latency",
    "network_power",
    "accepted_throughput",
    "saturated",
];

/// `m`'s scalars in [`METRIC_FIELDS`] order, `saturated` as `0.0`/`1.0`:
/// the one list of [`NetworkMetrics`] fields that [`metric_pairs`],
/// [`metrics_from_pairs`] and the bit-exact cache codec read.
pub(crate) fn metric_values(m: &NetworkMetrics) -> [f64; 5] {
    [
        m.avg_packet_latency,
        m.avg_network_latency,
        m.network_power,
        m.accepted_throughput,
        f64::from(u8::from(m.saturated)),
    ]
}

/// Inverse of [`metric_values`].
pub(crate) fn metrics_from_values(v: [f64; 5]) -> NetworkMetrics {
    NetworkMetrics {
        avg_packet_latency: v[0],
        avg_network_latency: v[1],
        network_power: v[2],
        accepted_throughput: v[3],
        saturated: v[4] != 0.0,
    }
}

/// Flattens [`NetworkMetrics`] into the named `(metric, value)` pairs used
/// by manifests and `point` stream events (see [`METRIC_FIELDS`]).
pub fn metric_pairs(m: &NetworkMetrics) -> Vec<(String, f64)> {
    METRIC_FIELDS
        .iter()
        .zip(metric_values(m))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Rebuilds [`NetworkMetrics`] from the pairs produced by
/// [`metric_pairs`]. Exact for finite values: JSON numbers are written in
/// shortest round-trippable form.
///
/// # Errors
///
/// Names the first missing metric.
pub fn metrics_from_pairs(pairs: &[(String, f64)]) -> Result<NetworkMetrics, String> {
    let mut values = [0.0; 5];
    for (slot, k) in values.iter_mut().zip(METRIC_FIELDS) {
        *slot = pairs
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing metric {k:?}"))?;
    }
    Ok(metrics_from_values(values))
}

// ---------------------------------------------------------------------------
// Persistent cache
// ---------------------------------------------------------------------------

/// What [`DiskResultCache::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheLoadReport {
    /// Segment files read.
    pub segments: usize,
    /// Records loaded into memory (current version, last write wins).
    pub loaded: usize,
    /// Records ignored because their version stamp differs.
    pub stale: usize,
    /// Lines skipped because they did not parse (truncated/corrupt).
    pub corrupt: usize,
    /// One human-readable warning per skipped line or stale group.
    pub warnings: Vec<String>,
}

#[derive(Debug)]
struct DiskState {
    dir: PathBuf,
    /// Index the next new segment file will use.
    next_segment: usize,
    /// Open append handle for this process's segment, created lazily on
    /// first write so restarts without new work leave no empty files.
    open_segment: Option<io::BufWriter<fs::File>>,
    /// Keys already durably recorded (current version), with their seeds —
    /// the seed travels to compaction, which rewrites records wholesale.
    persisted: HashMap<u64, u64>,
}

/// A [`ResultCache`] extended with append-only JSONL persistence.
///
/// Segments are named `seg-NNNNNN.cache.jsonl`; each line is a
/// [`CacheRecord`]. Writers only ever *append* (crash mid-write costs at
/// most the torn final line, which the loader skips with a warning), and
/// [`DiskResultCache::compact`] rewrites the live set via
/// write-tmp-then-rename, so a crash at any instant leaves a loadable
/// directory. Duplicate keys across segments resolve last-write-wins —
/// benign, because equal keys always map to identical values.
#[derive(Debug)]
pub struct DiskResultCache {
    memory: ResultCache<NetworkMetrics>,
    version: String,
    disk: Option<Mutex<DiskState>>,
    /// Stale-version records seen at open (fixed for the cache's lifetime).
    load_stale: u64,
    /// Corrupt lines skipped at open (fixed for the cache's lifetime).
    load_corrupt: u64,
    /// Compactions performed by this process.
    compactions: AtomicU64,
    /// Bytes currently on disk across segment files (approximate during a
    /// crash window; exact after open, append and compact).
    segment_bytes: AtomicU64,
}

/// A point-in-time view of a [`DiskResultCache`]'s counters, for the
/// observability layer ([`crate::metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Memoization hits since the process started.
    pub hits: u64,
    /// Memoization misses since the process started.
    pub misses: u64,
    /// Entries currently in memory.
    pub entries: usize,
    /// Keys durably recorded on disk (current version).
    pub persisted: usize,
    /// Stale-version records ignored at open.
    pub stale: u64,
    /// Corrupt lines skipped at open.
    pub corrupt: u64,
    /// Compactions performed by this process.
    pub compactions: u64,
    /// Bytes on disk across segment files.
    pub segment_bytes: u64,
}

fn segment_name(index: usize) -> String {
    format!("seg-{index:06}.cache.jsonl")
}

fn parse_segment_index(name: &str) -> Option<usize> {
    name.strip_prefix("seg-")?
        .strip_suffix(".cache.jsonl")?
        .parse()
        .ok()
}

impl DiskResultCache {
    /// A purely in-memory cache (no directory) with the given version
    /// stamp — the degenerate configuration used when the daemon runs
    /// without `--cache`.
    pub fn in_memory(version: impl Into<String>) -> Self {
        DiskResultCache {
            memory: ResultCache::new(),
            version: version.into(),
            disk: None,
            load_stale: 0,
            load_corrupt: 0,
            compactions: AtomicU64::new(0),
            segment_bytes: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a cache directory and loads every
    /// current-version record into memory. Corrupt lines and stale-version
    /// records are skipped, not fatal — see the returned
    /// [`CacheLoadReport`].
    ///
    /// # Errors
    ///
    /// I/O errors creating or reading the directory.
    pub fn open(dir: &Path, version: impl Into<String>) -> io::Result<(Self, CacheLoadReport)> {
        let version = version.into();
        fs::create_dir_all(dir)?;
        let mut report = CacheLoadReport::default();
        let mut names: Vec<String> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| parse_segment_index(n).is_some())
            .collect();
        names.sort();
        let memory = ResultCache::new();
        let mut persisted = HashMap::new();
        let mut next_segment = 0usize;
        let mut segment_bytes = 0u64;
        for name in &names {
            report.segments += 1;
            next_segment = next_segment
                .max(parse_segment_index(name).expect("filtered above") + 1);
            let text = fs::read_to_string(dir.join(name))?;
            segment_bytes += text.len() as u64;
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match CacheRecord::from_json_line(line) {
                    Ok(rec) if rec.version == version => {
                        memory.insert(rec.key, rec.value);
                        persisted.insert(rec.key, rec.seed);
                        report.loaded += 1;
                    }
                    Ok(rec) => {
                        report.stale += 1;
                        report.warnings.push(format!(
                            "{name}:{}: version {:?} != {version:?}, entry ignored",
                            lineno + 1,
                            rec.version
                        ));
                    }
                    Err(e) => {
                        report.corrupt += 1;
                        report.warnings.push(format!(
                            "{name}:{}: corrupt cache line skipped ({e})",
                            lineno + 1
                        ));
                    }
                }
            }
        }
        Ok((
            DiskResultCache {
                memory,
                version,
                disk: Some(Mutex::new(DiskState {
                    dir: dir.to_path_buf(),
                    next_segment,
                    open_segment: None,
                    persisted,
                })),
                load_stale: report.stale as u64,
                load_corrupt: report.corrupt as u64,
                compactions: AtomicU64::new(0),
                segment_bytes: AtomicU64::new(segment_bytes),
            },
            report,
        ))
    }

    /// The cache's live counters, for metrics snapshots.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.memory.hits(),
            misses: self.memory.misses(),
            entries: self.memory.len(),
            persisted: self.persisted_len(),
            stale: self.load_stale,
            corrupt: self.load_corrupt,
            compactions: self.compactions.load(Ordering::Relaxed),
            segment_bytes: self.segment_bytes.load(Ordering::Relaxed),
        }
    }

    /// The in-memory memo table (hand this to the runner / service loop).
    pub fn memory(&self) -> &ResultCache<NetworkMetrics> {
        &self.memory
    }

    /// The version stamp written into new records.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| lock_recover(d).dir.clone())
    }

    /// Number of keys durably recorded on disk (current version).
    pub fn persisted_len(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| {
            lock_recover(d).persisted.len()
        })
    }

    /// Appends every not-yet-persisted result among `jobs` to the open
    /// segment (flushed before returning). Jobs without a memory entry —
    /// failed points — are skipped. Returns the number of records written;
    /// a no-op (0) for in-memory caches.
    ///
    /// # Errors
    ///
    /// I/O errors opening or appending to the segment file.
    pub fn persist_jobs(&self, jobs: &[SyntheticJob]) -> io::Result<usize> {
        let Some(disk) = &self.disk else {
            return Ok(0);
        };
        let mut state = lock_recover(disk);
        let mut written = 0usize;
        for job in jobs {
            let key = job.cache_key();
            if state.persisted.contains_key(&key) {
                continue;
            }
            let Some(value) = self.memory.get(key) else {
                continue;
            };
            if state.open_segment.is_none() {
                let path = state.dir.join(segment_name(state.next_segment));
                state.next_segment += 1;
                let file = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                state.open_segment = Some(io::BufWriter::new(file));
            }
            let record = CacheRecord {
                key,
                seed: job.seed,
                version: self.version.clone(),
                value,
            };
            let seg = state.open_segment.as_mut().expect("opened above");
            let line = record.to_json_line();
            seg.write_all(line.as_bytes())?;
            seg.write_all(b"\n")?;
            self.segment_bytes
                .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
            state.persisted.insert(key, job.seed);
            written += 1;
        }
        if written > 0 {
            state.open_segment.as_mut().expect("written > 0").flush()?;
        }
        Ok(written)
    }

    /// Rewrites the live record set (current version, deduplicated) into a
    /// single fresh segment and deletes the old ones. Crash-safe: the new
    /// segment is written to a `.tmp` file, synced, then renamed into
    /// place *before* any old segment is removed — at every instant the
    /// directory loads to the same live set. Returns the number of live
    /// records; a no-op (0) for in-memory caches.
    ///
    /// # Errors
    ///
    /// I/O errors writing, syncing, renaming or removing segment files.
    pub fn compact(&self) -> io::Result<usize> {
        let Some(disk) = &self.disk else {
            return Ok(0);
        };
        let mut state = lock_recover(disk);
        // Close (and flush) the open append segment first.
        if let Some(mut seg) = state.open_segment.take() {
            seg.flush()?;
        }
        let mut live: Vec<(u64, u64)> = state.persisted.iter().map(|(&k, &s)| (k, s)).collect();
        live.sort_unstable();
        let tmp_path = state.dir.join("compact.tmp");
        let mut compacted_bytes = 0u64;
        {
            let mut out = io::BufWriter::new(fs::File::create(&tmp_path)?);
            for &(key, seed) in &live {
                let value = self.memory.get(key).expect("persisted key in memory");
                let record = CacheRecord {
                    key,
                    seed,
                    version: self.version.clone(),
                    value,
                };
                let line = record.to_json_line();
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
                compacted_bytes += line.len() as u64 + 1;
            }
            out.flush()?;
            out.get_ref().sync_all()?;
        }
        let target_index = state.next_segment;
        state.next_segment += 1;
        let target = state.dir.join(segment_name(target_index));
        fs::rename(&tmp_path, &target)?;
        // Only now drop the superseded segments.
        for entry in fs::read_dir(&state.dir)?.filter_map(Result::ok) {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            match parse_segment_index(&name) {
                Some(i) if i != target_index => fs::remove_file(entry.path())?,
                _ => {}
            }
        }
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.segment_bytes.store(compacted_bytes, Ordering::Relaxed);
        Ok(live.len())
    }

    /// Poisons the disk-state mutex by panicking a thread while it holds
    /// the lock — a no-op for in-memory caches. Test-only hook for proving
    /// the service keeps serving after a worker panic; the daemon itself
    /// recovers the guard on every access, so a poisoned lock is harmless.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let Some(disk) = &self.disk else {
            return;
        };
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = disk.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("deliberately poisoning the cache disk state");
            })
            .join()
        });
        assert!(result.is_err(), "poisoning thread must panic");
        assert!(disk.is_poisoned(), "mutex should now be poisoned");
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// What the daemon loop should do after handling one request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceControl {
    /// Keep serving.
    Continue,
    /// A `shutdown` request was received; exit cleanly.
    Shutdown,
}

/// Why a point produced no metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PointFailure {
    /// The simulator reported an error.
    Failed(String),
    /// The batch was cancelled before this point ran.
    Cancelled,
}

/// `(metrics-or-failure with cache-hit flag, worker wall ms)` for one
/// completed point, in flight between workers and the ordering collector.
type PointOutcome = (Result<(NetworkMetrics, bool), PointFailure>, f64);

/// Cancellation state for one request id.
#[derive(Debug, Default)]
struct CancelEntry {
    /// Checked by workers before each point; set by `cancel`.
    flag: Arc<AtomicBool>,
    /// Whether a batch with this id is currently running (as opposed to an
    /// armed pre-cancel waiting for its submit).
    active: bool,
}

/// The long-lived evaluation service: one [`Experiment`] configuration, a
/// deterministic parallel [`ExperimentRunner`] and a [`DiskResultCache`].
///
/// `SweepService` is transport-agnostic — front-ends (the `noc_serve`
/// binary's stdin and Unix-socket modes, or tests) feed it request lines
/// and an `emit` sink for response events. It is `Sync`: concurrent
/// requests from multiple connections share the cache and each stream
/// their own strictly-ordered results.
#[derive(Debug)]
pub struct SweepService {
    experiment: Experiment,
    runner: ExperimentRunner,
    cache: DiskResultCache,
    /// Backpressure bound: maximum pending (admitted, not yet completed)
    /// points across all in-flight batches. `None` = unbounded.
    queue_limit: Option<usize>,
    /// Points admitted and not yet completed, across all batches.
    pending: AtomicUsize,
    /// Per-request cancellation flags (including armed pre-cancels).
    cancels: Mutex<HashMap<String, CancelEntry>>,
    /// Live observability instruments (see [`crate::metrics`]). Snapshot
    /// reads never block the admission or runner hot paths: the per-point
    /// path touches only pre-resolved atomics, and the only mutexes are
    /// the latency histograms, recorded from the per-batch collector.
    metrics: ServiceMetrics,
}

impl SweepService {
    /// A service evaluating `experiment` on `runner`, memoizing into
    /// `cache`. The cache's version stamp must be dedicated to this
    /// experiment configuration (see [`code_version`]).
    pub fn new(experiment: Experiment, runner: ExperimentRunner, cache: DiskResultCache) -> Self {
        let metrics = ServiceMetrics::new("noc-serve", cache.version());
        SweepService {
            experiment,
            runner,
            cache,
            queue_limit: None,
            pending: AtomicUsize::new(0),
            cancels: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Sets the slow-point threshold: a point whose uncached runtime
    /// exceeds `factor ×` the running mean of uncached points is recorded
    /// in the stats snapshot's slow-point log.
    #[must_use]
    pub fn with_slow_point_factor(mut self, factor: f64) -> Self {
        self.metrics.set_slow_point_factor(factor);
        self
    }

    /// Bounds the pending-point queue: a `submit` whose jobs would push the
    /// pending count past its effective limit is rejected with a `busy`
    /// event instead of queuing unboundedly. The effective limit depends on
    /// the request's priority — `limit` at priority 0, `limit / 2` below,
    /// unbounded above.
    #[must_use]
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = Some(limit);
        self
    }

    /// The configured queue limit, if any.
    pub fn queue_limit(&self) -> Option<usize> {
        self.queue_limit
    }

    /// Points admitted but not yet completed, across all in-flight batches.
    pub fn pending_points(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Cancels the batch with request id `id`: its not-yet-started points
    /// are skipped and surface as `point_failed` events with error
    /// `"cancelled"`. Returns whether a batch with that id was in flight;
    /// if not, the cancellation is *armed* and a later submit with that id
    /// is cancelled from the start.
    pub fn cancel(&self, id: &str) -> bool {
        let mut cancels = lock_recover(&self.cancels);
        let entry = cancels.entry(id.to_string()).or_default();
        entry.flag.store(true, Ordering::SeqCst);
        entry.active
    }

    /// The experiment configuration every job is evaluated against.
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }

    /// The result cache (for persistence control and statistics).
    pub fn cache(&self) -> &DiskResultCache {
        &self.cache
    }

    /// The live observability instruments.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Builds the versioned stats snapshot served to `stats` requests and
    /// the Prometheus listener. Queue, cache and runner state are sampled
    /// here — at read time — so the serving hot paths never pay for them.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let reg = self.metrics.registry();
        reg.gauge("noc_queue_depth").set(self.pending_points() as f64);
        reg.gauge("noc_queue_limit")
            .set(self.queue_limit.map_or(0.0, |l| l as f64));
        let cs = self.cache.stats();
        reg.counter("noc_cache_hits_total").observe(cs.hits);
        reg.counter("noc_cache_misses_total").observe(cs.misses);
        reg.counter("noc_cache_stale_records_total").observe(cs.stale);
        reg.counter("noc_cache_corrupt_lines_total").observe(cs.corrupt);
        reg.counter("noc_cache_compactions_total").observe(cs.compactions);
        reg.gauge("noc_cache_entries").set(cs.entries as f64);
        reg.gauge("noc_cache_persisted_records").set(cs.persisted as f64);
        reg.gauge("noc_cache_segment_bytes").set(cs.segment_bytes as f64);
        let progress = self.runner.progress().snapshot();
        reg.counter("noc_runner_points_scheduled_total")
            .observe(progress.scheduled as u64);
        reg.counter("noc_runner_points_completed_total")
            .observe(progress.completed as u64);
        reg.gauge("noc_runner_workers").set(self.runner.workers() as f64);
        let capacity_ns = self.metrics.uptime_ms() * 1e6 * self.runner.workers() as f64;
        if capacity_ns > 0.0 {
            reg.gauge("noc_worker_utilization")
                .set((progress.busy.as_nanos() as f64 / capacity_ns).min(1.0));
        }
        for (stage, cycles) in self.experiment.stage_totals.totals() {
            reg.gauge(&format!("noc_sim_stage_busy_cycles{{stage=\"{stage}\"}}"))
                .set(cycles as f64);
        }
        self.metrics.snapshot()
    }

    /// Parses and serves one request line, emitting response events.
    /// Malformed lines produce an `error` event and keep the daemon alive.
    pub fn handle_line(
        &self,
        line: &str,
        emit: &mut dyn FnMut(ServiceResponse),
    ) -> ServiceControl {
        match ServiceRequest::from_json_line(line) {
            Err(e) => {
                self.metrics.count_request_error();
                emit(ServiceResponse::Error {
                    id: None,
                    message: format!("bad request: {e}"),
                });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Ping) => {
                self.metrics.count_request("ping");
                emit(ServiceResponse::Pong {
                    uptime_ms: self.metrics.uptime_ms(),
                    code_version: self.cache.version().to_string(),
                    engine: "noc-serve".to_string(),
                });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Stats) => {
                self.metrics.count_request("stats");
                emit(ServiceResponse::Stats {
                    snapshot: self.stats_snapshot(),
                });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Shutdown) => {
                self.metrics.count_request("shutdown");
                ServiceControl::Shutdown
            }
            Ok(ServiceRequest::Cancel { id }) => {
                self.metrics.count_request("cancel");
                self.metrics.cancel_received();
                let active = self.cancel(&id);
                emit(ServiceResponse::Cancelled { id, active });
                ServiceControl::Continue
            }
            Ok(ServiceRequest::Submit(req)) => {
                self.metrics.count_request("submit");
                self.run_submit(&req, emit);
                ServiceControl::Continue
            }
        }
    }

    /// The admission bound for a request of the given priority, or `None`
    /// for unbounded (no queue limit configured, or positive priority).
    fn effective_limit(&self, priority: i64) -> Option<usize> {
        let limit = self.queue_limit?;
        match priority {
            p if p > 0 => None,
            0 => Some(limit),
            _ => Some(limit / 2),
        }
    }

    /// Registers (or re-arms) the cancel entry for a starting batch and
    /// returns its shared flag.
    fn register_batch(&self, id: &str) -> Arc<AtomicBool> {
        let mut cancels = lock_recover(&self.cancels);
        let entry = cancels.entry(id.to_string()).or_default();
        entry.active = true;
        Arc::clone(&entry.flag)
    }

    /// Evaluates one batch, streaming `accepted`, `progress`,
    /// `point`/`point_failed` (strict index order) and a final `done`
    /// event into `emit`; returns the batch summary — or `None` when the
    /// batch was rejected by backpressure (a single `busy` event is
    /// emitted and nothing else).
    ///
    /// Per-point failures do not abort the batch — every job is attempted
    /// and failures surface as `point_failed` events. A cancellation
    /// ([`SweepService::cancel`]) skips the not-yet-started points, which
    /// surface as `point_failed` with error `"cancelled"`; already-computed
    /// points still stream normally.
    pub fn run_submit(
        &self,
        req: &SubmitRequest,
        emit: &mut dyn FnMut(ServiceResponse),
    ) -> Option<BatchSummary> {
        let total = req.jobs.len();
        if let Some(limit) = self.effective_limit(req.priority) {
            let admit = self.pending.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |p| {
                (p + total <= limit).then_some(p + total)
            });
            if let Err(pending) = admit {
                self.metrics.busy_rejected();
                emit(ServiceResponse::Busy {
                    id: req.id.clone(),
                    pending,
                    limit,
                });
                return None;
            }
        } else {
            self.pending.fetch_add(total, Ordering::SeqCst);
        }
        self.metrics.batch_admitted(total);
        let cancel = self.register_batch(&req.id);
        emit(ServiceResponse::Accepted {
            id: req.id.clone(),
            points: total,
        });
        let started = Instant::now();
        let (tx, rx) = mpsc::channel::<(usize, PointOutcome)>();
        let (mut ok, mut failed, mut cancelled, mut hits) = (0usize, 0usize, 0usize, 0u64);
        std::thread::scope(|s| {
            let jobs = &req.jobs;
            let cancel = &cancel;
            s.spawn(move || {
                // `Sender` is not `Sync`, so the worker closure reaches it
                // through a mutex; dropping it here (when the runner is
                // done) ends the collector loop below.
                let tx = Mutex::new(tx);
                self.runner.run(jobs, |i, job| {
                    let point_start = Instant::now();
                    let outcome = if cancel.load(Ordering::SeqCst) {
                        Err(PointFailure::Cancelled)
                    } else {
                        self.cache
                            .memory()
                            .get_or_try_insert_with_stats(job.cache_key(), || {
                                job.run(&self.experiment)
                            })
                            .map_err(|e| PointFailure::Failed(e.to_string()))
                    };
                    let elapsed = point_start.elapsed();
                    if matches!(&outcome, Ok((_, true))) {
                        // Tag the hit for ETA math (two relaxed atomic
                        // adds — same cost class as the runner's own
                        // progress accounting).
                        self.runner.progress().note_cached(elapsed);
                    }
                    let ms = elapsed.as_secs_f64() * 1e3;
                    lock_recover(&tx)
                        .send((i, (outcome, ms)))
                        .expect("collector alive while workers run");
                });
            });
            // Collector: report completions as they happen, release the
            // point stream in strict index order.
            let mut pending: BTreeMap<usize, PointOutcome> = BTreeMap::new();
            let mut next = 0usize;
            let mut batch_hits = 0usize;
            for (completed, (i, outcome)) in rx.iter().enumerate() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                let received = completed + 1;
                batch_hits += usize::from(matches!(&outcome.0, Ok((_, true))));
                // ETA from the mean *uncached* point time, scaled by this
                // batch's observed miss rate — a mostly-cached batch
                // predicts only its uncached tail, not `remaining × mean`.
                let eta_ms = self
                    .runner
                    .progress()
                    .mean_uncached_point_nanos()
                    .map(|ns| {
                        let remaining = (total - received) as f64;
                        let miss_rate = (received - batch_hits) as f64 / received as f64;
                        remaining * miss_rate * ns / 1e6 / self.runner.workers() as f64
                    });
                emit(ServiceResponse::Progress {
                    id: req.id.clone(),
                    completed: received,
                    total,
                    eta_ms,
                });
                pending.insert(i, outcome);
                while let Some((outcome, ms)) = pending.remove(&next) {
                    let job = &req.jobs[next];
                    match outcome {
                        Ok((metrics, cache_hit)) => {
                            ok += 1;
                            hits += u64::from(cache_hit);
                            self.metrics.point_completed(
                                job.cache_key(),
                                job.seed,
                                cache_hit,
                                ms,
                            );
                            emit(ServiceResponse::Point {
                                id: req.id.clone(),
                                point: ManifestPoint {
                                    index: next,
                                    seed: job.seed,
                                    config_hash: job.cache_key(),
                                    cache_hit,
                                    duration_ms: ms,
                                    metrics: metric_pairs(&metrics),
                                },
                            });
                        }
                        Err(failure) => {
                            let error = match failure {
                                PointFailure::Failed(e) => {
                                    failed += 1;
                                    self.metrics.point_failed();
                                    e
                                }
                                PointFailure::Cancelled => {
                                    cancelled += 1;
                                    self.metrics.point_cancelled();
                                    "cancelled".to_string()
                                }
                            };
                            emit(ServiceResponse::PointFailed {
                                id: req.id.clone(),
                                index: next,
                                config_hash: job.cache_key(),
                                seed: job.seed,
                                error,
                            });
                        }
                    }
                    next += 1;
                }
            }
        });
        lock_recover(&self.cancels).remove(&req.id);
        if let Err(e) = self.cache.persist_jobs(&req.jobs) {
            emit(ServiceResponse::Error {
                id: Some(req.id.clone()),
                message: format!("cache persist failed: {e}"),
            });
        }
        let summary = BatchSummary {
            points: total,
            ok,
            failed,
            cancelled,
            cache_hits: hits,
            cache_misses: ok as u64 - hits,
            config_hash: RunManifest::combine_hashes(req.jobs.iter().map(SyntheticJob::cache_key)),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        self.metrics.batch_done(summary.wall_ms);
        emit(ServiceResponse::Done {
            id: req.id.clone(),
            summary: summary.clone(),
        });
        Some(summary)
    }
}

#[cfg(test)]
mod tests {
    use noc_sim::topology::TopologySpec;
    use noc_sim::traffic::TrafficPattern;

    use super::*;
    use crate::runner::SyntheticBaseline;

    fn sample_jobs() -> Vec<SyntheticJob> {
        vec![
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::UniformRandom,
                rate: 0.05,
                seed: 42,
                baseline: SyntheticBaseline::NocSprinting,
            },
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::Hotspot { hot_fraction: 0.3 },
                rate: 0.1,
                seed: 7,
                baseline: SyntheticBaseline::SpreadAggregate,
            },
        ]
    }

    fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "noc-service-unit-{label}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn request_round_trips() {
        for req in [
            ServiceRequest::Ping,
            ServiceRequest::Stats,
            ServiceRequest::Shutdown,
            ServiceRequest::Cancel {
                id: "r9".to_string(),
            },
            ServiceRequest::Submit(SubmitRequest {
                id: "r1".to_string(),
                label: "fig11".to_string(),
                priority: 0,
                jobs: sample_jobs(),
            }),
            ServiceRequest::Submit(SubmitRequest {
                id: "r2".to_string(),
                label: "urgent".to_string(),
                priority: -3,
                jobs: sample_jobs(),
            }),
        ] {
            let line = req.to_json_line();
            assert_eq!(ServiceRequest::from_json_line(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn request_validation_rejects_bad_jobs() {
        let bad = [
            r#"{"type":"submit","id":"x","jobs":[{"level":0,"pattern":"uniform","rate":0.1,"seed":"0x1","baseline":"noc_sprinting"}]}"#,
            r#"{"type":"submit","id":"x","jobs":[{"level":4,"pattern":"uniform","rate":1.5,"seed":"0x1","baseline":"noc_sprinting"}]}"#,
            r#"{"type":"submit","id":"x","jobs":[{"level":4,"pattern":"hotspot","rate":0.1,"seed":"0x1","baseline":"noc_sprinting"}]}"#,
            r#"{"type":"submit","id":"x","jobs":[{"level":4,"pattern":"uniform","rate":0.1,"seed":"0x1","baseline":"nope"}]}"#,
            r#"{"type":"nonsense"}"#,
        ];
        for line in bad {
            assert!(ServiceRequest::from_json_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let point = ManifestPoint {
            index: 3,
            seed: u64::MAX,
            config_hash: 0xdead_beef,
            cache_hit: true,
            duration_ms: 0.125,
            metrics: metric_pairs(&NetworkMetrics {
                avg_packet_latency: 23.75,
                avg_network_latency: 18.5,
                network_power: 0.011,
                accepted_throughput: 0.099,
                saturated: false,
            }),
        };
        let events = [
            ServiceResponse::Accepted {
                id: "r".to_string(),
                points: 9,
            },
            ServiceResponse::Progress {
                id: "r".to_string(),
                completed: 4,
                total: 9,
                eta_ms: None,
            },
            ServiceResponse::Progress {
                id: "r".to_string(),
                completed: 5,
                total: 9,
                eta_ms: Some(125.5),
            },
            ServiceResponse::Point {
                id: "r".to_string(),
                point,
            },
            ServiceResponse::PointFailed {
                id: "r".to_string(),
                index: 5,
                config_hash: u64::MAX,
                seed: 0xabc,
                error: "deadlock at cycle 12".to_string(),
            },
            ServiceResponse::Done {
                id: "r".to_string(),
                summary: BatchSummary {
                    points: 9,
                    ok: 6,
                    failed: 1,
                    cancelled: 2,
                    cache_hits: 3,
                    cache_misses: 3,
                    config_hash: 0x1234_5678_9abc_def0,
                    wall_ms: 88.5,
                },
            },
            ServiceResponse::Busy {
                id: "r".to_string(),
                pending: 480,
                limit: 512,
            },
            ServiceResponse::Cancelled {
                id: "r".to_string(),
                active: true,
            },
            ServiceResponse::Pong {
                uptime_ms: 1234.5,
                code_version: code_version("quick"),
                engine: "noc-serve".to_string(),
            },
            ServiceResponse::Stats {
                snapshot: {
                    let m = ServiceMetrics::new("noc-serve", &code_version("quick"));
                    m.batch_admitted(3);
                    m.point_completed(0xabc, 0xdef, false, 2.5);
                    m.snapshot()
                },
            },
            ServiceResponse::Error {
                id: None,
                message: "bad request".to_string(),
            },
            ServiceResponse::Error {
                id: Some("r".to_string()),
                message: "cache persist failed".to_string(),
            },
        ];
        for ev in events {
            let line = ev.to_json_line();
            assert_eq!(ServiceResponse::from_json_line(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn cache_record_round_trips_nonfinite_metrics_exactly() {
        let rec = CacheRecord {
            key: u64::MAX,
            seed: 0x9e37_79b9_7f4a_7c15,
            version: code_version("paper"),
            value: NetworkMetrics {
                avg_packet_latency: f64::NAN,
                avg_network_latency: f64::INFINITY,
                network_power: -0.0,
                accepted_throughput: 0.1 + 0.2, // not representable exactly
                saturated: true,
            },
        };
        let back = CacheRecord::from_json_line(&rec.to_json_line()).unwrap();
        assert_eq!(back.key, rec.key);
        assert_eq!(back.seed, rec.seed);
        assert_eq!(back.version, rec.version);
        // Bit-pattern equality, not f64 ==, so NaN and -0.0 are covered.
        assert_eq!(
            back.value.avg_packet_latency.to_bits(),
            rec.value.avg_packet_latency.to_bits()
        );
        assert_eq!(
            back.value.avg_network_latency.to_bits(),
            rec.value.avg_network_latency.to_bits()
        );
        assert_eq!(
            back.value.network_power.to_bits(),
            rec.value.network_power.to_bits()
        );
        assert_eq!(
            back.value.accepted_throughput.to_bits(),
            rec.value.accepted_throughput.to_bits()
        );
        assert!(back.value.saturated);
    }

    #[test]
    fn metric_pairs_round_trip() {
        let m = NetworkMetrics {
            avg_packet_latency: 23.75,
            avg_network_latency: 18.5,
            network_power: 0.0117,
            accepted_throughput: 0.0991,
            saturated: true,
        };
        let pairs = metric_pairs(&m);
        assert_eq!(pairs.len(), METRIC_FIELDS.len());
        for ((name, _), field) in pairs.iter().zip(METRIC_FIELDS) {
            assert_eq!(name, field);
        }
        assert_eq!(metrics_from_pairs(&pairs).unwrap(), m);
        assert!(metrics_from_pairs(&pairs[..3]).is_err());
    }

    #[test]
    fn disk_cache_persists_and_reloads() {
        let dir = scratch_dir("reload");
        let version = code_version("quick");
        let jobs = sample_jobs();
        let value = NetworkMetrics {
            avg_packet_latency: 20.0,
            avg_network_latency: 15.0,
            network_power: 0.01,
            accepted_throughput: 0.05,
            saturated: false,
        };
        {
            let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
            assert_eq!(report, CacheLoadReport::default());
            cache.memory().insert(jobs[0].cache_key(), value);
            assert_eq!(cache.persist_jobs(&jobs).unwrap(), 1);
            // Re-persisting is a no-op.
            assert_eq!(cache.persist_jobs(&jobs).unwrap(), 0);
            assert_eq!(cache.persisted_len(), 1);
        }
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.segments, 1);
        assert_eq!(cache.memory().get(jobs[0].cache_key()), Some(value));
        // A different version stamp sees an empty (stale) cache.
        let (cache, report) = DiskResultCache::open(&dir, code_version("paper")).unwrap();
        assert_eq!(report.loaded, 0);
        assert_eq!(report.stale, 1);
        assert!(cache.memory().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_compaction_dedupes_and_survives() {
        let dir = scratch_dir("compact");
        let version = code_version("quick");
        let jobs = sample_jobs();
        let value = NetworkMetrics {
            avg_packet_latency: 1.0,
            avg_network_latency: 2.0,
            network_power: 3.0,
            accepted_throughput: 4.0,
            saturated: false,
        };
        // Two daemon lifetimes, one job each → two segments.
        for job in &jobs {
            let (cache, _) = DiskResultCache::open(&dir, &version).unwrap();
            cache.memory().insert(job.cache_key(), value);
            cache.persist_jobs(std::slice::from_ref(job)).unwrap();
        }
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert_eq!(report.segments, 2);
        assert_eq!(cache.compact().unwrap(), 2);
        // One segment remains, holding both records.
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert_eq!(report.segments, 1);
        assert_eq!(report.loaded, 2);
        assert_eq!(cache.memory().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_is_a_quiet_noop_on_disk_apis() {
        let cache = DiskResultCache::in_memory(code_version("quick"));
        assert_eq!(cache.persist_jobs(&sample_jobs()).unwrap(), 0);
        assert_eq!(cache.compact().unwrap(), 0);
        assert_eq!(cache.persisted_len(), 0);
        assert!(cache.dir().is_none());
    }

    #[test]
    fn service_streams_points_in_order_and_caches() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let req = SubmitRequest {
            id: "unit".to_string(),
            label: "unit".to_string(),
            priority: 0,
            jobs: sample_jobs(),
        };
        let mut events = Vec::new();
        let summary = service
            .run_submit(&req, &mut |e| events.push(e))
            .expect("no queue limit configured");
        assert_eq!(summary.points, 2);
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.cache_hits, 0);
        assert_eq!(summary.cache_misses, 2);
        let indices: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::Point { point, .. } => Some(point.index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, vec![0, 1], "points stream in strict index order");
        assert!(matches!(events.first(), Some(ServiceResponse::Accepted { points: 2, .. })));
        assert!(matches!(events.last(), Some(ServiceResponse::Done { .. })));
        // Resubmission is served entirely from cache with identical metrics.
        let first: Vec<ManifestPoint> = events
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::Point { point, .. } => Some(point.clone()),
                _ => None,
            })
            .collect();
        let mut events2 = Vec::new();
        let summary2 = service
            .run_submit(&req, &mut |e| events2.push(e))
            .expect("no queue limit configured");
        assert_eq!(summary2.cache_hits, 2);
        let second: Vec<ManifestPoint> = events2
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::Point { point, .. } => Some(point.clone()),
                _ => None,
            })
            .collect();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.metrics, b.metrics, "cache hit must be bit-identical");
            assert!(!a.cache_hit);
            assert!(b.cache_hit);
        }
    }

    #[test]
    fn stats_snapshot_exports_stage_busy_gauges() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        // Before any run every stage gauge samples as zero.
        let idle = service.stats_snapshot();
        for stage in ["credit", "link", "inject", "va", "sa", "eject"] {
            let name = format!("noc_sim_stage_busy_cycles{{stage=\"{stage}\"}}");
            assert_eq!(idle.metrics.gauge(&name), Some(0.0), "{name}");
        }
        let req = SubmitRequest {
            id: "stages".to_string(),
            label: "stages".to_string(),
            priority: 0,
            jobs: sample_jobs(),
        };
        service
            .run_submit(&req, &mut |_| {})
            .expect("no queue limit configured");
        // Any real run keeps the switch allocator and links busy.
        let snap = service.stats_snapshot();
        for stage in ["inject", "va", "sa", "link", "credit", "eject"] {
            let name = format!("noc_sim_stage_busy_cycles{{stage=\"{stage}\"}}");
            assert!(
                snap.metrics.gauge(&name).unwrap_or(0.0) > 0.0,
                "{name} should be positive after a run"
            );
        }
    }

    #[test]
    fn handle_line_covers_the_request_surface() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let mut events = Vec::new();
        let mut emit = |e: ServiceResponse| events.push(e);
        assert_eq!(
            service.handle_line("{\"type\":\"ping\"}", &mut emit),
            ServiceControl::Continue
        );
        assert_eq!(
            service.handle_line("not json", &mut emit),
            ServiceControl::Continue
        );
        assert_eq!(
            service.handle_line("{\"type\":\"stats\"}", &mut emit),
            ServiceControl::Continue
        );
        assert_eq!(
            service.handle_line("{\"type\":\"shutdown\"}", &mut emit),
            ServiceControl::Shutdown
        );
        let ServiceResponse::Pong {
            code_version: ref ver,
            ref engine,
            uptime_ms,
        } = events[0]
        else {
            panic!("ping answered with {:?}", events[0]);
        };
        assert_eq!(ver, &code_version("quick"));
        assert_eq!(engine, "noc-serve");
        assert!(uptime_ms >= 0.0);
        assert!(matches!(events[1], ServiceResponse::Error { .. }));
        let ServiceResponse::Stats { ref snapshot } = events[2] else {
            panic!("stats answered with {:?}", events[2]);
        };
        assert_eq!(snapshot.engine, "noc-serve");
        assert_eq!(
            snapshot.metrics.counter("noc_requests_total{verb=\"ping\"}"),
            Some(1)
        );
        assert_eq!(snapshot.metrics.counter("noc_request_errors_total"), Some(1));
        assert_eq!(snapshot.metrics.gauge("noc_queue_depth"), Some(0.0));
    }

    fn submit(id: &str, priority: i64) -> SubmitRequest {
        SubmitRequest {
            id: id.to_string(),
            label: "unit".to_string(),
            priority,
            jobs: sample_jobs(),
        }
    }

    #[test]
    fn queue_limit_rejects_with_busy_and_priority_overrides() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        )
        .with_queue_limit(1);
        assert_eq!(service.queue_limit(), Some(1));
        // Two jobs against a limit of one: rejected, with a lone busy event.
        let mut events = Vec::new();
        assert!(service.run_submit(&submit("b0", 0), &mut |e| events.push(e)).is_none());
        assert_eq!(events.len(), 1, "busy is the only event");
        assert!(
            matches!(&events[0], ServiceResponse::Busy { id, pending: 0, limit: 1 } if id == "b0")
        );
        // Negative priority halves the limit (1 / 2 = 0): also rejected.
        let mut events = Vec::new();
        assert!(service.run_submit(&submit("b1", -1), &mut |e| events.push(e)).is_none());
        assert!(matches!(&events[0], ServiceResponse::Busy { limit: 0, .. }));
        // Positive priority bypasses the limit entirely.
        let mut events = Vec::new();
        let summary = service
            .run_submit(&submit("b2", 1), &mut |e| events.push(e))
            .expect("positive priority bypasses the queue limit");
        assert_eq!(summary.ok, 2);
        assert_eq!(service.pending_points(), 0, "pending drains to zero");
    }

    #[test]
    fn armed_cancel_skips_every_point() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            DiskResultCache::in_memory(code_version("quick")),
        );
        // Cancel before the submit arrives: not active, but armed.
        assert!(!service.cancel("c0"));
        let mut events = Vec::new();
        let summary = service
            .run_submit(&submit("c0", 0), &mut |e| events.push(e))
            .expect("cancel does not reject admission");
        assert_eq!(summary.ok, 0);
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.cancelled, summary.points);
        let errors: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ServiceResponse::PointFailed { error, .. } => Some(error.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(errors.len(), summary.points);
        assert!(errors.iter().all(|e| *e == "cancelled"));
        // The registry entry is cleared: resubmitting the same id runs.
        let summary = service
            .run_submit(&submit("c0", 0), &mut |_| {})
            .expect("admitted");
        assert_eq!(summary.ok, summary.points);
        assert_eq!(summary.cancelled, 0);
    }

    #[test]
    fn poisoned_cache_lock_keeps_the_service_serving() {
        let dir = scratch_dir("poison");
        let (cache, _) = DiskResultCache::open(&dir, code_version("quick")).unwrap();
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            cache,
        );
        service.cache().poison_for_test();
        // Every cache-path API must still answer through the recovered
        // guard rather than propagating the poison panic.
        assert_eq!(service.cache().dir().as_deref(), Some(dir.as_path()));
        let mut events = Vec::new();
        let mut emit = |e: ServiceResponse| events.push(e);
        assert_eq!(
            service.handle_line("{\"type\":\"ping\"}", &mut emit),
            ServiceControl::Continue
        );
        assert!(matches!(events[0], ServiceResponse::Pong { .. }));
        let summary = service
            .run_submit(&submit("p0", 0), &mut |_| {})
            .expect("admitted");
        assert_eq!(summary.ok, summary.points, "batch runs after poisoning");
        assert_eq!(
            service.cache().persisted_len(),
            summary.points,
            "results persist through the recovered lock"
        );
        assert_eq!(service.cache().compact().unwrap(), summary.points);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_md_matches_schema_reference() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SERVICE.md");
        let text = std::fs::read_to_string(path)
            .expect("SERVICE.md exists at the repository root");
        let begin = "<!-- schema:generated:begin -->";
        let end = "<!-- schema:generated:end -->";
        let start = text
            .find(begin)
            .expect("SERVICE.md contains the schema:generated:begin marker")
            + begin.len();
        let stop = text
            .find(end)
            .expect("SERVICE.md contains the schema:generated:end marker");
        let embedded = text[start..stop].trim();
        let generated = schema_reference();
        assert!(
            embedded == generated,
            "SERVICE.md schema tables have drifted from crates/core/src/wire.rs; \
             regenerate with `noc_serve --print-schema` and paste between the markers.\n\
             --- expected ---\n{generated}\n--- found ---\n{embedded}"
        );
    }
}
