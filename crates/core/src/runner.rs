//! Deterministic parallel experiment execution.
//!
//! Every figure, ablation and sweep in this reproduction decomposes into
//! independent operating points: a point builds its own network, traffic
//! generator and routing function, and its RNG seed is a pure function of
//! `(base_seed, point_index)` ([`noc_sim::sweep::point_seed`]). The
//! [`ExperimentRunner`] exploits that: it fans points out across a
//! `std::thread::scope` worker pool and reassembles results **in input
//! order**, so parallel output is bit-identical to the serial path at any
//! worker count.
//!
//! Three layers:
//!
//! - [`ExperimentRunner::run`] / [`ExperimentRunner::try_run`] — generic
//!   order-preserving parallel map over a slice,
//! - [`ExperimentRunner::run_sweep`] — a [`LoadSweep`] driven point-by-point
//!   through the pool,
//! - [`ExperimentRunner::run_synthetic_jobs`] — the Fig. 11 / ablation
//!   fan-out over [`SyntheticJob`] operating points, with an optional
//!   [`ResultCache`] so repeated figure runs skip already-simulated points.
//!
//! Progress is observable through [`RunnerProgress`]: completed/total
//! counters and accumulated per-point busy time, readable from another
//! thread while a long sweep runs.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use noc_sim::error::SimError;
use noc_sim::probe::Probe;
use noc_sim::routing::RoutingFunction;
use noc_sim::sweep::{point_seed, LoadSweep, SweepReport};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::{Placement, TrafficPattern};

use crate::experiment::{Experiment, NetworkMetrics};
use crate::telemetry::{progress_line, RunnerEvent, SpanRecorder};

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Every mutex this crate shares across worker threads protects state that
/// is consistent at each write boundary (memo-table inserts, append-only
/// disk bookkeeping, channel handles), so a panic while holding the lock
/// cannot leave a torn value behind. Recovering the guard therefore turns
/// "one worker panicked" into a contained failure instead of poisoning the
/// lock and taking the whole daemon down on the *next* access.
pub(crate) fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Live counters for an in-flight (or finished) batch of experiment points.
///
/// Shared by cloning the [`Arc`] out of [`ExperimentRunner::progress`];
/// totals accumulate across batches run on the same runner.
#[derive(Debug, Default)]
pub struct RunnerProgress {
    scheduled: AtomicUsize,
    completed: AtomicUsize,
    busy_nanos: AtomicU64,
    hit_completed: AtomicUsize,
    hit_busy_nanos: AtomicU64,
}

/// A point-in-time view of [`RunnerProgress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Points handed to the pool so far.
    pub scheduled: usize,
    /// Points finished so far.
    pub completed: usize,
    /// Total busy time across workers (sum of per-point wall-clock).
    pub busy: Duration,
}

impl RunnerProgress {
    fn begin(&self, n: usize) {
        self.scheduled.fetch_add(n, Ordering::Relaxed);
    }

    fn record(&self, elapsed: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.busy_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Marks the most recently recorded point as a cache hit. Called *in
    /// addition to* the regular accounting so the overall counters are
    /// unchanged; the hit tallies let ETA math subtract near-zero cache
    /// hits from the mean ([`RunnerProgress::mean_uncached_point_nanos`]).
    pub fn note_cached(&self, elapsed: Duration) {
        self.hit_completed.fetch_add(1, Ordering::Relaxed);
        self.hit_busy_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Reads the current counters.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            scheduled: self.scheduled.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Mean busy time per completed point in nanoseconds, if any completed.
    ///
    /// Reported as a float: the integer-division form (`busy / completed`)
    /// silently truncated sub-unit averages toward zero (and the `as u32`
    /// cast it required would wrap beyond 2^32 points), so averages are now
    /// computed in `f64` nanoseconds and never lose the fractional part.
    pub fn mean_point_nanos(&self) -> Option<f64> {
        let s = self.snapshot();
        (s.completed > 0).then(|| s.busy.as_nanos() as f64 / s.completed as f64)
    }

    /// Mean busy time per completed **uncached** point in nanoseconds, if
    /// any uncached point completed. This is the right per-point cost for
    /// ETA math: cache hits finish in microseconds, and folding them into
    /// the mean makes a mostly-cached batch predict a wildly pessimistic
    /// finish for its remaining uncached tail (or a wildly optimistic one,
    /// depending on order). Returns `None` until at least one uncached
    /// point has completed.
    pub fn mean_uncached_point_nanos(&self) -> Option<f64> {
        let completed = self.completed.load(Ordering::Relaxed);
        let hits = self.hit_completed.load(Ordering::Relaxed);
        let uncached = completed.saturating_sub(hits);
        if uncached == 0 {
            return None;
        }
        let busy = self.busy_nanos.load(Ordering::Relaxed);
        let hit_busy = self.hit_busy_nanos.load(Ordering::Relaxed);
        Some(busy.saturating_sub(hit_busy) as f64 / uncached as f64)
    }

    /// Mean busy time per completed point, if any completed.
    ///
    /// Convenience wrapper over [`RunnerProgress::mean_point_nanos`];
    /// sub-nanosecond precision is rounded into the returned [`Duration`].
    pub fn mean_point_time(&self) -> Option<Duration> {
        self.mean_point_nanos()
            .map(|ns| Duration::from_secs_f64(ns / 1e9))
    }
}

/// An order-preserving parallel map over independent experiment points.
#[derive(Debug)]
pub struct ExperimentRunner {
    workers: usize,
    progress: Arc<RunnerProgress>,
    echo: Option<String>,
    spans: Option<Arc<SpanRecorder>>,
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentRunner {
    /// A runner with one worker per available hardware thread.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_workers(workers)
    }

    /// A runner with exactly `workers` worker threads (1 = serial).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "runner needs at least one worker");
        ExperimentRunner {
            workers,
            progress: Arc::new(RunnerProgress::default()),
            echo: None,
            spans: None,
        }
    }

    /// Prints a live progress line (`label: completed/total (pct), rate,
    /// ETA`) to stderr as points finish — observability for long sweeps.
    #[must_use]
    pub fn with_echo(mut self, label: impl Into<String>) -> Self {
        self.echo = Some(label.into());
        self
    }

    /// Records a [`crate::telemetry::Span`] per completed point into `rec`
    /// (start/end wall time, worker thread, cache hit, seed, config hash),
    /// exportable as a Chrome trace for the whole parallel run.
    #[must_use]
    pub fn with_span_recorder(mut self, rec: Arc<SpanRecorder>) -> Self {
        self.spans = Some(rec);
        self
    }

    /// The attached span recorder, if any.
    pub fn span_recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.spans.as_ref()
    }

    /// The label used for spans, events and progress lines.
    fn label_or(&self, fallback: &str) -> String {
        self.echo.clone().unwrap_or_else(|| fallback.to_string())
    }

    /// Records one completed point span if a recorder is attached.
    fn record_span(
        &self,
        fallback: &str,
        index: usize,
        start: Instant,
        cache_hit: bool,
        seed: Option<u64>,
        config_hash: Option<u64>,
    ) {
        if let Some(rec) = &self.spans {
            rec.record(
                &self.label_or(fallback),
                index,
                start,
                Instant::now(),
                cache_hit,
                seed,
                config_hash,
            );
        }
    }

    /// Emits a structured point-failure event (one JSON line on stderr)
    /// carrying the failing point's index, config hash and seed.
    fn emit_failure(
        &self,
        fallback: &str,
        index: usize,
        config_hash: Option<u64>,
        seed: Option<u64>,
        error: &dyn std::fmt::Display,
    ) {
        let event = RunnerEvent::PointFailed {
            label: self.label_or(fallback),
            index,
            config_hash,
            seed,
            error: error.to_string(),
        };
        eprintln!("{}", event.to_json_line());
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared progress counters (clone the `Arc` to watch from another
    /// thread).
    pub fn progress(&self) -> &Arc<RunnerProgress> {
        &self.progress
    }

    /// Parallel map: applies `f` to every item and returns outputs in input
    /// order. `f(i, item)` must be a pure function of its arguments for the
    /// result to be deterministic — all experiment points in this workspace
    /// are (seeds derive from indices, never from shared state).
    pub fn run<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let res: Result<Vec<O>, std::convert::Infallible> =
            self.try_run(items, |i, item| Ok(f(i, item)));
        match res {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }

    /// Fallible parallel map. On failure returns the error of the
    /// **lowest-indexed** failing item — not whichever thread lost the race
    /// — so error reporting is deterministic too.
    ///
    /// # Errors
    ///
    /// The first (by input order) error produced by `f`.
    pub fn try_run<I, O, E, F>(&self, items: &[I], f: F) -> Result<Vec<O>, E>
    where
        I: Sync,
        O: Send,
        E: Send,
        F: Fn(usize, &I) -> Result<O, E> + Sync,
    {
        let n = items.len();
        self.progress.begin(n);
        if n == 0 {
            return Ok(Vec::new());
        }
        let results: Vec<Mutex<Option<Result<O, E>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let batch_start = Instant::now();
        let workers = self.workers.min(n);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let start = Instant::now();
                    let out = f(i, &items[i]);
                    self.progress.record(start.elapsed());
                    if let Some(label) = &self.echo {
                        let snap = self.progress.snapshot();
                        eprintln!(
                            "{}",
                            progress_line(
                                label,
                                snap.completed,
                                snap.scheduled,
                                batch_start.elapsed()
                            )
                        );
                    }
                    *results[i].lock().expect("result cell poisoned") = Some(out);
                });
            }
        });
        let mut out = Vec::with_capacity(n);
        for (i, cell) in results.into_iter().enumerate() {
            match cell.into_inner().expect("result cell poisoned") {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => return Err(e),
                None => unreachable!("worker pool dropped item {i}"),
            }
        }
        Ok(out)
    }

    /// Runs a [`LoadSweep`] through the pool: each operating point is an
    /// independent simulation ([`LoadSweep::run_point`]), so the report is
    /// bit-identical to [`LoadSweep::run`] at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed point's simulator error.
    pub fn run_sweep<F>(
        &self,
        sweep: &LoadSweep,
        placement: &Placement,
        make_routing: F,
    ) -> Result<SweepReport, SimError>
    where
        F: Fn() -> Box<dyn RoutingFunction> + Send + Sync,
    {
        let indices: Vec<usize> = (0..sweep.loads.len()).collect();
        let points = self.try_run(&indices, |_, &i| {
            let start = Instant::now();
            let seed = point_seed(sweep.seed, i);
            match sweep.run_point(i, placement, &make_routing) {
                Ok(p) => {
                    self.record_span("sweep", i, start, false, Some(seed), None);
                    Ok(p)
                }
                Err(e) => {
                    self.emit_failure("sweep", i, None, Some(seed), &e);
                    Err(e)
                }
            }
        })?;
        Ok(SweepReport { points })
    }

    /// [`ExperimentRunner::run_sweep`] with one probe attached per point:
    /// `make_probe(i)` builds point `i`'s observer, the point runs through
    /// [`LoadSweep::run_point_observed`], and the filled probes come back in
    /// point order alongside the report.
    ///
    /// Probes observe without mutating simulation state, so the returned
    /// [`SweepReport`] is `assert_eq!`-identical to the probe-less
    /// [`ExperimentRunner::run_sweep`] at any worker count (pinned by the
    /// determinism suite).
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed point's simulator error.
    pub fn run_sweep_observed<F, P, M>(
        &self,
        sweep: &LoadSweep,
        placement: &Placement,
        make_routing: F,
        make_probe: M,
    ) -> Result<(SweepReport, Vec<P>), SimError>
    where
        F: Fn() -> Box<dyn RoutingFunction> + Send + Sync,
        P: Probe,
        M: Fn(usize) -> P + Send + Sync,
    {
        let indices: Vec<usize> = (0..sweep.loads.len()).collect();
        let results = self.try_run(&indices, |_, &i| {
            let start = Instant::now();
            let seed = point_seed(sweep.seed, i);
            let mut probe = make_probe(i);
            match sweep.run_point_observed(i, placement, &make_routing, Some(&mut probe)) {
                Ok(p) => {
                    self.record_span("sweep", i, start, false, Some(seed), None);
                    Ok((p, probe))
                }
                Err(e) => {
                    self.emit_failure("sweep", i, None, Some(seed), &e);
                    Err(e)
                }
            }
        })?;
        let (points, probes) = results.into_iter().unzip();
        Ok((SweepReport { points }, probes))
    }

    /// Runs a batch of synthetic operating points (the Fig. 11 / ablation
    /// fan-out) through the pool, optionally consulting `cache` so repeated
    /// figure runs skip already-simulated points.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed job's simulator error.
    pub fn run_synthetic_jobs(
        &self,
        experiment: &Experiment,
        jobs: &[SyntheticJob],
        cache: Option<&ResultCache<NetworkMetrics>>,
    ) -> Result<Vec<NetworkMetrics>, SimError> {
        Ok(self
            .run_synthetic_jobs_detailed(experiment, jobs, cache)?
            .into_iter()
            .map(|(m, _)| m)
            .collect())
    }

    /// [`ExperimentRunner::run_synthetic_jobs`], additionally reporting each
    /// point's execution detail (cache hit, worker wall time) so callers can
    /// write per-point telemetry without re-deriving it.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed job's simulator error.
    pub fn run_synthetic_jobs_detailed(
        &self,
        experiment: &Experiment,
        jobs: &[SyntheticJob],
        cache: Option<&ResultCache<NetworkMetrics>>,
    ) -> Result<Vec<(NetworkMetrics, PointDetail)>, SimError> {
        self.try_run(jobs, |i, job| {
            let start = Instant::now();
            let key = job.cache_key();
            let compute = || job.run(experiment);
            let result = match cache {
                Some(c) => c.get_or_try_insert_with_stats(key, compute),
                None => compute().map(|v| (v, false)),
            };
            match result {
                Ok((v, cache_hit)) => {
                    self.record_span("jobs", i, start, cache_hit, Some(job.seed), Some(key));
                    let detail = PointDetail {
                        cache_hit,
                        duration: start.elapsed(),
                    };
                    if cache_hit {
                        self.progress.note_cached(detail.duration);
                    }
                    Ok((v, detail))
                }
                Err(e) => {
                    self.emit_failure("jobs", i, Some(key), Some(job.seed), &e);
                    Err(e)
                }
            }
        })
    }
}

/// Per-point execution detail from
/// [`ExperimentRunner::run_synthetic_jobs_detailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointDetail {
    /// Whether the point was served from the result cache.
    pub cache_hit: bool,
    /// Wall time the worker spent on the point (near zero for cache hits).
    pub duration: Duration,
}

/// Which configuration a [`SyntheticJob`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntheticBaseline {
    /// NoC-sprinting: convex region, CDOR, structural gating.
    NocSprinting,
    /// Full-sprinting read #1: the k endpoints placed randomly on the fully
    /// powered mesh, each injecting at the nominal rate.
    RandomEndpoints,
    /// Full-sprinting read #2: all nodes inject, aggregate load matched to
    /// the sprint configuration (`run_synthetic_spread`).
    SpreadAggregate,
}

/// One synthetic-traffic operating point: the unit of work fanned out by
/// [`ExperimentRunner::run_synthetic_jobs`] and the key of the result
/// cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticJob {
    /// Topology under test (defaults to the experiment's mesh).
    pub topology: TopologySpec,
    /// Sprint level (active cores).
    pub level: usize,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Offered load (flits/cycle per active sprint node).
    pub rate: f64,
    /// RNG seed.
    pub seed: u64,
    /// Configuration under test.
    pub baseline: SyntheticBaseline,
}

impl SyntheticJob {
    /// Runs the point on `experiment`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(&self, experiment: &Experiment) -> Result<NetworkMetrics, SimError> {
        match self.baseline {
            SyntheticBaseline::NocSprinting => experiment.run_synthetic_on(
                self.topology,
                self.level,
                true,
                self.pattern,
                self.rate,
                self.seed,
            ),
            SyntheticBaseline::RandomEndpoints => experiment.run_synthetic_on(
                self.topology,
                self.level,
                false,
                self.pattern,
                self.rate,
                self.seed,
            ),
            SyntheticBaseline::SpreadAggregate => experiment.run_synthetic_spread_on(
                self.topology,
                self.level,
                self.pattern,
                self.rate,
                self.seed,
            ),
        }
    }

    /// Stable 64-bit key over the full point configuration. Floats are
    /// hashed by bit pattern, so any numeric difference yields a different
    /// key. One [`ResultCache`] must only ever serve one `Experiment`
    /// configuration — the experiment itself is not part of the key.
    pub fn cache_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.topology.hash(&mut h);
        self.level.hash(&mut h);
        std::mem::discriminant(&self.pattern).hash(&mut h);
        if let TrafficPattern::Hotspot { hot_fraction } = self.pattern {
            hot_fraction.to_bits().hash(&mut h);
        }
        self.rate.to_bits().hash(&mut h);
        self.seed.hash(&mut h);
        self.baseline.hash(&mut h);
        h.finish()
    }
}

/// A thread-safe memo table from point-configuration hashes to results.
///
/// Simulations here are pure functions of their configuration, so a cached
/// value is exactly the value a re-run would produce; racing writers of the
/// same key insert identical values and determinism is preserved.
#[derive(Debug, Default)]
pub struct ResultCache<V: Clone> {
    map: Mutex<HashMap<u64, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> ResultCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Hashes an arbitrary key type into this cache's key space.
    pub fn key_of<K: Hash>(key: &K) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// Returns the cached value for `key`, or computes, stores and returns
    /// it. The computation runs outside the lock, so concurrent misses on
    /// the same key may compute twice — both producing the identical value.
    ///
    /// # Errors
    ///
    /// Propagates the computation's error (nothing is cached on failure).
    pub fn get_or_try_insert_with<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        self.get_or_try_insert_with_stats(key, compute).map(|(v, _)| v)
    }

    /// [`ResultCache::get_or_try_insert_with`], additionally reporting
    /// whether the value came from the cache (`true` = hit) so callers can
    /// attribute hits/misses to individual points in telemetry.
    ///
    /// # Errors
    ///
    /// Propagates the computation's error (nothing is cached on failure).
    pub fn get_or_try_insert_with_stats<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if let Some(v) = lock_recover(&self.map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((v.clone(), true));
        }
        let v = compute()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        lock_recover(&self.map).insert(key, v.clone());
        Ok((v, false))
    }

    /// Returns a clone of the cached value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<V> {
        lock_recover(&self.map).get(&key).cloned()
    }

    /// Inserts (or replaces) `key`'s value without touching the hit/miss
    /// counters — used to preload the cache from a persistent store
    /// ([`crate::service::DiskResultCache`]).
    pub fn insert(&self, key: u64, value: V) {
        lock_recover(&self.map).insert(key, value);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (computations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.map).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_input_order() {
        let runner = ExperimentRunner::with_workers(8);
        let items: Vec<usize> = (0..100).collect();
        let out = runner.run(&items, |i, &x| {
            // Stagger to force out-of-order completion.
            std::thread::sleep(Duration::from_micros((100 - i as u64) * 10));
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_reports_lowest_index_error() {
        let runner = ExperimentRunner::with_workers(4);
        let items: Vec<usize> = (0..32).collect();
        let res: Result<Vec<usize>, usize> = runner.try_run(&items, |i, &x| {
            if i % 7 == 3 {
                Err(i)
            } else {
                Ok(x)
            }
        });
        assert_eq!(res.unwrap_err(), 3);
    }

    #[test]
    fn empty_input_is_fine() {
        let runner = ExperimentRunner::with_workers(2);
        let out: Vec<u32> = runner.run(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn progress_counters_track_completion() {
        let runner = ExperimentRunner::with_workers(3);
        let items = [1u32; 17];
        let _ = runner.run(&items, |_, &x| x);
        let snap = runner.progress().snapshot();
        assert_eq!(snap.scheduled, 17);
        assert_eq!(snap.completed, 17);
        assert!(runner.progress().mean_point_time().is_some());
    }

    #[test]
    fn mean_point_nanos_keeps_fractional_part() {
        // Regression: the old integer-division mean (busy / completed)
        // truncated the sub-unit remainder. The float mean must not.
        let progress = RunnerProgress::default();
        progress.begin(2);
        progress.record(Duration::from_nanos(1));
        progress.record(Duration::from_nanos(2));
        assert_eq!(progress.mean_point_nanos(), Some(1.5));
        // At a coarser scale the Duration form keeps the remainder too:
        // 1ms + 2ms over 2 points is 1.5ms, not a truncated 1ms.
        let progress = RunnerProgress::default();
        progress.begin(2);
        progress.record(Duration::from_millis(1));
        progress.record(Duration::from_millis(2));
        assert_eq!(progress.mean_point_nanos(), Some(1_500_000.0));
        let mean = progress.mean_point_time().unwrap();
        assert!(mean > Duration::from_millis(1), "truncated mean resurfaced");
        assert_eq!(mean, Duration::from_micros(1500));
    }

    #[test]
    fn mean_point_nanos_empty_is_none() {
        let progress = RunnerProgress::default();
        assert_eq!(progress.mean_point_nanos(), None);
        assert_eq!(progress.mean_point_time(), None);
    }

    #[test]
    fn mean_uncached_excludes_cache_hits() {
        let progress = RunnerProgress::default();
        progress.begin(3);
        // Two real points at 1ms, one near-instant cache hit.
        progress.record(Duration::from_millis(1));
        progress.record(Duration::from_millis(1));
        progress.record(Duration::from_nanos(100));
        progress.note_cached(Duration::from_nanos(100));
        // Overall mean is dragged down by the hit; the uncached mean isn't.
        assert!(progress.mean_point_nanos().unwrap() < 1_000_000.0);
        assert_eq!(progress.mean_uncached_point_nanos(), Some(1_000_000.0));
        // All-hits progress has no uncached mean to offer.
        let hits_only = RunnerProgress::default();
        hits_only.begin(1);
        hits_only.record(Duration::from_nanos(50));
        hits_only.note_cached(Duration::from_nanos(50));
        assert_eq!(hits_only.mean_uncached_point_nanos(), None);
    }

    #[test]
    fn lock_recover_survives_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7, "guard recovered with intact state");
        *lock_recover(&m) = 8;
        assert_eq!(*lock_recover(&m), 8);
    }

    #[test]
    fn stats_variant_reports_hit_flag() {
        let cache: ResultCache<u64> = ResultCache::new();
        let ok = |v: u64| move || -> Result<u64, ()> { Ok(v) };
        assert_eq!(cache.get_or_try_insert_with_stats(9, ok(5)), Ok((5, false)));
        assert_eq!(cache.get_or_try_insert_with_stats(9, ok(5)), Ok((5, true)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn sweep_records_spans_when_recorder_attached() {
        use crate::telemetry::validate_chrome_trace;
        use noc_sim::routing::XyRouting;
        use noc_sim::sim::SimConfig;
        use noc_sim::topology::Mesh2D;

        let rec = Arc::new(SpanRecorder::new());
        let runner = ExperimentRunner::with_workers(2).with_span_recorder(Arc::clone(&rec));
        let mesh = Mesh2D::paper_4x4();
        let mut sweep = LoadSweep::standard(mesh, TrafficPattern::UniformRandom);
        sweep.sim_config = SimConfig::quick();
        sweep.loads.truncate(2);
        let report = runner
            .run_sweep(&sweep, &Placement::full(&mesh), || Box::new(XyRouting))
            .unwrap();
        assert_eq!(report.points.len(), 2);
        assert_eq!(rec.len(), 2, "one span per operating point");
        let spans = rec.spans();
        assert!(spans.iter().any(|s| s.seed == Some(point_seed(sweep.seed, 0))));
        assert!(spans.iter().all(|s| !s.cache_hit));
        assert_eq!(validate_chrome_trace(&rec.chrome_trace()).unwrap(), 2);
    }

    #[test]
    fn cache_hits_skip_recomputation() {
        let cache: ResultCache<u64> = ResultCache::new();
        let calls = AtomicU64::new(0);
        let compute = || -> Result<u64, ()> {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(42)
        };
        assert_eq!(cache.get_or_try_insert_with(7, compute), Ok(42));
        assert_eq!(cache.get_or_try_insert_with(7, compute), Ok(42));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_does_not_store_failures() {
        let cache: ResultCache<u64> = ResultCache::new();
        let r: Result<u64, &str> = cache.get_or_try_insert_with(1, || Err("boom"));
        assert!(r.is_err());
        assert!(cache.is_empty());
        let r: Result<u64, &str> = cache.get_or_try_insert_with(1, || Ok(5));
        assert_eq!(r, Ok(5));
    }

    #[test]
    fn synthetic_job_keys_distinguish_configs() {
        let base = SyntheticJob {
            topology: TopologySpec::default(),
            level: 4,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.1,
            seed: 42,
            baseline: SyntheticBaseline::NocSprinting,
        };
        let mut keys = std::collections::HashSet::new();
        assert!(keys.insert(base.cache_key()));
        assert!(keys.insert(SyntheticJob { level: 8, ..base }.cache_key()));
        assert!(keys.insert(SyntheticJob { rate: 0.2, ..base }.cache_key()));
        assert!(keys.insert(SyntheticJob { seed: 43, ..base }.cache_key()));
        assert!(keys.insert(
            SyntheticJob {
                topology: TopologySpec::default(),
                baseline: SyntheticBaseline::SpreadAggregate,
                ..base
            }
            .cache_key()
        ));
        assert!(keys.insert(
            SyntheticJob {
                topology: TopologySpec::default(),
                pattern: TrafficPattern::Hotspot { hot_fraction: 0.3 },
                ..base
            }
            .cache_key()
        ));
        assert!(keys.insert(
            SyntheticJob {
                topology: TopologySpec::default(),
                pattern: TrafficPattern::Hotspot { hot_fraction: 0.4 },
                ..base
            }
            .cache_key()
        ));
        // Same config must reproduce the same key.
        assert_eq!(base.cache_key(), base.cache_key());
    }
}
