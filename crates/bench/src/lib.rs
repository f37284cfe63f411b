//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each `fig*`/`tab*` binary prints the rows or series of one of the
//! paper's evaluation artifacts; `all_figures` runs everything and is used
//! to refresh EXPERIMENTS.md. The helpers here keep the output format
//! uniform (markdown tables, percent deltas) across binaries, and
//! [`FigureHarness`] gives every binary the same parallel, cached,
//! deterministic execution path over the `ExperimentRunner`.

#![warn(missing_docs)]

pub mod client;
pub mod flags;
pub mod obs;
pub mod session;

use std::fmt::Write as _;
use std::io::IsTerminal as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flags::{exit_usage, Flags};
use noc_sim::error::SimError;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{ExperimentRunner, ResultCache, SyntheticJob};
use noc_sprinting::service::metric_pairs;
use noc_sprinting::telemetry::{ManifestPoint, RunManifest, SpanRecorder};

/// Worker-count override for the figure binaries: `NOC_BENCH_WORKERS=1`
/// forces the serial path (useful for timing comparisons), unset means
/// one worker per hardware thread.
///
/// A set-but-invalid value is a **hard usage error**, never a silent
/// fall-through to the default — `NOC_BENCH_WORKERS=8x` once quietly ran
/// a "serial timing baseline" on every hardware thread. Binaries exit
/// with status 2 on the error.
pub fn workers_from_env() -> Option<usize> {
    match try_workers_from_env() {
        Ok(workers) => workers,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// The fallible form of [`workers_from_env`], for callers that want to
/// report the usage error themselves.
///
/// # Errors
///
/// A set-but-invalid `NOC_BENCH_WORKERS` value (not a positive integer),
/// named in the message.
pub fn try_workers_from_env() -> Result<Option<usize>, String> {
    let Some(value) = std::env::var_os("NOC_BENCH_WORKERS") else {
        return Ok(None);
    };
    let text = value.to_string_lossy();
    text.parse::<usize>()
        .ok()
        .filter(|&w| w > 0)
        .map(Some)
        .ok_or_else(|| {
            format!("NOC_BENCH_WORKERS must be a positive integer, got {text:?}")
        })
}

/// Telemetry output directory: the `--telemetry <dir>` flag in `flags`
/// (an error without a value), else the `NOC_BENCH_TELEMETRY` environment
/// variable; `None` disables telemetry output entirely.
pub fn telemetry_dir_from_env(flags: &mut Flags) -> Result<Option<PathBuf>, String> {
    flag_or_env(flags, "--telemetry", "NOC_BENCH_TELEMETRY")
}

/// `noc-serve` socket path: the `--service <path>` flag in `flags` (an
/// error without a value), else the `NOC_SERVE_SOCKET` environment
/// variable; `None` means run everything in-process. See `SERVICE.md` for
/// the daemon side.
pub fn service_socket_from_env(flags: &mut Flags) -> Result<Option<PathBuf>, String> {
    flag_or_env(flags, "--service", "NOC_SERVE_SOCKET")
}

fn flag_or_env(flags: &mut Flags, flag: &str, var: &str) -> Result<Option<PathBuf>, String> {
    let value = flags.value(flag, str::parse)?;
    Ok(value.or_else(|| std::env::var_os(var).map(PathBuf::from)))
}

/// Whether the figure binaries should print live progress lines to stderr:
/// `NOC_BENCH_PROGRESS=1`/`0` forces it on/off, otherwise it follows
/// whether stderr is a terminal (so redirected CI logs stay clean).
pub fn progress_from_env() -> bool {
    match std::env::var("NOC_BENCH_PROGRESS") {
        Ok(v) => v != "0" && !v.is_empty(),
        Err(_) => std::io::stderr().is_terminal(),
    }
}

/// Telemetry state accumulated across a harness's batches.
#[derive(Debug)]
struct Telemetry {
    dir: PathBuf,
    spans: Arc<SpanRecorder>,
    points: Mutex<Vec<ManifestPoint>>,
}

/// A `ServiceClient` with its transport erased, so the harness does not
/// care whether it talks to a socket, a pipe, or a test buffer.
type BoxedClient =
    client::ServiceClient<Box<dyn std::io::BufRead + Send>, Box<dyn std::io::Write + Send>>;

/// Remote-execution state when the harness submits through `noc-serve`.
struct Remote {
    socket: PathBuf,
    client: Mutex<BoxedClient>,
    /// `(points, cache hits)` as reported by the daemon's point stream.
    stats: Mutex<(u64, u64)>,
}

impl std::fmt::Debug for Remote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Remote")
            .field("socket", &self.socket)
            .finish_non_exhaustive()
    }
}

/// The execution context shared by the figure/ablation binaries: a
/// deterministic parallel [`ExperimentRunner`] plus a [`ResultCache`] so a
/// point that several tables share is simulated once.
///
/// Results are bit-identical at any worker count — per-point seeds are
/// derived from configuration, never from execution order.
///
/// With a telemetry directory configured (`--telemetry <dir>` /
/// `NOC_BENCH_TELEMETRY`), the harness additionally records one
/// [`ManifestPoint`] and one span per operating point, and
/// [`FigureHarness::finish`] writes `<dir>/<figure>.manifest.jsonl` plus
/// `<dir>/<figure>.trace.json` (Chrome Trace Event Format). Telemetry only
/// *observes* the run — results are byte-identical with it on or off.
///
/// With a `noc-serve` socket configured (`--service <path>` /
/// `NOC_SERVE_SOCKET`), batches are submitted to the daemon instead of
/// simulated in-process; the daemon's persistent cache then makes repeated
/// figure runs skip already-simulated points bit-identically. See
/// `SERVICE.md` for the wire contract.
#[derive(Debug)]
pub struct FigureHarness {
    runner: ExperimentRunner,
    cache: ResultCache<NetworkMetrics>,
    started: Instant,
    telemetry: Option<Telemetry>,
    remote: Option<Remote>,
}

impl Default for FigureHarness {
    fn default() -> Self {
        Self::new()
    }
}

impl FigureHarness {
    /// A harness honoring the `NOC_BENCH_WORKERS`, `NOC_BENCH_TELEMETRY`
    /// (or `--telemetry <dir>`), `NOC_BENCH_PROGRESS` and `--service
    /// <path>` / `NOC_SERVE_SOCKET` overrides. A configured service socket
    /// that cannot be dialed aborts the process with a diagnostic — a
    /// silent fall-back to local execution would defeat the cache the user
    /// asked for.
    pub fn new() -> Self {
        // The binary owns argv: read only this harness's flags from it.
        let mut flags = Flags::from_env();
        let usage = |e| -> Option<PathBuf> { exit_usage("error", e) };
        let telemetry = telemetry_dir_from_env(&mut flags).unwrap_or_else(usage);
        let mut harness = Self::with_telemetry_dir(telemetry);
        if progress_from_env() {
            // Label progress lines with the binary name (e.g. "fig11").
            let label = std::env::args()
                .next()
                .as_deref()
                .and_then(|a| Path::new(a).file_stem()?.to_str().map(String::from))
                .unwrap_or_else(|| "progress".to_string());
            harness.runner = harness.runner.with_echo(label);
        }
        if let Some(socket) = service_socket_from_env(&mut flags).unwrap_or_else(usage) {
            harness = harness.connect_service(&socket).unwrap_or_else(|e| {
                eprintln!(
                    "error: cannot reach noc-serve at {}: {e}",
                    socket.display()
                );
                std::process::exit(2);
            });
        }
        harness
    }

    /// Routes this harness's batches to the `noc-serve` daemon listening
    /// on the Unix socket at `socket` (see `SERVICE.md`).
    ///
    /// # Errors
    ///
    /// Socket connection failure.
    #[cfg(unix)]
    pub fn connect_service(self, socket: &Path) -> std::io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(socket)?;
        let reader: Box<dyn std::io::BufRead + Send> =
            Box::new(std::io::BufReader::new(stream.try_clone()?));
        let writer: Box<dyn std::io::Write + Send> = Box::new(stream);
        Ok(self.with_service_transport(socket.to_path_buf(), reader, writer))
    }

    /// Unix-socket service mode is unavailable on this platform.
    ///
    /// # Errors
    ///
    /// Always `Unsupported`.
    #[cfg(not(unix))]
    pub fn connect_service(self, socket: &Path) -> std::io::Result<Self> {
        let _ = socket;
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "noc-serve sockets require a Unix platform",
        ))
    }

    /// Routes this harness's batches through an already-open service
    /// transport (any `BufRead`/`Write` pair speaking the `SERVICE.md`
    /// protocol — a socket, a child daemon's stdio, or test buffers).
    /// `socket` is only used for reporting.
    pub fn with_service_transport(
        mut self,
        socket: PathBuf,
        reader: Box<dyn std::io::BufRead + Send>,
        writer: Box<dyn std::io::Write + Send>,
    ) -> Self {
        self.remote = Some(Remote {
            socket,
            client: Mutex::new(client::ServiceClient::over(reader, writer)),
            stats: Mutex::new((0, 0)),
        });
        self
    }

    /// A harness writing telemetry to `dir` (or none for `None`),
    /// independent of command line and environment.
    pub fn with_telemetry_dir(dir: Option<PathBuf>) -> Self {
        let runner = match workers_from_env() {
            Some(w) => ExperimentRunner::with_workers(w),
            None => ExperimentRunner::new(),
        };
        let (runner, telemetry) = match dir {
            Some(dir) => {
                let spans = Arc::new(SpanRecorder::new());
                let telemetry = Telemetry {
                    dir,
                    spans: Arc::clone(&spans),
                    points: Mutex::new(Vec::new()),
                };
                (runner.with_span_recorder(spans), Some(telemetry))
            }
            None => (runner, None),
        };
        FigureHarness {
            runner,
            cache: ResultCache::new(),
            started: Instant::now(),
            telemetry,
            remote: None,
        }
    }

    /// The underlying runner (for generic [`ExperimentRunner::run`] /
    /// [`ExperimentRunner::run_sweep`] fan-outs).
    pub fn runner(&self) -> &ExperimentRunner {
        &self.runner
    }

    /// The telemetry directory, when telemetry is enabled.
    pub fn telemetry_dir(&self) -> Option<&Path> {
        self.telemetry.as_ref().map(|t| t.dir.as_path())
    }

    /// Runs a batch of synthetic operating points through the pool and the
    /// cache — or, in service mode, submits it to the `noc-serve` daemon —
    /// results come back in job order either way, bit-identically.
    ///
    /// # Errors
    ///
    /// The lowest-indexed failing job's simulator error.
    ///
    /// # Panics
    ///
    /// In service mode, on transport/protocol failures or daemon-side
    /// point failures (the simulator error does not survive the wire as a
    /// typed value).
    pub fn run(
        &self,
        experiment: &Experiment,
        jobs: &[SyntheticJob],
    ) -> Result<Vec<NetworkMetrics>, SimError> {
        if let Some(remote) = &self.remote {
            let batch = remote
                .client
                .lock()
                .expect("service client poisoned")
                .submit("bench", jobs)
                .unwrap_or_else(|e| {
                    panic!("noc-serve at {}: {e}", remote.socket.display())
                });
            {
                let mut stats = remote.stats.lock().expect("remote stats poisoned");
                stats.0 += batch.points.len() as u64;
                stats.1 += batch.points.iter().filter(|p| p.cache_hit).count() as u64;
            }
            if let Some(t) = &self.telemetry {
                let mut pts = t.points.lock().expect("telemetry points poisoned");
                for point in &batch.points {
                    // Re-index into this harness's cross-batch sequence.
                    let mut point = point.clone();
                    point.index = pts.len();
                    pts.push(point);
                }
            }
            return Ok(batch.metrics);
        }
        let detailed = self
            .runner
            .run_synthetic_jobs_detailed(experiment, jobs, Some(&self.cache))?;
        if let Some(t) = &self.telemetry {
            let mut pts = t.points.lock().expect("telemetry points poisoned");
            for (job, (m, d)) in jobs.iter().zip(&detailed) {
                let index = pts.len();
                pts.push(ManifestPoint {
                    index,
                    seed: job.seed,
                    config_hash: job.cache_key(),
                    cache_hit: d.cache_hit,
                    duration_ms: d.duration.as_secs_f64() * 1e3,
                    metrics: metric_pairs(m),
                });
            }
        }
        Ok(detailed.into_iter().map(|(m, _)| m).collect())
    }

    /// One-line execution report (point count, cache hits, workers, wall
    /// and busy time) for the binary to print on stderr.
    pub fn summary(&self) -> String {
        if let Some(remote) = &self.remote {
            let (points, hits) = *remote.stats.lock().expect("remote stats poisoned");
            return format!(
                "[{points} points via noc-serve at {} ({hits} daemon cache hits): wall {:.2?}]",
                remote.socket.display(),
                self.started.elapsed(),
            );
        }
        let snap = self.runner.progress().snapshot();
        format!(
            "[{} points ({} cache hits) on {} workers: wall {:.2?}, busy {:.2?}]",
            snap.completed,
            self.cache.hits(),
            self.runner.workers(),
            self.started.elapsed(),
            snap.busy,
        )
    }

    /// Prints the execution summary to stderr and — when telemetry is
    /// enabled — writes `<dir>/<figure>.manifest.jsonl` (run manifest:
    /// config hash, seed schedule, worker count, wall time, per-point
    /// metrics) and `<dir>/<figure>.trace.json` (Chrome trace of the
    /// parallel run). Every figure binary calls this once before exiting.
    ///
    /// # Errors
    ///
    /// I/O errors creating the telemetry directory or writing its files.
    pub fn finish(&self, figure: &str) -> std::io::Result<()> {
        eprintln!("{}", self.summary());
        let Some(t) = &self.telemetry else {
            return Ok(());
        };
        std::fs::create_dir_all(&t.dir)?;
        let points = t.points.lock().expect("telemetry points poisoned").clone();
        // In service mode the cache lives in the daemon; report its hits.
        let (cache_hits, cache_misses) = match &self.remote {
            Some(remote) => {
                let (pts, hits) = *remote.stats.lock().expect("remote stats poisoned");
                (hits, pts - hits)
            }
            None => (self.cache.hits(), self.cache.misses()),
        };
        let manifest = RunManifest {
            figure: figure.to_string(),
            config_hash: RunManifest::combine_hashes(points.iter().map(|p| p.config_hash)),
            workers: self.runner.workers(),
            base_seed: points.first().map_or(0, |p| p.seed),
            seed_schedule: points.iter().map(|p| p.seed).collect(),
            wall_ms: self.started.elapsed().as_secs_f64() * 1e3,
            cache_hits,
            cache_misses,
            points,
            faults: vec![],
        };
        let manifest_path = t.dir.join(format!("{figure}.manifest.jsonl"));
        let trace_path = t.dir.join(format!("{figure}.trace.json"));
        std::fs::write(&manifest_path, manifest.to_jsonl())?;
        std::fs::write(&trace_path, t.spans.chrome_trace())?;
        eprintln!(
            "[telemetry: {} and {} written]",
            manifest_path.display(),
            trace_path.display()
        );
        Ok(())
    }
}

/// Renders a markdown table.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Percentage reduction of `new` versus `base`.
pub fn reduction(base: f64, new: f64) -> f64 {
    1.0 - new / base
}

/// Formats watts with adaptive units.
pub fn watts(w: f64) -> String {
    if w >= 1.0 {
        format!("{w:.2} W")
    } else {
        format!("{:.1} mW", w * 1e3)
    }
}

/// Standard banner for figure binaries.
pub fn banner(id: &str, title: &str, paper_claim: &str) -> String {
    format!(
        "== {id}: {title} ==\npaper: {paper_claim}\n"
    )
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_value_reads_both_forms() {
        let flags = |xs: &[&str]| Flags::new(xs.iter().map(|x| x.to_string()));
        let dir = |xs: &[&str]| telemetry_dir_from_env(&mut flags(xs)).unwrap();
        let socket = |xs: &[&str]| service_socket_from_env(&mut flags(xs)).unwrap();
        assert_eq!(dir(&["--telemetry", "d"]), Some(PathBuf::from("d")));
        assert_eq!(dir(&["--quick", "--telemetry=d"]), Some(PathBuf::from("d")));
        let fallback = std::env::var_os("NOC_BENCH_TELEMETRY").map(PathBuf::from);
        assert_eq!(dir(&["--telemetryx=d", "--service", "s"]), fallback);
        assert_eq!(socket(&["--service", "s"]), Some(PathBuf::from("s")));
        assert!(telemetry_dir_from_env(&mut flags(&["--telemetry"])).is_err());
    }

    #[test]
    fn table_renders_rows() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 3 | 4 |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn pct_and_reduction() {
        assert_eq!(pct(0.245), "24.5%");
        assert!((reduction(10.0, 7.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn watts_units() {
        assert_eq!(watts(2.5), "2.50 W");
        assert_eq!(watts(0.0032), "3.2 mW");
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let _ = markdown_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    /// Regression: an invalid `NOC_BENCH_WORKERS` was once a silent
    /// fall-through to the hardware-thread default; it must be a usage
    /// error that names the bad value. (Serialized via a lock because env
    /// vars are process-global and tests run in parallel.)
    #[test]
    fn workers_env_is_a_hard_error_when_invalid() {
        static ENV_LOCK: Mutex<()> = Mutex::new(());
        let _guard = ENV_LOCK.lock().unwrap();
        let restore = std::env::var_os("NOC_BENCH_WORKERS");
        std::env::set_var("NOC_BENCH_WORKERS", "8x");
        let err = try_workers_from_env().unwrap_err();
        assert!(err.contains("\"8x\""), "error must name the value: {err}");
        std::env::set_var("NOC_BENCH_WORKERS", "0");
        assert!(try_workers_from_env().is_err(), "zero workers is invalid");
        std::env::set_var("NOC_BENCH_WORKERS", "3");
        assert_eq!(try_workers_from_env(), Ok(Some(3)));
        std::env::remove_var("NOC_BENCH_WORKERS");
        assert_eq!(try_workers_from_env(), Ok(None));
        match restore {
            Some(v) => std::env::set_var("NOC_BENCH_WORKERS", v),
            None => std::env::remove_var("NOC_BENCH_WORKERS"),
        }
    }
}
