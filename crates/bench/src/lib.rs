//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each `fig*`/`tab*` binary prints the rows or series of one of the
//! paper's evaluation artifacts; `all_figures` runs everything and is used
//! to refresh EXPERIMENTS.md. The helpers here keep the output format
//! uniform (markdown tables, percent deltas) across binaries, and
//! [`FigureHarness`] gives every binary that runs `SyntheticJob` batches
//! the same parallel, cached, deterministic execution path — in-process
//! over the `ExperimentRunner`, or through a `noc-serve` socket.

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

use client::BatchResult;
use flags::{exit_usage, Flags};
use noc_sim::error::SimError;
use noc_sim::probe::Probe;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{ExperimentRunner, ResultCache, SyntheticJob};
use noc_sprinting::service::{metric_pairs, BatchSummary};
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
        .ok_or_else(|| format!("NOC_BENCH_WORKERS must be a positive integer, got {text:?}"))
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
struct Telemetry {
    dir: PathBuf,
    spans: Arc<SpanRecorder>,
    points: Mutex<Vec<ManifestPoint>>,
}

/// A `ServiceClient` with its transport erased.
type BoxedClient =
    client::ServiceClient<Box<dyn std::io::BufRead + Send>, Box<dyn std::io::Write + Send>>;

/// The `noc-serve` (or `noc-fleet`) socket the harness submits to.
struct Remote {
    socket: PathBuf,
    client: Mutex<BoxedClient>,
}

/// Stands in for "no probe" in the harness's one batch path.
enum NoProbe {}

impl Probe for NoProbe {}

/// A probe factory, as the harness's batch path takes it.
type MakeProbe<'a, P> = &'a (dyn Fn(usize) -> P + Sync);

/// The one execution path of the bench binaries that run
/// [`SyntheticJob`] batches: a deterministic parallel [`ExperimentRunner`]
/// plus a [`ResultCache`] so a point that several tables share is
/// simulated once — or, with a `noc-serve` socket configured (`--service
/// <path>` / `NOC_SERVE_SOCKET`), the daemon or fleet behind it, whose
/// persistent cache makes repeated runs skip already-simulated points.
/// Either way a batch comes back as the same [`BatchResult`], bit-identical
/// metrics included. See `SERVICE.md` for the wire contract.
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
pub struct FigureHarness {
    label: String,
    runner: ExperimentRunner,
    cache: ResultCache<NetworkMetrics>,
    started: Instant,
    telemetry: Option<Telemetry>,
    remote: Option<Remote>,
    /// `(points, cache hits)` over every batch, wherever it ran.
    tally: Mutex<(u64, u64)>,
}

impl Default for FigureHarness {
    fn default() -> Self {
        Self::new()
    }
}

impl FigureHarness {
    /// A harness honoring the `NOC_BENCH_WORKERS`, `NOC_BENCH_TELEMETRY`
    /// (or `--telemetry <dir>`), `NOC_BENCH_PROGRESS` and `--service
    /// <path>` / `NOC_SERVE_SOCKET` overrides; see
    /// [`FigureHarness::configured`].
    pub fn new() -> Self {
        // The binary owns argv: read only this harness's flags from it.
        let mut flags = Flags::from_env();
        let usage = |e| -> Option<PathBuf> { exit_usage("error", e) };
        let telemetry = telemetry_dir_from_env(&mut flags).unwrap_or_else(usage);
        let service = service_socket_from_env(&mut flags).unwrap_or_else(usage);
        Self::configured(None, telemetry, service.as_deref())
    }

    /// A harness from values the binary parsed itself: `workers` (else
    /// `NOC_BENCH_WORKERS`, else one per hardware thread), the telemetry
    /// directory and the service socket. Progress lines follow
    /// `NOC_BENCH_PROGRESS`, labelled with the binary's name. A service
    /// socket that cannot be dialed exits the process with status 2 — a
    /// silent fall-back to local execution would defeat the cache the user
    /// asked for.
    pub fn configured(
        workers: Option<usize>,
        telemetry: Option<PathBuf>,
        service: Option<&Path>,
    ) -> Self {
        let label = std::env::args()
            .next()
            .as_deref()
            .and_then(|a| Path::new(a).file_stem()?.to_str().map(String::from))
            .unwrap_or_else(|| "bench".to_string());
        let mut runner = match workers.or_else(workers_from_env) {
            Some(w) => ExperimentRunner::with_workers(w),
            None => ExperimentRunner::new(),
        };
        if progress_from_env() {
            runner = runner.with_echo(label.clone());
        }
        let telemetry = telemetry.map(|dir| Telemetry {
            dir,
            spans: Arc::new(SpanRecorder::new()),
            points: Mutex::default(),
        });
        if let Some(t) = &telemetry {
            runner = runner.with_span_recorder(Arc::clone(&t.spans));
        }
        let harness = FigureHarness {
            label,
            runner,
            cache: ResultCache::new(),
            started: Instant::now(),
            telemetry,
            remote: None,
            tally: Mutex::default(),
        };
        match service {
            None => harness,
            Some(socket) => harness.connect_service(socket).unwrap_or_else(|e| {
                eprintln!("error: cannot reach noc-serve at {}: {e}", socket.display());
                std::process::exit(2);
            }),
        }
    }

    /// Routes this harness's batches to the `noc-serve` daemon (or
    /// `noc-fleet` coordinator) listening on the Unix socket at `socket`.
    ///
    /// # Errors
    ///
    /// Socket connection failure.
    #[cfg(unix)]
    pub fn connect_service(mut self, socket: &Path) -> std::io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(socket)?;
        let reader: Box<dyn std::io::BufRead + Send> =
            Box::new(std::io::BufReader::new(stream.try_clone()?));
        self.remote = Some(Remote {
            socket: socket.to_path_buf(),
            client: Mutex::new(client::ServiceClient::over(reader, Box::new(stream))),
        });
        Ok(self)
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

    /// The worker count of the in-process runner.
    pub fn workers(&self) -> usize {
        self.runner.workers()
    }

    /// The telemetry directory, when telemetry is enabled.
    pub fn telemetry_dir(&self) -> Option<&Path> {
        self.telemetry.as_ref().map(|t| t.dir.as_path())
    }

    /// Runs a batch of synthetic operating points on `experiment` through
    /// the pool and the cache — or, with a service socket, submits it to
    /// the daemon, which runs it on its own experiment — and returns it as
    /// the wire does: metrics and [`ManifestPoint`]s in job order, and the
    /// batch summary.
    ///
    /// # Errors
    ///
    /// The lowest-indexed failing job's simulator error, or why the
    /// service failed the batch.
    pub fn run(
        &self,
        experiment: &Experiment,
        jobs: &[SyntheticJob],
    ) -> Result<BatchResult, String> {
        Ok(self.execute::<NoProbe>(experiment, jobs, None)?.0)
    }

    /// [`FigureHarness::run`], attaching a probe from `make_probe(i)` to
    /// every point while telemetry is on and the batch runs in-process;
    /// probed points bypass the cache. Otherwise no probes come back.
    /// Probes only observe: the metrics are the same either way.
    ///
    /// # Errors
    ///
    /// As [`FigureHarness::run`].
    pub fn run_observed<P: Probe + Send>(
        &self,
        experiment: &Experiment,
        jobs: &[SyntheticJob],
        make_probe: impl Fn(usize) -> P + Sync,
    ) -> Result<(BatchResult, Vec<P>), String> {
        let make: MakeProbe<'_, P> = &make_probe;
        self.execute(experiment, jobs, self.telemetry.as_ref().map(|_| make))
    }

    fn execute<P: Probe + Send>(
        &self,
        experiment: &Experiment,
        jobs: &[SyntheticJob],
        make_probe: Option<MakeProbe<'_, P>>,
    ) -> Result<(BatchResult, Vec<P>), String> {
        let (batch, probes) = match &self.remote {
            Some(remote) => {
                let socket = remote.socket.display();
                let batch = (remote.client.lock().expect("service client poisoned"))
                    .submit(&self.label, jobs)
                    .map_err(|e| format!("noc-serve at {socket}: {e}"))?;
                for note in &batch.notes {
                    eprintln!("warning: noc-serve at {socket}: {note}");
                }
                (batch, Vec::new())
            }
            None => self
                .run_local(experiment, jobs, make_probe)
                .map_err(|e| e.to_string())?,
        };
        let mut tally = self.tally.lock().expect("tally poisoned");
        tally.0 += batch.points.len() as u64;
        tally.1 += batch.summary.cache_hits;
        if let Some(t) = &self.telemetry {
            let mut pts = t.points.lock().expect("telemetry points poisoned");
            for point in &batch.points {
                // Re-index into this harness's cross-batch sequence.
                let index = pts.len();
                pts.push(ManifestPoint {
                    index,
                    ..point.clone()
                });
            }
        }
        Ok((batch, probes))
    }

    fn run_local<P: Probe + Send>(
        &self,
        experiment: &Experiment,
        jobs: &[SyntheticJob],
        make_probe: Option<MakeProbe<'_, P>>,
    ) -> Result<(BatchResult, Vec<P>), SimError> {
        let started = Instant::now();
        let runner = &self.runner;
        let (detailed, probes): (Vec<_>, Vec<P>) = match make_probe {
            Some(make) => (runner.run_synthetic_jobs_observed(experiment, jobs, make)?)
                .into_iter()
                .map(|(m, p, d)| ((m, d), p))
                .unzip(),
            None => (
                runner.run_synthetic_jobs(experiment, jobs, Some(&self.cache))?,
                Vec::new(),
            ),
        };
        let (metrics, points): (Vec<_>, Vec<_>) = (jobs.iter().zip(detailed).enumerate())
            .map(|(index, (job, (m, d)))| {
                let point = ManifestPoint {
                    index,
                    seed: job.seed,
                    config_hash: job.cache_key(),
                    cache_hit: d.cache_hit,
                    duration_ms: d.duration.as_secs_f64() * 1e3,
                    metrics: metric_pairs(&m),
                };
                (m, point)
            })
            .unzip();
        let cache_hits = points.iter().filter(|p| p.cache_hit).count() as u64;
        let summary = BatchSummary {
            points: jobs.len(),
            ok: jobs.len(),
            failed: 0,
            cancelled: 0,
            cache_hits,
            cache_misses: jobs.len() as u64 - cache_hits,
            config_hash: RunManifest::combine_hashes(jobs.iter().map(SyntheticJob::cache_key)),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        let batch = BatchResult {
            metrics,
            points,
            summary,
            notes: Vec::new(),
        };
        Ok((batch, probes))
    }

    /// Prints a one-line execution report (points, cache hits, workers,
    /// wall and busy time) to stderr and — when telemetry is enabled —
    /// writes `<dir>/<figure>.manifest.jsonl` (run manifest:
    /// config hash, seed schedule, worker count, wall time, per-point
    /// metrics) and `<dir>/<figure>.trace.json` (Chrome trace of the
    /// parallel run). Every binary that runs batches through the harness
    /// calls this once before exiting.
    ///
    /// # Errors
    ///
    /// I/O errors creating the telemetry directory or writing its files.
    pub fn finish(&self, figure: &str) -> std::io::Result<()> {
        // In service mode the cache lives in the daemon; these are its hits.
        let (total, cache_hits) = *self.tally.lock().expect("tally poisoned");
        let wall = self.started.elapsed();
        match &self.remote {
            Some(remote) => eprintln!(
                "[{total} points via noc-serve at {} ({cache_hits} daemon cache hits): \
                 wall {wall:.2?}]",
                remote.socket.display(),
            ),
            None => eprintln!(
                "[{total} points ({cache_hits} cache hits) on {} workers: wall {wall:.2?}, \
                 busy {:.2?}]",
                self.runner.workers(),
                self.runner.progress().snapshot().busy,
            ),
        }
        let Some(t) = &self.telemetry else {
            return Ok(());
        };
        std::fs::create_dir_all(&t.dir)?;
        let points = t.points.lock().expect("telemetry points poisoned").clone();
        let manifest = RunManifest {
            figure: figure.to_string(),
            config_hash: RunManifest::combine_hashes(points.iter().map(|p| p.config_hash)),
            workers: self.runner.workers(),
            base_seed: points.first().map_or(0, |p| p.seed),
            seed_schedule: points.iter().map(|p| p.seed).collect(),
            wall_ms: wall.as_secs_f64() * 1e3,
            cache_hits,
            cache_misses: total - cache_hits,
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
    format!("== {id}: {title} ==\npaper: {paper_claim}\n")
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
