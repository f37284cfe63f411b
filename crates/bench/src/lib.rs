//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each `fig*`/`tab*` binary prints the rows or series of one of the
//! paper's evaluation artifacts; `all_figures` runs everything and is used
//! to refresh EXPERIMENTS.md. The helpers here keep the output format
//! uniform (markdown tables, percent deltas) across binaries, and
//! [`FigureHarness`] gives every binary that runs `SyntheticJob` batches
//! the same parallel, cached, deterministic execution path — the daemon's
//! `SweepService`, in-process or through a `noc-serve` socket.

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
use noc_sprinting::experiment::Experiment;
use noc_sprinting::runner::{ExperimentRunner, RunnerProgress, SyntheticJob};
use noc_sprinting::service::{code_version, DiskResultCache, SweepService};
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

/// The fallible form of [`workers_from_env`]: a set-but-invalid
/// `NOC_BENCH_WORKERS` value (not a positive integer) is an error naming it.
fn try_workers_from_env() -> Result<Option<usize>, String> {
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

/// The experiment `noc_serve` serves, with the tag that names it in the
/// daemon's [`code_version`]: `Experiment::quick()` as `"quick"`, else
/// `Experiment::paper()` as `"paper"`. A [`FigureHarness`] in service mode
/// refuses a daemon whose code version carries another experiment's tag.
pub fn served_experiment(quick: bool) -> (Experiment, &'static str) {
    if quick {
        (Experiment::quick(), "quick")
    } else {
        (Experiment::paper(), "paper")
    }
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

/// Where a harness's batches run.
enum Executor {
    /// The daemon's executor, in-process, on the binary's experiment.
    Local {
        service: Box<SweepService>,
        progress: Arc<RunnerProgress>,
    },
    /// The `noc-serve` daemon (or `noc-fleet` coordinator) on `socket`.
    Remote {
        socket: PathBuf,
        client: Mutex<BoxedClient>,
    },
}

/// The one execution path of the bench binaries that run
/// [`SyntheticJob`] batches: a [`SweepService`] — the daemon's executor —
/// on the binary's [`Experiment`], whose deterministic parallel runner and
/// in-memory result cache simulate a point that several tables share once;
/// or, with a `noc-serve` socket configured (`--service <path>` /
/// `NOC_SERVE_SOCKET`), the daemon or fleet behind it, whose persistent
/// cache makes repeated runs skip already-simulated points. Either way a
/// batch's event stream is checked by the same client-side reader and
/// comes back as the same [`BatchResult`], bit-identical metrics included.
/// See `SERVICE.md` for the wire contract.
///
/// Results are bit-identical at any worker count — per-point seeds are
/// derived from configuration, never from execution order.
///
/// With a telemetry directory configured (`--telemetry <dir>` /
/// `NOC_BENCH_TELEMETRY`), the harness additionally records one
/// [`ManifestPoint`] and (in-process) one span per operating point, and
/// [`FigureHarness::finish`] writes `<dir>/<figure>.manifest.jsonl` plus
/// `<dir>/<figure>.trace.json` (Chrome Trace Event Format). Telemetry only
/// *observes* the run — results are byte-identical with it on or off.
pub struct FigureHarness {
    label: String,
    executor: Executor,
    /// The in-process runner's worker count, or the daemon's.
    workers: usize,
    started: Instant,
    telemetry: Option<Telemetry>,
    /// `(points, cache hits)` over every batch, wherever it ran.
    tally: Mutex<(u64, u64)>,
}

impl FigureHarness {
    /// A harness on `experiment`, named `tag`, honoring the
    /// `NOC_BENCH_WORKERS`, `NOC_BENCH_TELEMETRY` (or `--telemetry <dir>`),
    /// `NOC_BENCH_PROGRESS` and `--service <path>` / `NOC_SERVE_SOCKET`
    /// overrides; see [`FigureHarness::configured`].
    pub fn new(experiment: Experiment, tag: &str) -> Self {
        // The binary owns argv: read only this harness's flags from it.
        let mut flags = Flags::from_env();
        let usage = |e| -> Option<PathBuf> { exit_usage("error", e) };
        let telemetry = telemetry_dir_from_env(&mut flags).unwrap_or_else(usage);
        let service = service_socket_from_env(&mut flags).unwrap_or_else(usage);
        Self::configured(experiment, tag, None, telemetry, service.as_deref())
    }

    /// A harness on `experiment` from values the binary parsed itself:
    /// `workers` (else `NOC_BENCH_WORKERS`, else one per hardware thread),
    /// the telemetry directory and the service socket. Progress lines
    /// follow `NOC_BENCH_PROGRESS`, labelled with the binary's name.
    /// `tag` names the experiment in [`code_version`] (see
    /// [`served_experiment`]) and stamps the in-process cache.
    ///
    /// With a service socket the daemon runs every batch on *its*
    /// experiment and `experiment` goes unused. The process exits with
    /// status 2 when the socket cannot be dialed — a silent fall-back to
    /// local execution would defeat the cache the user asked for — or when
    /// the daemon's code version is not `code_version(tag)`: its numbers
    /// would belong to another experiment.
    pub fn configured(
        experiment: Experiment,
        tag: &str,
        workers: Option<usize>,
        telemetry: Option<PathBuf>,
        service: Option<&Path>,
    ) -> Self {
        let label = std::env::args()
            .next()
            .as_deref()
            .and_then(|a| Path::new(a).file_stem()?.to_str().map(String::from))
            .unwrap_or_else(|| "bench".to_string());
        let telemetry = telemetry.map(|dir| Telemetry {
            dir,
            spans: Arc::new(SpanRecorder::new()),
            points: Mutex::default(),
        });
        // Read even in service mode, so a malformed value is always an error.
        let workers = workers.or_else(workers_from_env);
        let version = code_version(tag);
        let (executor, workers) = match service {
            Some(socket) => {
                let (executor, workers, served) = connect(socket).unwrap_or_else(|e| {
                    eprintln!("error: cannot reach noc-serve at {}: {e}", socket.display());
                    std::process::exit(2);
                });
                if served != version {
                    eprintln!(
                        "error: noc-serve at {} runs code version {served}, but {label} runs \
                         {version}: its points would come from another experiment",
                        socket.display()
                    );
                    std::process::exit(2);
                }
                (executor, workers)
            }
            None => {
                let mut runner = match workers {
                    Some(w) => ExperimentRunner::with_workers(w),
                    None => ExperimentRunner::new(),
                };
                if progress_from_env() {
                    runner = runner.with_echo(label.clone());
                }
                if let Some(t) = &telemetry {
                    runner = runner.with_span_recorder(Arc::clone(&t.spans));
                }
                let workers = runner.workers();
                let progress = Arc::clone(runner.progress());
                let cache = DiskResultCache::in_memory(version);
                let service = Box::new(SweepService::new(experiment, runner, cache));
                (Executor::Local { service, progress }, workers)
            }
        };
        FigureHarness {
            label,
            executor,
            workers,
            started: Instant::now(),
            telemetry,
            tally: Mutex::default(),
        }
    }

    /// The worker count that runs the batches: the in-process runner's,
    /// or in service mode the daemon's (a fleet's summed over its shards).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The telemetry directory, when telemetry is enabled.
    pub fn telemetry_dir(&self) -> Option<&Path> {
        self.telemetry.as_ref().map(|t| t.dir.as_path())
    }

    /// Runs a batch of synthetic operating points — in-process on the
    /// harness's experiment, or on the daemon's — and returns it as the
    /// wire does: metrics and [`ManifestPoint`]s in job order, and the
    /// batch summary.
    ///
    /// # Errors
    ///
    /// Every failed point with its simulator error, or why the service
    /// failed the batch.
    pub fn run(&self, jobs: &[SyntheticJob]) -> Result<BatchResult, String> {
        let batch = match &self.executor {
            Executor::Local { service, .. } => {
                client::submit_in_process(service, &self.label, jobs).map_err(|e| e.to_string())?
            }
            Executor::Remote { socket, client } => {
                let socket = socket.display();
                let batch = (client.lock().expect("service client poisoned"))
                    .submit(&self.label, jobs)
                    .map_err(|e| format!("noc-serve at {socket}: {e}"))?;
                for note in &batch.notes {
                    eprintln!("warning: noc-serve at {socket}: {note}");
                }
                batch
            }
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
        Ok(batch)
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
        match &self.executor {
            Executor::Remote { socket, .. } => eprintln!(
                "[{total} points via noc-serve at {} ({cache_hits} daemon cache hits): \
                 wall {wall:.2?}]",
                socket.display(),
            ),
            Executor::Local { progress, .. } => eprintln!(
                "[{total} points ({cache_hits} cache hits) on {} workers: wall {wall:.2?}, \
                 busy {:.2?}]",
                self.workers,
                progress.snapshot().busy,
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
            workers: self.workers,
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

/// Dials the `noc-serve` daemon (or `noc-fleet` coordinator) listening on
/// the Unix socket at `socket` and reads its worker count — the
/// `noc_runner_workers` gauge, which a fleet sums over its shards — and
/// its code version from one `stats` round trip.
///
/// # Errors
///
/// Socket connection failure, or a `stats` answer without the gauge.
#[cfg(unix)]
fn connect(socket: &Path) -> std::io::Result<(Executor, usize, String)> {
    let stream = std::os::unix::net::UnixStream::connect(socket)?;
    let reader: Box<dyn std::io::BufRead + Send> =
        Box::new(std::io::BufReader::new(stream.try_clone()?));
    let mut client = client::ServiceClient::over(reader, Box::new(stream) as Box<_>);
    let stats = client.stats().map_err(std::io::Error::other)?;
    let workers = (stats.metrics.gauge("noc_runner_workers"))
        .ok_or_else(|| std::io::Error::other("stats carry no noc_runner_workers gauge"))?;
    let executor = Executor::Remote {
        socket: socket.to_path_buf(),
        client: Mutex::new(client),
    };
    Ok((executor, workers as usize, stats.code_version))
}

/// Unix-socket service mode is unavailable on this platform.
///
/// # Errors
///
/// Always `Unsupported`.
#[cfg(not(unix))]
fn connect(socket: &Path) -> std::io::Result<(Executor, usize, String)> {
    let _ = socket;
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "noc-serve sockets require a Unix platform",
    ))
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

    /// In-process batches follow the daemon's failure rules: every failed
    /// point is reported, not just the first, and the harness keeps
    /// serving afterwards.
    #[test]
    fn local_batch_reports_every_failed_point_and_keeps_serving() {
        use noc_sim::topology::TopologySpec;
        use noc_sim::traffic::TrafficPattern;
        use noc_sprinting::runner::SyntheticBaseline;

        let job = |level, seed| SyntheticJob {
            topology: TopologySpec::default(),
            level,
            pattern: TrafficPattern::UniformRandom,
            rate: 0.05,
            seed,
            baseline: SyntheticBaseline::NocSprinting,
        };
        let (experiment, tag) = served_experiment(true);
        let harness = FigureHarness::configured(experiment, tag, Some(2), None, None);
        let bad: Vec<_> = [4, 99, 4, 99]
            .into_iter()
            .zip(1..)
            .map(|(l, s)| job(l, s))
            .collect();
        let err = harness.run(&bad).expect_err("levels past the mesh fail");
        assert!(err.starts_with("2 point(s) failed:"), "{err}");
        assert!(err.contains(" [1] ") && err.contains(" [3] "), "{err}");
        let good = harness
            .run(&[job(4, 1)])
            .expect("good batch after a failed one");
        assert_eq!(good.metrics.len(), 1);
        assert!(
            good.points[0].cache_hit,
            "the failed batch's good point was cached"
        );
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
