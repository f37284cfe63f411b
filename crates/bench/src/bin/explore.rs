//! `explore` — run a custom sprint-network operating point from the
//! command line.
//!
//! ```text
//! explore [--mesh WxH] [--master N] [--level K] [--rate R]
//!         [--pattern uniform|transpose|bitcomp|tornado|shuffle|hotspot|neighbor]
//!         [--full] [--seed S] [--loads R1,R2,...] [--workers W]
//!         [--telemetry DIR] [--service SOCKET]
//! ```
//!
//! By default: paper 4x4 mesh, master 0, level 4, uniform at 0.1
//! flits/cycle/node under NoC-sprinting (CDOR + gating); `--full` spreads
//! the same per-node rate over the fully powered mesh with XY routing
//! instead. `--loads` switches from a single operating point to a
//! latency-vs-load sweep executed on the parallel `ExperimentRunner`
//! (`--workers 1` forces the serial path; the curve is bit-identical at any
//! worker count). Every mode describes its points as `SyntheticJob`s, the
//! same cache-keyed form the figures and the daemon run.
//!
//! `--telemetry DIR` (or `NOC_BENCH_TELEMETRY=DIR`) additionally attaches a
//! [`TimeSeriesObserver`] to every sweep point and writes
//! `explore.manifest.jsonl`, `explore.trace.json` (Chrome Trace Event
//! Format — load in `chrome://tracing`) and one
//! `explore.point<N>.timeseries.csv` per operating point. Telemetry only
//! observes: the printed curve is bit-identical with it on or off.
//!
//! `--service SOCKET` (or `NOC_SERVE_SOCKET=PATH`) submits the same jobs to
//! a running `noc_serve` daemon instead of simulating locally, so repeated
//! explorations hit the daemon's persistent cache. The daemon owns the
//! experiment configuration, so this mode requires the mesh and master it
//! serves: paper 4x4 mesh, master 0. See `SERVICE.md`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use noc_bench::flags::{exit_usage, Flags};
use noc_sim::error::SimError;
use noc_sim::geometry::NodeId;
use noc_sim::probe::TimeSeriesObserver;
use noc_sim::sweep::point_seed;
use noc_sim::topology::{Mesh2D, TopologySpec};
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::config::SystemConfig;
use noc_sprinting::controller::SprintController;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::metric_pairs;
use noc_sprinting::telemetry::{ManifestPoint, RunManifest, SpanRecorder};

/// Per-epoch sampling interval for `--telemetry` sweep observers, in
/// cycles. `SimConfig::sweep` runs 12k measured cycles, so this yields a
/// couple dozen samples per point.
const EPOCH_INTERVAL: u64 = 500;

#[derive(Debug)]
struct Args {
    width: u16,
    height: u16,
    master: usize,
    level: usize,
    rate: f64,
    pattern: TrafficPattern,
    full: bool,
    seed: u64,
    loads: Option<Vec<f64>>,
    workers: Option<usize>,
    telemetry: Option<PathBuf>,
    service: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let (width, height) = flags.value("--mesh", parse_mesh)?.unwrap_or((4, 4));
    let args = Args {
        width,
        height,
        master: flags.value("--master", str::parse)?.unwrap_or(0),
        level: flags.value("--level", str::parse)?.unwrap_or(4),
        rate: flags.value("--rate", str::parse)?.unwrap_or(0.1),
        pattern: flags
            .value("--pattern", parse_pattern)?
            .unwrap_or(TrafficPattern::UniformRandom),
        seed: flags.value("--seed", str::parse)?.unwrap_or(1),
        loads: flags.list("--loads", str::parse)?,
        workers: flags.value("--workers", str::parse)?,
        telemetry: noc_bench::telemetry_dir_from_env(&mut flags)?,
        service: noc_bench::service_socket_from_env(&mut flags)?,
        full: flags.switch("--full"),
    };
    flags.finish()?;
    if args.workers == Some(0) {
        return Err("--workers must be at least 1, got 0".into());
    }
    if let Some(bad) = args
        .loads
        .iter()
        .flatten()
        .find(|&&l| !(l > 0.0 && l <= 1.0))
    {
        return Err(format!("--loads: load {bad} is not in (0, 1]"));
    }
    Ok(args)
}

fn parse_mesh(v: &str) -> Result<(u16, u16), String> {
    let (w, h) = v.split_once(['x', 'X']).ok_or("expected WxH")?;
    let width = w.parse().map_err(|e| format!("bad width: {e}"))?;
    let height = h.parse().map_err(|e| format!("bad height: {e}"))?;
    Ok((width, height))
}

fn parse_pattern(v: &str) -> Result<TrafficPattern, &'static str> {
    Ok(match v {
        "uniform" => TrafficPattern::UniformRandom,
        "transpose" => TrafficPattern::Transpose,
        "bitcomp" => TrafficPattern::BitComplement,
        "tornado" => TrafficPattern::Tornado,
        "shuffle" => TrafficPattern::Shuffle,
        "hotspot" => TrafficPattern::Hotspot { hot_fraction: 0.3 },
        "neighbor" => TrafficPattern::NearestNeighbor,
        _ => return Err("unknown pattern"),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_usage("explore", e));
    let mesh = Mesh2D::new(args.width, args.height).unwrap_or_else(|e| exit_usage("explore", e));
    if args.master >= mesh.len() || args.level == 0 || args.level > mesh.len() {
        let (w, h) = (args.width, args.height);
        exit_usage("explore", format!("master/level out of range for {w}x{h}"));
    }
    println!(
        "mesh {}x{}, master {}, level {} ({} routers gated), {} @ {} flits/cyc/node, {}",
        args.width,
        args.height,
        args.master,
        args.level,
        mesh.len() - args.level,
        if args.full {
            "full mesh + XY"
        } else {
            "NoC-sprinting (CDOR + gating)"
        },
        args.rate,
        format_args!("pattern {:?}", args.pattern),
    );
    let jobs = jobs(&args);
    if let Some(socket) = &args.service {
        run_service_mode(&args, socket, &jobs);
        return;
    }
    let mut experiment = Experiment::paper();
    experiment.system = SystemConfig {
        core_count: mesh.len() as u32,
        mesh_width: args.width,
        mesh_height: args.height,
        ..SystemConfig::paper()
    };
    experiment.controller = SprintController::new(mesh, NodeId(args.master));
    if args.loads.is_some() {
        run_loads_mode(&args, &experiment, &jobs);
        return;
    }
    match experiment.run_job(&jobs[0], None, None) {
        Ok((_, out)) => {
            println!(
                "packets delivered: {} ({} flits); saturated: {}",
                out.stats.packets_delivered, out.stats.flits_delivered, out.stats.saturated
            );
            println!(
                "avg packet latency:  {:8.2} cycles (p99 {})",
                out.stats.avg_packet_latency(),
                out.stats
                    .packet_latency
                    .quantile(0.99)
                    .map_or("-".into(), |v| v.to_string())
            );
            println!(
                "avg network latency: {:8.2} cycles",
                out.stats.avg_network_latency()
            );
            println!(
                "accepted throughput: {:8.3} flits/cycle/node",
                out.stats.accepted_throughput()
            );
        }
        Err(e @ SimError::InvalidConfig(_)) => exit_usage("explore", e),
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The operating points every mode runs: one per `--loads` entry (point
/// `i` seeded `point_seed(seed, i)`) or the single `--rate` point (seeded
/// `seed`). NoC-sprinting runs the `level`-node sprint region; `--full`
/// spreads the aggregate of all N nodes at `rate` over the powered mesh
/// (level N, so each node injects `rate * N / N` — exactly `rate` when N
/// is a power of two).
fn jobs(args: &Args) -> Vec<SyntheticJob> {
    let topology = TopologySpec::Mesh {
        width: args.width,
        height: args.height,
    };
    let (level, baseline) = if args.full {
        (topology.len(), SyntheticBaseline::SpreadAggregate)
    } else {
        (args.level, SyntheticBaseline::NocSprinting)
    };
    let job = |rate, seed| SyntheticJob {
        topology,
        level,
        pattern: args.pattern,
        rate,
        seed,
        baseline,
    };
    match &args.loads {
        Some(loads) => loads
            .iter()
            .enumerate()
            .map(|(i, &rate)| job(rate, point_seed(args.seed, i)))
            .collect(),
        None => vec![job(args.rate, args.seed)],
    }
}

/// Whether a point is past saturation: flagged by the simulator, or it
/// delivered no measured packet (non-finite latency).
fn saturated(m: &NetworkMetrics) -> bool {
    m.saturated || !m.avg_packet_latency.is_finite()
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// `--service` mode: submit the jobs to a `noc_serve` daemon instead of
/// simulating in-process. The daemon evaluates jobs against *its*
/// experiment configuration, so a non-default mesh or master is rejected
/// rather than silently ignored.
fn run_service_mode(args: &Args, socket: &std::path::Path, jobs: &[SyntheticJob]) {
    if (args.width, args.height) != (4, 4) || args.master != 0 {
        eprintln!(
            "--service serves the daemon's experiment (paper 4x4 mesh, master 0); \
             drop --mesh/--master or run locally"
        );
        std::process::exit(2);
    }
    let mut client = match noc_bench::client::connect_unix(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach noc-serve at {}: {e}", socket.display());
            std::process::exit(2);
        }
    };
    let batch = match client.submit("explore", jobs) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("service submission failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>5} {:>5}",
        "offered", "pkt lat (cyc)", "net lat (cyc)", "accepted", "sat", "hit"
    );
    for (job, (m, p)) in jobs.iter().zip(batch.metrics.iter().zip(&batch.points)) {
        println!(
            "{:8.3} {:14.2} {:14.2} {:10.3} {:>5} {:>5}",
            job.rate,
            m.avg_packet_latency,
            m.avg_network_latency,
            m.accepted_throughput,
            yes_no(saturated(m)),
            yes_no(p.cache_hit)
        );
    }
    eprintln!(
        "[{} points via noc-serve at {}: {} cache hits, daemon wall {:.2} ms]",
        batch.summary.points,
        socket.display(),
        batch.summary.cache_hits,
        batch.summary.wall_ms
    );
}

/// `--loads` mode: a latency-vs-load sweep over the parallel runner, with
/// optional telemetry (probes + manifest + Chrome trace) when
/// `--telemetry DIR` is given.
fn run_loads_mode(args: &Args, experiment: &Experiment, jobs: &[SyntheticJob]) {
    let mut runner = match args.workers {
        Some(w) => ExperimentRunner::with_workers(w),
        None => ExperimentRunner::new(),
    };
    let spans = args
        .telemetry
        .as_ref()
        .map(|_| Arc::new(SpanRecorder::new()));
    if let Some(s) = &spans {
        runner = runner.with_span_recorder(Arc::clone(s));
    }
    if noc_bench::progress_from_env() {
        runner = runner.with_echo("explore");
    }
    let started = Instant::now();
    // With telemetry, one TimeSeriesObserver rides along on every point;
    // probes only observe, so the metrics are the same either way.
    let run = match &args.telemetry {
        Some(_) => runner
            .run_synthetic_jobs_observed(experiment, jobs, |_| {
                TimeSeriesObserver::new(EPOCH_INTERVAL)
            })
            .map(|points| points.into_iter().unzip()),
        None => runner
            .run_synthetic_jobs(experiment, jobs, None)
            .map(|metrics| (metrics, Vec::new())),
    };
    let (metrics, observers): (Vec<NetworkMetrics>, Vec<TimeSeriesObserver>) =
        run.unwrap_or_else(|e| {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        });
    if let (Some(dir), Some(spans)) = (&args.telemetry, &spans) {
        let written = write_telemetry(
            dir, &runner, args.seed, jobs, &metrics, &observers, spans, started,
        );
        if let Err(e) = written {
            eprintln!("telemetry write failed: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>5}",
        "offered", "pkt lat (cyc)", "net lat (cyc)", "accepted", "sat"
    );
    for (job, m) in jobs.iter().zip(&metrics) {
        println!(
            "{:8.3} {:14.2} {:14.2} {:10.3} {:>5}",
            job.rate,
            m.avg_packet_latency,
            m.avg_network_latency,
            m.accepted_throughput,
            yes_no(saturated(m))
        );
    }
    println!(
        "zero-load latency: {}",
        metrics
            .iter()
            .map(|m| m.avg_network_latency)
            .find(|l| l.is_finite())
            .map_or("-".to_string(), |v| format!("{v:.2} cyc"))
    );
    println!(
        "saturation onset:  {}",
        jobs.iter()
            .zip(&metrics)
            .find(|(_, m)| saturated(m))
            .map_or("none in sweep".to_string(), |(job, _)| format!(
                "{:.3}",
                job.rate
            ))
    );
    println!(
        "peak accepted:     {}",
        metrics
            .iter()
            .map(|m| m.accepted_throughput)
            .reduce(f64::max)
            .map_or("-".to_string(), |v| format!("{v:.3} flits/cyc/node"))
    );
    let snap = runner.progress().snapshot();
    eprintln!(
        "[{} points on {} workers, busy {:.2?}]",
        snap.completed,
        runner.workers(),
        snap.busy
    );
}

/// Writes `explore.manifest.jsonl`, `explore.trace.json` and one
/// `explore.point<N>.timeseries.csv` per sweep point into `dir`.
#[allow(clippy::too_many_arguments)]
fn write_telemetry(
    dir: &PathBuf,
    runner: &ExperimentRunner,
    base_seed: u64,
    jobs: &[SyntheticJob],
    metrics: &[NetworkMetrics],
    observers: &[TimeSeriesObserver],
    spans: &SpanRecorder,
    started: Instant,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Per-point wall durations come from the recorded spans.
    let mut dur_ms = vec![0.0f64; jobs.len()];
    for s in spans.spans() {
        if let Some(d) = dur_ms.get_mut(s.index) {
            *d = s.dur_us as f64 / 1e3;
        }
    }
    let points: Vec<ManifestPoint> = jobs
        .iter()
        .zip(metrics)
        .enumerate()
        .map(|(i, (job, m))| ManifestPoint {
            index: i,
            seed: job.seed,
            config_hash: job.cache_key(),
            cache_hit: false,
            duration_ms: dur_ms[i],
            metrics: metric_pairs(m),
        })
        .collect();
    let manifest = RunManifest {
        figure: "explore".to_string(),
        config_hash: RunManifest::combine_hashes(points.iter().map(|p| p.config_hash)),
        workers: runner.workers(),
        base_seed,
        seed_schedule: points.iter().map(|p| p.seed).collect(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cache_hits: 0,
        cache_misses: points.len() as u64,
        points,
        faults: vec![],
    };
    let manifest_path = dir.join("explore.manifest.jsonl");
    let trace_path = dir.join("explore.trace.json");
    std::fs::write(&manifest_path, manifest.to_jsonl())?;
    std::fs::write(&trace_path, spans.chrome_trace())?;
    for (i, obs) in observers.iter().enumerate() {
        std::fs::write(
            dir.join(format!("explore.point{i}.timeseries.csv")),
            obs.to_csv(),
        )?;
    }
    eprintln!(
        "[telemetry: {}, {} and {} per-point time-series written to {}]",
        manifest_path.display(),
        trace_path.display(),
        observers.len(),
        dir.display()
    );
    Ok(())
}
