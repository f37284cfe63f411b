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
//! latency-vs-load table. Every mode describes its points as
//! `SyntheticJob`s, the same cache-keyed form the figures and the daemon
//! run, and the table runs them through [`FigureHarness`]: in-process on
//! the daemon's executor (`--workers 1` forces the serial path; the curve
//! is bit-identical at any worker count), or on a `noc_serve` daemon.
//!
//! `--telemetry DIR` (or `NOC_BENCH_TELEMETRY=DIR`) additionally writes
//! `explore.manifest.jsonl`, `explore.trace.json` (Chrome Trace Event
//! Format — load in `chrome://tracing`) and, for a table run locally, one
//! `explore.point<N>.timeseries.csv` per operating point: after the table,
//! every point is simulated once more with a [`TimeSeriesObserver`]
//! attached. Telemetry only observes: the printed curve is bit-identical
//! with it on or off.
//!
//! `--service SOCKET` (or `NOC_SERVE_SOCKET=PATH`) submits the jobs to a
//! running `noc_serve` daemon instead of simulating locally, so repeated
//! explorations hit the daemon's persistent cache; it prints the same
//! table, even for a single point, since the wire does not carry the
//! single-point details. The daemon owns the experiment configuration, so
//! this mode requires the mesh and master it serves: paper 4x4 mesh,
//! master 0. See `SERVICE.md`.

use std::path::{Path, PathBuf};

use noc_bench::flags::{exit_usage, Flags};
use noc_bench::FigureHarness;
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
    let jobs = jobs(&args);
    println!(
        "mesh {}x{}, master {}, level {} ({} routers gated), {} @ {} flits/cyc/node, {}",
        args.width,
        args.height,
        args.master,
        jobs[0].level,
        mesh.len() - jobs[0].level,
        if args.full {
            "full mesh + XY"
        } else {
            "NoC-sprinting (CDOR + gating)"
        },
        args.rate,
        format_args!("pattern {:?}", args.pattern),
    );
    // The daemon runs jobs on *its* experiment: refuse rather than
    // silently ignore a mesh or master it does not serve.
    if args.service.is_some() && ((args.width, args.height) != (4, 4) || args.master != 0) {
        eprintln!(
            "--service serves the daemon's experiment (paper 4x4 mesh, master 0); \
             drop --mesh/--master or run locally"
        );
        std::process::exit(2);
    }
    if args.loads.is_some() || args.service.is_some() {
        run_table_mode(&args, mesh, &jobs);
        return;
    }
    match experiment(&args, mesh).run_job(&jobs[0], None) {
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

/// The paper experiment on the `mesh` the arguments name, with its master.
fn experiment(args: &Args, mesh: Mesh2D) -> Experiment {
    let mut experiment = Experiment::paper();
    experiment.system = SystemConfig {
        core_count: mesh.len() as u32,
        mesh_width: args.width,
        mesh_height: args.height,
        ..SystemConfig::paper()
    };
    experiment.controller = SprintController::new(mesh, NodeId(args.master));
    experiment
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

/// `--loads` or `--service` mode: a latency-vs-load table over the jobs,
/// run by the bench harness — in-process, or through the `noc_serve`
/// socket.
fn run_table_mode(args: &Args, mesh: Mesh2D, jobs: &[SyntheticJob]) {
    // The paper's tag: `--service` is refused unless the mesh and master
    // are the paper's, and in-process the tag only stamps the cache.
    let (_, tag) = noc_bench::served_experiment(false);
    let harness = FigureHarness::configured(
        experiment(args, mesh),
        tag,
        args.workers,
        args.telemetry.clone(),
        args.service.as_deref(),
    );
    let batch = harness.run(jobs).unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(1);
    });
    let metrics = &batch.metrics;
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>5}",
        "offered", "pkt lat (cyc)", "net lat (cyc)", "accepted", "sat"
    );
    for (job, m) in jobs.iter().zip(metrics) {
        println!(
            "{:8.3} {:14.2} {:14.2} {:10.3} {:>5}",
            job.rate,
            m.avg_packet_latency,
            m.avg_network_latency,
            m.accepted_throughput,
            if saturated(m) { "yes" } else { "no" }
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
        jobs.iter().zip(metrics).find(|(_, m)| saturated(m)).map_or(
            "none in sweep".to_string(),
            |(job, _)| format!("{:.3}", job.rate)
        )
    );
    println!(
        "peak accepted:     {}",
        metrics
            .iter()
            .map(|m| m.accepted_throughput)
            .reduce(f64::max)
            .map_or("-".to_string(), |v| format!("{v:.3} flits/cyc/node"))
    );
    let written = harness
        .finish("explore")
        .and_then(|()| match harness.telemetry_dir() {
            Some(dir) if args.service.is_none() => {
                write_time_series(&experiment(args, mesh), harness.workers(), jobs, dir)
            }
            _ => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("telemetry write failed: {e}");
        std::process::exit(1);
    }
}

/// Simulates every table point again with a [`TimeSeriesObserver`]
/// attached, on `workers` workers, and writes each observer as
/// `explore.point<N>.timeseries.csv` in `dir`.
fn write_time_series(
    experiment: &Experiment,
    workers: usize,
    jobs: &[SyntheticJob],
    dir: &Path,
) -> std::io::Result<()> {
    let observers = ExperimentRunner::with_workers(workers)
        .try_run(jobs, |_, job| {
            let mut observer = TimeSeriesObserver::new(EPOCH_INTERVAL);
            experiment.run_job(job, Some(&mut observer))?;
            Ok::<_, SimError>(observer)
        })
        .map_err(std::io::Error::other)?;
    for (i, obs) in observers.iter().enumerate() {
        let csv = dir.join(format!("explore.point{i}.timeseries.csv"));
        std::fs::write(csv, obs.to_csv())?;
    }
    eprintln!(
        "[telemetry: {} per-point time-series written to {}]",
        observers.len(),
        dir.display()
    );
    Ok(())
}
