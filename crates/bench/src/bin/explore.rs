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
//! flits/cycle/node under NoC-sprinting (CDOR + gating); `--full` runs the
//! fully powered mesh with XY routing instead. `--loads` switches from a
//! single operating point to a latency-vs-load sweep executed on the
//! parallel `ExperimentRunner` (`--workers 1` forces the serial path; the
//! curve is bit-identical at any worker count).
//!
//! `--telemetry DIR` (or `NOC_BENCH_TELEMETRY=DIR`) additionally attaches a
//! [`TimeSeriesObserver`] to every sweep point and writes
//! `explore.manifest.jsonl`, `explore.trace.json` (Chrome Trace Event
//! Format — load in `chrome://tracing`) and one
//! `explore.point<N>.timeseries.csv` per operating point. Telemetry only
//! observes: the printed curve is bit-identical with it on or off.
//!
//! `--service SOCKET` (or `NOC_SERVE_SOCKET=PATH`) submits the operating
//! point(s) to a running `noc_serve` daemon instead of simulating locally,
//! so repeated explorations hit the daemon's persistent cache. The daemon
//! owns the experiment configuration, so this mode requires the defaults
//! it serves: paper 4x4 mesh, master 0, no `--full`. See `SERVICE.md`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use noc_bench::flags::{exit_usage, Flags};
use noc_sim::geometry::NodeId;
use noc_sim::network::Network;
use noc_sim::probe::TimeSeriesObserver;
use noc_sim::routing::{RoutingFunction, XyRouting};
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::sweep::{point_seed, LoadSweep, SweepReport};
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sim::topology::TopologySpec;
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::config::SystemConfig;
use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::sprint_topology::SprintSet;
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
    if let Some(bad) = args.loads.iter().flatten().find(|&&l| !(l > 0.0 && l <= 1.0)) {
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
    let sys = SystemConfig::paper();
    let set = SprintSet::new(mesh, NodeId(args.master), args.level);
    println!(
        "mesh {}x{}, master {}, level {} ({} routers gated), {} @ {} flits/cyc/node, {}",
        args.width,
        args.height,
        args.master,
        args.level,
        mesh.len() - args.level,
        if args.full { "full mesh + XY" } else { "NoC-sprinting (CDOR + gating)" },
        args.rate,
        format_args!("pattern {:?}", args.pattern),
    );

    if let Some(socket) = args.service.clone() {
        run_service_mode(&args, &socket);
        return;
    }

    if let Some(loads) = args.loads.clone() {
        run_sweep_mode(&args, mesh, &set, loads);
        return;
    }

    let (net, placement) = if args.full {
        (
            Network::new(mesh, sys.router, Box::new(XyRouting)).expect("network"),
            Placement::full(&mesh),
        )
    } else {
        let mut net =
            Network::new(mesh, sys.router, Box::new(CdorRouting::new(&set))).expect("network");
        net.set_power_mask(set.mask());
        (
            net,
            Placement::new(set.active_nodes().to_vec(), &mesh).expect("placement"),
        )
    };
    let traffic = TrafficGen::new(args.pattern, placement, args.rate, sys.packet_len, args.seed)
        .unwrap_or_else(|e| exit_usage("explore", format!("traffic setup failed: {e}")));
    match Simulation::new(net, traffic, SimConfig::sweep()).run() {
        Ok(out) => {
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
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `--service` mode: submit the operating point(s) to a `noc_serve`
/// daemon instead of simulating in-process. The daemon evaluates jobs
/// against *its* experiment configuration, so flags that would change the
/// local world (`--full`, a non-default mesh or master) are rejected
/// rather than silently ignored.
fn run_service_mode(args: &Args, socket: &std::path::Path) {
    if args.full {
        eprintln!("--service cannot serve --full: the daemon runs the sprinting configuration");
        std::process::exit(2);
    }
    if (args.width, args.height) != (4, 4) || args.master != 0 {
        eprintln!(
            "--service serves the daemon's experiment (paper 4x4 mesh, master 0); \
             drop --mesh/--master or run locally"
        );
        std::process::exit(2);
    }
    let jobs: Vec<SyntheticJob> = match &args.loads {
        Some(loads) => loads
            .iter()
            .enumerate()
            .map(|(i, &rate)| SyntheticJob {
                topology: TopologySpec::default(),
                level: args.level,
                pattern: args.pattern,
                rate,
                seed: point_seed(args.seed, i),
                baseline: SyntheticBaseline::NocSprinting,
            })
            .collect(),
        None => vec![SyntheticJob {
            topology: TopologySpec::default(),
            level: args.level,
            pattern: args.pattern,
            rate: args.rate,
            seed: args.seed,
            baseline: SyntheticBaseline::NocSprinting,
        }],
    };
    let mut client = match noc_bench::client::connect_unix(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot reach noc-serve at {}: {e}", socket.display());
            std::process::exit(2);
        }
    };
    let batch = match client.submit("explore", &jobs) {
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
            if m.saturated { "yes" } else { "no" },
            if p.cache_hit { "yes" } else { "no" }
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
fn run_sweep_mode(args: &Args, mesh: Mesh2D, set: &SprintSet, loads: Vec<f64>) {
    let sys = SystemConfig::paper();
    let mut runner = match args.workers {
        Some(w) => ExperimentRunner::with_workers(w),
        None => ExperimentRunner::new(),
    };
    let spans = args.telemetry.as_ref().map(|_| Arc::new(SpanRecorder::new()));
    if let Some(s) = &spans {
        runner = runner.with_span_recorder(Arc::clone(s));
    }
    if noc_bench::progress_from_env() {
        runner = runner.with_echo("explore");
    }
    let sweep = LoadSweep {
        topo: mesh.into(),
        params: sys.router,
        pattern: args.pattern,
        packet_len: sys.packet_len,
        loads,
        sim_config: SimConfig::sweep(),
        seed: args.seed,
    };
    let placement = if args.full {
        Placement::full(&mesh)
    } else {
        Placement::new(set.active_nodes().to_vec(), &mesh).expect("placement")
    };
    let make_routing: Box<dyn Fn() -> Box<dyn RoutingFunction> + Send + Sync> = if args.full {
        Box::new(|| Box::new(XyRouting))
    } else {
        let set = set.clone();
        Box::new(move || Box::new(CdorRouting::new(&set)))
    };
    let started = Instant::now();
    // With telemetry: the observed path, which attaches one
    // TimeSeriesObserver per point. Without: the plain (probe-free) path.
    // Both produce bit-identical reports — probes only observe.
    let report = if let Some(dir) = &args.telemetry {
        let observed = runner.run_sweep_observed(&sweep, &placement, make_routing, |_| {
            TimeSeriesObserver::new(EPOCH_INTERVAL)
        });
        match observed {
            Ok((report, observers)) => {
                let spans = spans.as_ref().expect("recorder attached with telemetry");
                if let Err(e) =
                    write_telemetry(dir, &runner, &sweep, &report, &observers, spans, started)
                {
                    eprintln!("telemetry write failed: {e}");
                    std::process::exit(1);
                }
                report
            }
            Err(e) => {
                eprintln!("sweep failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match runner.run_sweep(&sweep, &placement, make_routing) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sweep failed: {e}");
                std::process::exit(1);
            }
        }
    };
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>5}",
        "offered", "pkt lat (cyc)", "net lat (cyc)", "accepted", "sat"
    );
    for p in &report.points {
        println!(
            "{:8.3} {:14.2} {:14.2} {:10.3} {:>5}",
            p.offered,
            p.packet_latency,
            p.network_latency,
            p.accepted,
            if p.saturated { "yes" } else { "no" }
        );
    }
    println!(
        "zero-load latency: {}",
        report
            .zero_load_latency()
            .map_or("-".to_string(), |v| format!("{v:.2} cyc"))
    );
    println!(
        "saturation onset:  {}",
        report
            .saturation_onset()
            .map_or("none in sweep".to_string(), |v| format!("{v:.3}"))
    );
    println!(
        "peak accepted:     {}",
        report
            .peak_accepted()
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
fn write_telemetry(
    dir: &PathBuf,
    runner: &ExperimentRunner,
    sweep: &LoadSweep,
    report: &SweepReport,
    observers: &[TimeSeriesObserver],
    spans: &SpanRecorder,
    started: Instant,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    // Per-point wall durations come from the recorded spans.
    let mut dur_ms = vec![0.0f64; report.points.len()];
    for s in spans.spans() {
        if let Some(d) = dur_ms.get_mut(s.index) {
            *d = s.dur_us as f64 / 1e3;
        }
    }
    let points: Vec<ManifestPoint> = report
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| ManifestPoint {
            index: i,
            seed: point_seed(sweep.seed, i),
            config_hash: RunManifest::combine_hashes([
                sweep.seed,
                i as u64,
                sweep.loads[i].to_bits(),
                u64::from(sweep.packet_len),
            ]),
            cache_hit: false,
            duration_ms: dur_ms[i],
            metrics: vec![
                ("offered".to_string(), p.offered),
                ("packet_latency".to_string(), p.packet_latency),
                ("network_latency".to_string(), p.network_latency),
                ("accepted".to_string(), p.accepted),
                ("saturated".to_string(), f64::from(u8::from(p.saturated))),
            ],
        })
        .collect();
    let manifest = RunManifest {
        figure: "explore".to_string(),
        config_hash: RunManifest::combine_hashes(points.iter().map(|p| p.config_hash)),
        workers: runner.workers(),
        base_seed: sweep.seed,
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
        std::fs::write(dir.join(format!("explore.point{i}.timeseries.csv")), obs.to_csv())?;
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
