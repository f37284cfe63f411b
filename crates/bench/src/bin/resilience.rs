//! `resilience` — graceful-degradation sweep: fault intensity × sprint level.
//!
//! ```text
//! resilience [--levels K1,K2,...] [--scales F1,F2,...] [--rate R]
//!            [--seed S] [--workers W] [--telemetry DIR] [--quick]
//! ```
//!
//! For every (sprint level, fault-intensity scale) pair the bench samples a
//! deterministic [`FaultPlan`] over the active region (transient link
//! outages, permanent link kills, router freezes — see `FAULT_MODEL.md`),
//! runs uniform traffic under CDOR with gating, and reports how gracefully
//! the sprint region degrades:
//!
//! - **delivered** — fraction of measured packets that reached their
//!   destination (the rest were cleanly dropped or still in flight),
//! - **dropped / outst** — measured packets removed by fault handling and
//!   packets unresolved at run end (`generated = delivered + dropped +
//!   outstanding` always holds),
//! - **unreach** — source/destination pairs in the active region with no
//!   usable path once the plan's permanent kills are applied (static oracle
//!   over [`noc_sim::routing::RoutingFunction::route_degraded`]),
//! - **latency / infl** — mean delivered-packet latency and its inflation
//!   over the zero-fault baseline at the same level.
//!
//! Scale `0.0` is the fault-free baseline and is bit-identical to running
//! without fault injection at all. Points fan out across the parallel
//! [`ExperimentRunner`]; the table is bit-identical at any worker count.
//!
//! `--telemetry DIR` (or `NOC_BENCH_TELEMETRY=DIR`) writes
//! `resilience.manifest.jsonl` — including one `"fault"` record per
//! observed fault event, attributed to its operating point — and
//! `resilience.trace.json` (Chrome trace of the parallel run).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use noc_bench::flags::{exit_usage, Flags};
use noc_bench::markdown_table;
use noc_sim::error::SimError;
use noc_sim::fault::{FaultEvent, FaultLog, FaultPlan, RandomFaultConfig};
use noc_sim::geometry::NodeId;
use noc_sim::network::Network;
use noc_sim::routing::unreachable_pairs;
use noc_sim::sim::{SimConfig, Simulation};
use noc_sim::sweep::point_seed;
use noc_sim::topology::Mesh2D;
use noc_sim::traffic::{Placement, TrafficGen, TrafficPattern};
use noc_sprinting::cdor::CdorRouting;
use noc_sprinting::config::SystemConfig;
use noc_sprinting::runner::ExperimentRunner;
use noc_sprinting::sprint_topology::SprintSet;
use noc_sprinting::telemetry::{FaultRecord, ManifestPoint, RunManifest, SpanRecorder};

#[derive(Debug)]
struct Args {
    levels: Vec<usize>,
    scales: Vec<f64>,
    rate: f64,
    seed: u64,
    workers: Option<usize>,
    telemetry: Option<PathBuf>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let mut args = Args {
        levels: flags.list("--levels", str::parse)?.unwrap_or_default(),
        scales: flags.list("--scales", str::parse)?.unwrap_or_default(),
        rate: flags.value("--rate", str::parse)?.unwrap_or(0.08),
        seed: flags.value("--seed", str::parse)?.unwrap_or(1),
        workers: flags.value("--workers", str::parse)?,
        telemetry: noc_bench::telemetry_dir_from_env(&mut flags)?,
        quick: flags.switch("--quick"),
    };
    flags.finish()?;
    if args.workers == Some(0) {
        return Err("--workers must be at least 1, got 0".into());
    }
    if let Some(bad) = args.scales.iter().find(|&&s| s < 0.0 || !s.is_finite()) {
        return Err(format!("--scales: scale {bad} is not finite and >= 0"));
    }
    // A given list is never empty, so `--quick` fills in only the others.
    if args.levels.is_empty() {
        args.levels = if args.quick { vec![4, 8] } else { vec![4, 8, 12, 16] };
    }
    if args.scales.is_empty() {
        args.scales = if args.quick { vec![0.0, 1.0] } else { vec![0.0, 0.5, 1.0, 2.0] };
    }
    Ok(args)
}

/// One operating point of the sweep.
#[derive(Debug, Clone, Copy)]
struct PointSpec {
    level: usize,
    scale: f64,
    /// Traffic seed: shared by all scales at the same level, so the
    /// zero-fault baseline sees the identical offered packet stream.
    traffic_seed: u64,
    /// Fault-plan seed: unique per point.
    fault_seed: u64,
}

/// What one point produced (plus its fault timeline when telemetry is on).
#[derive(Debug)]
struct PointResult {
    plan_faults: usize,
    generated: u64,
    delivered: u64,
    dropped: u64,
    outstanding: u64,
    delivered_fraction: f64,
    latency: f64,
    unreachable: usize,
    reroutes: u64,
    events: Vec<(u64, FaultEvent)>,
}

/// Base fault intensity at scale 1.0, drawn over `horizon` cycles: most
/// links see no fault, a few see short transient outages, one directed link
/// dies permanently, and the occasional router freezes briefly.
fn base_config(horizon: u64) -> RandomFaultConfig {
    RandomFaultConfig {
        horizon,
        transient_prob: 0.08,
        outage_min: 20,
        outage_max: 120,
        permanent_kills: 1,
        freeze_prob: 0.05,
        freeze_min: 20,
        freeze_max: 80,
        wakeup_delay_prob: 0.0,
        wakeup_extra: 50,
    }
}

fn run_point(
    spec: &PointSpec,
    sim_cfg: SimConfig,
    rate: f64,
    with_events: bool,
) -> Result<PointResult, SimError> {
    let sys = SystemConfig::paper();
    let mesh = Mesh2D::paper_4x4();
    let set = SprintSet::new(mesh, NodeId(0), spec.level);
    let plan = if spec.scale > 0.0 {
        let cfg = base_config(sim_cfg.warmup + sim_cfg.measure).scaled(spec.scale);
        FaultPlan::random(&mesh, set.mask(), &cfg, spec.fault_seed)
    } else {
        FaultPlan::new()
    };

    let mut net = Network::new(mesh, sys.router, Box::new(CdorRouting::new(&set)))?;
    net.set_power_mask(set.mask());
    net.set_fault_plan(&plan)?;
    let placement = Placement::new(set.active_nodes().to_vec(), &mesh)
        .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
    let traffic = TrafficGen::new(
        TrafficPattern::UniformRandom,
        placement,
        rate,
        sys.packet_len,
        spec.traffic_seed,
    )?;

    let sim = Simulation::new(net, traffic, sim_cfg);
    let (outcome, events) = if with_events {
        let mut log = FaultLog::new();
        let outcome = sim.run_observed(Some(&mut log))?;
        (outcome, log.events().to_vec())
    } else {
        (sim.run()?, Vec::new())
    };

    // Static reachability oracle: which active pairs survive the plan's
    // *permanent* kills (transients are waited out, not routed around).
    let routing = CdorRouting::new(&set);
    let unreachable = unreachable_pairs(&routing, &mesh, set.active_nodes(), &|a, b| {
        !plan.kills_link(a, b)
    });

    Ok(PointResult {
        plan_faults: plan.len(),
        generated: outcome.accounting.measured_generated,
        delivered: outcome.accounting.measured_delivered,
        dropped: outcome.accounting.measured_dropped,
        outstanding: outcome.accounting.measured_outstanding,
        delivered_fraction: outcome.accounting.delivered_fraction(),
        latency: outcome.stats.avg_packet_latency(),
        unreachable,
        reroutes: outcome.faults.reroutes,
        events,
    })
}

fn event_record(point: usize, cycle: u64, event: &FaultEvent) -> FaultRecord {
    let (kind, node, peer) = match *event {
        FaultEvent::LinkDown { from, to, .. } => ("link_down", from.0, Some(to.0)),
        FaultEvent::LinkUp { from, to } => ("link_up", from.0, Some(to.0)),
        FaultEvent::RouterFrozen { node, .. } => ("router_frozen", node.0, None),
        FaultEvent::RouterThawed { node } => ("router_thawed", node.0, None),
        FaultEvent::WakeupDelayed { node, .. } => ("wakeup_delayed", node.0, None),
        FaultEvent::PacketDropped { node, .. } => ("packet_dropped", node.0, None),
        FaultEvent::PacketRerouted { node, .. } => ("packet_rerouted", node.0, None),
    };
    FaultRecord { point, cycle, kind: kind.to_string(), node, peer }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_usage("resilience", e));
    let mesh = Mesh2D::paper_4x4();
    if args.levels.iter().any(|&l| l == 0 || l > mesh.len()) {
        exit_usage("resilience", format!("--levels must be in 1..={}", mesh.len()));
    }
    let sim_cfg = if args.quick { SimConfig::quick() } else { SimConfig::sweep() };

    let specs: Vec<PointSpec> = args
        .levels
        .iter()
        .flat_map(|&level| {
            let args = &args;
            args.scales.iter().enumerate().map(move |(si, &scale)| {
                let index = args
                    .levels
                    .iter()
                    .position(|&l| l == level)
                    .expect("level in list")
                    * args.scales.len()
                    + si;
                PointSpec {
                    level,
                    scale,
                    traffic_seed: point_seed(args.seed, 1_000_000 + level),
                    fault_seed: point_seed(args.seed, index),
                }
            })
        })
        .collect();

    let mut runner = match args.workers {
        Some(w) => ExperimentRunner::with_workers(w),
        None => ExperimentRunner::new(),
    };
    let spans = args.telemetry.as_ref().map(|_| Arc::new(SpanRecorder::new()));
    if noc_bench::progress_from_env() {
        runner = runner.with_echo("resilience");
    }

    let with_events = args.telemetry.is_some();
    let started = Instant::now();
    let results: Vec<PointResult> = match runner.try_run(&specs, |i, spec| {
        let t0 = Instant::now();
        let out = run_point(spec, sim_cfg, args.rate, with_events);
        if let Some(s) = &spans {
            s.record("resilience", i, t0, Instant::now(), false, Some(spec.fault_seed), None);
        }
        out
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("resilience sweep failed: {e}");
            std::process::exit(1);
        }
    };

    // Latency inflation against the zero-fault baseline at the same level.
    let baseline = |level: usize| -> Option<f64> {
        specs
            .iter()
            .zip(&results)
            .find(|(s, _)| s.level == level && s.scale == 0.0)
            .map(|(_, r)| r.latency)
    };
    let rows: Vec<Vec<String>> = specs
        .iter()
        .zip(&results)
        .map(|(s, r)| {
            let infl = baseline(s.level)
                .filter(|&b| b > 0.0)
                .map_or("-".to_string(), |b| format!("{:.2}x", r.latency / b));
            vec![
                s.level.to_string(),
                format!("{:.2}", s.scale),
                r.plan_faults.to_string(),
                format!("{:.4}", r.delivered_fraction),
                r.dropped.to_string(),
                r.outstanding.to_string(),
                r.unreachable.to_string(),
                r.reroutes.to_string(),
                format!("{:.2}", r.latency),
                infl,
            ]
        })
        .collect();
    print!(
        "{}",
        markdown_table(
            &[
                "level", "scale", "faults", "delivered", "dropped", "outst", "unreach",
                "reroutes", "latency", "infl"
            ],
            &rows,
        )
    );
    for (s, r) in specs.iter().zip(&results) {
        assert_eq!(
            r.generated,
            r.delivered + r.dropped + r.outstanding,
            "packet accounting violated at level {} scale {}",
            s.level,
            s.scale
        );
    }
    let snap = runner.progress().snapshot();
    eprintln!(
        "[{} points on {} workers, busy {:.2?}]",
        snap.completed,
        runner.workers(),
        snap.busy
    );

    if let Some(dir) = &args.telemetry {
        let spans = spans.as_ref().expect("recorder attached with telemetry");
        if let Err(e) = write_telemetry(dir, &runner, &args, &specs, &results, spans, started) {
            eprintln!("telemetry write failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes `resilience.manifest.jsonl` (points + per-event fault records) and
/// `resilience.trace.json` into `dir`.
fn write_telemetry(
    dir: &PathBuf,
    runner: &ExperimentRunner,
    args: &Args,
    specs: &[PointSpec],
    results: &[PointResult],
    spans: &SpanRecorder,
    started: Instant,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut dur_ms = vec![0.0f64; results.len()];
    for s in spans.spans() {
        if let Some(d) = dur_ms.get_mut(s.index) {
            *d = s.dur_us as f64 / 1e3;
        }
    }
    let points: Vec<ManifestPoint> = specs
        .iter()
        .zip(results)
        .enumerate()
        .map(|(i, (s, r))| ManifestPoint {
            index: i,
            seed: s.fault_seed,
            config_hash: RunManifest::combine_hashes([
                args.seed,
                i as u64,
                s.level as u64,
                s.scale.to_bits(),
                args.rate.to_bits(),
            ]),
            cache_hit: false,
            duration_ms: dur_ms[i],
            metrics: vec![
                ("level".to_string(), s.level as f64),
                ("fault_scale".to_string(), s.scale),
                ("plan_faults".to_string(), r.plan_faults as f64),
                ("measured_generated".to_string(), r.generated as f64),
                ("measured_delivered".to_string(), r.delivered as f64),
                ("measured_dropped".to_string(), r.dropped as f64),
                ("measured_outstanding".to_string(), r.outstanding as f64),
                ("delivered_fraction".to_string(), r.delivered_fraction),
                ("unreachable_pairs".to_string(), r.unreachable as f64),
                ("avg_packet_latency".to_string(), r.latency),
            ],
        })
        .collect();
    let faults: Vec<FaultRecord> = results
        .iter()
        .enumerate()
        .flat_map(|(i, r)| r.events.iter().map(move |(cycle, e)| event_record(i, *cycle, e)))
        .collect();
    let manifest = RunManifest {
        figure: "resilience".to_string(),
        config_hash: RunManifest::combine_hashes(points.iter().map(|p| p.config_hash)),
        workers: runner.workers(),
        base_seed: args.seed,
        seed_schedule: points.iter().map(|p| p.seed).collect(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        cache_hits: 0,
        cache_misses: points.len() as u64,
        points,
        faults,
    };
    let manifest_path = dir.join("resilience.manifest.jsonl");
    let trace_path = dir.join("resilience.trace.json");
    std::fs::write(&manifest_path, manifest.to_jsonl())?;
    std::fs::write(&trace_path, spans.chrome_trace())?;
    eprintln!(
        "[telemetry: {} and {} written]",
        manifest_path.display(),
        trace_path.display()
    );
    Ok(())
}
