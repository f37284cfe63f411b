//! `pareto_explore` — sweep (topology × sprint level × load) candidates and
//! emit the energy-delay Pareto front.
//!
//! ```text
//! pareto_explore [--service SOCKET] [--topologies T1,T2,...]
//!                [--levels K1,K2,...] [--loads R1,R2,...]
//!                [--seed S] [--out DIR] [--quick]
//! ```
//!
//! Every candidate is a [`SyntheticJob`] under the NoC-sprinting policy:
//! sprint region grown from the master by the topology's own distance rule
//! (digital convexity on the mesh, contiguous ring arcs on the circulant —
//! see `TOPOLOGY.md`), region-confined routing, everything outside gated.
//! Topologies are named by their wire names (`mesh4x4`, `circ16s5`, ...;
//! the grammar is in `SERVICE.md`).
//!
//! With `--service SOCKET` (or `NOC_SERVE_SOCKET=PATH`) candidates are
//! submitted to a running `noc_serve`/`noc_fleet` daemon, so repeated
//! explorations are served from its persistent result cache — a repeat
//! sweep is pure cache hits and near-free. Without a socket the grid runs
//! on the in-process parallel [`ExperimentRunner`]; the points are
//! bit-identical either way.
//!
//! Output: `pareto.csv` (every candidate, with an `on_front` column),
//! `pareto_explore.manifest.jsonl` (a [`RunManifest`] validated by
//! `telemetry_check`), and the front itself on stdout. The front is taken
//! over non-saturated candidates in three objectives: packet delay
//! (minimized), energy per delivered flit — network power over aggregate
//! accepted bandwidth — (minimized), and aggregate accepted bandwidth
//! itself (maximized). Delay and energy alone collapse to a single point
//! (a small sprint region has both the shortest paths and the fewest
//! powered routers); the bandwidth axis restores the real design question:
//! how much sustained traffic each extra joule-per-flit and cycle of
//! latency buys. The energy-delay product column is the scalarization the
//! paper optimizes.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use noc_bench::flags::{exit_usage, Flags};
use noc_sim::sweep::point_seed;
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::{Experiment, NetworkMetrics};
use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::telemetry::{ManifestPoint, RunManifest};

#[derive(Debug)]
struct Args {
    topologies: Vec<TopologySpec>,
    levels: Vec<usize>,
    loads: Vec<f64>,
    seed: u64,
    out: PathBuf,
    service: Option<PathBuf>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let mut args = Args {
        topologies: flags.list("--topologies", TopologySpec::from_wire_name)?.unwrap_or_default(),
        levels: flags.list("--levels", str::parse)?.unwrap_or_default(),
        loads: flags.list("--loads", str::parse)?.unwrap_or_default(),
        seed: flags.value("--seed", str::parse)?.unwrap_or(1),
        out: flags.value("--out", str::parse)?.unwrap_or_else(|| PathBuf::from("pareto_out")),
        service: noc_bench::service_socket_from_env(&mut flags)?,
        quick: flags.switch("--quick"),
    };
    flags.finish()?;
    if let Some(bad) = args.loads.iter().find(|&&l| !(l > 0.0 && l <= 1.0)) {
        return Err(format!("--loads: load {bad} is not in (0, 1]"));
    }
    // A given list is never empty, so `--quick` fills in only the others.
    if args.topologies.is_empty() {
        let circ = |skip| TopologySpec::Circulant { n: 16, skip };
        args.topologies = if args.quick {
            vec![TopologySpec::default(), circ(5)]
        } else {
            vec![TopologySpec::default(), circ(3), circ(5)]
        };
    }
    if args.levels.is_empty() {
        args.levels = if args.quick { vec![4, 16] } else { vec![4, 8, 12, 16] };
    }
    if args.loads.is_empty() {
        args.loads = if args.quick { vec![0.05, 0.15] } else { vec![0.05, 0.10, 0.15, 0.20, 0.25] };
    }
    Ok(args)
}

/// Per-candidate evaluation results plus batch cache hits and wall time.
type EvalOutcome = (Vec<(NetworkMetrics, bool, f64)>, u64, f64);

/// One evaluated candidate.
struct Candidate {
    job: SyntheticJob,
    metrics: NetworkMetrics,
    cache_hit: bool,
    duration_ms: f64,
    on_front: bool,
}

impl Candidate {
    fn edp(&self) -> f64 {
        self.metrics.avg_packet_latency * self.metrics.network_power
    }

    /// Aggregate delivered bandwidth: accepted throughput is per active
    /// node, so scale by the sprint level.
    fn aggregate_throughput(&self) -> f64 {
        self.metrics.accepted_throughput * self.job.level as f64
    }

    /// Network power per unit of aggregate delivered bandwidth — the
    /// energy axis of the front (W per flit/cycle ∝ J per flit).
    fn energy_per_flit(&self) -> f64 {
        self.metrics.network_power / self.aggregate_throughput()
    }
}

/// Marks the Pareto front over (packet delay min, energy per flit min,
/// aggregate bandwidth max) among non-saturated candidates. Saturated
/// points are never on the front: their latency is an artifact of the
/// drain phase.
fn mark_front(cands: &mut [Candidate]) {
    for i in 0..cands.len() {
        if cands[i].metrics.saturated || cands[i].aggregate_throughput() <= 0.0 {
            continue;
        }
        let (li, ei, ti) = (
            cands[i].metrics.avg_packet_latency,
            cands[i].energy_per_flit(),
            cands[i].aggregate_throughput(),
        );
        let dominated = cands.iter().enumerate().any(|(j, c)| {
            j != i
                && !c.metrics.saturated
                && c.aggregate_throughput() > 0.0
                && c.metrics.avg_packet_latency <= li
                && c.energy_per_flit() <= ei
                && c.aggregate_throughput() >= ti
                && (c.metrics.avg_packet_latency < li
                    || c.energy_per_flit() < ei
                    || c.aggregate_throughput() > ti)
        });
        cands[i].on_front = !dominated;
    }
}

fn build_jobs(args: &Args) -> Vec<SyntheticJob> {
    let mut jobs = Vec::new();
    for &topology in &args.topologies {
        let nodes = topology.build().expect("validated at parse time").len();
        for &level in &args.levels {
            if level == 0 || level > nodes {
                continue; // level out of range for this topology: skip, don't fail
            }
            for &rate in &args.loads {
                let i = jobs.len();
                jobs.push(SyntheticJob {
                    topology,
                    level,
                    pattern: TrafficPattern::UniformRandom,
                    rate,
                    seed: point_seed(args.seed, i),
                    baseline: SyntheticBaseline::NocSprinting,
                });
            }
        }
    }
    jobs
}

fn evaluate_service(
    socket: &std::path::Path,
    jobs: &[SyntheticJob],
) -> Result<EvalOutcome, String> {
    let mut client = noc_bench::client::connect_unix(socket)
        .map_err(|e| format!("cannot reach noc-serve at {}: {e}", socket.display()))?;
    let batch = client
        .submit("pareto_explore", jobs)
        .map_err(|e| format!("service submission failed: {e}"))?;
    let results = batch
        .metrics
        .iter()
        .zip(&batch.points)
        .map(|(m, p)| (*m, p.cache_hit, p.duration_ms))
        .collect();
    Ok((results, batch.summary.cache_hits, batch.summary.wall_ms))
}

fn evaluate_local(
    experiment: &Experiment,
    jobs: &[SyntheticJob],
) -> Result<EvalOutcome, String> {
    let start = Instant::now();
    let runner = ExperimentRunner::new().with_echo("pareto_explore");
    let detailed = runner
        .run_synthetic_jobs_detailed(experiment, jobs, None)
        .map_err(|e| format!("simulation failed: {e}"))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let results = detailed
        .into_iter()
        .map(|(m, d)| (m, d.cache_hit, d.duration.as_secs_f64() * 1e3))
        .collect();
    Ok((results, 0, wall_ms))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_usage("pareto_explore", e));
    let jobs = build_jobs(&args);
    if jobs.is_empty() {
        exit_usage("pareto_explore", "grid is empty: no level fits any requested topology");
    }
    eprintln!(
        "[{} candidates: {} topologies x {} levels x {} loads]",
        jobs.len(),
        args.topologies.len(),
        args.levels.len(),
        args.loads.len()
    );

    let outcome = match &args.service {
        Some(socket) => evaluate_service(socket, &jobs),
        None => {
            let experiment = if args.quick { Experiment::quick() } else { Experiment::paper() };
            evaluate_local(&experiment, &jobs)
        }
    };
    let (results, cache_hits, wall_ms) = match outcome {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    };

    let mut cands: Vec<Candidate> = jobs
        .iter()
        .zip(results)
        .map(|(job, (metrics, cache_hit, duration_ms))| Candidate {
            job: *job,
            metrics,
            cache_hit,
            duration_ms,
            on_front: false,
        })
        .collect();
    mark_front(&mut cands);

    if let Err(e) = write_outputs(&args, &cands, cache_hits, wall_ms) {
        eprintln!("cannot write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    print_front(&cands);
    let via = match &args.service {
        Some(s) => format!("noc-serve at {}", s.display()),
        None => "local runner".to_string(),
    };
    eprintln!(
        "[{} candidates via {}: {} on the front, {} cache hits, wall {:.2} ms; \
         artifacts in {}]",
        cands.len(),
        via,
        cands.iter().filter(|c| c.on_front).count(),
        cache_hits,
        wall_ms,
        args.out.display()
    );
}

fn print_front(cands: &[Candidate]) {
    println!(
        "{:>10} {:>6} {:>8} {:>14} {:>11} {:>10} {:>10} {:>5}",
        "topology", "level", "load", "pkt lat (cyc)", "J/flit (~)", "agg bw", "EDP", "hit"
    );
    let mut front: Vec<&Candidate> = cands.iter().filter(|c| c.on_front).collect();
    front.sort_by(|a, b| {
        a.metrics
            .avg_packet_latency
            .total_cmp(&b.metrics.avg_packet_latency)
    });
    for c in front {
        println!(
            "{:>10} {:>6} {:8.3} {:14.2} {:11.4} {:10.3} {:10.4} {:>5}",
            c.job.topology.wire_name(),
            c.job.level,
            c.job.rate,
            c.metrics.avg_packet_latency,
            c.energy_per_flit(),
            c.aggregate_throughput(),
            c.edp(),
            if c.cache_hit { "yes" } else { "no" }
        );
    }
}

fn write_outputs(
    args: &Args,
    cands: &[Candidate],
    cache_hits: u64,
    wall_ms: f64,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;

    let mut csv = std::fs::File::create(args.out.join("pareto.csv"))?;
    writeln!(
        csv,
        "topology,level,rate,seed,avg_packet_latency,avg_network_latency,\
         network_power,accepted_throughput,aggregate_throughput,\
         energy_per_flit,saturated,edp,on_front,cache_hit"
    )?;
    for c in cands {
        writeln!(
            csv,
            "{},{},{},{:#x},{},{},{},{},{},{},{},{},{},{}",
            c.job.topology.wire_name(),
            c.job.level,
            c.job.rate,
            c.job.seed,
            c.metrics.avg_packet_latency,
            c.metrics.avg_network_latency,
            c.metrics.network_power,
            c.metrics.accepted_throughput,
            c.aggregate_throughput(),
            c.energy_per_flit(),
            u8::from(c.metrics.saturated),
            c.edp(),
            u8::from(c.on_front),
            u8::from(c.cache_hit),
        )?;
    }

    let points: Vec<ManifestPoint> = cands
        .iter()
        .enumerate()
        .map(|(index, c)| ManifestPoint {
            index,
            seed: c.job.seed,
            config_hash: c.job.cache_key(),
            cache_hit: c.cache_hit,
            duration_ms: c.duration_ms,
            metrics: vec![
                ("avg_packet_latency".into(), c.metrics.avg_packet_latency),
                ("avg_network_latency".into(), c.metrics.avg_network_latency),
                ("network_power".into(), c.metrics.network_power),
                (
                    "accepted_throughput".into(),
                    c.metrics.accepted_throughput,
                ),
                ("aggregate_throughput".into(), c.aggregate_throughput()),
                ("energy_per_flit".into(), c.energy_per_flit()),
                ("saturated".into(), f64::from(u8::from(c.metrics.saturated))),
                ("edp".into(), c.edp()),
                ("on_front".into(), f64::from(u8::from(c.on_front))),
            ],
        })
        .collect();
    let manifest = RunManifest {
        figure: "pareto_explore".to_string(),
        config_hash: RunManifest::combine_hashes(cands.iter().map(|c| c.job.cache_key())),
        workers: std::thread::available_parallelism().map_or(1, usize::from),
        base_seed: args.seed,
        seed_schedule: cands.iter().map(|c| c.job.seed).collect(),
        wall_ms,
        cache_hits,
        cache_misses: cands.len() as u64 - cache_hits.min(cands.len() as u64),
        points,
        faults: Vec::new(),
    };
    std::fs::write(
        args.out.join("pareto_explore.manifest.jsonl"),
        manifest.to_jsonl(),
    )
}
