//! `noc-serve` — the long-lived sweep-evaluation daemon.
//!
//! Serves operating-point batches (JSONL requests, streamed JSONL
//! responses; contract in `SERVICE.md`) over stdin/stdout or a Unix domain
//! socket, backed by a persistent result cache so repeated sweeps skip
//! already-simulated points bit-identically.
//!
//! ```text
//! noc_serve [--cache DIR] [--socket PATH] [--workers N] [--queue-limit N]
//!           [--metrics ADDR-OR-PATH] [--slow-factor F]
//!           [--quick] [--compact] [--print-schema]
//! ```
//!
//! - `--cache DIR` — persist results under `DIR` as append-only
//!   `seg-*.cache.jsonl` segments (created if missing); without it the
//!   cache lives only in this process.
//! - `--socket PATH` — listen on a Unix domain socket (one thread per
//!   connection) instead of serving a single session on stdin/stdout.
//! - `--workers N` — runner thread count (default: hardware threads;
//!   results are bit-identical at any value).
//! - `--queue-limit N` — backpressure: reject a submit with a `busy` event
//!   when admitting it would push the pending-point count past `N`
//!   (request `priority` shifts the effective limit; default: unlimited).
//! - `--metrics ADDR-OR-PATH` — additionally serve the live metrics
//!   snapshot as Prometheus text exposition (v0.0.4): a value containing
//!   `:` is a TCP bind address (`127.0.0.1:0` picks a free port, printed
//!   on stderr), anything else a Unix-socket path. Scrapes never block
//!   the serving loop. The same data answers the `stats` wire verb.
//! - `--slow-factor F` — flag a point as *slow* (recorded in the `stats`
//!   snapshot) when its uncached runtime exceeds `F×` the running mean
//!   (default 8, must be positive).
//! - `--quick` — serve the reduced `Experiment::quick()` configuration
//!   instead of the paper's (separate cache version stamps keep the two
//!   from mixing).
//! - `--compact` — rewrite the cache directory to a single deduplicated
//!   segment and exit.
//! - `--print-schema` — print the generated wire-schema tables embedded in
//!   SERVICE.md and exit (used to regenerate the doc after type changes).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use noc_bench::flags::{exit_usage, Flags};
use noc_bench::served_experiment;
use noc_sprinting::runner::ExperimentRunner;
use noc_sprinting::service::{code_version, schema_reference, DiskResultCache, SweepService};

struct Args {
    cache: Option<PathBuf>,
    socket: Option<PathBuf>,
    workers: Option<usize>,
    queue_limit: Option<usize>,
    metrics: Option<String>,
    slow_factor: Option<f64>,
    quick: bool,
    compact: bool,
    print_schema: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let args = Args {
        cache: flags.value("--cache", str::parse)?,
        socket: flags.value("--socket", str::parse)?,
        workers: flags.value("--workers", str::parse)?,
        queue_limit: flags.value("--queue-limit", str::parse)?,
        metrics: flags.value("--metrics", str::parse)?,
        slow_factor: flags.value("--slow-factor", str::parse)?,
        quick: flags.switch("--quick"),
        compact: flags.switch("--compact"),
        print_schema: flags.switch("--print-schema"),
    };
    flags.finish()?;
    for (name, value) in [
        ("--workers", args.workers),
        ("--queue-limit", args.queue_limit),
    ] {
        if value == Some(0) {
            return Err(format!("{name} requires a positive integer, got \"0\""));
        }
    }
    if let Some(f) = args.slow_factor.filter(|f| !(f.is_finite() && *f > 0.0)) {
        return Err(format!("--slow-factor requires a positive number, got {f}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|e| exit_usage("noc_serve", e));
    if args.print_schema {
        println!("{}", schema_reference());
        return ExitCode::SUCCESS;
    }
    let (experiment, tag) = served_experiment(args.quick);
    let version = code_version(tag);
    let cache = match &args.cache {
        Some(dir) => match DiskResultCache::open(dir, &version) {
            Ok((cache, report)) => {
                for w in &report.warnings {
                    eprintln!("noc_serve: cache warning: {w}");
                }
                eprintln!(
                    "noc_serve: cache {} — {} segment(s), {} loaded, {} stale, {} corrupt",
                    dir.display(),
                    report.segments,
                    report.loaded,
                    report.stale,
                    report.corrupt
                );
                cache
            }
            Err(e) => {
                eprintln!("noc_serve: cannot open cache {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => DiskResultCache::in_memory(&version),
    };
    if args.compact {
        return match cache.compact() {
            Ok(live) => {
                eprintln!("noc_serve: compacted to {live} record(s)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("noc_serve: compaction failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let runner = match args.workers {
        Some(w) => ExperimentRunner::with_workers(w),
        None => ExperimentRunner::new(),
    };
    let mut service = SweepService::new(experiment, runner, cache);
    if let Some(limit) = args.queue_limit {
        service = service.with_queue_limit(limit);
    }
    if let Some(factor) = args.slow_factor {
        service = service.with_slow_point_factor(factor);
    }
    // The metrics listener outlives this scope's borrows (detached
    // thread), so the service lives behind an Arc.
    let service = Arc::new(service);
    if let Some(target) = &args.metrics {
        let svc = Arc::clone(&service);
        let render = move || noc_sprinting::metrics::render_prometheus(&svc.stats_snapshot());
        if !noc_bench::obs::start_metrics("noc_serve", target, render) {
            return ExitCode::FAILURE;
        }
    }
    let status = noc_bench::session::serve("noc_serve", args.socket.as_deref(), &|line, emit| {
        service.handle_line(line, emit)
    });
    // Leave the directory tidy for the next daemon: fold this lifetime's
    // append segment into the compacted set.
    if args.cache.is_some() {
        if let Err(e) = service.cache().compact() {
            eprintln!("noc_serve: final compaction failed: {e}");
        }
    }
    status
}
