//! `noc-fleet` — the sharded sweep-fabric coordinator.
//!
//! Speaks the same JSONL contract as `noc-serve` (see `SERVICE.md`) but
//! evaluates nothing itself: each submitted batch is fanned across a fleet
//! of `noc-serve` daemons, hash-routing every job to the shard that owns
//! its cache key. The merged response stream is bit-identical to a
//! single-daemon run — `point` events in strict original order — and a
//! shard dying mid-batch costs only its own points, which surface as
//! `point_failed` events while the rest of the batch completes.
//!
//! ```text
//! noc_fleet --shard PATH [--shard PATH ...] [--socket PATH]
//!           [--metrics ADDR-OR-PATH]
//! ```
//!
//! - `--shard PATH` (repeatable, at least one) — a shard daemon's Unix
//!   socket; shard index = position on the command line. Shards must share
//!   the experiment configuration (`--quick` vs paper) but each keeps its
//!   own cache directory — hash routing makes those directories disjoint,
//!   so they merge by concatenating segment files.
//! - `--socket PATH` — listen on a Unix domain socket (one thread per
//!   connection) instead of serving a single session on stdin/stdout.
//! - `--metrics ADDR-OR-PATH` — serve the fleet-aggregated metrics
//!   snapshot as Prometheus text exposition (v0.0.4): `:` means a TCP
//!   bind address, anything else a Unix-socket path. Each scrape polls
//!   every shard's `stats` and merges (histogram log buckets merge
//!   exactly, never resampled).
//!
//! Request handling: `submit` fans out (sub-batch ids get a `#s<shard>`
//! suffix on the shard wire); `cancel` and `shutdown` forward to every
//! shard; `ping` answers `pong` only if every shard does; `stats`
//! answers the aggregated snapshot with per-shard health attached.

use std::path::PathBuf;
use std::process::ExitCode;

use noc_bench::client::FleetClient;
use noc_bench::flags::{exit_usage, Flags};
use noc_sprinting::service::{ServiceControl, ServiceRequest, ServiceResponse};

struct Args {
    shards: Vec<PathBuf>,
    socket: Option<PathBuf>,
    metrics: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let args = Args {
        shards: flags
            .values("--shard")?
            .into_iter()
            .map(PathBuf::from)
            .collect(),
        socket: flags.value("--socket", str::parse)?,
        metrics: flags.value("--metrics", str::parse)?,
    };
    flags.finish()?;
    if args.shards.is_empty() {
        return Err("at least one --shard socket is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = parse_args().unwrap_or_else(|e| exit_usage("noc_fleet", e));
    let fleet = FleetClient::new(args.shards);
    if let Err(e) = fleet.ping() {
        eprintln!("noc_fleet: shard ping failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("noc_fleet: {} shard(s) answering", fleet.shards());
    if let Some(target) = &args.metrics {
        // Clones share the coordinator's metrics registry, so the scrape
        // thread sees the serving loop's counters.
        let scrape_fleet = fleet.clone();
        let render = move || noc_sprinting::metrics::render_prometheus(&scrape_fleet.stats());
        if !noc_bench::obs::start_metrics("noc_fleet", target, render) {
            return ExitCode::FAILURE;
        }
    }
    noc_bench::session::serve("noc_fleet", args.socket.as_deref(), &|line, emit| {
        handle_fleet_line(&fleet, line, emit)
    })
}

/// Dispatches one request line against the fleet, mirroring
/// `SweepService::handle_line` for the coordinator: `submit` fans out,
/// `cancel`/`shutdown` forward to every shard, `ping` requires every
/// shard to answer.
fn handle_fleet_line(
    fleet: &FleetClient,
    line: &str,
    emit: &mut dyn FnMut(ServiceResponse),
) -> ServiceControl {
    let req = match ServiceRequest::from_json_line(line) {
        Ok(req) => req,
        Err(e) => {
            emit(ServiceResponse::Error {
                id: None,
                message: e,
            });
            return ServiceControl::Continue;
        }
    };
    match req {
        ServiceRequest::Ping => match fleet.ping_identity() {
            Ok((code_version, uptime_ms)) => emit(ServiceResponse::Pong {
                uptime_ms,
                code_version,
                engine: "noc-fleet".to_string(),
            }),
            Err(e) => emit(ServiceResponse::Error {
                id: None,
                message: format!("shard ping failed: {e}"),
            }),
        },
        ServiceRequest::Stats => emit(ServiceResponse::Stats {
            snapshot: fleet.stats(),
        }),
        ServiceRequest::Cancel { id } => {
            let active = fleet.cancel(&id);
            emit(ServiceResponse::Cancelled { id, active });
        }
        ServiceRequest::Shutdown => {
            if let Err(e) = fleet.shutdown() {
                emit(ServiceResponse::Error {
                    id: None,
                    message: format!("shard shutdown failed: {e}"),
                });
            }
            return ServiceControl::Shutdown;
        }
        ServiceRequest::Submit(req) => {
            fleet.run_submit(&req, emit);
        }
    }
    ServiceControl::Continue
}
