//! `noc_top` — live terminal dashboard over `noc-serve` / `noc-fleet`
//! `stats` snapshots.
//!
//! Polls the `stats` wire verb (see `SERVICE.md`) on every target socket
//! and renders one row per engine: throughput (from completed-counter
//! deltas between polls), cache hit-rate, p50/p99 point latency, queue
//! depth, in-flight points and the dominant simulator pipeline stage
//! (from the `noc_sim_stage_busy_cycles` gauges) — plus per-shard health
//! rows for fleet coordinators, recent slow points, and a version-skew
//! warning when engines disagree on their code version.
//!
//! ```text
//! noc_top SOCKET [SOCKET ...] [--interval SECS] [--once] [--json]
//! ```
//!
//! - `SOCKET` — a daemon's Unix request socket (a `noc-serve --socket`
//!   or `noc-fleet --socket` path); one dashboard row per target.
//! - `--interval SECS` — refresh period (default 2, fractional ok).
//! - `--once` — poll once, print one frame, exit; status 1 if any
//!   target is unreachable. For scripting and CI smoke tests.
//! - `--json` — with `--once`: instead of the dashboard, print each
//!   snapshot as one JSON line with an injected `"target"` field — the
//!   format `telemetry_check --stats` validates.
//!
//! Polling is read-only: the `stats` verb never blocks the daemon's
//! admission or runner paths, and point event streams are bit-identical
//! with or without a dashboard attached (pinned by `stats_wire` tests).

use std::process::ExitCode;

#[cfg(unix)]
fn main() -> ExitCode {
    imp::run()
}

#[cfg(not(unix))]
fn main() -> ExitCode {
    eprintln!("noc_top: requires a Unix platform (daemon sockets are Unix domain sockets)");
    ExitCode::from(2)
}

#[cfg(unix)]
mod imp {
    use std::collections::HashMap;
    use std::path::PathBuf;
    use std::process::ExitCode;
    use std::time::{Duration, Instant};

    use noc_bench::client::connect_unix;
    use noc_bench::flags::{exit_usage, Flags};
    use noc_sprinting::metrics::StatsSnapshot;
    use noc_sprinting::telemetry::JsonValue;

    struct Args {
        targets: Vec<PathBuf>,
        interval: Duration,
        once: bool,
        json: bool,
    }

    fn parse_args() -> Result<Args, String> {
        let mut flags = Flags::from_env();
        let interval: f64 = flags.value("--interval", str::parse)?.unwrap_or(2.0);
        if !(interval.is_finite() && interval > 0.0) {
            return Err(format!("--interval requires positive seconds, got {interval}"));
        }
        let args = Args {
            interval: Duration::from_secs_f64(interval),
            once: flags.switch("--once"),
            json: flags.switch("--json"),
            targets: flags.positionals()?.into_iter().map(PathBuf::from).collect(),
        };
        if args.targets.is_empty() {
            return Err("at least one SOCKET is required".to_string());
        }
        if args.json && !args.once {
            return Err("--json requires --once (one snapshot set per invocation)".to_string());
        }
        Ok(args)
    }

    /// One poll of every target. Unreachable targets yield `Err` with the
    /// failure text; the dashboard shows them as DOWN rows.
    fn poll(targets: &[PathBuf]) -> Vec<Result<StatsSnapshot, String>> {
        targets
            .iter()
            .map(|t| {
                connect_unix(t)
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.stats().map_err(|e| e.to_string()))
            })
            .collect()
    }

    pub fn run() -> ExitCode {
        let args = parse_args().unwrap_or_else(|e| exit_usage("noc_top", e));
        if args.json {
            return run_json(&args);
        }
        // Previous (completed counter, poll instant) per target, for the
        // throughput column.
        let mut prev: HashMap<usize, (u64, Instant)> = HashMap::new();
        loop {
            let polled = poll(&args.targets);
            let now = Instant::now();
            if !args.once {
                // ANSI clear + home, like top(1).
                print!("\x1b[2J\x1b[H");
            }
            let any_down = render_frame(&args.targets, &polled, &mut prev, now);
            if args.once {
                return if any_down {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                };
            }
            std::thread::sleep(args.interval);
        }
    }

    fn run_json(args: &Args) -> ExitCode {
        let mut any_down = false;
        for (target, polled) in args.targets.iter().zip(poll(&args.targets)) {
            match polled {
                Ok(snapshot) => {
                    // Inject the target so multi-engine dumps stay
                    // attributable; parsers ignore unknown fields.
                    let mut obj = match snapshot.to_json() {
                        JsonValue::Obj(fields) => fields,
                        other => {
                            vec![("snapshot".to_string(), other)]
                        }
                    };
                    obj.insert(
                        0,
                        (
                            "target".to_string(),
                            JsonValue::Str(target.display().to_string()),
                        ),
                    );
                    println!("{}", JsonValue::Obj(obj).to_json());
                }
                Err(e) => {
                    any_down = true;
                    eprintln!("noc_top: {}: {e}", target.display());
                }
            }
        }
        if any_down {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }

    fn fmt_duration_ms(ms: f64) -> String {
        if ms >= 60_000.0 {
            format!("{:.1}m", ms / 60_000.0)
        } else if ms >= 1_000.0 {
            format!("{:.1}s", ms / 1_000.0)
        } else {
            format!("{ms:.0}ms")
        }
    }

    /// The dominant simulator pipeline stage — the one with the most busy
    /// cycles across every run this engine has executed, read from the
    /// `noc_sim_stage_busy_cycles{stage="..."}` gauges. `—` before any run.
    fn dominant_stage(s: &StatsSnapshot) -> String {
        const STAGES: [&str; 6] = ["credit", "link", "inject", "va", "sa", "eject"];
        let mut best: Option<(&str, f64)> = None;
        for stage in STAGES {
            let v = s
                .metrics
                .gauge(&format!("noc_sim_stage_busy_cycles{{stage=\"{stage}\"}}"))
                .unwrap_or(0.0);
            if v > 0.0 && best.is_none_or(|(_, b)| v > b) {
                best = Some((stage, v));
            }
        }
        best.map_or_else(|| "—".to_string(), |(stage, _)| stage.to_string())
    }

    /// Renders one dashboard frame; returns whether any target was down.
    fn render_frame(
        targets: &[PathBuf],
        polled: &[Result<StatsSnapshot, String>],
        prev: &mut HashMap<usize, (u64, Instant)>,
        now: Instant,
    ) -> bool {
        let mut any_down = false;
        println!(
            "{:<28} {:>9} {:>8} {:>8} {:>8} {:>6} {:>8} {:>8} {:>6} {:>8} {:>5} {:>6}",
            "TARGET", "ENGINE", "UPTIME", "PTS", "PTS/S", "HIT%", "P50", "P99", "QUEUE", "INFLIGHT",
            "SLOW", "STAGE"
        );
        let mut versions: Vec<String> = Vec::new();
        let mut slow_lines: Vec<String> = Vec::new();
        for (i, (target, polled)) in targets.iter().zip(polled).enumerate() {
            let name = target
                .file_name()
                .map_or_else(|| target.display().to_string(), |n| n.to_string_lossy().into());
            let s = match polled {
                Ok(s) => s,
                Err(e) => {
                    any_down = true;
                    prev.remove(&i);
                    println!("{name:<28} {:>9} — {e}", "DOWN");
                    continue;
                }
            };
            if !s.code_version.is_empty() {
                versions.push(s.code_version.clone());
            }
            for sh in &s.shards {
                if sh.alive && !sh.code_version.is_empty() {
                    versions.push(sh.code_version.clone());
                }
            }
            let completed = s.metrics.counter("noc_points_completed_total").unwrap_or(0);
            let rate = match prev.insert(i, (completed, now)) {
                Some((was, at)) if now > at => {
                    let dt = now.duration_since(at).as_secs_f64();
                    format!("{:.1}", completed.saturating_sub(was) as f64 / dt)
                }
                _ => "—".to_string(),
            };
            let hits = s.metrics.counter("noc_cache_hits_total").unwrap_or(0);
            let misses = s.metrics.counter("noc_cache_misses_total").unwrap_or(0);
            let hit_pct = if hits + misses > 0 {
                format!("{:.1}", 100.0 * hits as f64 / (hits + misses) as f64)
            } else {
                "—".to_string()
            };
            let (p50, p99) = s.metrics.histogram("noc_point_latency_us").map_or_else(
                || ("—".to_string(), "—".to_string()),
                |h| {
                    (
                        fmt_duration_ms(h.quantile(0.5) as f64 / 1e3),
                        fmt_duration_ms(h.quantile(0.99) as f64 / 1e3),
                    )
                },
            );
            let queue = s.metrics.gauge("noc_queue_depth").unwrap_or(0.0);
            let in_flight = s.metrics.gauge("noc_points_in_flight").unwrap_or(0.0);
            let slow = s.metrics.counter("noc_slow_points_total").unwrap_or(0);
            println!(
                "{:<28} {:>9} {:>8} {:>8} {:>8} {:>6} {:>8} {:>8} {:>6} {:>8} {:>5} {:>6}",
                name,
                s.engine,
                fmt_duration_ms(s.uptime_ms),
                completed,
                rate,
                hit_pct,
                p50,
                p99,
                queue as u64,
                in_flight as u64,
                slow,
                dominant_stage(s),
            );
            for sh in &s.shards {
                let status = if sh.alive { "up" } else { "DOWN" };
                println!(
                    "  shard {:<3} {:<40} {:>6} {:>9} {:>8}",
                    sh.shard,
                    sh.socket,
                    status,
                    sh.engine,
                    fmt_duration_ms(sh.uptime_ms),
                );
                any_down |= !sh.alive;
            }
            for sp in &s.slow_points {
                slow_lines.push(format!(
                    "  {name}: config {:#018x} seed {:#x} took {} ({:.1}× the mean {})",
                    sp.config_hash,
                    sp.seed,
                    fmt_duration_ms(sp.duration_ms),
                    sp.factor,
                    fmt_duration_ms(sp.mean_ms),
                ));
            }
        }
        versions.dedup();
        versions.sort();
        versions.dedup();
        if versions.len() > 1 {
            println!("\nwarning: version skew across engines: {}", versions.join(", "));
        }
        if !slow_lines.is_empty() {
            println!("\nslow points (most recent last):");
            for line in &slow_lines {
                println!("{line}");
            }
        }
        any_down
    }
}
