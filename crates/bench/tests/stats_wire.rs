//! End-to-end observability tests against real spawned daemons: the
//! `stats` verb under concurrent submit load (snapshots are never torn,
//! counters never go backwards, and the point stream is bit-identical to
//! an unobserved run — single daemon and 2-shard fleet), fleet `stats`
//! aggregation versus a manual merge of the per-shard snapshots, the
//! `--metrics` Prometheus endpoint under the strict format checker, and
//! the `noc_top --once --json` → `telemetry_check --stats` pipeline.

#![cfg(unix)]

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use noc_bench::client::{connect_unix, FleetClient};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::metrics::{validate_prometheus, StatsSnapshot};
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::telemetry::JsonValue;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-stats-wire-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn jobs(count: usize) -> Vec<SyntheticJob> {
    (0..count)
        .map(|i| SyntheticJob {
            topology: TopologySpec::default(),
            level: [4, 8][i % 2],
            pattern: [
                TrafficPattern::UniformRandom,
                TrafficPattern::Tornado,
                TrafficPattern::Hotspot { hot_fraction: 0.3 },
            ][i % 3],
            rate: 0.02 + 0.005 * i as f64,
            seed: 0x9100 + i as u64,
            baseline: SyntheticBaseline::NocSprinting,
        })
        .collect()
}

/// Spawns one `noc_serve` daemon on a Unix socket and waits for the bind.
fn spawn_daemon(socket: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_noc_serve"));
    cmd.args(["--quick", "--workers", "2", "--socket"])
        .arg(socket)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let child = cmd.spawn().expect("spawn noc_serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

type PointBits = (usize, u64, u64, Vec<(String, u64)>);

fn bits_of(points: &[noc_sprinting::telemetry::ManifestPoint]) -> Vec<PointBits> {
    points
        .iter()
        .map(|p| {
            (
                p.index,
                p.seed,
                p.config_hash,
                p.metrics
                    .iter()
                    .map(|(n, v)| (n.clone(), v.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

/// The accounting identity every snapshot must satisfy — a torn snapshot
/// (counters read across a concurrent batch-completion) would break it.
fn assert_identity(s: &StatsSnapshot) {
    let submitted = s.metrics.counter("noc_points_submitted_total").unwrap_or(0);
    let completed = s.metrics.counter("noc_points_completed_total").unwrap_or(0);
    let failed = s.metrics.counter("noc_points_failed_total").unwrap_or(0);
    let cancelled = s.metrics.counter("noc_points_cancelled_total").unwrap_or(0);
    let in_flight = s.metrics.gauge("noc_points_in_flight").unwrap_or(0.0);
    assert!(
        in_flight >= 0.0 && in_flight.fract() == 0.0,
        "in_flight is a whole count: {in_flight}"
    );
    assert_eq!(
        submitted,
        completed + failed + cancelled + in_flight as u64,
        "snapshot accounting identity: {s:?}"
    );
    for (name, h) in &s.metrics.histograms {
        let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(h.count, bucket_total, "histogram {name} bucket accounting");
    }
}

/// Polls `stats` over fresh connections until `stop`; every snapshot must
/// satisfy the accounting identity and successive snapshots must be
/// monotone in their counters.
fn hammer_stats(socket: &Path, stop: &AtomicBool) -> usize {
    let mut polls = 0usize;
    let mut last: Option<StatsSnapshot> = None;
    loop {
        let snapshot = connect_unix(socket)
            .expect("connect for stats")
            .stats()
            .expect("stats answers mid-batch");
        assert_identity(&snapshot);
        if let Some(prev) = &last {
            for &(ref name, was) in &prev.metrics.counters {
                let now = snapshot.metrics.counter(name).unwrap_or(0);
                assert!(now >= was, "counter {name} went backwards: {was} -> {now}");
            }
            assert!(snapshot.uptime_ms >= prev.uptime_ms, "uptime monotone");
        }
        last = Some(snapshot);
        polls += 1;
        // Checked after the poll, so even an instant batch is observed.
        if stop.load(Ordering::Relaxed) {
            return polls;
        }
    }
}

/// Non-perturbation, single daemon: a batch observed by a stats-hammering
/// poller is bit-identical to the same batch unobserved, and every
/// snapshot taken mid-batch is coherent.
#[test]
fn stats_polling_does_not_perturb_a_daemon_batch() {
    let dir = scratch_dir("solo");
    let jobs = jobs(10);

    // Unobserved baseline.
    let base_sock = dir.join("base.sock");
    let mut base = spawn_daemon(&base_sock, &[]);
    let mut client = connect_unix(&base_sock).expect("connect");
    let baseline = client.submit("stats", &jobs).expect("baseline batch");
    client.shutdown().expect("shutdown");
    assert!(base.wait().expect("exit").success());

    // Observed run: a second connection hammers `stats` throughout.
    let obs_sock = dir.join("obs.sock");
    let mut daemon = spawn_daemon(&obs_sock, &[]);
    let stop = AtomicBool::new(false);
    let (observed, polls) = std::thread::scope(|s| {
        let poller = s.spawn(|| hammer_stats(&obs_sock, &stop));
        let mut client = connect_unix(&obs_sock).expect("connect");
        let observed = client.submit("stats", &jobs).expect("observed batch");
        stop.store(true, Ordering::Relaxed);
        (observed, poller.join().expect("poller"))
    });
    assert!(polls > 0, "the poller must actually have polled");
    assert_eq!(
        bits_of(&observed.points),
        bits_of(&baseline.points),
        "stats polling must not perturb the point stream"
    );
    assert_eq!(observed.summary.config_hash, baseline.summary.config_hash);

    // The settled snapshot accounts for the whole batch.
    let mut client = connect_unix(&obs_sock).expect("connect");
    let settled = client.stats().expect("final stats");
    assert_eq!(settled.engine, "noc-serve");
    assert_eq!(
        settled.metrics.counter("noc_points_completed_total"),
        Some(jobs.len() as u64)
    );
    assert_eq!(settled.metrics.gauge("noc_points_in_flight"), Some(0.0));
    assert_eq!(
        settled
            .metrics
            .histogram("noc_point_latency_us")
            .map(|h| h.count),
        Some(jobs.len() as u64)
    );
    assert!(
        settled
            .metrics
            .counter(r#"noc_requests_total{verb="stats"}"#)
            .unwrap_or(0)
            > 0
    );
    client.shutdown().expect("shutdown");
    assert!(daemon.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Non-perturbation and aggregation, 2-shard fleet: a fleet batch under a
/// concurrent fleet-stats poller is bit-identical to a single-daemon run,
/// and the fleet's aggregated snapshot equals a manual merge of the
/// per-shard snapshots — histograms merged bucket-exactly, never
/// resampled.
#[test]
fn fleet_stats_aggregate_and_do_not_perturb() {
    let dir = scratch_dir("fleet");
    let jobs = jobs(10);

    // Single-daemon baseline.
    let solo_sock = dir.join("solo.sock");
    let mut solo = spawn_daemon(&solo_sock, &[]);
    let mut client = connect_unix(&solo_sock).expect("connect");
    let baseline = client.submit("stats", &jobs).expect("solo batch");
    client.shutdown().expect("shutdown");
    assert!(solo.wait().expect("exit").success());

    // Fleet run with a concurrent aggregated-stats poller.
    let sockets = [dir.join("s0.sock"), dir.join("s1.sock")];
    let mut shards: Vec<Child> = sockets.iter().map(|s| spawn_daemon(s, &[])).collect();
    let mut fleet = FleetClient::new(sockets.to_vec());
    let poll_fleet = fleet.clone();
    let stop = AtomicBool::new(false);
    let (observed, polls) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut polls = 0usize;
            loop {
                let snapshot = poll_fleet.stats();
                assert_eq!(snapshot.engine, "noc-fleet");
                assert_identity(&snapshot);
                assert_eq!(snapshot.shards.len(), 2);
                polls += 1;
                if stop.load(Ordering::Relaxed) {
                    return polls;
                }
            }
        });
        let observed = fleet.submit("stats", &jobs).expect("fleet batch");
        stop.store(true, Ordering::Relaxed);
        (observed, poller.join().expect("poller"))
    });
    assert!(polls > 0, "the fleet poller must actually have polled");
    assert_eq!(
        bits_of(&observed.points),
        bits_of(&baseline.points),
        "fleet stats polling must not perturb the merged point stream"
    );

    // Aggregation: the fleet snapshot equals the manual shard merge.
    let aggregated = fleet.stats();
    let shard_snaps: Vec<StatsSnapshot> = sockets
        .iter()
        .map(|s| {
            connect_unix(s)
                .expect("connect")
                .stats()
                .expect("shard stats")
        })
        .collect();
    for &name in &[
        "noc_points_submitted_total",
        "noc_points_completed_total",
        "noc_cache_hits_total",
        "noc_cache_misses_total",
        "noc_batches_total",
    ] {
        let sum: u64 = shard_snaps
            .iter()
            .map(|s| s.metrics.counter(name).unwrap_or(0))
            .sum();
        assert_eq!(
            aggregated.metrics.counter(name),
            Some(sum),
            "aggregated {name} equals the shard sum"
        );
    }
    let mut merged = shard_snaps[0]
        .metrics
        .histogram("noc_point_latency_us")
        .expect("shard 0 histogram")
        .clone();
    merged.merge(
        shard_snaps[1]
            .metrics
            .histogram("noc_point_latency_us")
            .expect("shard 1 histogram"),
    );
    assert_eq!(
        aggregated.metrics.histogram("noc_point_latency_us"),
        Some(&merged),
        "fleet histogram equals the exact bucket merge of the shards"
    );
    // Coordinator-side metrics rode along.
    let routed: u64 = (0..2)
        .map(|s| {
            aggregated
                .metrics
                .counter(&format!("noc_fleet_points_routed_total{{shard=\"{s}\"}}"))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(routed, jobs.len() as u64, "every point routed to a shard");
    assert_eq!(
        aggregated.metrics.counter("noc_fleet_shard_loss_total"),
        None
    );
    assert_eq!(aggregated.metrics.gauge("noc_fleet_shards"), Some(2.0));
    assert_eq!(
        aggregated.metrics.gauge("noc_fleet_shards_alive"),
        Some(2.0)
    );
    assert!(aggregated
        .shards
        .iter()
        .all(|sh| sh.alive && sh.engine == "noc-serve"));

    fleet.shutdown().expect("shards shut down");
    for child in &mut shards {
        assert!(child.wait().expect("shard exits").success());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scrapes the `--metrics` Unix endpoint mid-lifetime and validates the
/// body under the strict exposition checker, both in-process and through
/// `telemetry_check --prom`.
#[test]
fn metrics_endpoint_serves_valid_prometheus_exposition() {
    let dir = scratch_dir("prom");
    let sock = dir.join("serve.sock");
    let metrics_sock = dir.join("metrics.sock");
    let mut daemon = spawn_daemon(
        &sock,
        &[
            "--metrics",
            metrics_sock.to_str().unwrap(),
            "--slow-factor",
            "100",
        ],
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while !metrics_sock.exists() {
        assert!(Instant::now() < deadline, "metrics endpoint never bound");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = connect_unix(&sock).expect("connect");
    let jobs = jobs(6);
    client.submit("prom", &jobs).expect("batch");

    let mut stream = std::os::unix::net::UnixStream::connect(&metrics_sock).expect("scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(
        head.contains("version=0.0.4"),
        "exposition content type: {head}"
    );
    let samples = validate_prometheus(body).expect("exposition validates");
    assert!(
        samples > 10,
        "a populated daemon exposes many samples, got {samples}"
    );
    assert!(
        body.contains("noc_points_completed_total 6"),
        "completed counter exposed"
    );
    assert!(
        body.contains(r#"noc_info{"#),
        "identity info metric exposed"
    );

    // The scraped body also passes the shipped checker binary.
    let prom_file = dir.join("scrape.prom");
    std::fs::write(&prom_file, body).expect("write scrape");
    let status = Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .arg("--prom")
        .arg(&prom_file)
        .status()
        .expect("run telemetry_check --prom");
    assert!(
        status.success(),
        "telemetry_check --prom accepts the scrape"
    );

    client.shutdown().expect("shutdown");
    assert!(daemon.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `noc_top --once --json` against a live daemon produces snapshot lines
/// (with the injected `target` field) that `telemetry_check --stats`
/// accepts across two polls.
#[test]
fn noc_top_json_feeds_telemetry_check_stats() {
    let dir = scratch_dir("top");
    let sock = dir.join("serve.sock");
    let mut daemon = spawn_daemon(&sock, &[]);
    let mut client = connect_unix(&sock).expect("connect");
    let jobs = jobs(6);
    client.submit("top", &jobs).expect("batch");

    let mut dump = String::new();
    for _ in 0..2 {
        let out = Command::new(env!("CARGO_BIN_EXE_noc_top"))
            .arg(&sock)
            .args(["--once", "--json"])
            .output()
            .expect("run noc_top");
        assert!(out.status.success(), "noc_top --once --json succeeds");
        dump.push_str(&String::from_utf8(out.stdout).expect("utf8"));
    }
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), 2, "one snapshot line per poll");
    for line in &lines {
        let v = JsonValue::parse(line).expect("snapshot line parses");
        assert_eq!(
            v.get("target").and_then(JsonValue::as_str),
            sock.to_str(),
            "snapshot carries the injected target"
        );
        let snapshot = StatsSnapshot::from_json_line(line).expect("snapshot decodes");
        assert_eq!(snapshot.engine, "noc-serve");
        assert_identity(&snapshot);
    }
    let stats_file = dir.join("stats.jsonl");
    std::fs::write(&stats_file, &dump).expect("write dump");
    let status = Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .arg("--stats")
        .arg(&stats_file)
        .status()
        .expect("run telemetry_check --stats");
    assert!(status.success(), "telemetry_check --stats accepts the dump");

    // A dead target makes --once fail.
    client.shutdown().expect("shutdown");
    assert!(daemon.wait().expect("exit").success());
    let out = Command::new(env!("CARGO_BIN_EXE_noc_top"))
        .arg(&sock)
        .args(["--once", "--json"])
        .output()
        .expect("run noc_top against dead daemon");
    assert!(!out.status.success(), "unreachable target fails --once");
    let _ = std::fs::remove_dir_all(&dir);
}
