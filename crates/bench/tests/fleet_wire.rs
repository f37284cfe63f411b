//! End-to-end tests for the sharded sweep fabric against real spawned
//! `noc_serve` daemons: a batch fanned across two shards must be
//! bit-identical (hex-f64 bit patterns) and strictly ordered versus the
//! same batch on a single daemon; the shard cache directories must be
//! disjoint under the routing rule (`telemetry_check --fleet`) and merge
//! by concatenation into a directory a single daemon serves entirely from
//! cache; and a shard dying mid-batch must surface its points as
//! `point_failed` without aborting the rest. Backpressure rides the same
//! harness via `--queue-limit`.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use noc_bench::client::{FleetClient, ServiceClientError};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::fleet::shard_of;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::ServiceResponse;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-fleet-wire-{label}-{}", std::process::id()));
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
            seed: 0x5000 + i as u64,
            baseline: SyntheticBaseline::NocSprinting,
        })
        .collect()
}

/// Spawns one `noc_serve` shard on a Unix socket and waits for it to bind.
fn spawn_shard(socket: &Path, cache: Option<&Path>, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_noc_serve"));
    cmd.args(["--quick", "--workers", "2", "--socket"])
        .arg(socket)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(dir) = cache {
        cmd.arg("--cache").arg(dir);
    }
    let child = cmd.spawn().expect("spawn noc_serve shard");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "shard never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

type PointBits = (usize, u64, Vec<(String, u64)>);

fn bits_of(points: &[noc_sprinting::telemetry::ManifestPoint]) -> Vec<PointBits> {
    points
        .iter()
        .map(|p| {
            (
                p.index,
                p.config_hash,
                p.metrics
                    .iter()
                    .map(|(n, v)| (n.clone(), v.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

/// The tentpole acceptance test: the same batch through a 2-shard fleet
/// and through a single daemon, bit-identical and strictly ordered; shard
/// caches disjoint, merged by concatenation into a 100%-hit single-daemon
/// cache.
#[test]
fn two_shard_fleet_is_bit_identical_to_one_daemon() {
    let dir = scratch_dir("identity");
    let jobs = jobs(10);
    // Fleet run: two shards, each with its own cache directory.
    let shard_sockets = [dir.join("s0.sock"), dir.join("s1.sock")];
    let shard_caches = [dir.join("fleet/shard-0"), dir.join("fleet/shard-1")];
    let mut shards: Vec<Child> = shard_sockets
        .iter()
        .zip(&shard_caches)
        .map(|(sock, cache)| spawn_shard(sock, Some(cache), &[]))
        .collect();
    let mut fleet = FleetClient::new(shard_sockets.to_vec());
    fleet.ping().expect("both shards answer");
    let fleet_run = fleet.submit("identity", &jobs).expect("fleet batch");
    assert_eq!(fleet_run.summary.ok, jobs.len());
    assert_eq!(fleet_run.summary.failed, 0);
    // Strict original order, both shards actually used.
    let indices: Vec<usize> = fleet_run.points.iter().map(|p| p.index).collect();
    assert_eq!(indices, (0..jobs.len()).collect::<Vec<_>>());
    for shard in 0..2 {
        assert!(
            jobs.iter().any(|j| shard_of(j.cache_key(), 2) == shard),
            "test batch must exercise shard {shard}"
        );
    }
    fleet.shutdown().expect("shards shut down");
    for child in &mut shards {
        assert!(child.wait().expect("shard exits").success());
    }

    // Single-daemon run of the identical batch.
    let solo_sock = dir.join("solo.sock");
    let mut solo = spawn_shard(&solo_sock, None, &[]);
    let mut client = noc_bench::client::connect_unix(&solo_sock).expect("connect");
    let solo_run = client.submit("identity", &jobs).expect("solo batch");
    client.shutdown().expect("solo shutdown");
    assert!(solo.wait().expect("solo exits").success());

    // Bit-identity: index, cache key, and every metric's exact bits.
    assert_eq!(bits_of(&fleet_run.points), bits_of(&solo_run.points));
    assert_eq!(fleet_run.summary.config_hash, solo_run.summary.config_hash);

    // The shard caches validate as a fleet layout: disjoint key ownership.
    let status = Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .arg("--fleet")
        .arg(dir.join("fleet"))
        .status()
        .expect("run telemetry_check --fleet");
    assert!(status.success(), "fleet cache layout validates");

    // Merge by concatenation: copy both shards' segments into one
    // directory (renumbered to keep names unique), compact, and a single
    // daemon over the merged cache serves the whole batch from cache.
    let merged = dir.join("merged");
    std::fs::create_dir_all(&merged).unwrap();
    let mut next = 0usize;
    for cache in &shard_caches {
        let mut segs: Vec<_> = std::fs::read_dir(cache)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".cache.jsonl")))
            .collect();
        segs.sort();
        for seg in segs {
            std::fs::copy(&seg, merged.join(format!("seg-{next:06}.cache.jsonl"))).unwrap();
            next += 1;
        }
    }
    let status = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .args(["--quick", "--compact", "--cache"])
        .arg(&merged)
        .status()
        .expect("compact merged cache");
    assert!(status.success(), "merged cache compacts");
    let merged_sock = dir.join("merged.sock");
    let mut daemon = spawn_shard(&merged_sock, Some(&merged), &[]);
    let mut client = noc_bench::client::connect_unix(&merged_sock).expect("connect");
    let cached_run = client.submit("identity", &jobs).expect("merged batch");
    assert_eq!(
        cached_run.summary.cache_hits as usize,
        jobs.len(),
        "merged shard caches answer every point"
    );
    assert_eq!(bits_of(&cached_run.points), bits_of(&solo_run.points));
    client.shutdown().expect("merged shutdown");
    assert!(daemon.wait().expect("merged exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard that dies mid-batch costs only its own points: they surface as
/// `point_failed` with a `shard N lost` error, everything else completes,
/// and the merged summary accounts for every point.
#[test]
fn shard_death_mid_batch_fails_only_its_points() {
    let dir = scratch_dir("death");
    let jobs = jobs(10);
    // Shard 0 is real; shard 1 is a fake that accepts the sub-batch and
    // then drops the connection — a deterministic mid-batch death.
    let real_sock = dir.join("s0.sock");
    let fake_sock = dir.join("s1.sock");
    let mut real = spawn_shard(&real_sock, None, &[]);
    let listener = UnixListener::bind(&fake_sock).expect("bind fake shard");
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("fleet connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read submit");
        let submit_id = line
            .split("\"id\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("submit carries an id")
            .to_string();
        let mut stream = stream;
        writeln!(
            stream,
            r#"{{"type":"accepted","id":"{submit_id}","points":0}}"#
        )
        .expect("write accepted");
        // Dropping both halves closes the stream: the shard is "dead".
    });
    let fleet = FleetClient::new(vec![real_sock.clone(), fake_sock]);
    let req = noc_sprinting::service::SubmitRequest {
        id: "death-1".to_string(),
        label: "death".to_string(),
        priority: 0,
        jobs: jobs.clone(),
    };
    let mut ordered = Vec::new();
    let mut lost: Vec<(usize, String)> = Vec::new();
    let mut ok = 0usize;
    let summary = fleet
        .run_submit(&req, &mut |ev| match ev {
            ServiceResponse::Point { point, .. } => {
                ordered.push(point.index);
                ok += 1;
            }
            ServiceResponse::PointFailed { index, error, .. } => {
                ordered.push(index);
                lost.push((index, error));
            }
            _ => {}
        })
        .expect("batch completes despite the dead shard");
    fake.join().expect("fake shard thread");
    assert_eq!(ordered, (0..jobs.len()).collect::<Vec<_>>(), "order held");
    // Exactly shard 1's points were lost, with the telltale error.
    let shard1: Vec<usize> = (0..jobs.len())
        .filter(|&i| shard_of(jobs[i].cache_key(), 2) == 1)
        .collect();
    assert!(
        !shard1.is_empty(),
        "test batch must route points to shard 1"
    );
    assert_eq!(lost.iter().map(|&(i, _)| i).collect::<Vec<_>>(), shard1);
    assert!(
        lost.iter().all(|(_, e)| e.starts_with("shard 1 lost:")),
        "lost points name the dead shard: {lost:?}"
    );
    assert_eq!(summary.points, jobs.len());
    assert_eq!(summary.ok, jobs.len() - shard1.len());
    assert_eq!(summary.failed, shard1.len());
    // The surviving shard still answers.
    let mut client = noc_bench::client::connect_unix(&real_sock).expect("connect");
    client.ping().expect("real shard alive");
    client.shutdown().expect("shutdown");
    assert!(real.wait().expect("real exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Backpressure through the fleet: one shard with a tiny `--queue-limit`
/// makes an oversized batch busy fleet-wide (no partial admission), while
/// a high-priority submit still goes through.
#[test]
fn shard_backpressure_makes_the_fleet_busy() {
    let dir = scratch_dir("busy");
    let jobs = jobs(10);
    let sockets = [dir.join("s0.sock"), dir.join("s1.sock")];
    // Both shards own some of the batch; limit 1 rejects either sub-batch.
    let mut shards: Vec<Child> = sockets
        .iter()
        .map(|sock| spawn_shard(sock, None, &["--queue-limit", "1"]))
        .collect();
    let mut fleet = FleetClient::new(sockets.to_vec());
    match fleet.submit("busy", &jobs) {
        Err(ServiceClientError::Busy { limit, .. }) => assert_eq!(limit, 1),
        other => panic!("expected busy, got {other:?}"),
    }
    // High priority bypasses the per-shard limits and runs to completion.
    let req = noc_sprinting::service::SubmitRequest {
        id: "busy-hi".to_string(),
        label: "busy".to_string(),
        priority: 1,
        jobs: jobs.clone(),
    };
    let summary = fleet
        .run_submit(&req, &mut |_| {})
        .expect("priority bypasses the limit");
    assert_eq!(summary.ok, jobs.len());
    fleet.shutdown().expect("shards shut down");
    for child in &mut shards {
        assert!(child.wait().expect("shard exits").success());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `noc_fleet` binary end to end: two `noc_serve --socket` shards
/// behind `noc_fleet --shard A --shard=B --socket S`. A batch through the
/// coordinator's socket must match, bit for bit, the same batch through
/// the in-process `FleetClient`, and one `shutdown` sent to the
/// coordinator must end all three processes cleanly.
#[test]
fn fleet_binary_matches_in_process_fleet_and_shuts_down_shards() {
    let dir = scratch_dir("binary");
    let jobs = jobs(10);
    let shard_sockets = [dir.join("s0.sock"), dir.join("s1.sock")];
    let mut shards: Vec<Child> = shard_sockets
        .iter()
        .map(|sock| spawn_shard(sock, None, &[]))
        .collect();
    let fleet_sock = dir.join("fleet.sock");
    let mut coordinator = Command::new(env!("CARGO_BIN_EXE_noc_fleet"))
        .arg("--shard")
        .arg(&shard_sockets[0])
        .arg(format!("--shard={}", shard_sockets[1].display()))
        .arg("--socket")
        .arg(&fleet_sock)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn noc_fleet");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !fleet_sock.exists() {
        assert!(
            Instant::now() < deadline,
            "coordinator never bound {fleet_sock:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut client = noc_bench::client::connect_unix(&fleet_sock).expect("connect");
    let via_binary = client.submit("binary", &jobs).expect("batch via noc_fleet");
    let mut fleet = FleetClient::new(shard_sockets.to_vec());
    let in_process = fleet
        .submit("binary", &jobs)
        .expect("in-process fleet batch");
    assert_eq!(bits_of(&via_binary.points), bits_of(&in_process.points));
    assert_eq!(
        via_binary.summary.config_hash,
        in_process.summary.config_hash
    );
    assert_eq!(via_binary.summary.ok, jobs.len());

    client.shutdown().expect("shutdown via the coordinator");
    assert!(coordinator.wait().expect("coordinator exits").success());
    for child in &mut shards {
        assert!(child.wait().expect("shard exits").success());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
