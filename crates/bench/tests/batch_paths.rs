//! The client-side batch path end to end: `FigureHarness` gives the same
//! bit-identical batch in-process and through a live `noc_serve` socket
//! (with the daemon's cache hits in its manifest); a fleet shard that
//! breaks the batch contract — refusing its sub-batch, or accepting the
//! wrong point count — costs only its own points and never stalls the
//! coordinator; a harness refuses a daemon that serves another
//! experiment; and `explore`'s header names the level it runs.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use noc_bench::client::{connect_unix, FleetClient};
use noc_bench::{served_experiment, FigureHarness};
use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::fleet::shard_of;
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{ServiceResponse, SubmitRequest};
use noc_sprinting::telemetry::RunManifest;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-batch-paths-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn jobs(count: usize) -> Vec<SyntheticJob> {
    (0..count)
        .map(|i| SyntheticJob {
            topology: TopologySpec::default(),
            level: [4, 8][i % 2],
            pattern: [TrafficPattern::UniformRandom, TrafficPattern::Tornado][i % 2],
            rate: 0.02 + 0.005 * i as f64,
            seed: 0x7300 + i as u64,
            baseline: SyntheticBaseline::NocSprinting,
        })
        .collect()
}

/// Spawns one `noc_serve --quick` daemon on a Unix socket and waits for
/// the bind.
fn spawn_daemon(socket: &Path) -> Child {
    spawn_daemon_with(socket, &["--quick"])
}

/// Spawns one `noc_serve` daemon with `extra` flags on a Unix socket and
/// waits for the bind.
fn spawn_daemon_with(socket: &Path, extra: &[&str]) -> Child {
    let child = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .args(extra)
        .args(["--workers", "2", "--socket"])
        .arg(socket)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn noc_serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

fn shutdown(socket: &Path, mut daemon: Child) {
    connect_unix(socket)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    assert!(daemon.wait().expect("daemon exits").success());
}

fn bits(metrics: &[noc_sprinting::experiment::NetworkMetrics]) -> Vec<[u64; 4]> {
    metrics
        .iter()
        .map(|m| {
            [
                m.avg_packet_latency.to_bits(),
                m.avg_network_latency.to_bits(),
                m.network_power.to_bits(),
                m.accepted_throughput.to_bits(),
            ]
        })
        .collect()
}

/// One job list through an in-process harness and through a harness on a
/// live daemon's socket: bit-identical metrics; a repeat remote run is all
/// daemon cache hits, and `finish` writes them into the manifest.
#[test]
fn harness_service_path_matches_local_and_records_daemon_hits() {
    let dir = scratch_dir("harness");
    let sock = dir.join("serve.sock");
    let daemon = spawn_daemon(&sock);
    let jobs = jobs(6);

    let (experiment, tag) = served_experiment(true);
    let local = FigureHarness::configured(experiment, tag, Some(2), None, None)
        .run(&jobs)
        .expect("local batch");
    let telemetry = dir.join("telemetry");
    let (experiment, tag) = served_experiment(true);
    let remote = FigureHarness::configured(
        experiment,
        tag,
        Some(1),
        Some(telemetry.clone()),
        Some(&sock),
    );
    let first = remote.run(&jobs).expect("remote batch");
    let second = remote.run(&jobs).expect("repeat remote batch");
    assert_eq!(bits(&first.metrics), bits(&local.metrics), "bit-identical");
    assert_eq!(bits(&second.metrics), bits(&local.metrics));
    assert_eq!(local.summary.cache_hits, 0);
    assert!(first.points.iter().all(|p| !p.cache_hit));
    assert!(
        second.points.iter().all(|p| p.cache_hit),
        "repeat is cached"
    );
    assert_eq!(second.summary.cache_hits, jobs.len() as u64);

    remote.finish("harness").expect("telemetry written");
    let text = std::fs::read_to_string(telemetry.join("harness.manifest.jsonl")).expect("manifest");
    let manifest = RunManifest::from_jsonl(&text).expect("manifest parses");
    assert_eq!(manifest.workers, 2, "the daemon's workers ran the points");
    assert_eq!(manifest.points.len(), 2 * jobs.len());
    assert_eq!(manifest.cache_hits, jobs.len() as u64);
    assert_eq!(manifest.cache_misses, jobs.len() as u64);
    let hits: Vec<bool> = manifest.points.iter().map(|p| p.cache_hit).collect();
    assert_eq!(
        hits,
        [vec![false; jobs.len()], vec![true; jobs.len()]].concat()
    );
    assert!(manifest
        .points
        .iter()
        .enumerate()
        .all(|(i, p)| p.index == i));

    drop(remote); // the daemon exits once every connection has closed
    shutdown(&sock, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fake shard on `socket`: answers the sub-batch with `reply(sub_id,
/// sub_jobs)` and then holds the connection open, as a live daemon would,
/// until the returned sender fires.
fn fake_shard(
    socket: &Path,
    reply: impl FnOnce(&str, usize) -> String + Send + 'static,
) -> (std::thread::JoinHandle<()>, mpsc::Sender<()>) {
    let listener = UnixListener::bind(socket).expect("bind fake shard");
    let (release, held) = mpsc::channel::<()>();
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("fleet connects");
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read submit");
        let Ok(noc_sprinting::service::ServiceRequest::Submit(sub)) =
            noc_sprinting::service::ServiceRequest::from_json_line(line.trim_end())
        else {
            panic!("expected a submit, got {line}");
        };
        writeln!(stream, "{}", reply(&sub.id, sub.jobs.len())).expect("write reply");
        let _ = held.recv();
    });
    (thread, release)
}

/// Runs `jobs` on a fleet of one real shard and one fake one; returns
/// every `point_failed` (index, error), the `ok` count, and the wall time.
fn run_with_fake_second_shard(
    label: &str,
    reply: impl FnOnce(&str, usize) -> String + Send + 'static,
) -> (Vec<SyntheticJob>, Vec<(usize, String)>, usize, Duration) {
    let dir = scratch_dir(label);
    let jobs = jobs(10);
    let real_sock = dir.join("s0.sock");
    let fake_sock = dir.join("s1.sock");
    let real = spawn_daemon(&real_sock);
    let (fake, release) = fake_shard(&fake_sock, reply);
    let fleet = FleetClient::new(vec![real_sock.clone(), fake_sock]);
    let req = SubmitRequest {
        id: format!("{label}-1"),
        label: label.to_string(),
        priority: 0,
        jobs: jobs.clone(),
    };
    let mut ordered = Vec::new();
    let mut lost = Vec::new();
    let started = Instant::now();
    let summary = fleet
        .run_submit(&req, &mut |ev| match ev {
            ServiceResponse::Point { point, .. } => ordered.push(point.index),
            ServiceResponse::PointFailed { index, error, .. } => {
                ordered.push(index);
                lost.push((index, error));
            }
            _ => {}
        })
        .expect("batch completes despite the broken shard");
    let elapsed = started.elapsed();
    let _ = release.send(());
    fake.join().expect("fake shard thread");
    assert_eq!(ordered, (0..jobs.len()).collect::<Vec<_>>(), "order held");
    assert_eq!(summary.failed, lost.len());
    shutdown(&real_sock, real);
    let _ = std::fs::remove_dir_all(&dir);
    (jobs, lost, summary.ok, elapsed)
}

fn shard1(jobs: &[SyntheticJob]) -> Vec<usize> {
    let owned: Vec<usize> = (0..jobs.len())
        .filter(|&i| shard_of(jobs[i].cache_key(), 2) == 1)
        .collect();
    assert!(!owned.is_empty(), "test batch must route points to shard 1");
    owned
}

/// A shard that refuses its sub-batch with an id-less `error` and keeps
/// the socket open is lost at once with that message; only its points
/// fail.
#[test]
fn shard_refusing_its_sub_batch_is_lost_without_stalling_the_fleet() {
    let (jobs, lost, ok, elapsed) = run_with_fake_second_shard("refused", |_, _| {
        r#"{"type":"error","message":"bad request: refused by test"}"#.to_string()
    });
    let owned = shard1(&jobs);
    assert!(
        elapsed < Duration::from_secs(1),
        "run_submit took {elapsed:?}"
    );
    assert_eq!(lost.iter().map(|(i, _)| *i).collect::<Vec<_>>(), owned);
    for (_, error) in &lost {
        assert!(
            error.starts_with("shard 1 lost: ") && error.ends_with("bad request: refused by test"),
            "{error}"
        );
    }
    assert_eq!(ok, jobs.len() - owned.len());
}

/// A shard whose `accepted` miscounts its sub-batch is lost: its points
/// fail, the rest of the batch completes.
#[test]
fn shard_accepting_the_wrong_count_is_lost() {
    let (jobs, lost, ok, elapsed) = run_with_fake_second_shard("miscount", |id, n| {
        format!(r#"{{"type":"accepted","id":"{id}","points":{}}}"#, n + 1)
    });
    let owned = shard1(&jobs);
    assert!(
        elapsed < Duration::from_secs(1),
        "run_submit took {elapsed:?}"
    );
    assert_eq!(lost.iter().map(|(i, _)| *i).collect::<Vec<_>>(), owned);
    for (_, error) in &lost {
        assert!(
            error.starts_with("shard 1 lost: ") && error.contains("accepted"),
            "{error}"
        );
    }
    assert_eq!(ok, jobs.len() - owned.len());
}

/// `pareto_explore --quick` against a daemon serving the paper experiment
/// exits 2 naming both code versions instead of printing the paper
/// experiment's front as its own.
#[test]
fn quick_harness_refuses_a_paper_daemon() {
    let dir = scratch_dir("mismatch");
    let sock = dir.join("paper.sock");
    let daemon = spawn_daemon_with(&sock, &[]);
    let out = Command::new(env!("CARGO_BIN_EXE_pareto_explore"))
        .args(["--quick", "--service"])
        .arg(&sock)
        .arg("--out")
        .arg(dir.join("front"))
        .output()
        .expect("run pareto_explore");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing evaluated: {stderr}");
    let version = noc_sprinting::service::code_version;
    assert!(
        stderr.contains(&version("paper")) && stderr.contains(&version("quick")),
        "names both versions: {stderr}"
    );
    assert!(!dir.join("front").exists(), "no output written");
    shutdown(&sock, daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `explore --full` runs `SpreadAggregate` at level N with every router
/// powered, and its header says so.
#[test]
fn explore_header_names_the_level_it_runs() {
    let header = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(args)
            .env_remove("NOC_SERVE_SOCKET")
            .output()
            .expect("run explore");
        assert!(out.status.success(), "explore {args:?} failed");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        stdout.lines().next().expect("header line").to_string()
    };
    assert_eq!(
        header(&["--full", "--rate", "0.05"]),
        "mesh 4x4, master 0, level 16 (0 routers gated), full mesh + XY \
         @ 0.05 flits/cyc/node, pattern UniformRandom"
    );
    assert_eq!(
        header(&["--rate", "0.05"]),
        "mesh 4x4, master 0, level 4 (12 routers gated), NoC-sprinting (CDOR + gating) \
         @ 0.05 flits/cyc/node, pattern UniformRandom"
    );
}
