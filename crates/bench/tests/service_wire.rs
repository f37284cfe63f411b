//! End-to-end wire test against the real `noc_serve` binary: spawn the
//! daemon on stdio, submit a sweep, kill it, spawn a second daemon on the
//! same cache directory, resubmit — the second batch must be 100% cache
//! hits with bit-identical result payloads, and the cache directory must
//! validate under `telemetry_check`. This is the executable form of the
//! SERVICE.md quickstart.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use noc_sprinting::service::{BatchSummary, ServiceResponse};
use noc_sprinting::telemetry::ManifestPoint;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-serve-wire-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spawn_daemon(cache: &std::path::Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .args(["--quick", "--workers", "2", "--cache"])
        .arg(cache)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn noc_serve")
}

const SUBMIT: &str = concat!(
    r#"{"type":"submit","id":"wire","label":"wire","jobs":["#,
    r#"{"level":4,"pattern":"uniform","rate":0.03,"seed":"0x65","baseline":"noc_sprinting"},"#,
    r#"{"level":4,"pattern":"transpose","rate":0.05,"seed":"0x66","baseline":"noc_sprinting"},"#,
    r#"{"level":8,"pattern":"tornado","rate":0.04,"seed":"0x67","baseline":"noc_sprinting"},"#,
    r#"{"level":8,"pattern":"hotspot","hot_fraction":0.3,"rate":0.06,"seed":"0x68","baseline":"spread_aggregate"}"#,
    r#"]}"#
);

/// Drives one daemon lifetime: ping, submit, shutdown; returns the
/// batch's ordered points and summary.
fn one_session(cache: &std::path::Path) -> (Vec<ManifestPoint>, BatchSummary) {
    let mut child = spawn_daemon(cache);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    writeln!(stdin, "{{\"type\":\"ping\"}}").unwrap();
    writeln!(stdin, "{SUBMIT}").unwrap();
    writeln!(stdin, "{{\"type\":\"shutdown\"}}").unwrap();
    drop(stdin);
    let mut points = Vec::new();
    let mut summary = None;
    let mut got_pong = false;
    let mut progress_seen = 0usize;
    for line in stdout.lines() {
        let line = line.expect("daemon stdout");
        match ServiceResponse::from_json_line(&line).expect("well-formed event") {
            ServiceResponse::Pong { .. } => got_pong = true,
            ServiceResponse::Accepted { id, points } => {
                assert_eq!(id, "wire");
                assert_eq!(points, 4);
            }
            ServiceResponse::Progress {
                completed, total, ..
            } => {
                assert!(completed >= 1 && completed <= total);
                progress_seen += 1;
            }
            ServiceResponse::Point { id, point } => {
                assert_eq!(id, "wire");
                assert_eq!(point.index, points.len(), "strict index order");
                points.push(point);
            }
            ServiceResponse::Done { id, summary: s } => {
                assert_eq!(id, "wire");
                summary = Some(s);
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
    assert!(got_pong, "ping answered");
    assert_eq!(progress_seen, 4, "one progress event per completion");
    (points, summary.expect("done event closes the batch"))
}

#[test]
fn second_daemon_serves_the_sweep_entirely_from_cache() {
    let cache = scratch_dir("restart");
    let (first, s1) = one_session(&cache);
    assert_eq!(s1.points, 4);
    assert_eq!(s1.ok, 4);
    assert_eq!(s1.cache_hits, 0, "fresh cache simulates everything");
    assert!(first.iter().all(|p| !p.cache_hit));

    let (second, s2) = one_session(&cache);
    assert_eq!(
        s2.cache_hits, 4,
        "acceptance: cache-hit count equals point count"
    );
    assert_eq!(s2.cache_misses, 0);
    assert_eq!(s1.config_hash, s2.config_hash);

    // Bit-identical result payloads; only execution metadata (cache_hit,
    // duration) may differ — exactly what SERVICE.md promises.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.config_hash, b.config_hash);
        assert!(b.cache_hit);
        for ((na, va), (nb, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits(), "metric {na} not bit-identical");
        }
    }

    // The shut-down daemons compacted: a single segment that passes
    // telemetry_check's cache validation.
    let status = Command::new(env!("CARGO_BIN_EXE_telemetry_check"))
        .arg(&cache)
        .status()
        .expect("run telemetry_check");
    assert!(status.success(), "telemetry_check validates the cache dir");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn malformed_and_failing_requests_keep_the_daemon_alive() {
    let cache = scratch_dir("errors");
    let mut child = spawn_daemon(&cache);
    let mut stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    // Garbage, then a batch whose second job fails (transpose needs a
    // square active set), then proof of life.
    writeln!(stdin, "this is not json").unwrap();
    writeln!(
        stdin,
        r#"{{"type":"submit","id":"half","jobs":[{{"level":4,"pattern":"uniform","rate":0.03,"seed":"0x1","baseline":"noc_sprinting"}},{{"level":2,"pattern":"transpose","rate":0.05,"seed":"0x2","baseline":"noc_sprinting"}}]}}"#
    )
    .unwrap();
    writeln!(stdin, "{{\"type\":\"ping\"}}").unwrap();
    writeln!(stdin, "{{\"type\":\"shutdown\"}}").unwrap();
    drop(stdin);
    let mut saw_error = false;
    let mut saw_failed = false;
    let mut saw_point = false;
    let mut saw_pong = false;
    let mut done = None;
    for line in stdout.lines() {
        match ServiceResponse::from_json_line(&line.unwrap()).unwrap() {
            ServiceResponse::Error { id, .. } => {
                assert_eq!(id, None, "parse errors have no request id");
                saw_error = true;
            }
            ServiceResponse::PointFailed {
                id, index, error, ..
            } => {
                assert_eq!(id, "half");
                assert_eq!(index, 1);
                assert!(!error.is_empty());
                saw_failed = true;
            }
            ServiceResponse::Point { point, .. } => {
                assert_eq!(point.index, 0);
                saw_point = true;
            }
            ServiceResponse::Pong { .. } => saw_pong = true,
            ServiceResponse::Done { summary, .. } => done = Some(summary),
            ServiceResponse::Accepted { .. } | ServiceResponse::Progress { .. } => {}
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert!(child.wait().expect("daemon exits").success());
    assert!(saw_error, "malformed line produced an error event");
    assert!(saw_point, "healthy point still evaluated");
    assert!(saw_failed, "failing point surfaced as point_failed");
    assert!(saw_pong, "daemon alive after both");
    let done = done.expect("batch closed");
    assert_eq!(done.ok, 1);
    assert_eq!(done.failed, 1);
    let _ = std::fs::remove_dir_all(&cache);
}

/// Requests with a line that is not UTF-8 in the middle: the line gets an
/// `error` event without an id and the session serves the next request.
const NON_UTF8_SESSION: &[u8] =
    b"{\"type\":\"ping\"}\n\xff\xfe\n{\"type\":\"ping\"}\n{\"type\":\"shutdown\"}\n";

/// The event types of a session's output, in order.
fn event_types(out: &[u8]) -> Vec<&'static str> {
    String::from_utf8_lossy(out)
        .lines()
        .map(
            |l| match ServiceResponse::from_json_line(l).expect("well-formed event") {
                ServiceResponse::Pong { .. } => "pong",
                ServiceResponse::Error { id: None, .. } => "error",
                other => panic!("unexpected event: {other:?}"),
            },
        )
        .collect()
}

#[test]
fn a_non_utf8_line_gets_an_error_on_stdio() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .arg("--quick")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn noc_serve");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(NON_UTF8_SESSION).unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "exit status {:?}", out.status);
    assert_eq!(event_types(&out.stdout), ["pong", "error", "pong"]);
}

#[cfg(unix)]
#[test]
fn a_non_utf8_line_gets_an_error_on_a_socket() {
    use std::io::Read;
    let dir = scratch_dir("utf8");
    let sock = dir.join("d.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_noc_serve"))
        .arg("--quick")
        .arg("--socket")
        .arg(&sock)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn noc_serve");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !sock.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never bound {sock:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut stream = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    stream.write_all(NON_UTF8_SESSION).unwrap();
    // The shutdown closes the connection after its last event.
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    assert_eq!(event_types(&out), ["pong", "error", "pong"]);
    assert!(child.wait().expect("daemon exits").success());
    let _ = std::fs::remove_dir_all(&dir);
}
