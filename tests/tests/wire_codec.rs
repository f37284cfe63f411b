//! The wire codec's decode rule, its robustness to hostile input, and
//! round trips of generated messages.
//!
//! - Decode rule: a present field of the wrong kind is an error naming the
//!   field; a missing required field is an error; absent optional fields
//!   take their defaults (the golden-line tests pin those).
//! - Hostile input: arbitrary, truncated and byte-mutated lines fed to every
//!   outside-facing parser — the Prometheus exposition validator included —
//!   return `Err` or a value and never panic; so does opening a cache
//!   directory of arbitrary or mutated segment files.
//! - Round trips: `decode(encode(x)) == x` for generated values of every
//!   message, with every `f64` compared by bit pattern (the decoded value
//!   must re-encode to the same line).
//! - One grammar: on generated and byte-mutated lines of every message,
//!   a decoder fails whenever `JsonValue::parse` does, with the parser's
//!   error (a syntax error wins over field errors), and decodes a line
//!   and the document parser's re-serialization of it to the same result;
//!   unknown keys, nested up to the depth bound, change nothing, and of
//!   two equal keys the first counts.

use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::NetworkMetrics;
use noc_sprinting::metrics::{
    validate_prometheus, HistogramSnapshot, MetricsSnapshot, ShardHealth, SlowPoint, StatsSnapshot,
};
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{
    code_version, BatchSummary, CacheRecord, DiskResultCache, ServiceControl, ServiceRequest,
    ServiceResponse, SubmitRequest, SweepService, MAX_CACHE_LINE,
};
use noc_sprinting::telemetry::{
    FaultRecord, JsonValue, ManifestPoint, RunManifest, MAX_JSON_DEPTH,
};
use noc_sprinting::{Experiment, ExperimentRunner};

const JOB: &str =
    r#"{"level":4,"pattern":"uniform","rate":0.1,"seed":"0x1","baseline":"noc_sprinting"}"#;

fn submit_with(job: &str) -> String {
    format!(r#"{{"type":"submit","id":"r","jobs":[{job}]}}"#)
}

#[test]
fn wrong_kind_fields_are_errors_that_name_the_field() {
    let requests = [
        (
            r#"{"type":"submit","id":"r","label":5,"jobs":[]}"#.to_string(),
            "label",
        ),
        (
            r#"{"type":"submit","id":"r","priority":0.5,"jobs":[]}"#.to_string(),
            "priority",
        ),
        (r#"{"type":"submit","id":7,"jobs":[]}"#.to_string(), "id"),
        (
            r#"{"type":"submit","id":"r","jobs":{}}"#.to_string(),
            "jobs",
        ),
        (
            submit_with(&JOB.replace("{", r#"{"topology":5,"#)),
            "topology",
        ),
        (
            submit_with(&JOB.replace("\"level\":4", "\"level\":\"4\"")),
            "level",
        ),
        (
            submit_with(&JOB.replace("{", r#"{"hot_fraction":"x","#)),
            "hot_fraction",
        ),
        (r#"{"type":"cancel","id":null}"#.to_string(), "id"),
    ];
    for (line, field) in &requests {
        let err = ServiceRequest::from_json_line(line).expect_err(line);
        assert!(err.contains(field), "{line}: {err}");
    }
    let stats = r#"{"schema":1,"engine":"e","code_version":"v","uptime_ms":1,"metrics":{"counters":{},"gauges":{},"histograms":{}}"#;
    let responses = [
        (
            r#"{"type":"progress","id":"r","completed":1,"total":2,"eta_ms":"x"}"#.to_string(),
            "eta_ms",
        ),
        (
            r#"{"type":"pong","uptime_ms":"soon"}"#.to_string(),
            "uptime_ms",
        ),
        (r#"{"type":"error","id":7,"message":"m"}"#.to_string(), "id"),
        (
            r#"{"type":"cancelled","id":"r","active":1}"#.to_string(),
            "active",
        ),
        (
            format!(r#"{{"type":"stats","snapshot":{stats},"slow_points":{{}}}}}}"#),
            "slow_points",
        ),
        (
            format!(r#"{{"type":"stats","snapshot":{stats},"shards":[5]}}}}"#),
            "shards",
        ),
    ];
    for (line, field) in &responses {
        let err = ServiceResponse::from_json_line(line).expect_err(line);
        assert!(err.contains(field), "{line}: {err}");
    }
    let cache = r#"{"type":"cache","key":"0x1","seed":"0x1","version":"v","value":{"avg_packet_latency":"0x0","avg_network_latency":"0x0","network_power":"0x0","accepted_throughput":"0x0","saturated":1}}"#;
    assert!(CacheRecord::from_json_line(cache)
        .expect_err(cache)
        .contains("saturated"));
}

#[test]
fn missing_required_fields_and_failed_checks_are_errors() {
    let lines = [
        (r#"{"type":"submit","id":"r"}"#.to_string(), "jobs"),
        (r#"{"type":"submit","jobs":[]}"#.to_string(), "id"),
        (submit_with(&JOB.replace("\"rate\":0.1,", "")), "rate"),
        (
            submit_with(&JOB.replace("\"level\":4", "\"level\":0")),
            "level",
        ),
        (
            submit_with(&JOB.replace("uniform", "hotspot")),
            "hot_fraction",
        ),
        (r#"{"type":"nonsense"}"#.to_string(), "type"),
    ];
    for (line, needle) in &lines {
        let err = ServiceRequest::from_json_line(line).expect_err(line);
        assert!(err.contains(needle), "{line}: {err}");
    }
    assert!(ServiceRequest::from_json_line(&submit_with(JOB)).is_ok());
}

/// One valid input of each outside-facing parser.
fn seeds() -> Vec<String> {
    vec![
        submit_with(JOB),
        r#"{"type":"point","id":"r","index":1,"seed":"0x2a","config_hash":"0xdeadbeef","cache_hit":true,"duration_ms":0.125,"metrics":{"avg_packet_latency":23.75,"saturated":0}}"#.to_string(),
        r#"{"type":"stats","snapshot":{"schema":1,"engine":"e","code_version":"v","uptime_ms":1,"metrics":{"counters":{"c":"0x1"},"gauges":{"g":"0x0"},"histograms":{"h":{"count":"0x1","sum_hi":"0x0","sum_lo":"0x5","min":"0x5","max":"0x5","buckets":[["0x5","0x1"]]}}}}}"#.to_string(),
        r#"{"type":"cache","key":"0x1","seed":"0x1","version":"v","value":{"avg_packet_latency":"0x7ff8000000000000","avg_network_latency":"0x0","network_power":"0x8000000000000000","accepted_throughput":"0x0","saturated":true}}"#.to_string(),
        concat!(
            r#"{"type":"run","figure":"f","config_hash":"0x1","workers":1,"base_seed":"0x1","seed_schedule":["0x1"],"wall_ms":1,"cache_hits":0,"cache_misses":1}"#,
            "\n",
            r#"{"type":"fault","point":0,"cycle":7,"kind":"link_down","node":3,"peer":null}"#,
        )
        .to_string(),
    ]
}

/// Feeds `text` to every outside-facing parser; any of them may reject it,
/// none may panic.
fn parse_everywhere(text: &str) {
    let _ = JsonValue::parse(text);
    let _ = ServiceRequest::from_json_line(text);
    let _ = ServiceResponse::from_json_line(text);
    let _ = CacheRecord::from_json_line(text);
    let _ = RunManifest::from_jsonl(text);
}

#[test]
fn every_seed_parses_and_every_truncation_is_survived() {
    for seed in seeds() {
        assert!(
            ServiceRequest::from_json_line(&seed).is_ok()
                || ServiceResponse::from_json_line(&seed).is_ok()
                || CacheRecord::from_json_line(&seed).is_ok()
                || RunManifest::from_jsonl(&seed).is_ok(),
            "seed must be valid input: {seed}"
        );
        for cut in (0..seed.len()).filter(|&c| seed.is_char_boundary(c)) {
            parse_everywhere(&seed[..cut]);
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let depth = 100_000;
    let line = format!(
        r#"{{"type":"submit","id":"r","jobs":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    assert!(ServiceRequest::from_json_line(&line).is_err());
    parse_everywhere(&line);
}

/// Bytes mutations draw from: JSON structure, escapes, digits, signs,
/// letters and bytes that are not UTF-8 on their own.
const MUTATIONS: &[u8] = b"{}[]\":,\\/0123456789+-.eExXuntrfalsy \t\n\x00\x7f\xc3\xa9\xff";

/// Applies `(position, alphabet index, op)` edits to `bytes`: op 0
/// overwrites a byte, 1 inserts one, 2 deletes one.
fn mutate(bytes: &mut Vec<u8>, edits: Vec<(usize, usize, u8)>, alphabet: &[u8]) {
    for (at, m, op) in edits {
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = alphabet[m],
            1 => bytes.insert(at, alphabet[m]),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
}

/// A valid Prometheus exposition using every construct the validator
/// parses: HELP, TYPE and free comments, escaped label values, a
/// timestamp, a special float value and histogram suffixes.
const EXPOSITION: &str = concat!(
    "# HELP noc_points_total Points served.\n",
    "# TYPE noc_points_total counter\n",
    "noc_points_total{shard=\"0\",path=\"a\\\\b \\\"q\\\"\\n\"} 42 1700000000000\n",
    "# a free comment\n",
    "# TYPE noc_latency_seconds histogram\n",
    "noc_latency_seconds_bucket{le=\"0.5\"} 3\n",
    "noc_latency_seconds_bucket{le=\"+Inf\"} 4\n",
    "noc_latency_seconds_sum 1.25e0\n",
    "noc_latency_seconds_count 4\n",
    "# TYPE noc_up gauge\n",
    "noc_up NaN\n",
);

/// Bytes exposition mutations draw from: line and label syntax, escapes,
/// name and number characters, comment keywords and non-UTF-8 bytes.
const PROM_MUTATIONS: &[u8] = b"# \n{}=\",\\_:aeTYPEHELP019.+-NInf\t\xc3\xa9\xff";

#[test]
fn exposition_validates_and_every_truncation_is_survived() {
    assert_eq!(validate_prometheus(EXPOSITION), Ok(6));
    for cut in 0..EXPOSITION.len() {
        let _ = validate_prometheus(&EXPOSITION[..cut]);
    }
}

/// A valid cache segment: a current-version record with a CRLF ending, a
/// blank line and a stale-version record.
fn segment() -> Vec<u8> {
    let record = |key, version: &str| {
        CacheRecord {
            key,
            seed: key,
            version: version.to_string(),
            value: NetworkMetrics {
                avg_packet_latency: 19.25,
                avg_network_latency: 18.5,
                network_power: 0.125,
                accepted_throughput: 0.1,
                saturated: false,
            },
        }
        .to_json_line()
    };
    format!("{}\r\n\n{}\n", record(1, "v"), record(2, "old")).into_bytes()
}

/// A fresh, empty scratch directory for one cache.
fn cache_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("noc-wire-cache-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn cache_segments_load_whatever_their_index() {
    let dir = cache_dir();
    for index in [0, usize::MAX] {
        let name = format!("seg-{index:06}.cache.jsonl");
        std::fs::write(dir.join(name), segment()).expect("write segment");
    }
    let (cache, report) = DiskResultCache::open(&dir, "v").expect("open");
    assert_eq!((report.segments, report.loaded, report.stale), (2, 2, 2));
    assert_eq!(report.corrupt, 0);
    assert_eq!(cache.persisted_len(), 1, "one key, written twice");
    // Past the largest index, appends and compaction reuse that segment.
    let job = SyntheticJob {
        topology: TopologySpec::default(),
        level: 4,
        pattern: TrafficPattern::UniformRandom,
        rate: 0.1,
        seed: 1,
        baseline: SyntheticBaseline::NocSprinting,
    };
    let value = cache.memory().get(1).expect("loaded record");
    cache.memory().insert(job.cache_key(), value);
    assert_eq!(cache.persist_jobs(&[job]).expect("append"), 1);
    assert_eq!(cache.compact().expect("compact"), 2);
    let (_, report) = DiskResultCache::open(&dir, "v").expect("reopen");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((report.segments, report.loaded, report.stale), (1, 2, 0));
}

#[test]
fn an_over_long_segment_line_costs_that_line_alone() {
    let dir = cache_dir();
    let good = segment();
    let good = std::str::from_utf8(&good).expect("utf8");
    let first = good.lines().next().expect("a record");
    let mut bytes = format!("{first}\n").into_bytes();
    // A newline-free run past the cap, even one that starts like a record.
    bytes.extend(first.bytes().cycle().take(3 * MAX_CACHE_LINE));
    bytes.push(b'\n');
    let second = first.replace("\"key\":\"0x1\"", "\"key\":\"0x2\"");
    bytes.extend_from_slice(second.as_bytes());
    std::fs::write(dir.join("seg-000000.cache.jsonl"), &bytes).expect("write segment");
    let (cache, report) = DiskResultCache::open(&dir, "v").expect("open");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((report.loaded, report.corrupt, report.stale), (2, 1, 0));
    assert!(
        report.warnings[0].contains(":2: corrupt cache line skipped (longer than MAX_CACHE_LINE")
    );
    assert!(cache.memory().get(1).is_some() && cache.memory().get(2).is_some());
    assert_eq!(cache.stats().segment_bytes, bytes.len() as u64);
}

#[test]
fn a_surrogate_pair_id_is_echoed_as_the_same_string() {
    // `json.dumps` escapes every astral character as a surrogate pair.
    let service = SweepService::new(
        Experiment::quick(),
        ExperimentRunner::with_workers(1),
        DiskResultCache::in_memory(code_version("quick")),
    );
    let mut events = Vec::new();
    let line = r#"{"type":"cancel","id":"run-\ud83d\ude00"}"#;
    assert_eq!(
        service.handle_line(line, &mut |e| events.push(e)),
        ServiceControl::Continue
    );
    let echoed = events[0].to_json_line();
    assert_eq!(
        echoed,
        r#"{"type":"cancelled","id":"run-😀","active":false}"#
    );
    let ServiceResponse::Cancelled { id, .. } = ServiceResponse::from_json_line(&echoed).unwrap()
    else {
        panic!("{echoed}");
    };
    assert_eq!(id, "run-😀");
    // A lone or reversed half is still one replacement character each.
    for (escaped, text) in [
        (r#""\ud83d""#, "\u{fffd}"),
        (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        (r#""\ud83dx\ude00""#, "\u{fffd}x\u{fffd}"),
        (r#""\ud83d\u0041""#, "\u{fffd}A"),
    ] {
        assert_eq!(
            JsonValue::parse(escaped).unwrap().as_str(),
            Some(text),
            "{escaped}"
        );
    }
}

#[test]
fn unknown_values_are_checked_like_the_rest() {
    let deep = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let ok = format!(r#"{{"type":"ping","x":{}}}"#, deep(MAX_JSON_DEPTH - 1));
    assert_eq!(
        ServiceRequest::from_json_line(&ok),
        Ok(ServiceRequest::Ping)
    );
    for bad in [
        format!(r#"{{"type":"ping","x":{}}}"#, deep(MAX_JSON_DEPTH)),
        r#"{"type":"ping","x":[1,]}"#.to_string(),
        r#"{"type":"ping","x":"\q"}"#.to_string(),
        r#"{"x":tru,"type":"ping"}"#.to_string(),
    ] {
        assert!(JsonValue::parse(&bad).is_err(), "{bad}");
        assert!(ServiceRequest::from_json_line(&bad).is_err(), "{bad}");
    }
    // A syntax error after a field error wins, as it does in the parser.
    let err = ServiceRequest::from_json_line(r#"{"type":"cancel","id":7,"x":[}"#).unwrap_err();
    assert!(err.contains("at byte"), "{err}");
    // Of two equal keys the first counts, whatever the second holds.
    assert_eq!(
        ServiceRequest::from_json_line(r#"{"type":"ping","type":"shutdown"}"#),
        Ok(ServiceRequest::Ping)
    );
    let err = ServiceRequest::from_json_line(r#"{"id":7,"type":"cancel","id":"r"}"#).unwrap_err();
    assert!(err.contains("\"id\""), "{err}");
}

/// Numbers follow RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]?
/// [0-9]+)?`, in the parser and in every decoder alike.
#[test]
fn numbers_follow_the_json_grammar() {
    let ping = |x: &str| format!(r#"{{"type":"ping","x":{x}}}"#);
    for bad in [
        "01", "-01", "00", "1.", "-.5", ".5", "1.e3", "1e", "1e+", "-", "+1", "0x1",
    ] {
        let line = ping(bad);
        assert!(JsonValue::parse(&line).is_err(), "{line}");
        assert!(ServiceRequest::from_json_line(&line).is_err(), "{line}");
    }
    for (good, value) in [
        ("0", 0.0),
        ("-0", -0.0),
        ("0.5", 0.5),
        ("1e5", 1e5),
        ("1E+5", 1e5),
        ("-1.25e-3", -1.25e-3),
    ] {
        let line = ping(good);
        assert_eq!(
            ServiceRequest::from_json_line(&line),
            Ok(ServiceRequest::Ping),
            "{line}"
        );
        let parsed = JsonValue::parse(&line).expect(good);
        assert_eq!(
            parsed.get("x").and_then(JsonValue::as_f64),
            Some(value),
            "{line}"
        );
    }
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x300, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn finite() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX)
        .prop_map(f64::from_bits)
        .prop_filter("finite", |x| x.is_finite())
}

fn any_u64() -> std::ops::RangeInclusive<u64> {
    0..=u64::MAX
}

/// Integers a JSON number carries exactly.
fn count() -> std::ops::RangeInclusive<u64> {
    0..=(1 << 53)
}

fn index() -> std::ops::RangeInclusive<usize> {
    0..=(1 << 53)
}

fn job() -> impl Strategy<Value = SyntheticJob> {
    (
        0usize..3,
        1usize..=1024,
        0usize..7,
        0.0f64..=1.0,
        0.0f64..1.0,
        any_u64(),
        0usize..3,
    )
        .prop_map(|(t, level, p, hot_fraction, r, seed, b)| SyntheticJob {
            topology: TopologySpec::from_wire_name(["mesh4x4", "mesh8x8", "circ16s5"][t])
                .expect("valid topology"),
            level,
            pattern: [
                TrafficPattern::UniformRandom,
                TrafficPattern::Transpose,
                TrafficPattern::BitComplement,
                TrafficPattern::Tornado,
                TrafficPattern::Shuffle,
                TrafficPattern::NearestNeighbor,
                TrafficPattern::Hotspot { hot_fraction },
            ][p],
            rate: 1.0 - r,
            seed,
            baseline: [
                SyntheticBaseline::NocSprinting,
                SyntheticBaseline::RandomEndpoints,
                SyntheticBaseline::SpreadAggregate,
            ][b],
        })
}

fn point() -> impl Strategy<Value = ManifestPoint> {
    (
        index(),
        any_u64(),
        any_u64(),
        any::<bool>(),
        finite(),
        prop::collection::vec((text(), finite()), 0..6),
    )
        .prop_map(
            |(index, seed, config_hash, cache_hit, duration_ms, metrics)| ManifestPoint {
                index,
                seed,
                config_hash,
                cache_hit,
                duration_ms,
                metrics,
            },
        )
}

fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        any_u64(),
        any_u64(),
        any_u64(),
        any_u64(),
        any_u64(),
        prop::collection::vec((any_u64(), any_u64()), 0..4),
    )
        .prop_map(|(count, hi, lo, min, max, buckets)| HistogramSnapshot {
            count,
            sum: (u128::from(hi) << 64) | u128::from(lo),
            min,
            max,
            buckets,
        })
}

fn snapshot() -> impl Strategy<Value = StatsSnapshot> {
    let slow = (any_u64(), any_u64(), finite(), finite(), finite()).prop_map(
        |(config_hash, seed, duration_ms, mean_ms, factor)| SlowPoint {
            config_hash,
            seed,
            duration_ms,
            mean_ms,
            factor,
        },
    );
    let shard = (0usize..64, text(), any::<bool>(), text(), text(), finite()).prop_map(
        |(shard, socket, alive, engine, code_version, uptime_ms)| ShardHealth {
            shard,
            socket,
            alive,
            engine,
            code_version,
            uptime_ms,
        },
    );
    (
        (text(), text(), finite()),
        prop::collection::vec((text(), any_u64()), 0..4),
        prop::collection::vec((text(), finite()), 0..4),
        prop::collection::vec((text(), histogram()), 0..3),
        prop::collection::vec(slow, 0..3),
        prop::collection::vec(shard, 0..3),
    )
        .prop_map(
            |(
                (engine, code_version, uptime_ms),
                counters,
                gauges,
                histograms,
                slow_points,
                shards,
            )| {
                StatsSnapshot {
                    schema: 1,
                    engine,
                    code_version,
                    uptime_ms,
                    metrics: MetricsSnapshot {
                        counters,
                        gauges,
                        histograms,
                    },
                    slow_points,
                    shards,
                }
            },
        )
}

/// Every response variant, built from one set of generated ingredients.
fn responses() -> impl Strategy<Value = Vec<ServiceResponse>> {
    (
        (text(), text()),
        (index(), index()),
        finite(),
        point(),
        (any_u64(), any_u64(), count(), count()),
        any::<bool>(),
        snapshot(),
    )
        .prop_map(
            |((id, msg), (a, b), f, point, (h, s, hits, misses), flag, snapshot)| {
                vec![
                    ServiceResponse::Accepted {
                        id: id.clone(),
                        points: a,
                    },
                    ServiceResponse::Progress {
                        id: id.clone(),
                        completed: a,
                        total: b,
                        eta_ms: None,
                    },
                    ServiceResponse::Progress {
                        id: id.clone(),
                        completed: b,
                        total: a,
                        eta_ms: Some(f),
                    },
                    ServiceResponse::Point {
                        id: id.clone(),
                        point,
                    },
                    ServiceResponse::PointFailed {
                        id: id.clone(),
                        index: a,
                        config_hash: h,
                        seed: s,
                        error: msg.clone(),
                    },
                    ServiceResponse::Done {
                        id: id.clone(),
                        summary: BatchSummary {
                            points: a,
                            ok: b,
                            failed: a,
                            cancelled: b,
                            cache_hits: hits,
                            cache_misses: misses,
                            config_hash: h,
                            wall_ms: f,
                        },
                    },
                    ServiceResponse::Busy {
                        id: id.clone(),
                        pending: a,
                        limit: b,
                    },
                    ServiceResponse::Cancelled {
                        id: id.clone(),
                        active: flag,
                    },
                    ServiceResponse::Pong {
                        uptime_ms: f,
                        code_version: msg.clone(),
                        engine: id.clone(),
                    },
                    ServiceResponse::Stats { snapshot },
                    ServiceResponse::Error {
                        id: flag.then(|| id.clone()),
                        message: msg,
                    },
                ]
            },
        )
}

/// Every message decoder applied to `line`, each result as the decoded
/// value's debug form (which shows every `f64`, NaN included).
fn decode_all(line: &str) -> Vec<Result<String, String>> {
    fn shown<T: Debug>(r: Result<T, String>) -> Result<String, String> {
        r.map(|v| format!("{v:?}"))
    }
    vec![
        shown(ServiceRequest::from_json_line(line)),
        shown(ServiceResponse::from_json_line(line)),
        shown(CacheRecord::from_json_line(line)),
        shown(StatsSnapshot::from_json_line(line)),
        shown(SyntheticJob::from_json_line(line)),
        shown(RunManifest::from_json_line(line)),
        shown(FaultRecord::from_json_line(line)),
        shown(HistogramSnapshot::from_json_line(line)),
    ]
}

/// One line of every message type, from generated values.
fn message_lines() -> impl Strategy<Value = Vec<String>> {
    (
        responses(),
        prop::collection::vec(job(), 0..3),
        (any_u64(), text()),
    )
        .prop_map(|(events, jobs, (key, version))| {
            let mut lines: Vec<String> = events.iter().map(ServiceResponse::to_json_line).collect();
            lines.extend(jobs.iter().map(SyntheticJob::to_json_line));
            lines.push(
                ServiceRequest::Submit(SubmitRequest {
                    id: version.clone(),
                    label: "l".to_string(),
                    priority: -1,
                    jobs,
                })
                .to_json_line(),
            );
            lines.push(
                ServiceRequest::Cancel {
                    id: version.clone(),
                }
                .to_json_line(),
            );
            lines.push(
                CacheRecord {
                    key,
                    seed: key,
                    version: format!("v{version}"),
                    value: NetworkMetrics {
                        avg_packet_latency: f64::from_bits(key),
                        avg_network_latency: 1.5,
                        network_power: -0.0,
                        accepted_throughput: f64::NAN,
                        saturated: key % 2 == 0,
                    },
                }
                .to_json_line(),
            );
            lines.push(
                FaultRecord {
                    point: 1,
                    cycle: key >> 12,
                    kind: version,
                    node: 3,
                    peer: Some(4),
                }
                .to_json_line(),
            );
            lines
        })
}

/// `line`'s top-level members, re-serialized one by one.
fn members(line: &str) -> Vec<(String, String)> {
    match JsonValue::parse(line) {
        Ok(JsonValue::Obj(pairs)) => pairs.into_iter().map(|(k, v)| (k, v.to_json())).collect(),
        other => panic!("{line}: not an object: {other:?}"),
    }
}

/// An object of `members`, written as `{"k":v,...}`.
fn object_of(members: &[(String, String)]) -> String {
    let fields: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}:{v}", JsonValue::Str(k.clone()).to_json()))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// A JSON value nested `depth` containers deep, mixing objects, arrays,
/// escaped strings and numbers.
fn nested(depth: usize) -> String {
    (0..depth).fold(r#""\u00e9\n\ud83d\ude00""#.to_string(), |inner, d| {
        if d % 2 == 0 {
            format!(r#"[1.5e3,{inner},null]"#)
        } else {
            format!(r#"{{"k{d}":{inner},"t":true}}"#)
        }
    })
}

/// Decodes `line` and checks the value re-encodes to the same line (every
/// `f64` by bit pattern) and equals `x`.
fn round_trip<T: PartialEq + std::fmt::Debug>(
    x: &T,
    line: &str,
    decode: impl Fn(&str) -> Result<T, String>,
    encode: impl Fn(&T) -> String,
) -> Result<(), TestCaseError> {
    let back = decode(line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
    prop_assert_eq!(encode(&back), line);
    prop_assert_eq!(&back, x);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        parse_everywhere(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_lines_never_panic(
        which in 0usize..5,
        edits in prop::collection::vec((0usize..4096, 0usize..MUTATIONS.len(), 0u8..3), 1..6),
    ) {
        let mut bytes = seeds().swap_remove(which).into_bytes();
        mutate(&mut bytes, edits, MUTATIONS);
        parse_everywhere(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn prometheus_validator_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..96),
        drawn in prop::collection::vec(0usize..PROM_MUTATIONS.len(), 0..96),
        edits in prop::collection::vec((0usize..4096, 0usize..PROM_MUTATIONS.len(), 0u8..3), 1..6),
    ) {
        let _ = validate_prometheus(&String::from_utf8_lossy(&bytes));
        let drawn: Vec<u8> = drawn.into_iter().map(|i| PROM_MUTATIONS[i]).collect();
        let _ = validate_prometheus(&String::from_utf8_lossy(&drawn));
        let mut mutated = EXPOSITION.as_bytes().to_vec();
        mutate(&mut mutated, edits, PROM_MUTATIONS);
        let _ = validate_prometheus(&String::from_utf8_lossy(&mutated));
    }

    #[test]
    fn cache_open_never_panics(
        arbitrary in prop::collection::vec(prop::collection::vec(0u8..=255, 0..160), 0..3),
        edits in prop::collection::vec((0usize..4096, 0usize..MUTATIONS.len(), 0u8..3), 1..8),
    ) {
        let dir = cache_dir();
        let mut mutated = segment();
        mutate(&mut mutated, edits, MUTATIONS);
        for (i, bytes) in arbitrary.iter().chain([&mutated]).enumerate() {
            std::fs::write(dir.join(format!("seg-{i:06}.cache.jsonl")), bytes)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        let opened = DiskResultCache::open(&dir, "v");
        std::fs::remove_dir_all(&dir).ok();
        let (cache, report) = opened.map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.segments, arbitrary.len() + 1);
        prop_assert!(cache.persisted_len() <= report.loaded);
    }

    #[test]
    fn requests_round_trip(
        (id, label) in (text(), text()),
        priority in count(),
        jobs in prop::collection::vec(job(), 0..5),
    ) {
        let submit = ServiceRequest::Submit(SubmitRequest {
            id: id.clone(),
            label,
            priority: priority as i64 - (1 << 52),
            jobs,
        });
        let requests = [
            submit,
            ServiceRequest::Cancel { id },
            ServiceRequest::Ping,
            ServiceRequest::Stats,
            ServiceRequest::Shutdown,
        ];
        for req in requests {
            let line = req.to_json_line();
            round_trip(&req, &line, ServiceRequest::from_json_line, ServiceRequest::to_json_line)?;
        }
    }

    #[test]
    fn responses_round_trip(events in responses()) {
        for ev in events {
            let line = ev.to_json_line();
            round_trip(&ev, &line, ServiceResponse::from_json_line, ServiceResponse::to_json_line)?;
        }
    }

    #[test]
    fn cache_records_round_trip_bit_for_bit(
        (key, seed) in (any_u64(), any_u64()),
        version in text(),
        bits in (any_u64(), any_u64(), any_u64(), any_u64()),
        saturated in any::<bool>(),
    ) {
        let record = CacheRecord {
            key,
            seed,
            version: format!("v{version}"),
            value: NetworkMetrics {
                avg_packet_latency: f64::from_bits(bits.0),
                avg_network_latency: f64::from_bits(bits.1),
                network_power: f64::from_bits(bits.2),
                accepted_throughput: f64::from_bits(bits.3),
                saturated,
            },
        };
        let line = record.to_json_line();
        let back = CacheRecord::from_json_line(&line)
            .map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        // NaN != NaN, so compare the re-encoded line: it carries every bit.
        prop_assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn manifests_round_trip(
        figure in text(),
        (config_hash, base_seed, seed_schedule) in
            (any_u64(), any_u64(), prop::collection::vec(any_u64(), 0..4)),
        (workers, wall_ms, hits, misses) in (0usize..64, finite(), count(), count()),
        points in prop::collection::vec(point(), 0..3),
        faults in prop::collection::vec((index(), count(), text(), index(), (any::<bool>(), index())), 0..3),
    ) {
        let manifest = RunManifest {
            figure,
            config_hash,
            workers,
            base_seed,
            seed_schedule,
            wall_ms,
            cache_hits: hits,
            cache_misses: misses,
            points,
            faults: faults
                .into_iter()
                .map(|(point, cycle, kind, node, (linked, peer))| FaultRecord {
                    point,
                    cycle,
                    kind,
                    node,
                    peer: linked.then_some(peer),
                })
                .collect(),
        };
        round_trip(&manifest, &manifest.to_jsonl(), RunManifest::from_jsonl, RunManifest::to_jsonl)?;
    }

    #[test]
    fn decoders_are_never_more_lenient_than_the_parser(
        lines in message_lines(),
        which in 0usize..64,
        edits in prop::collection::vec((0usize..4096, 0usize..MUTATIONS.len(), 0u8..3), 1..6),
    ) {
        let mut bytes = lines[which % lines.len()].clone().into_bytes();
        mutate(&mut bytes, edits, MUTATIONS);
        let line = String::from_utf8_lossy(&bytes);
        let decoded = decode_all(&line);
        match JsonValue::parse(&line) {
            // The decoders read the bytes in the parser's order, so they
            // meet the same first syntax error, whatever field errors
            // come before it.
            Err(e) => {
                for result in &decoded {
                    prop_assert_eq!(result, &Err(e.clone()), "{}", line);
                }
            }
            // The same document written by the tree's writer decodes the
            // same, errors included; unless a number overflowed to
            // infinity, which the writer cannot write back.
            Ok(tree) => {
                let rewritten = tree.to_json();
                if JsonValue::parse(&rewritten).as_ref() == Ok(&tree) {
                    prop_assert_eq!(decode_all(&rewritten), decoded, "{}", line);
                }
            }
        }
    }

    #[test]
    fn unknown_keys_nested_to_the_depth_bound_are_ignored(
        lines in message_lines(),
        depth in 0usize..MAX_JSON_DEPTH,
        front in any::<bool>(),
    ) {
        for line in &lines {
            let mut fields = members(line);
            let unknown = ("zz_unknown".to_string(), nested(depth));
            if front {
                fields.insert(0, unknown);
            } else {
                fields.push(unknown);
            }
            let padded = object_of(&fields);
            prop_assert_eq!(decode_all(&padded), decode_all(line), "{}", padded);
            // One level deeper is past the bound: an error everywhere.
            let mut too_deep = members(line);
            too_deep.push(("zz_unknown".to_string(), nested(MAX_JSON_DEPTH)));
            let too_deep = object_of(&too_deep);
            prop_assert!(decode_all(&too_deep).iter().all(Result::is_err));
        }
    }

    #[test]
    fn the_first_of_two_equal_keys_counts(lines in message_lines()) {
        for line in &lines {
            let fields = members(line);
            // Every key again, holding a value no field accepts.
            let mut doubled = fields.clone();
            doubled.extend(fields.iter().map(|(k, _)| (k.clone(), "[{}]".to_string())));
            let doubled = object_of(&doubled);
            prop_assert_eq!(decode_all(&doubled), decode_all(line), "{}", doubled);
        }
    }

    #[test]
    fn every_message_round_trips_through_its_line(
        snapshot in snapshot(),
        job in job(),
        histogram in histogram(),
    ) {
        round_trip(&snapshot, &snapshot.to_json_line(), StatsSnapshot::from_json_line, StatsSnapshot::to_json_line)?;
        round_trip(&job, &job.to_json_line(), SyntheticJob::from_json_line, SyntheticJob::to_json_line)?;
        round_trip(&histogram, &histogram.to_json_line(), HistogramSnapshot::from_json_line, HistogramSnapshot::to_json_line)?;
        // `write_json_line` appends exactly the line.
        let mut out = "prefix".to_string();
        snapshot.write_json_line(&mut out);
        prop_assert_eq!(&out["prefix".len()..], snapshot.to_json_line());
    }
}
