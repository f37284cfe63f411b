//! The wire codec's decode rule, its robustness to hostile input, and
//! round trips of generated messages.
//!
//! - Decode rule: a present field of the wrong kind is an error naming the
//!   field; a missing required field is an error; absent optional fields
//!   take their defaults (the golden-line tests pin those).
//! - Hostile input: arbitrary, truncated and byte-mutated lines fed to every
//!   outside-facing parser — the Prometheus exposition validator included —
//!   return `Err` or a value and never panic.
//! - Round trips: `decode(encode(x)) == x` for generated values of every
//!   message, with every `f64` compared by bit pattern (the decoded value
//!   must re-encode to the same line).

use proptest::prelude::*;

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::NetworkMetrics;
use noc_sprinting::metrics::{
    validate_prometheus, HistogramSnapshot, MetricsSnapshot, ShardHealth, SlowPoint, StatsSnapshot,
};
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{
    BatchSummary, CacheRecord, ServiceRequest, ServiceResponse, SubmitRequest,
};
use noc_sprinting::telemetry::{FaultRecord, JsonValue, ManifestPoint, RunManifest, RunnerEvent};

const JOB: &str =
    r#"{"level":4,"pattern":"uniform","rate":0.1,"seed":"0x1","baseline":"noc_sprinting"}"#;

fn submit_with(job: &str) -> String {
    format!(r#"{{"type":"submit","id":"r","jobs":[{job}]}}"#)
}

#[test]
fn wrong_kind_fields_are_errors_that_name_the_field() {
    let requests = [
        (r#"{"type":"submit","id":"r","label":5,"jobs":[]}"#.to_string(), "label"),
        (r#"{"type":"submit","id":"r","priority":0.5,"jobs":[]}"#.to_string(), "priority"),
        (r#"{"type":"submit","id":7,"jobs":[]}"#.to_string(), "id"),
        (r#"{"type":"submit","id":"r","jobs":{}}"#.to_string(), "jobs"),
        (submit_with(&JOB.replace("{", r#"{"topology":5,"#)), "topology"),
        (submit_with(&JOB.replace("\"level\":4", "\"level\":\"4\"")), "level"),
        (submit_with(&JOB.replace("{", r#"{"hot_fraction":"x","#)), "hot_fraction"),
        (r#"{"type":"cancel","id":null}"#.to_string(), "id"),
    ];
    for (line, field) in &requests {
        let err = ServiceRequest::from_json_line(line).expect_err(line);
        assert!(err.contains(field), "{line}: {err}");
    }
    let stats = r#"{"schema":1,"engine":"e","code_version":"v","uptime_ms":1,"metrics":{"counters":{},"gauges":{},"histograms":{}}"#;
    let responses = [
        (r#"{"type":"progress","id":"r","completed":1,"total":2,"eta_ms":"x"}"#.to_string(), "eta_ms"),
        (r#"{"type":"pong","uptime_ms":"soon"}"#.to_string(), "uptime_ms"),
        (r#"{"type":"error","id":7,"message":"m"}"#.to_string(), "id"),
        (r#"{"type":"cancelled","id":"r","active":1}"#.to_string(), "active"),
        (format!(r#"{{"type":"stats","snapshot":{stats},"slow_points":{{}}}}}}"#), "slow_points"),
        (format!(r#"{{"type":"stats","snapshot":{stats},"shards":[5]}}}}"#), "shards"),
    ];
    for (line, field) in &responses {
        let err = ServiceResponse::from_json_line(line).expect_err(line);
        assert!(err.contains(field), "{line}: {err}");
    }
    let cache = r#"{"type":"cache","key":"0x1","seed":"0x1","version":"v","value":{"avg_packet_latency":"0x0","avg_network_latency":"0x0","network_power":"0x0","accepted_throughput":"0x0","saturated":1}}"#;
    assert!(CacheRecord::from_json_line(cache).expect_err(cache).contains("saturated"));
}

#[test]
fn missing_required_fields_and_failed_checks_are_errors() {
    let lines = [
        (r#"{"type":"submit","id":"r"}"#.to_string(), "jobs"),
        (r#"{"type":"submit","jobs":[]}"#.to_string(), "id"),
        (submit_with(&JOB.replace("\"rate\":0.1,", "")), "rate"),
        (submit_with(&JOB.replace("\"level\":4", "\"level\":0")), "level"),
        (submit_with(&JOB.replace("uniform", "hotspot")), "hot_fraction"),
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
    (0usize..3, 1usize..=1024, 0usize..7, 0.0f64..=1.0, 0.0f64..1.0, any_u64(), 0usize..3).prop_map(
        |(t, level, p, hot_fraction, r, seed, b)| SyntheticJob {
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
        },
    )
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
        .prop_map(|(index, seed, config_hash, cache_hit, duration_ms, metrics)| ManifestPoint {
            index,
            seed,
            config_hash,
            cache_hit,
            duration_ms,
            metrics,
        })
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
            |((engine, code_version, uptime_ms), counters, gauges, histograms, slow_points, shards)| {
                StatsSnapshot {
                    schema: 1,
                    engine,
                    code_version,
                    uptime_ms,
                    metrics: MetricsSnapshot { counters, gauges, histograms },
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
        .prop_map(|((id, msg), (a, b), f, point, (h, s, hits, misses), flag, snapshot)| {
            vec![
                ServiceResponse::Accepted { id: id.clone(), points: a },
                ServiceResponse::Progress { id: id.clone(), completed: a, total: b, eta_ms: None },
                ServiceResponse::Progress { id: id.clone(), completed: b, total: a, eta_ms: Some(f) },
                ServiceResponse::Point { id: id.clone(), point },
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
                ServiceResponse::Busy { id: id.clone(), pending: a, limit: b },
                ServiceResponse::Cancelled { id: id.clone(), active: flag },
                ServiceResponse::Pong { uptime_ms: f, code_version: msg.clone(), engine: id.clone() },
                ServiceResponse::Stats { snapshot },
                ServiceResponse::Error { id: flag.then(|| id.clone()), message: msg },
            ]
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
    fn manifests_and_runner_events_round_trip(
        (figure, label) in (text(), text()),
        (config_hash, base_seed, seed_schedule) in
            (any_u64(), any_u64(), prop::collection::vec(any_u64(), 0..4)),
        (workers, wall_ms, hits, misses) in (0usize..64, finite(), count(), count()),
        points in prop::collection::vec(point(), 0..3),
        faults in prop::collection::vec((index(), count(), text(), index(), (any::<bool>(), index())), 0..3),
        (hash, seed) in ((any::<bool>(), any_u64()), (any::<bool>(), any_u64())),
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
        let event = RunnerEvent::PointFailed {
            label,
            index: workers,
            config_hash: hash.0.then_some(hash.1),
            seed: seed.0.then_some(seed.1),
            error: manifest.figure.clone(),
        };
        let line = event.to_json_line();
        round_trip(&event, &line, RunnerEvent::from_json_line, RunnerEvent::to_json_line)?;
    }
}
