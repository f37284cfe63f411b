//! Golden wire lines: one committed JSON line per message kind, exactly as
//! the service, the fleet coordinator, the result cache and the run
//! manifests write them. Encoding each value must reproduce its line byte
//! for byte, and decoding the line must give the value back, so a codec
//! change that moves one byte of the wire or of the on-disk cache format
//! fails here. The last test decodes lines older peers write, which omit
//! optional fields.

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::experiment::NetworkMetrics;
use noc_sprinting::fleet::shard_of;
use noc_sprinting::metrics::{
    HistogramSnapshot, MetricsSnapshot, ShardHealth, SlowPoint, StatsSnapshot,
};
use noc_sprinting::runner::{SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{
    metric_pairs, BatchSummary, CacheRecord, ServiceRequest, ServiceResponse, SubmitRequest,
};
use noc_sprinting::telemetry::{FaultRecord, ManifestPoint, RunManifest};

fn s(text: &str) -> String {
    text.to_string()
}

/// A hotspot job on the default topology and a circulant job at the
/// extremes of `rate` and `seed`.
fn jobs() -> Vec<SyntheticJob> {
    vec![
        SyntheticJob {
            topology: TopologySpec::default(),
            level: 4,
            pattern: TrafficPattern::Hotspot { hot_fraction: 0.3 },
            rate: 0.05,
            seed: 42,
            baseline: SyntheticBaseline::NocSprinting,
        },
        SyntheticJob {
            topology: TopologySpec::from_wire_name("circ16s5").expect("valid circulant"),
            level: 16,
            pattern: TrafficPattern::Transpose,
            rate: 1.0,
            seed: u64::MAX,
            baseline: SyntheticBaseline::SpreadAggregate,
        },
    ]
}

fn requests() -> Vec<(ServiceRequest, &'static str)> {
    vec![
        (
            ServiceRequest::Submit(SubmitRequest {
                id: s("r1"),
                label: s("fig11"),
                priority: -2,
                jobs: jobs(),
            }),
            r#"{"type":"submit","id":"r1","label":"fig11","priority":-2,"jobs":[{"topology":"mesh4x4","level":4,"pattern":"hotspot","hot_fraction":0.3,"rate":0.05,"seed":"0x2a","baseline":"noc_sprinting"},{"topology":"circ16s5","level":16,"pattern":"transpose","rate":1,"seed":"0xffffffffffffffff","baseline":"spread_aggregate"}]}"#,
        ),
        (
            ServiceRequest::Cancel { id: s("r9") },
            r#"{"type":"cancel","id":"r9"}"#,
        ),
        (ServiceRequest::Ping, r#"{"type":"ping"}"#),
        (ServiceRequest::Stats, r#"{"type":"stats"}"#),
        (ServiceRequest::Shutdown, r#"{"type":"shutdown"}"#),
    ]
}

fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        schema: 1,
        engine: s("noc-fleet"),
        code_version: s("v"),
        uptime_ms: 12.5,
        metrics: MetricsSnapshot {
            counters: vec![(s("noc_a_total"), 3)],
            gauges: vec![(s("noc_g"), 1.5)],
            histograms: vec![(
                s("noc_h"),
                HistogramSnapshot {
                    count: 2,
                    sum: (1u128 << 64) + 5,
                    min: 5,
                    max: 500,
                    buckets: vec![(5, 1), (496, 1)],
                },
            )],
        },
        slow_points: vec![SlowPoint {
            config_hash: 0xdead,
            seed: 0xbeef,
            duration_ms: 100.0,
            mean_ms: 1.5,
            factor: 66.5,
        }],
        shards: vec![ShardHealth {
            shard: 0,
            socket: s("s0.sock"),
            alive: true,
            engine: s("noc-serve"),
            code_version: s("v"),
            uptime_ms: 7.25,
        }],
    }
}

fn responses() -> Vec<(ServiceResponse, &'static str)> {
    let point = ManifestPoint {
        index: 1,
        seed: 42,
        config_hash: 0xdead_beef,
        cache_hit: true,
        duration_ms: 0.125,
        metrics: metric_pairs(&NetworkMetrics {
            avg_packet_latency: 23.75,
            avg_network_latency: 18.5,
            network_power: 0.011,
            accepted_throughput: 0.099,
            saturated: false,
        }),
    };
    vec![
        (
            ServiceResponse::Accepted {
                id: s("r1"),
                points: 2,
            },
            r#"{"type":"accepted","id":"r1","points":2}"#,
        ),
        (
            ServiceResponse::Progress {
                id: s("r1"),
                completed: 1,
                total: 2,
                eta_ms: None,
            },
            r#"{"type":"progress","id":"r1","completed":1,"total":2}"#,
        ),
        (
            ServiceResponse::Progress {
                id: s("r1"),
                completed: 2,
                total: 2,
                eta_ms: Some(125.5),
            },
            r#"{"type":"progress","id":"r1","completed":2,"total":2,"eta_ms":125.5}"#,
        ),
        (
            ServiceResponse::Point { id: s("r1"), point },
            r#"{"type":"point","id":"r1","index":1,"seed":"0x2a","config_hash":"0xdeadbeef","cache_hit":true,"duration_ms":0.125,"metrics":{"avg_packet_latency":23.75,"avg_network_latency":18.5,"network_power":0.011,"accepted_throughput":0.099,"saturated":0}}"#,
        ),
        (
            ServiceResponse::PointFailed {
                id: s("r1"),
                index: 5,
                config_hash: u64::MAX,
                seed: 0xabc,
                error: s("deadlock at cycle 12"),
            },
            r#"{"type":"point_failed","id":"r1","index":5,"config_hash":"0xffffffffffffffff","seed":"0xabc","error":"deadlock at cycle 12"}"#,
        ),
        (
            ServiceResponse::Done {
                id: s("r1"),
                summary: BatchSummary {
                    points: 9,
                    ok: 6,
                    failed: 1,
                    cancelled: 2,
                    cache_hits: 3,
                    cache_misses: 3,
                    config_hash: 0x1234_5678_9abc_def0,
                    wall_ms: 88.5,
                },
            },
            r#"{"type":"done","id":"r1","points":9,"ok":6,"failed":1,"cancelled":2,"cache_hits":3,"cache_misses":3,"config_hash":"0x123456789abcdef0","wall_ms":88.5}"#,
        ),
        (
            ServiceResponse::Busy {
                id: s("r1"),
                pending: 480,
                limit: 512,
            },
            r#"{"type":"busy","id":"r1","pending":480,"limit":512}"#,
        ),
        (
            ServiceResponse::Cancelled {
                id: s("r9"),
                active: false,
            },
            r#"{"type":"cancelled","id":"r9","active":false}"#,
        ),
        (
            ServiceResponse::Pong {
                uptime_ms: 1234.5,
                code_version: s("0.1.0+cache-v2+quick"),
                engine: s("noc-serve"),
            },
            r#"{"type":"pong","uptime_ms":1234.5,"code_version":"0.1.0+cache-v2+quick","engine":"noc-serve"}"#,
        ),
        (
            ServiceResponse::Stats {
                snapshot: snapshot(),
            },
            r#"{"type":"stats","snapshot":{"schema":1,"engine":"noc-fleet","code_version":"v","uptime_ms":12.5,"metrics":{"counters":{"noc_a_total":"0x3"},"gauges":{"noc_g":"0x3ff8000000000000"},"histograms":{"noc_h":{"count":"0x2","sum_hi":"0x1","sum_lo":"0x5","min":"0x5","max":"0x1f4","buckets":[["0x5","0x1"],["0x1f0","0x1"]]}}},"slow_points":[{"config_hash":"0xdead","seed":"0xbeef","duration_ms":100,"mean_ms":1.5,"factor":66.5}],"shards":[{"shard":0,"socket":"s0.sock","alive":true,"engine":"noc-serve","code_version":"v","uptime_ms":7.25}]}}"#,
        ),
        (
            ServiceResponse::Error {
                id: None,
                message: s("bad request: x"),
            },
            r#"{"type":"error","message":"bad request: x"}"#,
        ),
        (
            ServiceResponse::Error {
                id: Some(s("r1")),
                message: s("cache persist failed"),
            },
            r#"{"type":"error","id":"r1","message":"cache persist failed"}"#,
        ),
    ]
}

#[test]
fn requests_match_their_golden_lines() {
    for (request, line) in requests() {
        assert_eq!(request.to_json_line(), line);
        assert_eq!(ServiceRequest::from_json_line(line).expect(line), request);
    }
}

#[test]
fn responses_match_their_golden_lines() {
    for (response, line) in responses() {
        assert_eq!(response.to_json_line(), line);
        assert_eq!(ServiceResponse::from_json_line(line).expect(line), response);
    }
}

#[test]
fn cache_record_matches_its_golden_line_bit_for_bit() {
    let record = CacheRecord {
        key: u64::MAX,
        seed: 0x9e37_79b9_7f4a_7c15,
        version: s("0.1.0+cache-v2+paper"),
        value: NetworkMetrics {
            avg_packet_latency: f64::NAN,
            avg_network_latency: f64::INFINITY,
            network_power: -0.0,
            accepted_throughput: 0.1 + 0.2,
            saturated: true,
        },
    };
    let line = r#"{"type":"cache","key":"0xffffffffffffffff","seed":"0x9e3779b97f4a7c15","version":"0.1.0+cache-v2+paper","value":{"avg_packet_latency":"0x7ff8000000000000","avg_network_latency":"0x7ff0000000000000","network_power":"0x8000000000000000","accepted_throughput":"0x3fd3333333333334","saturated":true}}"#;
    assert_eq!(record.to_json_line(), line);
    let back = CacheRecord::from_json_line(line).expect("golden cache line decodes");
    assert_eq!(
        (back.key, back.seed, &back.version),
        (record.key, record.seed, &record.version)
    );
    let bits = |m: &NetworkMetrics| {
        [
            m.avg_packet_latency.to_bits(),
            m.avg_network_latency.to_bits(),
            m.network_power.to_bits(),
            m.accepted_throughput.to_bits(),
        ]
    };
    assert_eq!(bits(&back.value), bits(&record.value));
    assert_eq!(back.value.saturated, record.value.saturated);
}

#[test]
fn run_manifest_matches_its_golden_lines() {
    let manifest = RunManifest {
        figure: s("fig11"),
        config_hash: u64::MAX - 3,
        workers: 4,
        base_seed: 0xfeed_face_dead_beef,
        seed_schedule: vec![1, u64::MAX],
        wall_ms: 1234.5,
        cache_hits: 1,
        cache_misses: 1,
        points: vec![ManifestPoint {
            index: 0,
            seed: 1,
            config_hash: 99,
            cache_hit: false,
            duration_ms: 10.25,
            metrics: vec![(s("avg_packet_latency"), 23.75)],
        }],
        faults: vec![
            FaultRecord {
                point: 0,
                cycle: 120,
                kind: s("link_down"),
                node: 0,
                peer: Some(1),
            },
            FaultRecord {
                point: 0,
                cycle: 250,
                kind: s("packet_dropped"),
                node: 5,
                peer: None,
            },
        ],
    };
    let text = concat!(
        r#"{"type":"run","figure":"fig11","config_hash":"0xfffffffffffffffc","workers":4,"base_seed":"0xfeedfacedeadbeef","seed_schedule":["0x1","0xffffffffffffffff"],"wall_ms":1234.5,"cache_hits":1,"cache_misses":1}"#,
        "\n",
        r#"{"type":"point","index":0,"seed":"0x1","config_hash":"0x63","cache_hit":false,"duration_ms":10.25,"metrics":{"avg_packet_latency":23.75}}"#,
        "\n",
        r#"{"type":"fault","point":0,"cycle":120,"kind":"link_down","node":0,"peer":1}"#,
        "\n",
        r#"{"type":"fault","point":0,"cycle":250,"kind":"packet_dropped","node":5,"peer":null}"#,
        "\n",
    );
    assert_eq!(manifest.to_jsonl(), text);
    assert_eq!(
        RunManifest::from_jsonl(text).expect("golden manifest decodes"),
        manifest
    );
}

#[test]
fn lines_without_optional_fields_decode_to_their_defaults() {
    // No `topology` (pre-topology clients), `label` or `priority`.
    let line = r#"{"type":"submit","id":"r","jobs":[{"level":4,"pattern":"uniform","rate":0.1,"seed":"0x1","baseline":"noc_sprinting"}]}"#;
    let ServiceRequest::Submit(req) = ServiceRequest::from_json_line(line).expect(line) else {
        panic!("{line} is a submit");
    };
    assert_eq!((req.label.as_str(), req.priority), ("service", 0));
    assert_eq!(req.jobs[0].topology, TopologySpec::default());
    // Pre-observability daemons answered a bare pong.
    assert_eq!(
        ServiceResponse::from_json_line(r#"{"type":"pong"}"#).expect("bare pong"),
        ServiceResponse::Pong {
            uptime_ms: 0.0,
            code_version: String::new(),
            engine: String::new()
        }
    );
    // A single daemon's snapshot may omit slow points and shards.
    let line = r#"{"type":"stats","snapshot":{"schema":1,"engine":"noc-serve","code_version":"v","uptime_ms":1,"metrics":{"counters":{},"gauges":{},"histograms":{}}}}"#;
    let ServiceResponse::Stats { snapshot } = ServiceResponse::from_json_line(line).expect(line)
    else {
        panic!("{line} is a stats event");
    };
    assert!(snapshot.slow_points.is_empty() && snapshot.shards.is_empty());
    // A fault line without `peer` is a router event.
    let text = concat!(
        r#"{"type":"run","figure":"f","config_hash":"0x1","workers":1,"base_seed":"0x1","seed_schedule":[],"wall_ms":1,"cache_hits":0,"cache_misses":0}"#,
        "\n",
        r#"{"type":"fault","point":0,"cycle":7,"kind":"router_frozen","node":3}"#,
    );
    let manifest = RunManifest::from_jsonl(text).expect("manifest without peer");
    assert_eq!(manifest.faults[0].peer, None);
}

/// Six jobs covering both reference topologies, every baseline and a
/// hotspot pattern with its `hot_fraction`.
fn keyed_jobs() -> Vec<SyntheticJob> {
    let mesh = TopologySpec::default();
    let circ = TopologySpec::from_wire_name("circ64s9").expect("valid circulant");
    let job = |topology, level, pattern, rate, seed, baseline| SyntheticJob {
        topology,
        level,
        pattern,
        rate,
        seed,
        baseline,
    };
    vec![
        job(
            mesh,
            4,
            TrafficPattern::UniformRandom,
            0.1,
            1,
            SyntheticBaseline::NocSprinting,
        ),
        job(
            mesh,
            8,
            TrafficPattern::Hotspot { hot_fraction: 0.3 },
            0.05,
            42,
            SyntheticBaseline::RandomEndpoints,
        ),
        job(
            mesh,
            16,
            TrafficPattern::Transpose,
            0.25,
            5,
            SyntheticBaseline::SpreadAggregate,
        ),
        job(
            circ,
            16,
            TrafficPattern::UniformRandom,
            0.25,
            1,
            SyntheticBaseline::NocSprinting,
        ),
        job(
            circ,
            64,
            TrafficPattern::Hotspot { hot_fraction: 0.5 },
            0.16,
            1009,
            SyntheticBaseline::SpreadAggregate,
        ),
        job(
            circ,
            9,
            TrafficPattern::BitComplement,
            0.6,
            u64::MAX,
            SyntheticBaseline::RandomEndpoints,
        ),
    ]
}

/// Each keyed job's `cache_key`, then its shard among 2 and among 3. The
/// key names a persisted cache record and routes a fleet point, so a
/// moved key turns a warm cache cold and reshuffles shards.
const GOLDEN_KEYS: [(u64, usize, usize); 6] = [
    (0xd143_7099_6636_792e, 0, 0),
    (0x935f_7cd1_440f_109a, 0, 0),
    (0x1f83_2a8a_2100_90aa, 0, 2),
    (0xeddb_f4a8_e045_5ac4, 0, 1),
    (0x2e41_7515_3bbb_e26c, 0, 1),
    (0x8f2f_ee60_3c07_0ab7, 1, 1),
];

#[test]
fn cache_keys_and_shard_routing_match_their_golden_values() {
    for (job, &(key, of_two, of_three)) in keyed_jobs().iter().zip(&GOLDEN_KEYS) {
        assert_eq!(job.cache_key(), key, "cache key of {job:?}");
        assert_eq!(shard_of(key, 2), of_two, "shard of {key:#x} among 2");
        assert_eq!(shard_of(key, 3), of_three, "shard of {key:#x} among 3");
    }
}
