//! Library-level integration tests for the `noc-serve` service layer:
//! persistent-cache bit-identity across simulated daemon restarts,
//! corruption tolerance, version invalidation, and result ordering under
//! concurrent submissions. (The spawned-binary wire test lives in
//! `crates/bench/tests/service_wire.rs`.)

use std::path::PathBuf;
use std::sync::Mutex;

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;
use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline, SyntheticJob};
use noc_sprinting::service::{
    code_version, metrics_from_pairs, DiskResultCache, ServiceResponse, SubmitRequest, SweepService,
};
use noc_sprinting::telemetry::ManifestPoint;
use noc_sprinting::Experiment;

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-service-int-{label}-{}", std::process::id()));
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
            rate: 0.02 + 0.01 * i as f64,
            seed: 1000 + i as u64,
            baseline: SyntheticBaseline::NocSprinting,
        })
        .collect()
}

fn quick_service(cache: DiskResultCache) -> SweepService {
    SweepService::new(
        Experiment::quick(),
        ExperimentRunner::with_workers(3),
        cache,
    )
}

fn collect_points(service: &SweepService, req: &SubmitRequest) -> Vec<ManifestPoint> {
    let mut points = Vec::new();
    service.run_submit(req, &mut |ev| {
        if let ServiceResponse::Point { point, .. } = ev {
            points.push(point);
        }
    });
    points
}

/// The headline acceptance test: run a sweep, "restart the daemon"
/// (drop the service, reopen the cache directory), rerun the same sweep.
/// Every point must be a cache hit and every metric bit-identical to the
/// fresh run.
#[test]
fn cache_round_trip_is_bit_identical_across_restart() {
    let dir = scratch_dir("restart");
    let version = code_version("quick");
    let req = SubmitRequest {
        id: "r1".to_string(),
        label: "restart".to_string(),
        priority: 0,
        jobs: jobs(6),
    };
    let fresh = {
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert_eq!(report.loaded, 0);
        let service = quick_service(cache);
        let points = collect_points(&service, &req);
        assert!(points.iter().all(|p| !p.cache_hit), "first run simulates");
        points
    }; // daemon "dies" here: all in-memory state is gone
    let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
    assert_eq!(
        report.loaded,
        req.jobs.len(),
        "all points reloaded from disk"
    );
    let service = quick_service(cache);
    let mut replayed = Vec::new();
    let summary = service
        .run_submit(&req, &mut |ev| {
            if let ServiceResponse::Point { point, .. } = ev {
                replayed.push(point);
            }
        })
        .expect("no queue limit configured");
    assert_eq!(summary.cache_hits as usize, req.jobs.len(), "all hits");
    assert_eq!(summary.cache_misses, 0);
    for (a, b) in fresh.iter().zip(&replayed) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.config_hash, b.config_hash);
        assert!(!a.cache_hit && b.cache_hit);
        // Bit-identity on every metric, via the exact bit patterns.
        for ((name_a, va), (name_b, vb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(name_a, name_b);
            assert_eq!(va.to_bits(), vb.to_bits(), "metric {name_a} drifted");
        }
        // And the reconstructed metric structs agree too.
        assert_eq!(
            metrics_from_pairs(&a.metrics).unwrap(),
            metrics_from_pairs(&b.metrics).unwrap()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated/corrupted tail line — the crash-mid-append case — must be
/// skipped with a warning, keeping every intact record.
#[test]
fn corrupted_segment_line_is_skipped_not_fatal() {
    let dir = scratch_dir("corrupt");
    let version = code_version("quick");
    let req = SubmitRequest {
        id: "c1".to_string(),
        label: "corrupt".to_string(),
        priority: 0,
        jobs: jobs(3),
    };
    {
        let (cache, _) = DiskResultCache::open(&dir, &version).unwrap();
        let service = quick_service(cache);
        collect_points(&service, &req);
    }
    // Mangle the directory: truncate the last record mid-line and add a
    // segment of pure garbage.
    let mut segs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    segs.sort();
    let seg = segs.first().expect("one segment written");
    let text = std::fs::read_to_string(seg).unwrap();
    let cut = text.trim_end().len() - 20;
    std::fs::write(seg, &text[..cut]).unwrap();
    std::fs::write(dir.join("seg-000099.cache.jsonl"), "{\"type\":\"cach").unwrap();
    let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
    assert_eq!(report.segments, 2);
    assert_eq!(report.loaded, req.jobs.len() - 1, "intact records survive");
    assert_eq!(report.corrupt, 2, "torn tail + garbage segment");
    assert_eq!(report.warnings.len(), 2);
    assert!(report.warnings.iter().all(|w| w.contains("corrupt")));
    // The damaged point is simply a miss on the next run.
    let service = quick_service(cache);
    let points = collect_points(&service, &req);
    assert_eq!(
        points.iter().filter(|p| p.cache_hit).count(),
        req.jobs.len() - 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `count` quick-experiment records into a fresh cache directory
/// and returns the request and the one segment file holding them.
fn persisted_segment(label: &str, count: usize) -> (PathBuf, SubmitRequest, PathBuf) {
    let dir = scratch_dir(label);
    let req = SubmitRequest {
        id: label.to_string(),
        label: label.to_string(),
        priority: 0,
        jobs: jobs(count),
    };
    {
        let (cache, _) = DiskResultCache::open(&dir, code_version("quick")).unwrap();
        let service = quick_service(cache);
        collect_points(&service, &req);
    }
    let segs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    assert_eq!(segs.len(), 1, "one segment written");
    let seg = segs[0].clone();
    (dir, req, seg)
}

/// A line that is not UTF-8 is one corrupt line, like a line that is not
/// JSON: the daemon still starts with every other record.
#[test]
fn non_utf8_segment_line_is_skipped_not_fatal() {
    let (dir, req, seg) = persisted_segment("utf8", 3);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(b"\xff\xfe garbage\n");
    std::fs::write(&seg, &bytes).unwrap();
    let (cache, report) = DiskResultCache::open(&dir, code_version("quick")).unwrap();
    assert_eq!(report.loaded, req.jobs.len(), "every record survives");
    assert_eq!(report.corrupt, 1);
    assert_eq!(report.warnings.len(), 1);
    assert!(
        report.warnings[0].contains("corrupt"),
        "{}",
        report.warnings[0]
    );
    let service = quick_service(cache);
    let points = collect_points(&service, &req);
    assert!(points.iter().all(|p| p.cache_hit));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash can cut the last record at any byte. At every cut the cache
/// reopens with every other record, reports at most the one torn line, and
/// serves the torn point as a miss; only the cut that leaves the whole
/// record (just its newline lost) keeps it.
#[test]
fn truncating_the_last_record_at_every_offset_loses_only_that_record() {
    let (dir, req, seg) = persisted_segment("offsets", 3);
    let whole = std::fs::read(&seg).unwrap();
    let body = &whole[..whole.len() - 1];
    let last_start = body.iter().rposition(|&b| b == b'\n').unwrap() + 1;
    let (last, kept) = req.jobs.split_last().unwrap();
    let version = code_version("quick");
    for cut in last_start..whole.len() {
        std::fs::write(&seg, &whole[..cut]).unwrap();
        let (cache, report) = DiskResultCache::open(&dir, &version).unwrap();
        assert!(
            report.corrupt <= 1,
            "cut {cut}: {} corrupt lines",
            report.corrupt
        );
        for job in kept {
            assert!(
                cache.memory().get(job.cache_key()).is_some(),
                "cut {cut}: record lost"
            );
        }
        let whole_record = cut == whole.len() - 1;
        assert_eq!(
            report.loaded,
            kept.len() + usize::from(whole_record),
            "cut {cut}"
        );
        assert_eq!(
            cache.memory().get(last.cache_key()).is_some(),
            whole_record,
            "cut {cut}"
        );
    }
    // Served end to end (this persists the recomputed point, so it runs once).
    std::fs::write(&seg, &whole[..(last_start + whole.len()) / 2]).unwrap();
    let (cache, _) = DiskResultCache::open(&dir, &version).unwrap();
    let points = collect_points(&quick_service(cache), &req);
    let hits: Vec<bool> = points.iter().map(|p| p.cache_hit).collect();
    assert_eq!(hits, [true, true, false], "the torn point is a miss");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records written by a different code version are invalidated (ignored
/// on load, recomputed, and re-persisted under the current stamp).
#[test]
fn version_stamp_invalidates_stale_records() {
    let dir = scratch_dir("version");
    let req = SubmitRequest {
        id: "v1".to_string(),
        label: "version".to_string(),
        priority: 0,
        jobs: jobs(2),
    };
    {
        let (cache, _) = DiskResultCache::open(&dir, "0.0.9+cache-v0+quick").unwrap();
        let service = quick_service(cache);
        collect_points(&service, &req);
    }
    let (cache, report) = DiskResultCache::open(&dir, code_version("quick")).unwrap();
    assert_eq!(report.loaded, 0);
    assert_eq!(report.stale, req.jobs.len());
    let service = quick_service(cache);
    let points = collect_points(&service, &req);
    assert!(
        points.iter().all(|p| !p.cache_hit),
        "stale entries recompute"
    );
    service.cache().persist_jobs(&req.jobs).unwrap();
    // Compaction drops the stale-version records entirely.
    service.cache().compact().unwrap();
    let (_, report) = DiskResultCache::open(&dir, code_version("quick")).unwrap();
    assert_eq!(report.segments, 1);
    assert_eq!(report.stale, 0);
    assert_eq!(report.loaded, req.jobs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent submissions from multiple client threads: each request's
/// point stream arrives in strict index order with its own id, and both
/// requests see bit-identical metrics for shared operating points.
#[test]
fn concurrent_submissions_preserve_per_request_ordering() {
    let service = quick_service(DiskResultCache::in_memory(code_version("quick")));
    // Overlapping job sets: half shared, half distinct per request.
    let shared = jobs(4);
    let reqs: Vec<SubmitRequest> = (0..3)
        .map(|r| {
            let mut js = shared.clone();
            js.extend(jobs(8).into_iter().skip(4 + r));
            SubmitRequest {
                id: format!("conc-{r}"),
                label: "conc".to_string(),
                priority: 0,
                jobs: js,
            }
        })
        .collect();
    let results: Mutex<Vec<(String, Vec<ManifestPoint>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for req in &reqs {
            let results = &results;
            let service = &service;
            s.spawn(move || {
                let mut points = Vec::new();
                service.run_submit(req, &mut |ev| match ev {
                    ServiceResponse::Point { id, point } => {
                        assert_eq!(id, req.id, "stream events echo their request id");
                        points.push(point);
                    }
                    ServiceResponse::Accepted { id, .. }
                    | ServiceResponse::Progress { id, .. }
                    | ServiceResponse::Done { id, .. } => assert_eq!(id, req.id),
                    other => panic!("unexpected event {other:?}"),
                });
                results.lock().unwrap().push((req.id.clone(), points));
            });
        }
    });
    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), reqs.len());
    for (id, points) in &results {
        let req = reqs.iter().find(|r| &r.id == id).unwrap();
        assert_eq!(points.len(), req.jobs.len());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i, "request {id} streamed out of order");
            assert_eq!(p.seed, req.jobs[i].seed);
        }
    }
    // Shared points are identical across requests (same cache key →
    // same bits, wherever they were computed).
    for key_job in &shared {
        let key = key_job.cache_key();
        let mut bits: Option<Vec<u64>> = None;
        for (_, points) in &results {
            let p = points.iter().find(|p| p.config_hash == key).unwrap();
            let these: Vec<u64> = p.metrics.iter().map(|&(_, v)| v.to_bits()).collect();
            match &bits {
                None => bits = Some(these),
                Some(prev) => assert_eq!(prev, &these, "shared point diverged"),
            }
        }
    }
}

/// Cancelling a batch mid-flight (from inside the event stream, so the
/// batch is genuinely running) stops the remaining points as `cancelled`
/// failures, accounts for every point, and leaves the service healthy.
#[test]
fn mid_flight_cancel_stops_remaining_points() {
    let service = quick_service(DiskResultCache::in_memory(code_version("quick")));
    let req = SubmitRequest {
        id: "mc1".to_string(),
        label: "mid-cancel".to_string(),
        priority: 0,
        jobs: jobs(12),
    };
    let mut cancelled_event = false;
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut ordered: Vec<usize> = Vec::new();
    let summary = service
        .run_submit(&req, &mut |ev| match ev {
            // Trigger the cancel from within the stream: the first
            // progress event proves the batch is in flight.
            ServiceResponse::Progress { .. } if !cancelled_event => {
                cancelled_event = true;
                assert!(service.cancel(&req.id), "batch should be active");
            }
            ServiceResponse::Point { point, .. } => ordered.push(point.index),
            ServiceResponse::PointFailed { index, error, .. } => {
                assert_eq!(error, "cancelled");
                ordered.push(index);
                failures.push((index, error));
            }
            _ => {}
        })
        .expect("no queue limit configured");
    assert!(cancelled_event, "at least one progress event fired");
    assert_eq!(
        summary.ok + summary.failed + summary.cancelled,
        req.jobs.len(),
        "every point accounted for"
    );
    assert_eq!(summary.cancelled, failures.len());
    assert_eq!(summary.failed, 0, "only cancellations, no real failures");
    assert_eq!(
        ordered,
        (0..req.jobs.len()).collect::<Vec<_>>(),
        "strict order held"
    );
    // The registry entry is gone: resubmitting the same id runs clean.
    let rerun = service
        .run_submit(&req, &mut |_| {})
        .expect("no queue limit configured");
    assert_eq!(rerun.ok, req.jobs.len());
    assert_eq!(rerun.cancelled, 0);
}

/// Backpressure end-to-end: a service with a queue limit rejects an
/// oversized batch with `busy` (and no other events), keeps serving
/// afterwards, and admits a high-priority batch past the limit.
#[test]
fn queue_limit_busy_then_recovers() {
    let service =
        quick_service(DiskResultCache::in_memory(code_version("quick"))).with_queue_limit(3);
    let req = SubmitRequest {
        id: "bp1".to_string(),
        label: "backpressure".to_string(),
        priority: 0,
        jobs: jobs(5),
    };
    let mut events = Vec::new();
    let outcome = service.run_submit(&req, &mut |ev| events.push(ev));
    assert!(outcome.is_none(), "oversized batch rejected");
    assert_eq!(events.len(), 1, "busy is the only event");
    assert!(
        matches!(&events[0], ServiceResponse::Busy { id, pending: 0, limit: 3 } if id == "bp1"),
        "got {:?}",
        events[0]
    );
    assert_eq!(service.pending_points(), 0, "rejection admits nothing");
    // Same batch at high priority bypasses the limit entirely...
    let high = SubmitRequest {
        priority: 1,
        ..req.clone()
    };
    let summary = service
        .run_submit(&high, &mut |_| {})
        .expect("priority bypasses the limit");
    assert_eq!(summary.ok, req.jobs.len());
    // ...and the pending count drained, so a fitting batch is admitted.
    let small = SubmitRequest {
        id: "bp2".to_string(),
        label: "fits".to_string(),
        priority: 0,
        jobs: jobs(3),
    };
    let summary = service
        .run_submit(&small, &mut |_| {})
        .expect("within the limit after drain");
    assert_eq!(summary.ok, 3);
}

/// A poisoned cache-disk lock (a panic while holding it) must not take the
/// daemon down: subsequent submissions, persistence, and compaction all
/// recover the guard and keep answering.
#[test]
fn poisoned_disk_lock_keeps_serving_batches() {
    let dir = scratch_dir("poison");
    let (cache, _) = DiskResultCache::open(&dir, code_version("quick")).unwrap();
    let service = quick_service(cache);
    let req = SubmitRequest {
        id: "p1".to_string(),
        label: "poison".to_string(),
        priority: 0,
        jobs: jobs(4),
    };
    let first = service
        .run_submit(&req, &mut |_| {})
        .expect("no queue limit configured");
    assert_eq!(first.ok, req.jobs.len());
    service.cache().poison_for_test();
    // The daemon keeps serving through the poisoned lock: the rerun is
    // answered entirely from cache, persistence and compaction still work.
    let rerun = service
        .run_submit(&req, &mut |_| {})
        .expect("no queue limit configured");
    assert_eq!(rerun.ok, req.jobs.len());
    assert_eq!(
        rerun.cache_hits as usize,
        req.jobs.len(),
        "cache still answers"
    );
    service.cache().persist_jobs(&req.jobs).unwrap();
    let live = service.cache().compact().unwrap();
    assert_eq!(live, req.jobs.len());
    let _ = std::fs::remove_dir_all(&dir);
}
