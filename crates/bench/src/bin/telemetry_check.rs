//! `telemetry_check DIR` — validate the telemetry artifacts in a directory.
//!
//! Every `*.manifest.jsonl` must parse as a [`RunManifest`] with a coherent
//! seed schedule, every `"fault"` record must name a valid point and a
//! non-empty event kind, every point carrying packet-accounting metrics
//! must satisfy `generated == delivered + dropped + outstanding`, and every
//! `*.trace.json` must be a well-formed Chrome Trace Event file. `noc-serve`
//! cache segments (`*.cache.jsonl`, see `SERVICE.md`) are validated too:
//! every line must parse as a cache record with a non-empty version stamp,
//! and a key appearing more than once must always carry bit-identical
//! metrics (duplicates across segments are how append-only persistence
//! works; *disagreeing* duplicates mean the cache key is broken). Exits
//! nonzero (with a message per offending file) if anything is malformed or
//! if the directory holds no telemetry at all — which makes it a usable CI
//! smoke check after running a figure binary with `--telemetry DIR` or a
//! daemon with `--cache DIR`.
//!
//! `telemetry_check --fleet DIR` validates a *fleet* cache layout instead:
//! `DIR` must hold `shard-<K>` subdirectories (one per shard, contiguous
//! from 0), each a valid cache directory as above, and every key stored
//! under `shard-<K>` must satisfy the fleet routing rule
//! `shard_of(key, shards) == K` — hash routing is what keeps the shard
//! caches disjoint and mergeable by concatenation, so a mis-owned key is
//! an error. Duplicate keys across shards are impossible by the same rule
//! (within a shard they must agree bit-for-bit as usual).
//!
//! `telemetry_check --stats FILE` validates dumped `stats` snapshots (one
//! JSON object per line, the `noc_top --once --json` format, optionally
//! tagged with a `"target"` field). Per snapshot: every histogram's
//! `count` must equal the sum of its bucket counts, and the accounting
//! identity `submitted == completed + failed + cancelled + in_flight`
//! must hold over the `noc_points_*` metrics. Across consecutive
//! snapshots of the same target: counters, histogram counts/sums, and
//! uptime must be monotonically non-decreasing — a counter that went
//! backwards means torn reads or a lost snapshot source.
//!
//! `telemetry_check --prom FILE` validates a scraped Prometheus text
//! exposition (v0.0.4) dump under the strict line-format checker.

use std::collections::HashMap;

use noc_sprinting::fleet::shard_of;
use noc_sprinting::metrics::{validate_prometheus, StatsSnapshot};
use noc_sprinting::service::CacheRecord;
use noc_sprinting::telemetry::{validate_chrome_trace, JsonValue, RunManifest};

/// Checks one manifest's internal coherence beyond what parsing enforces.
fn check_manifest(m: &RunManifest) -> Result<(), String> {
    if m.figure.is_empty() {
        return Err("empty figure identifier".into());
    }
    if m.workers == 0 {
        return Err("worker count is zero".into());
    }
    if m.seed_schedule.len() != m.points.len() {
        return Err(format!(
            "seed schedule has {} entries for {} points",
            m.seed_schedule.len(),
            m.points.len()
        ));
    }
    for (i, (p, &s)) in m.points.iter().zip(&m.seed_schedule).enumerate() {
        if p.index != i {
            return Err(format!("point {i} records index {}", p.index));
        }
        if p.seed != s {
            return Err(format!("point {i} seed {} != schedule {s}", p.seed));
        }
    }
    let expected = RunManifest::combine_hashes(m.points.iter().map(|p| p.config_hash));
    if m.config_hash != expected {
        return Err(format!(
            "run config hash {:#x} != combined point hashes {expected:#x}",
            m.config_hash
        ));
    }
    for (i, f) in m.faults.iter().enumerate() {
        if f.point >= m.points.len() {
            return Err(format!(
                "fault record {i} names point {} of {}",
                f.point,
                m.points.len()
            ));
        }
        if f.kind.is_empty() {
            return Err(format!("fault record {i} has an empty kind"));
        }
    }
    // Fault-aware runs must account for every measured packet: generated ==
    // delivered + dropped + outstanding, per point (skipped for manifests
    // whose points don't carry the accounting metrics).
    for p in &m.points {
        let get = |k: &str| p.metrics.iter().find(|(n, _)| n == k).map(|&(_, v)| v);
        if let (Some(gen), Some(del), Some(drop), Some(out)) = (
            get("measured_generated"),
            get("measured_delivered"),
            get("measured_dropped"),
            get("measured_outstanding"),
        ) {
            if gen != del + drop + out {
                return Err(format!(
                    "point {} loses packets: generated {gen} != {del} delivered + \
                     {drop} dropped + {out} outstanding",
                    p.index
                ));
            }
        }
    }
    Ok(())
}

/// Validates one `noc-serve` cache segment: every line parses as a
/// [`CacheRecord`] (non-empty version enforced by the parser), the stored
/// seed agrees with earlier sightings of the same key, and duplicate keys
/// carry bit-identical values (compared on the canonical line encoding, so
/// NaN/−0.0 don't false-negative through `f64` equality). Returns
/// `(records, duplicates)` for the segment.
fn check_cache_segment(
    text: &str,
    seen: &mut HashMap<u64, String>,
) -> Result<(usize, usize), String> {
    let (mut records, mut duplicates) = (0usize, 0usize);
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec =
            CacheRecord::from_json_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        records += 1;
        let canonical = rec.to_json_line();
        match seen.insert(rec.key, canonical.clone()) {
            None => {}
            Some(prev) if prev == canonical => duplicates += 1,
            Some(_) => {
                return Err(format!(
                    "line {}: key {:#018x} re-appears with a different value — \
                     the cache key no longer identifies a unique result",
                    lineno + 1,
                    rec.key
                ));
            }
        }
    }
    Ok((records, duplicates))
}

/// Validates a fleet cache layout: `shard-<K>` subdirectories, contiguous
/// from 0, each segment's keys owned by its shard under the routing rule.
/// Returns the process exit code.
fn check_fleet(dir: &str) -> i32 {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read {dir}: {e}");
            return 2;
        }
    };
    let mut shard_dirs: Vec<(usize, std::path::PathBuf)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let path = e.path();
            let index = path
                .file_name()?
                .to_str()?
                .strip_prefix("shard-")?
                .parse::<usize>()
                .ok()?;
            path.is_dir().then_some((index, path))
        })
        .collect();
    shard_dirs.sort();
    if shard_dirs.is_empty() {
        eprintln!("FAIL: no shard-<K> subdirectories in {dir}");
        return 1;
    }
    let shards = shard_dirs.len();
    if shard_dirs.iter().map(|&(i, _)| i).ne(0..shards) {
        let found: Vec<usize> = shard_dirs.iter().map(|&(i, _)| i).collect();
        eprintln!("FAIL: shard directories must be contiguous from 0, found {found:?}");
        return 1;
    }
    let (mut segments, mut records, mut failures) = (0usize, 0usize, 0usize);
    for (shard, shard_dir) in &shard_dirs {
        // Per-shard duplicate tracking: cross-shard duplicates cannot
        // exist when ownership holds, so agreement is a per-shard check.
        let mut seen: HashMap<u64, String> = HashMap::new();
        let mut segs: Vec<_> = match std::fs::read_dir(shard_dir) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.ends_with(".cache.jsonl"))
                })
                .collect(),
            Err(e) => {
                eprintln!("FAIL shard-{shard}: cannot read: {e}");
                failures += 1;
                continue;
            }
        };
        segs.sort();
        if segs.is_empty() {
            eprintln!("FAIL shard-{shard}: no *.cache.jsonl segments");
            failures += 1;
            continue;
        }
        for seg in segs {
            segments += 1;
            let name = seg
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            let outcome = std::fs::read_to_string(&seg)
                .map_err(|e| e.to_string())
                .and_then(|text| check_cache_segment(&text, &mut seen))
                .and_then(|counts| check_shard_ownership(&seen, *shard, shards).map(|()| counts));
            match outcome {
                Ok((recs, dups)) => {
                    records += recs;
                    println!(
                        "ok shard-{shard}/{name}: {recs} cache record(s), {dups} duplicate(s)"
                    );
                }
                Err(e) => {
                    eprintln!("FAIL shard-{shard}/{name}: {e}");
                    failures += 1;
                }
            }
        }
    }
    println!(
        "checked {shards} shard(s), {segments} cache segment(s), {records} record(s), \
         {failures} failure(s)"
    );
    i32::from(failures > 0)
}

/// Every key a shard stores must be routed to that shard — otherwise the
/// fleet's disjoint-cache invariant (and merge-by-concatenation) is gone.
fn check_shard_ownership(
    seen: &HashMap<u64, String>,
    shard: usize,
    shards: usize,
) -> Result<(), String> {
    for &key in seen.keys() {
        let owner = shard_of(key, shards);
        if owner != shard {
            return Err(format!(
                "key {key:#018x} belongs to shard {owner} of {shards}, not shard {shard} — \
                 hash routing violated, shard caches are no longer disjoint"
            ));
        }
    }
    Ok(())
}

/// One snapshot's internal coherence: histogram bucket sums and the
/// point-accounting identity.
fn check_snapshot(s: &StatsSnapshot) -> Result<(), String> {
    for (name, h) in &s.metrics.histograms {
        let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        if bucket_total != h.count {
            return Err(format!(
                "histogram {name}: count {} != sum of bucket counts {bucket_total}",
                h.count
            ));
        }
    }
    if let Some(submitted) = s.metrics.counter("noc_points_submitted_total") {
        let completed = s.metrics.counter("noc_points_completed_total").unwrap_or(0);
        let failed = s.metrics.counter("noc_points_failed_total").unwrap_or(0);
        let cancelled = s.metrics.counter("noc_points_cancelled_total").unwrap_or(0);
        let in_flight = s.metrics.gauge("noc_points_in_flight").unwrap_or(0.0);
        if in_flight < 0.0 || in_flight.fract() != 0.0 {
            return Err(format!(
                "noc_points_in_flight is not a whole count: {in_flight}"
            ));
        }
        let accounted = completed + failed + cancelled + in_flight as u64;
        if submitted != accounted {
            return Err(format!(
                "point accounting broken: submitted {submitted} != \
                 completed {completed} + failed {failed} + cancelled {cancelled} + \
                 in_flight {in_flight}"
            ));
        }
    }
    Ok(())
}

/// Between two polls of the same engine, monotonic quantities may only
/// grow: counters, histogram counts and sums, uptime.
fn check_monotonic(prev: &StatsSnapshot, next: &StatsSnapshot) -> Result<(), String> {
    for &(ref name, was) in &prev.metrics.counters {
        if let Some(now) = next.metrics.counter(name) {
            if now < was {
                return Err(format!("counter {name} went backwards: {was} -> {now}"));
            }
        }
    }
    for (name, was) in &prev.metrics.histograms {
        if let Some(now) = next.metrics.histogram(name) {
            if now.count < was.count || now.sum < was.sum {
                return Err(format!(
                    "histogram {name} went backwards: count {} -> {}, sum {} -> {}",
                    was.count, now.count, was.sum, now.sum
                ));
            }
        }
    }
    if next.uptime_ms < prev.uptime_ms {
        return Err(format!(
            "uptime went backwards: {} -> {} ms (engine restarted between polls?)",
            prev.uptime_ms, next.uptime_ms
        ));
    }
    Ok(())
}

/// Validates a file of dumped `stats` snapshots (JSONL, `noc_top --once
/// --json` format). Returns the process exit code.
fn check_stats(file: &str) -> i32 {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return 2;
        }
    };
    // Consecutive snapshots are compared per target, so interleaved dumps
    // of several engines don't cross-contaminate the monotonicity check.
    let mut last: HashMap<String, StatsSnapshot> = HashMap::new();
    let (mut snapshots, mut failures) = (0usize, 0usize);
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let outcome = JsonValue::parse(line)
            .and_then(|v| {
                let target = v
                    .get("target")
                    .and_then(JsonValue::as_str)
                    .unwrap_or_default()
                    .to_string();
                StatsSnapshot::from_json_line(line).map(|s| (target, s))
            })
            .and_then(|(target, s)| {
                check_snapshot(&s)?;
                if let Some(prev) = last.get(&target) {
                    check_monotonic(prev, &s)?;
                }
                last.insert(target.clone(), s.clone());
                Ok((target, s))
            });
        match outcome {
            Ok((target, s)) => {
                snapshots += 1;
                let label = if target.is_empty() {
                    s.engine.clone()
                } else {
                    target
                };
                println!(
                    "ok line {}: {label} ({}, up {:.0} ms, {} counters, {} histograms)",
                    lineno + 1,
                    s.engine,
                    s.uptime_ms,
                    s.metrics.counters.len(),
                    s.metrics.histograms.len()
                );
            }
            Err(e) => {
                eprintln!("FAIL line {}: {e}", lineno + 1);
                failures += 1;
            }
        }
    }
    if snapshots == 0 && failures == 0 {
        eprintln!("FAIL: no stats snapshots in {file}");
        return 1;
    }
    println!("checked {snapshots} stats snapshot(s), {failures} failure(s)");
    i32::from(failures > 0)
}

/// Validates a scraped Prometheus exposition dump. Returns the exit code.
fn check_prom(file: &str) -> i32 {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return 2;
        }
    };
    match validate_prometheus(&text) {
        Ok(samples) => {
            println!("ok {file}: {samples} exposition sample(s)");
            0
        }
        Err(e) => {
            eprintln!("FAIL {file}: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, target] = args.as_slice() {
        match flag.as_str() {
            "--fleet" => std::process::exit(check_fleet(target)),
            "--stats" => std::process::exit(check_stats(target)),
            "--prom" => std::process::exit(check_prom(target)),
            _ => {}
        }
    }
    let [dir] = args.as_slice() else {
        eprintln!(
            "usage: telemetry_check DIR | telemetry_check --fleet DIR | \
             telemetry_check --stats FILE | telemetry_check --prom FILE"
        );
        std::process::exit(2);
    };
    let dir = dir.clone();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read {dir}: {e}");
            std::process::exit(2);
        }
    };
    let (mut manifests, mut traces, mut segments, mut failures) = (0usize, 0usize, 0usize, 0usize);
    let mut cache_seen: HashMap<u64, String> = HashMap::new();
    let mut paths: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".manifest.jsonl") {
            manifests += 1;
            let outcome = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| RunManifest::from_jsonl(&text))
                .and_then(|m| check_manifest(&m).map(|()| m));
            match outcome {
                Ok(m) => println!(
                    "ok {name}: {} points, {} workers, {} seeds, {} fault records, \
                     config {:#018x}",
                    m.points.len(),
                    m.workers,
                    m.seed_schedule.len(),
                    m.faults.len(),
                    m.config_hash
                ),
                Err(e) => {
                    eprintln!("FAIL {name}: {e}");
                    failures += 1;
                }
            }
        } else if name.ends_with(".trace.json") {
            traces += 1;
            let outcome = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| validate_chrome_trace(&text));
            match outcome {
                Ok(n) => println!("ok {name}: {n} trace events"),
                Err(e) => {
                    eprintln!("FAIL {name}: {e}");
                    failures += 1;
                }
            }
        } else if name.ends_with(".cache.jsonl") {
            segments += 1;
            let outcome = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| check_cache_segment(&text, &mut cache_seen));
            match outcome {
                Ok((records, duplicates)) => {
                    println!("ok {name}: {records} cache record(s), {duplicates} duplicate(s)")
                }
                Err(e) => {
                    eprintln!("FAIL {name}: {e}");
                    failures += 1;
                }
            }
        }
    }
    if manifests == 0 && traces == 0 && segments == 0 {
        eprintln!("FAIL: no *.manifest.jsonl, *.trace.json or *.cache.jsonl files in {dir}");
        std::process::exit(1);
    }
    println!(
        "checked {manifests} manifest(s), {traces} trace(s), {segments} cache segment(s), \
         {failures} failure(s)"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
