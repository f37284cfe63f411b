//! Sharded sweep fabric: the transport-free half of the `noc-fleet`
//! coordinator.
//!
//! One submitted batch is fanned across N `noc-serve` shards by hashing
//! each job's [`SyntheticJob::cache_key`] ([`shard_of`]): a job's shard is
//! a pure function of its identity, so every shard owns a *disjoint* set
//! of cache keys and the shards' append-only segment directories merge by
//! concatenation — compaction never has to reconcile conflicting values.
//!
//! The pieces, all `std`-only and deterministic:
//!
//! - [`shard_of`] — the routing rule (`cache_key % shards`),
//! - [`ShardPlan`] — one batch split into per-shard sub-batches whose
//!   sub-index order preserves the original job order,
//! - [`FleetReorder`] — the per-shard prefix merge: point events arrive
//!   interleaved across shards, each shard's sub-stream already in order;
//!   buffering by original index and releasing the contiguous prefix
//!   restores the contract's strict per-request ordering,
//! - [`merge_summaries`] — combines per-shard `done` accounting into one
//!   batch summary, counting points lost with a dead shard as failures.
//!
//! The socket plumbing (per-shard client threads, the `noc_fleet` binary)
//! lives in the bench crate; this module is what makes a multi-shard run
//! bit-identical to a single-daemon run.

use std::collections::BTreeMap;

use crate::runner::SyntheticJob;
use crate::service::BatchSummary;
use crate::telemetry::RunManifest;

/// The fleet routing rule: the shard that owns `cache_key` among `shards`
/// shards. Every point of a job is computed, cached, and served by its
/// owning shard, so shard cache directories hold disjoint key sets.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of(cache_key: u64, shards: usize) -> usize {
    assert!(shards > 0, "fleet needs at least one shard");
    (cache_key % shards as u64) as usize
}

/// The wire id of one shard's slice of a fleet batch. Shard sub-batches
/// reuse the client's request id with a `#s<shard>` suffix so daemon logs
/// and cancels can be correlated back to the originating request.
pub fn sub_batch_id(id: &str, shard: usize) -> String {
    format!("{id}#s{shard}")
}

/// One batch split across shards by [`shard_of`], preserving job order
/// within each shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `assignments[shard]` = original job indices owned by that shard,
    /// strictly ascending.
    assignments: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Routes every job to its shard. Sub-batches keep the original
    /// relative order, so a shard's k-th point event corresponds to its
    /// k-th assigned index — the property the prefix merge relies on.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(jobs: &[SyntheticJob], shards: usize) -> Self {
        let mut assignments = vec![Vec::new(); shards];
        for (i, job) in jobs.iter().enumerate() {
            assignments[shard_of(job.cache_key(), shards)].push(i);
        }
        ShardPlan { assignments }
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.assignments.len()
    }

    /// The original job indices owned by `shard`, strictly ascending.
    pub fn indices(&self, shard: usize) -> &[usize] {
        &self.assignments[shard]
    }

    /// The sub-batch for `shard`: its owned jobs in original order.
    pub fn sub_jobs(&self, shard: usize, jobs: &[SyntheticJob]) -> Vec<SyntheticJob> {
        self.assignments[shard].iter().map(|&i| jobs[i]).collect()
    }

    /// Maps a shard's sub-batch index back to the original job index.
    pub fn original_index(&self, shard: usize, sub_index: usize) -> Option<usize> {
        self.assignments[shard].get(sub_index).copied()
    }
}

/// The per-shard prefix merge: buffers items keyed by original job index
/// and releases the contiguous prefix, restoring strict per-request order
/// over events that arrive interleaved across shard streams.
///
/// The single daemon's collector releases its point stream through the
/// same buffer; any producer that can label items with their original
/// index can.
#[derive(Debug)]
pub struct FleetReorder<T> {
    pending: BTreeMap<usize, T>,
    next: usize,
    total: usize,
    high_water: usize,
}

impl<T> FleetReorder<T> {
    /// An empty reorder buffer expecting indices `0..total`.
    pub fn new(total: usize) -> Self {
        FleetReorder {
            pending: BTreeMap::new(),
            next: 0,
            total,
            high_water: 0,
        }
    }

    /// Accepts the item for `index` and returns the newly-released
    /// contiguous prefix (possibly empty), in strictly ascending order.
    ///
    /// # Panics
    ///
    /// Panics on an index out of range or already delivered — both are
    /// wire-contract violations by a shard, not recoverable states.
    pub fn push(&mut self, index: usize, item: T) -> Vec<(usize, T)> {
        assert!(
            index < self.total,
            "index {index} out of range {}",
            self.total
        );
        assert!(index >= self.next, "index {index} already released");
        let clobbered = self.pending.insert(index, item);
        assert!(clobbered.is_none(), "index {index} delivered twice");
        self.high_water = self.high_water.max(self.pending.len());
        let mut released = Vec::new();
        while let Some(item) = self.pending.remove(&self.next) {
            released.push((self.next, item));
            self.next += 1;
        }
        released
    }

    /// Whether every index in `0..total` has been released.
    pub fn is_complete(&self) -> bool {
        self.next == self.total && self.pending.is_empty()
    }

    /// The most items ever buffered at once — how far ahead of the
    /// contiguous prefix the shards have run. A persistently high mark
    /// means one slow (or dead) shard is holding back the whole merged
    /// stream; the fleet coordinator exports it as a gauge.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Combines per-shard `done` summaries into the fleet batch's summary.
///
/// `points` is pinned to the full batch size and `config_hash` is
/// recomputed over *all* jobs in original order (a per-shard hash is
/// order-sensitive over the sub-batch only, so the parts cannot simply be
/// combined). Points that no surviving summary accounts for — a shard
/// died mid-batch — are counted as `failed`, matching the `point_failed`
/// events the coordinator synthesizes for them. `wall_ms` is the
/// coordinator's, since shards run concurrently.
pub fn merge_summaries(
    parts: &[BatchSummary],
    jobs: &[SyntheticJob],
    wall_ms: f64,
) -> BatchSummary {
    let accounted: usize = parts.iter().map(|p| p.points).sum();
    BatchSummary {
        points: jobs.len(),
        ok: parts.iter().map(|p| p.ok).sum(),
        failed: parts.iter().map(|p| p.failed).sum::<usize>() + (jobs.len() - accounted),
        cancelled: parts.iter().map(|p| p.cancelled).sum(),
        cache_hits: parts.iter().map(|p| p.cache_hits).sum(),
        cache_misses: parts.iter().map(|p| p.cache_misses).sum(),
        config_hash: RunManifest::combine_hashes(jobs.iter().map(SyntheticJob::cache_key)),
        wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SyntheticBaseline;
    use noc_sim::topology::TopologySpec;
    use noc_sim::traffic::TrafficPattern;

    fn jobs(count: usize) -> Vec<SyntheticJob> {
        (0..count)
            .map(|i| SyntheticJob {
                topology: TopologySpec::default(),
                level: [4, 8][i % 2],
                pattern: TrafficPattern::UniformRandom,
                rate: 0.02 + 0.01 * i as f64,
                seed: 9000 + i as u64,
                baseline: SyntheticBaseline::NocSprinting,
            })
            .collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let jobs = jobs(40);
        for shards in [1, 2, 3, 7] {
            let plan = ShardPlan::new(&jobs, shards);
            assert_eq!(plan.shards(), shards);
            // Every job lands on exactly one shard, at the routed slot.
            let mut seen = vec![false; jobs.len()];
            for shard in 0..shards {
                for (sub, &orig) in plan.indices(shard).iter().enumerate() {
                    assert!(!seen[orig]);
                    seen[orig] = true;
                    assert_eq!(shard_of(jobs[orig].cache_key(), shards), shard);
                    assert_eq!(plan.original_index(shard, sub), Some(orig));
                }
                // Sub-batches preserve original order.
                assert!(plan.indices(shard).windows(2).all(|w| w[0] < w[1]));
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        let jobs = jobs(5);
        let plan = ShardPlan::new(&jobs, 1);
        assert_eq!(plan.indices(0), &[0, 1, 2, 3, 4]);
        assert_eq!(plan.sub_jobs(0, &jobs), jobs);
    }

    #[test]
    fn reorder_releases_contiguous_prefixes() {
        let mut buf: FleetReorder<&str> = FleetReorder::new(4);
        assert!(buf.push(2, "c").is_empty());
        assert!(buf.push(1, "b").is_empty());
        assert_eq!(buf.next, 0);
        assert_eq!(buf.push(0, "a"), vec![(0, "a"), (1, "b"), (2, "c")]);
        assert!(!buf.is_complete());
        assert_eq!(buf.push(3, "d"), vec![(3, "d")]);
        assert!(buf.is_complete());
        // Three items were buffered at once (2, 1, then 0 before release).
        assert_eq!(buf.high_water(), 3);
    }

    #[test]
    #[should_panic(expected = "delivered twice")]
    fn reorder_rejects_duplicate_index() {
        let mut buf: FleetReorder<u32> = FleetReorder::new(4);
        let _ = buf.push(2, 0);
        let _ = buf.push(2, 1);
    }

    #[test]
    fn merged_summary_accounts_for_lost_shards() {
        let jobs = jobs(10);
        let part = |points: usize, ok: usize, hits: u64| BatchSummary {
            points,
            ok,
            failed: points - ok,
            cancelled: 0,
            cache_hits: hits,
            cache_misses: ok as u64 - hits,
            config_hash: 1,
            wall_ms: 5.0,
        };
        // Two shards report 4 + 3 points; 3 points died with a third shard.
        let merged = merge_summaries(&[part(4, 4, 1), part(3, 2, 0)], &jobs, 7.5);
        assert_eq!(merged.points, 10);
        assert_eq!(merged.ok, 6);
        assert_eq!(merged.failed, 1 + 3, "lost points count as failed");
        assert_eq!(merged.cache_hits, 1);
        assert_eq!(merged.wall_ms, 7.5);
        assert_eq!(
            merged.config_hash,
            RunManifest::combine_hashes(jobs.iter().map(SyntheticJob::cache_key)),
            "hash covers the full batch in original order"
        );
    }

    #[test]
    fn sub_batch_ids_embed_the_shard() {
        assert_eq!(sub_batch_id("req-7", 2), "req-7#s2");
    }
}
