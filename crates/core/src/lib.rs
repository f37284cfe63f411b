//! # noc-sprinting — interconnect for fine-grained sprinting
//!
//! A from-scratch Rust reproduction of **"NoC-Sprinting: Interconnect for
//! Fine-Grained Sprinting in the Dark Silicon Era"** (Zhan, Xie, Sun —
//! DAC 2014, [DOI 10.1145/2593069.2593165]).
//!
//! In the dark-silicon era a chip can only power a fraction of its cores
//! within the thermal budget. *Computational sprinting* temporarily exceeds
//! the budget by activating every core, buffering the heat in a
//! phase-change material — but it is all-or-nothing and ignores the
//! network. **NoC-sprinting** makes sprinting *fine-grained*: the chip
//! activates exactly the number of cores a workload can use, and the
//! on-chip network provides the support that makes this work:
//!
//! - [`sprint_topology`] — **Algorithm 1**: grow the active region from the
//!   master node in ascending Euclidean distance; every prefix is a convex
//!   region ([`convex`]),
//! - [`cdor`] — **Algorithm 2**: convex dimension-order routing with two
//!   connectivity bits per router; deadlock-free (checked via channel
//!   dependency graphs) and never touching dark routers,
//! - [`floorplan`] — **Algorithms 3 & 4**: thermal-aware physical placement
//!   that spreads co-sprinting nodes apart,
//! - [`gating`] — structural power gating of everything outside the sprint
//!   region,
//! - [`controller`] — sprint-level selection per workload and the policy
//!   roster (non-sprinting / full-sprinting / naive fine-grained /
//!   NoC-sprinting),
//! - [`experiment`] — end-to-end runners reproducing the paper's
//!   evaluation figures on the `noc-sim` / `noc-power` / `noc-thermal` /
//!   `noc-workload` substrates,
//! - [`runner`] — a deterministic parallel [`runner::ExperimentRunner`]
//!   that fans independent operating points across a thread pool with
//!   bit-identical-to-serial results,
//! - [`service`] — the long-lived `noc-serve` sweep-evaluation service
//!   ([`service::SweepService`]) with a crash-safe persistent result cache
//!   ([`service::DiskResultCache`]); wire contract in `SERVICE.md`,
//! - [`metrics`] — live observability: lock-free-where-hot metrics
//!   registry, versioned `stats` snapshots, slow-point detection and
//!   Prometheus text exposition,
//! - [`wire`] — the declarative JSONL codec: every service, cache and
//!   manifest message declared once, encoder, decoder and SERVICE.md
//!   schema rows generated from that declaration,
//! - [`fleet`] — the sharded sweep fabric: hash routing, per-shard prefix
//!   merge and summary merging behind the `noc-fleet` coordinator,
//! - [`config`] — the Table 1 system configuration.
//!
//! [DOI 10.1145/2593069.2593165]: https://doi.org/10.1145/2593069.2593165
//!
//! ## Quickstart
//!
//! ```
//! use noc_sprinting::controller::{SprintController, SprintPolicy};
//! use noc_sprinting::gating::GatingPlan;
//! use noc_workload::profile::by_name;
//!
//! let controller = SprintController::paper();
//! let dedup = by_name("dedup").expect("in the PARSEC roster");
//!
//! // dedup's optimal sprint level is 4 (paper §4.4)...
//! let set = controller.sprint_set(SprintPolicy::NocSprinting, &dedup);
//! assert_eq!(set.level(), 4);
//!
//! // ...which gates 12 of 16 routers for the whole sprint.
//! let plan = GatingPlan::from_sprint_set(&set);
//! assert_eq!(plan.routers_gated(), 12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cdor;
pub mod config;
pub mod controller;
pub mod convex;
pub mod dim;
pub mod experiment;
pub mod fleet;
pub mod floorplan;
pub mod gating;
pub mod llc;
pub mod metrics;
pub mod runner;
pub mod runtime;
pub mod service;
pub mod sprint_topology;
pub mod telemetry;
pub mod wire;

pub use cdor::CdorRouting;
pub use config::SystemConfig;
pub use controller::{SprintController, SprintPolicy};
pub use convex::is_convex;
pub use dim::{DimModel, DimOperation};
pub use experiment::{Experiment, NetworkMetrics, ThermalVariant};
pub use fleet::{merge_summaries, shard_of, sub_batch_id, FleetReorder, ShardPlan};
pub use floorplan::Floorplan;
pub use gating::GatingPlan;
pub use llc::LlcAgent;
pub use metrics::{
    HistogramSnapshot, MetricsRegistry, MetricsSnapshot, ServiceMetrics, ShardHealth, SlowPoint,
    StageBusyTotals, StatsSnapshot,
};
pub use runner::{ExperimentRunner, ResultCache, RunnerProgress, SyntheticBaseline, SyntheticJob};
pub use runtime::{JobRecord, SprintJob, SprintRuntime};
pub use service::{
    BatchSummary, CacheLoadReport, CacheRecord, DiskResultCache, ServiceControl, ServiceRequest,
    ServiceResponse, SubmitRequest, SweepService,
};
pub use sprint_topology::{sprint_order, SprintSet};
pub use telemetry::{
    progress_line, validate_chrome_trace, FaultRecord, JsonValue, ManifestPoint, RunManifest, Span,
    SpanRecorder,
};
