//! Client side of the `noc-serve` wire protocol (see `SERVICE.md`).
//!
//! [`ServiceClient`] speaks JSONL over any `BufRead`/`Write` pair — a
//! `UnixStream` to a daemon's socket, a child process's stdio, or in-memory
//! buffers in tests — and turns one `submit` request into a validated
//! [`BatchResult`]: metrics in job order, the daemon's per-point manifest
//! records, and the end-of-batch summary. Every reader of a batch stream
//! — [`ServiceClient::submit`], [`FleetClient::submit`], the fleet's
//! per-shard driver and [`submit_in_process`], which reads an in-process
//! `SweepService` — goes through one `BatchCheck`, which *checks* the
//! contract (ids, counts, strict index order, `done` last) rather than
//! repairing it, so a misbehaving server is an error, not silently
//! repaired data.

use std::io::{BufRead, Write};

use noc_sprinting::experiment::NetworkMetrics;
use noc_sprinting::metrics::StatsSnapshot;
use noc_sprinting::runner::SyntheticJob;
use noc_sprinting::service::{
    metrics_from_pairs, BatchSummary, ServiceRequest, ServiceResponse, SubmitRequest, SweepService,
};
use noc_sprinting::telemetry::ManifestPoint;

/// Why a submission failed from the client's point of view.
#[derive(Debug)]
pub enum ServiceClientError {
    /// The transport failed (write, flush, or read).
    Io(std::io::Error),
    /// The server closed the stream before the batch's `done` event.
    ConnectionClosed,
    /// A response line violated the wire contract (bad JSON, wrong id,
    /// out-of-order point, mismatched metrics…).
    Protocol(String),
    /// The server rejected the batch with a `busy` event (backpressure):
    /// `pending` points were already queued against `limit`.
    Busy {
        /// Points already pending on the server.
        pending: usize,
        /// The effective queue limit the batch was admitted against.
        limit: usize,
    },
    /// The server reported one or more failed points; the batch's
    /// metrics are incomplete.
    PointsFailed(Vec<(usize, String)>),
    /// The server refused the request with an id-less `error` event.
    Server(String),
}

impl std::fmt::Display for ServiceClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceClientError::Io(e) => write!(f, "service transport error: {e}"),
            ServiceClientError::ConnectionClosed => {
                write!(f, "service closed the stream mid-batch")
            }
            ServiceClientError::Protocol(m) => write!(f, "service protocol violation: {m}"),
            ServiceClientError::Busy { pending, limit } => write!(
                f,
                "service busy: {pending} point(s) pending against a limit of {limit}"
            ),
            ServiceClientError::PointsFailed(pts) => {
                write!(f, "{} point(s) failed:", pts.len())?;
                for (i, e) in pts {
                    write!(f, " [{i}] {e};")?;
                }
                Ok(())
            }
            ServiceClientError::Server(m) => write!(f, "service error: {m}"),
        }
    }
}

impl std::error::Error for ServiceClientError {}

impl From<std::io::Error> for ServiceClientError {
    fn from(e: std::io::Error) -> Self {
        ServiceClientError::Io(e)
    }
}

/// A completed batch as observed by the client.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Metrics in job order, reconstructed from the point stream.
    pub metrics: Vec<NetworkMetrics>,
    /// The daemon's per-point manifest records (index, seed, config hash,
    /// cache-hit flag, duration, named metrics), in job order.
    pub points: Vec<ManifestPoint>,
    /// The batch's `done` summary.
    pub summary: BatchSummary,
    /// Advisory `error` messages the server sent for this batch before
    /// `done` (a failed cache append, say); the batch itself completed.
    pub notes: Vec<String>,
}

/// A JSONL connection to a `noc-serve` daemon.
#[derive(Debug)]
pub struct ServiceClient<R, W> {
    reader: R,
    writer: W,
    next_id: u64,
    /// The line being sent or read: one buffer for the connection's life.
    line: String,
}

impl<R: BufRead, W: Write> ServiceClient<R, W> {
    /// Wraps an existing transport (socket halves, child stdio, buffers).
    pub fn over(reader: R, writer: W) -> Self {
        ServiceClient {
            reader,
            writer,
            next_id: 0,
            line: String::new(),
        }
    }

    fn send(&mut self, req: &ServiceRequest) -> Result<(), ServiceClientError> {
        self.line.clear();
        req.write_json_line(&mut self.line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_event(&mut self) -> Result<ServiceResponse, ServiceClientError> {
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(ServiceClientError::ConnectionClosed);
            }
            if self.line.trim().is_empty() {
                continue;
            }
            return ServiceResponse::from_json_line(self.line.trim_end())
                .map_err(ServiceClientError::Protocol);
        }
    }

    /// Sends `req` and reads one answer, which `pick` accepts or hands
    /// back as the wrong event.
    fn call<T>(
        &mut self,
        req: &ServiceRequest,
        expected: &str,
        pick: impl FnOnce(ServiceResponse) -> Result<T, Box<ServiceResponse>>,
    ) -> Result<T, ServiceClientError> {
        self.send(req)?;
        pick(self.read_event()?).map_err(|other| {
            ServiceClientError::Protocol(format!(
                "expected {expected}, got {}",
                other.to_json_line()
            ))
        })
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Transport failure, or anything but `pong` coming back.
    pub fn ping(&mut self) -> Result<(), ServiceClientError> {
        self.ping_identity().map(|_| ())
    }

    /// Round-trips a `ping` and returns the daemon's identity:
    /// `(engine, code_version, uptime_ms)`.
    ///
    /// # Errors
    ///
    /// Transport failure, or anything but `pong` coming back.
    pub fn ping_identity(&mut self) -> Result<(String, String, f64), ServiceClientError> {
        self.call(&ServiceRequest::Ping, "pong", |ev| match ev {
            ServiceResponse::Pong {
                uptime_ms,
                code_version,
                engine,
            } => Ok((engine, code_version, uptime_ms)),
            other => Err(Box::new(other)),
        })
    }

    /// Requests a live-metrics snapshot (`stats` verb).
    ///
    /// # Errors
    ///
    /// Transport failure, or anything but `stats` coming back.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServiceClientError> {
        self.call(&ServiceRequest::Stats, "stats", |ev| match ev {
            ServiceResponse::Stats { snapshot } => Ok(snapshot),
            other => Err(Box::new(other)),
        })
    }

    /// Asks the daemon to exit cleanly (no response is read).
    ///
    /// # Errors
    ///
    /// Transport failure.
    pub fn shutdown(&mut self) -> Result<(), ServiceClientError> {
        self.send(&ServiceRequest::Shutdown)
    }

    /// Cancels the batch with request id `id`. Returns whether the server
    /// reported the batch as in flight (`false` = the cancel was armed for
    /// a future submit). Only meaningful on a connection that is *not*
    /// mid-batch — the daemon serves one request per line per connection,
    /// so cancels targeting a busy connection must travel over a fresh one.
    ///
    /// # Errors
    ///
    /// Transport failure, or anything but `cancelled` coming back.
    pub fn cancel(&mut self, id: &str) -> Result<bool, ServiceClientError> {
        let req = ServiceRequest::Cancel { id: id.to_string() };
        self.call(&req, "cancelled", |ev| match ev {
            ServiceResponse::Cancelled { active, .. } => Ok(active),
            other => Err(Box::new(other)),
        })
    }

    /// Submits one batch at priority 0 and reads its event stream through
    /// `done`, checking every event against the wire contract.
    ///
    /// # Errors
    ///
    /// See [`ServiceClientError`]; `Busy` when the server rejected the
    /// batch under backpressure, `PointsFailed` with the per-point errors
    /// when the batch completed but some points failed.
    pub fn submit(
        &mut self,
        label: &str,
        jobs: &[SyntheticJob],
    ) -> Result<BatchResult, ServiceClientError> {
        let req = submit_request(format!("req-{}", self.next_id), label, jobs);
        self.next_id += 1;
        let mut batch = Collect::new(&req.id, jobs.len());
        self.send(&ServiceRequest::Submit(req))?;
        while batch.summary.is_none() {
            batch.push(self.read_event()?)?;
        }
        batch.finish()
    }
}

fn submit_request(id: String, label: &str, jobs: &[SyntheticJob]) -> SubmitRequest {
    SubmitRequest {
        id,
        label: label.to_string(),
        priority: 0,
        jobs: jobs.to_vec(),
    }
}

/// Runs `req` on an executor that streams the batch's events into an
/// `emit` sink — a [`SweepService`] or a [`FleetClient`] — and collects
/// them through the same checks as [`ServiceClient::submit`].
fn collect_submit(
    req: &SubmitRequest,
    run_submit: impl FnOnce(&SubmitRequest, &mut dyn FnMut(ServiceResponse)) -> Option<BatchSummary>,
) -> Result<BatchResult, ServiceClientError> {
    let mut batch = Collect::new(&req.id, req.jobs.len());
    let mut checked = Ok(());
    run_submit(req, &mut |ev| {
        if checked.is_ok() {
            checked = batch.push(ev);
        }
    });
    checked?;
    batch.finish()
}

/// Runs one batch at priority 0 on an in-process `service` — the daemon's
/// executor without the socket — and collects its event stream through
/// the same checks as [`ServiceClient::submit`].
///
/// # Errors
///
/// As [`ServiceClient::submit`]: `PointsFailed` names every failed point.
pub fn submit_in_process(
    service: &SweepService,
    label: &str,
    jobs: &[SyntheticJob],
) -> Result<BatchResult, ServiceClientError> {
    let req = submit_request("local".to_string(), label, jobs);
    collect_submit(&req, |req, emit| service.run_submit(req, emit))
}

/// The wire contract of one batch's event stream, checked one event at a
/// time so a reader can act on each event as it arrives. It keeps no
/// points; the caller keeps what it needs.
///
/// Rules: every event echoes the batch id; `accepted` comes first and
/// counts every job; `point` and `point_failed` indices run 0, 1, 2, …
/// inside the batch; `done` comes after every point and ends the stream;
/// `busy` ends it too. An `error` carrying the batch id is advisory (the
/// daemon could not persist the batch, say) and reading goes on to
/// `done`; an `error` without an id is the server refusing the request.
/// `pong`, `stats` and `cancelled` do not belong in a batch.
#[derive(Debug)]
struct BatchCheck {
    id: String,
    jobs: usize,
    accepted: bool,
    /// Points (ok or failed) checked so far.
    delivered: usize,
    done: bool,
}

impl BatchCheck {
    /// A checker for batch `id` of `jobs` jobs.
    fn new(id: &str, jobs: usize) -> Self {
        BatchCheck {
            id: id.to_string(),
            jobs,
            accepted: false,
            delivered: 0,
            done: false,
        }
    }

    /// Checks the stream's next event.
    ///
    /// # Errors
    ///
    /// `Busy` for a `busy` event, `Server` for an id-less `error`, and
    /// `Protocol` for any event the contract does not allow here. Each
    /// ends the batch.
    fn on_event(&mut self, ev: &ServiceResponse) -> Result<(), ServiceClientError> {
        use ServiceResponse as R;
        let protocol = |m: String| Err(ServiceClientError::Protocol(m));
        let id = match ev {
            R::Accepted { id, .. }
            | R::Progress { id, .. }
            | R::Point { id, .. }
            | R::PointFailed { id, .. }
            | R::Done { id, .. }
            | R::Busy { id, .. }
            | R::Error { id: Some(id), .. } => id,
            R::Error { id: None, message } => {
                return Err(ServiceClientError::Server(message.clone()))
            }
            R::Cancelled { .. } | R::Pong { .. } | R::Stats { .. } => {
                return protocol(format!("unsolicited {} mid-batch", ev.to_json_line()))
            }
        };
        if *id != self.id {
            return protocol(format!(
                "event for request {id:?} while awaiting {:?}",
                self.id
            ));
        }
        if self.done {
            return protocol(format!("{} after done", ev.to_json_line()));
        }
        match ev {
            R::Busy { pending, limit, .. } => {
                return Err(ServiceClientError::Busy {
                    pending: *pending,
                    limit: *limit,
                })
            }
            R::Error { .. } => {}
            R::Accepted { points, .. } if !self.accepted && *points == self.jobs => {
                self.accepted = true;
            }
            R::Accepted { points, .. } => {
                return protocol(format!(
                    "accepted {points} points for a {}-job batch",
                    self.jobs
                ))
            }
            _ if !self.accepted => {
                return protocol(format!("{} before accepted", ev.to_json_line()))
            }
            R::Point { point, .. } => self.advance("point", point.index)?,
            R::PointFailed { index, .. } => self.advance("point_failed", *index)?,
            R::Done { .. } if self.delivered == self.jobs => self.done = true,
            R::Done { .. } => {
                return protocol(format!(
                    "batch closed with {} of {} points",
                    self.delivered, self.jobs
                ))
            }
            _ => {}
        }
        Ok(())
    }

    fn advance(&mut self, what: &str, index: usize) -> Result<(), ServiceClientError> {
        if index >= self.jobs {
            return Err(ServiceClientError::Protocol(format!(
                "{what} index {index} outside a {}-job batch",
                self.jobs
            )));
        }
        if index != self.delivered {
            return Err(ServiceClientError::Protocol(format!(
                "{what} index {index} out of order (expected {})",
                self.delivered
            )));
        }
        self.delivered += 1;
        Ok(())
    }
}

/// One batch's checked event stream, collected into a [`BatchResult`].
struct Collect {
    check: BatchCheck,
    points: Vec<ManifestPoint>,
    failed: Vec<(usize, String)>,
    notes: Vec<String>,
    summary: Option<BatchSummary>,
}

impl Collect {
    fn new(id: &str, jobs: usize) -> Self {
        Collect {
            check: BatchCheck::new(id, jobs),
            points: Vec::with_capacity(jobs),
            failed: Vec::new(),
            notes: Vec::new(),
            summary: None,
        }
    }

    fn push(&mut self, ev: ServiceResponse) -> Result<(), ServiceClientError> {
        self.check.on_event(&ev)?;
        match ev {
            ServiceResponse::Point { point, .. } => self.points.push(point),
            ServiceResponse::PointFailed { index, error, .. } => self.failed.push((index, error)),
            ServiceResponse::Error { message, .. } => self.notes.push(message),
            ServiceResponse::Done { summary, .. } => self.summary = Some(summary),
            _ => {}
        }
        Ok(())
    }

    fn finish(self) -> Result<BatchResult, ServiceClientError> {
        let summary = self.summary.ok_or(ServiceClientError::ConnectionClosed)?;
        if !self.failed.is_empty() {
            return Err(ServiceClientError::PointsFailed(self.failed));
        }
        let metrics = self
            .points
            .iter()
            .map(|p| metrics_from_pairs(&p.metrics))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ServiceClientError::Protocol)?;
        Ok(BatchResult {
            metrics,
            points: self.points,
            summary,
            notes: self.notes,
        })
    }
}

/// A client over a Unix domain socket (the daemon's `--socket` mode).
#[cfg(unix)]
type UnixServiceClient = ServiceClient<
    std::io::BufReader<std::os::unix::net::UnixStream>,
    std::os::unix::net::UnixStream,
>;

/// Connects to a daemon listening on the Unix socket at `path`.
///
/// # Errors
///
/// Socket connection or handle-duplication failure.
#[cfg(unix)]
pub fn connect_unix(path: &std::path::Path) -> std::io::Result<UnixServiceClient> {
    let stream = std::os::unix::net::UnixStream::connect(path)?;
    let reader = std::io::BufReader::new(stream.try_clone()?);
    Ok(ServiceClient::over(reader, stream))
}

#[cfg(unix)]
pub use fleet_client::FleetClient;

#[cfg(unix)]
mod fleet_client {
    use std::path::PathBuf;
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    use noc_sprinting::fleet::{merge_summaries, sub_batch_id, FleetReorder, ShardPlan};
    use noc_sprinting::metrics::{MetricsRegistry, ShardHealth, STATS_SCHEMA_VERSION};

    use super::*;

    /// The fleet coordinator's own metrics, shared across clones so a
    /// long-lived `noc-fleet` process accumulates over its lifetime.
    #[derive(Debug)]
    struct FleetMetrics {
        registry: MetricsRegistry,
        started: Instant,
    }

    /// What the reorder buffer holds for one original job index: the
    /// point, or the whole `point_failed` event for the fleet batch
    /// (boxed: failures are rare, and points are what queue up).
    type Outcome = Result<ManifestPoint, Box<ServiceResponse>>;

    /// One message from a shard-driver thread to the fleet coordinator.
    enum ShardMsg {
        /// The shard accepted its sub-batch.
        Accepted { shard: usize },
        /// The shard rejected its sub-batch under backpressure.
        Busy {
            shard: usize,
            pending: usize,
            limit: usize,
        },
        /// One point, already translated to its original job index.
        Point { index: usize, outcome: Outcome },
        /// The shard's sub-batch completed with this summary.
        Done { summary: BatchSummary },
        /// An advisory error event from the shard (e.g. persist failure).
        Note { message: String },
        /// The shard died (connect failure, closed stream, protocol
        /// violation) after delivering `delivered` of its points.
        Lost {
            shard: usize,
            delivered: usize,
            message: String,
        },
    }

    /// The fleet coordinator: fans one submitted batch across N `noc-serve`
    /// Unix sockets, hash-routing each job to the shard that owns its cache
    /// key ([`noc_sprinting::fleet::shard_of`]), and merges the shard
    /// streams back into one contract-conforming event stream — `point`
    /// events in strict original-index order, bit-identical to a
    /// single-daemon run of the same batch.
    ///
    /// Failure containment: a shard that dies mid-batch (or never answers)
    /// costs only its own points, which surface as `point_failed` events
    /// with a `shard N lost` error; the rest of the batch completes. A
    /// shard that reports `busy` makes the whole batch busy — the
    /// coordinator cancels the other shards' sub-batches and relays a
    /// single `busy` event upward.
    ///
    /// Every call opens fresh connections, so the client is stateless
    /// between batches and usable from concurrent threads.
    #[derive(Debug, Clone)]
    pub struct FleetClient {
        sockets: Vec<PathBuf>,
        next_id: u64,
        metrics: Arc<FleetMetrics>,
    }

    impl FleetClient {
        /// A coordinator over the daemons listening on `sockets` (one
        /// shard per socket, shard index = position).
        ///
        /// # Panics
        ///
        /// Panics on an empty socket list.
        pub fn new(sockets: Vec<PathBuf>) -> Self {
            assert!(!sockets.is_empty(), "fleet needs at least one shard socket");
            FleetClient {
                sockets,
                next_id: 0,
                metrics: Arc::new(FleetMetrics {
                    registry: MetricsRegistry::new(),
                    started: Instant::now(),
                }),
            }
        }

        /// Number of shards.
        pub fn shards(&self) -> usize {
            self.sockets.len()
        }

        /// Pings every shard; succeeds only if all answer.
        ///
        /// # Errors
        ///
        /// The first shard that cannot be reached or misanswers.
        pub fn ping(&self) -> Result<(), ServiceClientError> {
            self.ping_identity().map(|_| ())
        }

        /// Pings every shard and returns the fleet's identity for a
        /// `pong`: the first shard's code version (shards are expected to
        /// run the same build — version skew shows up in `stats`) and the
        /// coordinator's own uptime.
        ///
        /// # Errors
        ///
        /// The first shard that cannot be reached or misanswers.
        pub fn ping_identity(&self) -> Result<(String, f64), ServiceClientError> {
            let mut version = String::new();
            for socket in &self.sockets {
                let (_, v, _) = connect_unix(socket)?.ping_identity()?;
                if version.is_empty() {
                    version = v;
                }
            }
            Ok((version, self.metrics.started.elapsed().as_secs_f64() * 1e3))
        }

        /// Polls every shard's `stats` and aggregates: counters and gauges
        /// sum by name, histograms merge their log buckets exactly (never
        /// resampled), slow-point logs concatenate in shard order, and
        /// each shard's health lands in `shards`. Unreachable shards are
        /// reported `alive: false` and contribute nothing — a degraded
        /// fleet still answers `stats`. The coordinator's own metrics
        /// (points routed per shard, shard-loss events, reorder-buffer
        /// high-water mark) ride along under `noc_fleet_*` names.
        pub fn stats(&self) -> StatsSnapshot {
            let mut metrics = self.metrics.registry.snapshot();
            let mut slow_points = Vec::new();
            let mut shards = Vec::with_capacity(self.shards());
            let mut code_version = String::new();
            let mut alive = 0usize;
            for (shard, socket) in self.sockets.iter().enumerate() {
                let polled = connect_unix(socket)
                    .map_err(ServiceClientError::from)
                    .and_then(|mut c| c.stats());
                match polled {
                    Ok(s) => {
                        alive += 1;
                        if code_version.is_empty() {
                            code_version = s.code_version.clone();
                        }
                        metrics.merge(&s.metrics);
                        slow_points.extend(s.slow_points);
                        shards.push(ShardHealth {
                            shard,
                            socket: socket.display().to_string(),
                            alive: true,
                            engine: s.engine,
                            code_version: s.code_version,
                            uptime_ms: s.uptime_ms,
                        });
                    }
                    Err(_) => shards.push(ShardHealth {
                        shard,
                        socket: socket.display().to_string(),
                        alive: false,
                        engine: String::new(),
                        code_version: String::new(),
                        uptime_ms: 0.0,
                    }),
                }
            }
            metrics.set_gauge("noc_fleet_shards", self.shards() as f64);
            metrics.set_gauge("noc_fleet_shards_alive", alive as f64);
            StatsSnapshot {
                schema: STATS_SCHEMA_VERSION,
                engine: "noc-fleet".to_string(),
                code_version,
                uptime_ms: self.metrics.started.elapsed().as_secs_f64() * 1e3,
                metrics,
                slow_points,
                shards,
            }
        }

        /// Sends `shutdown` to every shard, continuing past failures (a
        /// dead shard is already shut down).
        ///
        /// # Errors
        ///
        /// The last failure encountered, if any shard was unreachable.
        pub fn shutdown(&self) -> Result<(), ServiceClientError> {
            let mut last = Ok(());
            for socket in &self.sockets {
                let result = connect_unix(socket)
                    .map_err(ServiceClientError::from)
                    .and_then(|mut c| c.shutdown());
                if result.is_err() {
                    last = result;
                }
            }
            last
        }

        /// Forwards a cancel for fleet request `id` to every shard (as the
        /// per-shard sub-batch ids). Returns whether any shard reported
        /// the sub-batch in flight. Unreachable shards are skipped — their
        /// sub-batch is dying with them anyway.
        pub fn cancel(&self, id: &str) -> bool {
            let mut active = false;
            for (shard, socket) in self.sockets.iter().enumerate() {
                if let Ok(mut client) = connect_unix(socket) {
                    if let Ok(a) = client.cancel(&sub_batch_id(id, shard)) {
                        active |= a;
                    }
                }
            }
            active
        }

        /// Evaluates one batch across the fleet, streaming the merged,
        /// strictly-ordered event stream into `emit` — the same contract
        /// as [`noc_sprinting::service::SweepService::run_submit`], and
        /// the same return value: the merged summary, or `None` when a
        /// shard's backpressure made the batch `busy`.
        pub fn run_submit(
            &self,
            req: &SubmitRequest,
            emit: &mut dyn FnMut(ServiceResponse),
        ) -> Option<BatchSummary> {
            let started = std::time::Instant::now();
            let total = req.jobs.len();
            let plan = ShardPlan::new(&req.jobs, self.shards());
            let active: Vec<usize> = (0..self.shards())
                .filter(|&s| !plan.indices(s).is_empty())
                .collect();
            for &shard in &active {
                self.metrics
                    .registry
                    .counter(&format!(
                        "noc_fleet_points_routed_total{{shard=\"{shard}\"}}"
                    ))
                    .add(plan.indices(shard).len() as u64);
            }
            let (tx, rx) = mpsc::channel::<ShardMsg>();
            let mut summaries: Vec<BatchSummary> = Vec::new();
            let mut busy: Option<(usize, usize)> = None;
            let mut reorder: FleetReorder<Outcome> = FleetReorder::new(total);
            // Released outcomes wait here until every shard has accepted —
            // a late `busy` must leave the upward stream untouched.
            let mut ready: Vec<(usize, Outcome)> = Vec::new();
            let mut notes: Vec<String> = Vec::new();
            std::thread::scope(|s| {
                for &shard in &active {
                    let tx = tx.clone();
                    let plan = &plan;
                    s.spawn(move || {
                        drive_shard(&self.sockets[shard], shard, req, plan, &tx);
                    });
                }
                drop(tx);
                // Shards that have answered with `accepted`, `busy` or a loss.
                let mut answered = vec![false; self.shards()];
                let mut terminal = 0usize;
                let mut accepted_emitted = false;
                let mut completed = 0usize;
                let mut progress_emitted = 0usize;
                for msg in rx.iter() {
                    match msg {
                        ShardMsg::Accepted { shard } => answered[shard] = true,
                        ShardMsg::Busy {
                            shard,
                            pending,
                            limit,
                        } => {
                            answered[shard] = true;
                            terminal += 1;
                            if busy.is_none() {
                                busy = Some((pending, limit));
                                // The batch is dead: stop the other shards.
                                for &other in &active {
                                    if other != shard {
                                        if let Ok(mut c) = connect_unix(&self.sockets[other]) {
                                            let _ = c.cancel(&sub_batch_id(&req.id, other));
                                        }
                                    }
                                }
                            }
                        }
                        ShardMsg::Point { index, outcome } => {
                            completed += 1;
                            ready.extend(reorder.push(index, outcome));
                        }
                        ShardMsg::Done { summary } => {
                            terminal += 1;
                            summaries.push(summary);
                        }
                        ShardMsg::Note { message } => notes.push(message),
                        ShardMsg::Lost {
                            shard,
                            delivered,
                            message,
                        } => {
                            self.metrics
                                .registry
                                .counter("noc_fleet_shard_loss_total")
                                .inc();
                            answered[shard] = true;
                            terminal += 1;
                            // The dead shard's undelivered points become
                            // failures; delivery is in sub-index order, so
                            // everything past `delivered` is outstanding.
                            for &orig in &plan.indices(shard)[delivered..] {
                                completed += 1;
                                let job = &req.jobs[orig];
                                let failed = ServiceResponse::PointFailed {
                                    id: req.id.clone(),
                                    index: orig,
                                    config_hash: job.cache_key(),
                                    seed: job.seed,
                                    error: format!("shard {shard} lost: {message}"),
                                };
                                ready.extend(reorder.push(orig, Err(Box::new(failed))));
                            }
                        }
                    }
                    if busy.is_none() {
                        if !accepted_emitted && active.iter().all(|&s| answered[s]) {
                            accepted_emitted = true;
                            emit(ServiceResponse::Accepted {
                                id: req.id.clone(),
                                points: total,
                            });
                        }
                        if accepted_emitted {
                            if completed > progress_emitted {
                                progress_emitted = completed;
                                // The coordinator has no runner of its own;
                                // its ETA extrapolates the batch's observed
                                // rate across what remains.
                                let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                                let eta_ms = Some(
                                    elapsed_ms * (total - completed) as f64 / completed as f64,
                                );
                                emit(ServiceResponse::Progress {
                                    id: req.id.clone(),
                                    completed,
                                    total,
                                    eta_ms,
                                });
                            }
                            for (_, outcome) in ready.drain(..) {
                                emit(match outcome {
                                    Ok(point) => ServiceResponse::Point {
                                        id: req.id.clone(),
                                        point,
                                    },
                                    Err(failed) => *failed,
                                });
                            }
                            for message in notes.drain(..) {
                                emit(ServiceResponse::Error {
                                    id: Some(req.id.clone()),
                                    message,
                                });
                            }
                        }
                    }
                    if terminal == active.len() {
                        break;
                    }
                }
            });
            self.metrics
                .registry
                .gauge("noc_fleet_reorder_high_water")
                .set_max(reorder.high_water() as f64);
            if let Some((pending, limit)) = busy {
                emit(ServiceResponse::Busy {
                    id: req.id.clone(),
                    pending,
                    limit,
                });
                return None;
            }
            // Empty batch: no shard threads ran, so nothing was emitted.
            if active.is_empty() {
                emit(ServiceResponse::Accepted {
                    id: req.id.clone(),
                    points: total,
                });
            }
            debug_assert!(
                reorder.is_complete(),
                "every index delivered or synthesized"
            );
            let summary =
                merge_summaries(&summaries, &req.jobs, started.elapsed().as_secs_f64() * 1e3);
            emit(ServiceResponse::Done {
                id: req.id.clone(),
                summary: summary.clone(),
            });
            Some(summary)
        }

        /// Submits one batch at priority 0 and collects the merged stream
        /// through the same checks as [`ServiceClient::submit`].
        ///
        /// # Errors
        ///
        /// `Busy` when a shard's backpressure rejected the batch,
        /// `PointsFailed` when any point failed (including points lost
        /// with a dead shard).
        pub fn submit(
            &mut self,
            label: &str,
            jobs: &[SyntheticJob],
        ) -> Result<BatchResult, ServiceClientError> {
            let req = submit_request(format!("fleet-{}", self.next_id), label, jobs);
            self.next_id += 1;
            collect_submit(&req, |req, emit| self.run_submit(req, emit))
        }
    }

    /// Drives one shard's sub-batch: submits it, checks the shard's event
    /// stream with a [`BatchCheck`], and forwards each event as it arrives,
    /// translated to original job indices, ending with a `Done`, `Busy` or
    /// `Lost` message. Never panics the coordinator — every failure,
    /// including any break of the wire contract, degrades to `Lost`.
    fn drive_shard(
        socket: &std::path::Path,
        shard: usize,
        req: &SubmitRequest,
        plan: &ShardPlan,
        tx: &mpsc::Sender<ShardMsg>,
    ) {
        let sub = SubmitRequest {
            id: sub_batch_id(&req.id, shard),
            label: req.label.clone(),
            priority: req.priority,
            jobs: plan.sub_jobs(shard, &req.jobs),
        };
        let mut check = BatchCheck::new(&sub.id, sub.jobs.len());
        let mut client = match connect_unix(socket) {
            Ok(c) => c,
            Err(e) => {
                let _ = tx.send(ShardMsg::Lost {
                    shard,
                    delivered: 0,
                    message: format!("connect failed: {e}"),
                });
                return;
            }
        };
        let mut next = client
            .send(&ServiceRequest::Submit(sub))
            .and_then(|()| client.read_event());
        loop {
            let msg = match next.and_then(|ev| check.on_event(&ev).map(|()| ev)) {
                Err(ServiceClientError::Busy { pending, limit }) => ShardMsg::Busy {
                    shard,
                    pending,
                    limit,
                },
                Err(e) => ShardMsg::Lost {
                    shard,
                    delivered: check.delivered,
                    message: e.to_string(),
                },
                Ok(ServiceResponse::Accepted { .. }) => ShardMsg::Accepted { shard },
                Ok(ServiceResponse::Point { mut point, .. }) => {
                    point.index = plan.indices(shard)[point.index];
                    let index = point.index;
                    ShardMsg::Point {
                        index,
                        outcome: Ok(point),
                    }
                }
                Ok(ServiceResponse::PointFailed {
                    index,
                    config_hash,
                    seed,
                    error,
                    ..
                }) => {
                    let index = plan.indices(shard)[index];
                    let failed = ServiceResponse::PointFailed {
                        id: req.id.clone(),
                        index,
                        config_hash,
                        seed,
                        error,
                    };
                    ShardMsg::Point {
                        index,
                        outcome: Err(Box::new(failed)),
                    }
                }
                Ok(ServiceResponse::Done { summary, .. }) => ShardMsg::Done { summary },
                Ok(ServiceResponse::Error { message, .. }) => ShardMsg::Note {
                    message: format!("shard {shard}: {message}"),
                },
                Ok(_) => {
                    // `progress`: the coordinator reports its own.
                    next = client.read_event();
                    continue;
                }
            };
            let last = matches!(
                msg,
                ShardMsg::Busy { .. } | ShardMsg::Lost { .. } | ShardMsg::Done { .. }
            );
            let _ = tx.send(msg);
            if last {
                return;
            }
            next = client.read_event();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::topology::TopologySpec;
    use noc_sim::traffic::TrafficPattern;
    use noc_sprinting::runner::{ExperimentRunner, SyntheticBaseline};
    use noc_sprinting::service::{code_version, DiskResultCache};
    use noc_sprinting::Experiment;

    fn jobs() -> Vec<SyntheticJob> {
        vec![
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::UniformRandom,
                rate: 0.05,
                seed: 1,
                baseline: SyntheticBaseline::NocSprinting,
            },
            SyntheticJob {
                topology: TopologySpec::default(),
                level: 4,
                pattern: TrafficPattern::Transpose,
                rate: 0.08,
                seed: 2,
                baseline: SyntheticBaseline::NocSprinting,
            },
        ]
    }

    /// Drives the client against an in-process service over byte buffers —
    /// the same wire bytes as a socket, no daemon needed.
    #[test]
    fn submit_round_trips_through_wire_bytes() {
        let service = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(2),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let jobs = jobs();
        // Client writes its request into a buffer...
        let mut request_bytes = Vec::new();
        {
            let mut client = ServiceClient::over(std::io::empty(), &mut request_bytes);
            let _ = client.submit("wire", &jobs); // fails on read: no response yet
        }
        // ...the service consumes it and produces the response bytes...
        let mut response_bytes = Vec::new();
        let text = String::from_utf8(request_bytes).unwrap();
        for line in text.lines() {
            service.handle_line(line, &mut |ev| {
                response_bytes.extend_from_slice(ev.to_json_line().as_bytes());
                response_bytes.push(b'\n');
            });
        }
        // ...and a fresh client run over the captured stream validates it
        // (both clients start at id req-0, so the echo matches).
        let mut client = ServiceClient::over(&response_bytes[..], std::io::sink());
        let result = client.submit("wire", &jobs).expect("batch completes");
        assert_eq!(result.metrics.len(), jobs.len());
        assert_eq!(result.summary.points, jobs.len());
        assert_eq!(result.summary.ok, jobs.len());
        let direct = SweepService::new(
            Experiment::quick(),
            ExperimentRunner::with_workers(1),
            DiskResultCache::in_memory(code_version("quick")),
        );
        let mut expected = Vec::new();
        direct.run_submit(
            &SubmitRequest {
                id: "x".to_string(),
                label: "x".to_string(),
                priority: 0,
                jobs: jobs.clone(),
            },
            &mut |ev| {
                if let ServiceResponse::Point { point, .. } = ev {
                    expected.push(metrics_from_pairs(&point.metrics).unwrap());
                }
            },
        );
        assert_eq!(result.metrics, expected, "wire round trip is bit-exact");
    }

    #[test]
    fn out_of_order_points_are_rejected() {
        let lines = [
            r#"{"type":"accepted","id":"req-0","points":2}"#,
            r#"{"type":"point","id":"req-0","index":1,"seed":"0x2","config_hash":"0x2","cache_hit":false,"duration_ms":1,"metrics":{"avg_packet_latency":1,"avg_network_latency":1,"network_power":1,"accepted_throughput":1,"saturated":0}}"#,
        ]
        .join("\n");
        let mut client = ServiceClient::over(lines.as_bytes(), std::io::sink());
        match client.submit("bad", &jobs()) {
            Err(ServiceClientError::Protocol(m)) => assert!(m.contains("out of order"), "{m}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    /// Wire lines of one well-formed two-point batch `id`, with `extra`
    /// lines just before its `done`.
    fn batch_lines(id: &str, extra: &[String]) -> Vec<String> {
        let point = |i| {
            format!(
                r#"{{"type":"point","id":"{id}","index":{i},"seed":"0x2","config_hash":"0x2","cache_hit":false,"duration_ms":1,"metrics":{{"avg_packet_latency":1,"avg_network_latency":1,"network_power":1,"accepted_throughput":1,"saturated":0}}}}"#
            )
        };
        let done = ServiceResponse::Done {
            id: id.to_string(),
            summary: BatchSummary {
                points: 2,
                ok: 2,
                failed: 0,
                cancelled: 0,
                cache_hits: 0,
                cache_misses: 2,
                config_hash: 0,
                wall_ms: 1.0,
            },
        };
        let mut lines = vec![format!(r#"{{"type":"accepted","id":"{id}","points":2}}"#)];
        lines.extend([point(0), point(1)]);
        lines.extend_from_slice(extra);
        lines.push(done.to_json_line());
        lines
    }

    /// An `error` carrying the batch id (the daemon's failed cache append)
    /// is advisory: the batch completes with the message surfaced, and the
    /// next batch on the same connection reads cleanly.
    #[test]
    fn advisory_error_reads_through_to_done() {
        let note = r#"{"type":"error","id":"req-0","message":"cache persist failed: disk full"}"#;
        let mut lines = batch_lines("req-0", &[note.to_string()]);
        lines.extend(batch_lines("req-1", &[]));
        let stream = lines.join("\n");
        let mut client = ServiceClient::over(stream.as_bytes(), std::io::sink());
        let first = client
            .submit("a", &jobs())
            .expect("advisory error is not fatal");
        assert_eq!(first.notes, ["cache persist failed: disk full"]);
        assert_eq!(first.metrics.len(), 2);
        let second = client
            .submit("b", &jobs())
            .expect("connection still in step");
        assert!(second.notes.is_empty());
    }

    /// The checker's fatal cases, one event stream each.
    #[test]
    fn batch_check_rejects_contract_breaks() {
        let accepted = r#"{"type":"accepted","id":"b","points":2}"#;
        let cases: [(&[&str], &str); 6] = [
            (
                &[r#"{"type":"error","message":"bad request: x"}"#],
                "service error: bad request: x",
            ),
            (
                &[r#"{"type":"accepted","id":"b","points":3}"#],
                "accepted 3 points for a 2-job",
            ),
            (
                &[r#"{"type":"accepted","id":"c","points":2}"#],
                "while awaiting \"b\"",
            ),
            (
                &[
                    r#"{"type":"done","id":"b","points":0,"ok":0,"failed":0,"cancelled":0,"cache_hits":0,"cache_misses":0,"config_hash":"0x0","wall_ms":0}"#,
                ],
                "before accepted",
            ),
            (&[accepted, r#"{"type":"pong"}"#], "unsolicited"),
            (
                &[
                    accepted,
                    r#"{"type":"busy","id":"b","pending":1,"limit":1}"#,
                ],
                "service busy",
            ),
        ];
        for (events, expected) in cases {
            let mut check = BatchCheck::new("b", 2);
            let err = events
                .iter()
                .map(|l| check.on_event(&ServiceResponse::from_json_line(l).unwrap()))
                .find_map(Result::err)
                .unwrap_or_else(|| panic!("{events:?} passed"));
            assert!(err.to_string().contains(expected), "{events:?}: {err}");
        }
    }

    #[test]
    fn closed_stream_is_reported() {
        let mut client = ServiceClient::over(&b""[..], std::io::sink());
        assert!(matches!(
            client.submit("closed", &jobs()),
            Err(ServiceClientError::ConnectionClosed)
        ));
    }
}
