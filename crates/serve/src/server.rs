//! The concurrent query server: accept loop, per-connection reader
//! threads, a worker pool behind the admission queue, and graceful
//! drain-then-shutdown.
//!
//! ## Thread topology
//!
//! ```text
//! accept loop ──spawns──▶ conn thread (one per client)
//!                            │  decode, canonicalize, cache lookup
//!                            │  hit → reply inline (bypasses the queue)
//!                            ▼  miss
//!                      AdmissionQueue (bounded; full → Overloaded)
//!                            │
//!                            ▼
//!                      worker pool (pipeline Arc captured at admission)
//!                            │  deadline check → execute → cache fill
//!                            ▼
//!                      client socket (mutex-serialized frame writes)
//! ```
//!
//! ## Hot swap
//!
//! The serving pipeline lives in an epoch-versioned slot
//! (`Mutex<PipelineSlot>`). [`Server::stage_pipeline`] parks a
//! replacement, and a persist-plane mutation marks the durable state as
//! staged without building anything; a [`Request::Reload`] promotes
//! what is staged (assembling the durable state into a pipeline at that
//! point, once), bumps the epoch, and flushes the result cache. Cache
//! keys are prefixed with the epoch and each job captures its pipeline
//! `Arc` at admission, so in-flight queries finish on the pipeline they
//! started with and no pre-swap cache entry can answer a post-swap
//! request.
//!
//! Responses are written under a per-connection mutex, so workers and
//! the connection thread can interleave replies safely; clients match
//! responses to requests by envelope id.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips the drain flag, wakes the accept loop,
//! waits for connection threads to stop reading, closes the queue (new
//! work is refused with `ShuttingDown`), and joins the workers — which
//! first finish every already-admitted job. No admitted request is
//! dropped.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use td_core::DiscoveryPipeline;
use td_obs::trace::{ActiveSpan, Trace};
use td_obs::{Counter, Gauge, Histogram, Timer};

use crate::admin::{tree_to_json, TraceConfig, TraceLayer};
use crate::cache::{CacheConfig, CacheStats, ResultCache};
use crate::persist::{serving_snapshot, DurablePipeline};
use crate::protocol::{
    canonical_bytes, decode_request, encode_response, write_frame, DropReply, EndpointStats,
    FramePoll, FrameReader, HealthReply, IngestReply, MetricsReply, Reply, Request,
    ResponseEnvelope, SnapshotReply, StatsReply, Status, MAX_FRAME_BYTES,
};
use crate::queue::{AdmissionQueue, PushError};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` for an ephemeral port.
    pub addr: String,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission queue bound; a full queue sheds with `Overloaded`.
    pub queue_capacity: usize,
    /// Result cache shape.
    pub cache: CacheConfig,
    /// Per-frame payload ceiling.
    pub max_frame_bytes: usize,
    /// Socket read timeout; bounds how fast connection threads observe
    /// the shutdown flag.
    pub poll_interval: Duration,
    /// Request-scoped tracing and admin-plane shape (td-trace).
    pub trace: TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            cache: CacheConfig::default(),
            max_frame_bytes: MAX_FRAME_BYTES,
            poll_interval: Duration::from_millis(25),
            trace: TraceConfig::default(),
        }
    }
}

/// Point-in-time server statistics (all monotonic except `cache`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Decoded request envelopes (every endpoint, including `ping`).
    pub requests: u64,
    /// Requests answered `Ok` (cache hits and executed queries).
    pub served_ok: u64,
    /// Requests shed at admission (`Overloaded`).
    pub shed: u64,
    /// Requests expired in the queue (`DeadlineExceeded`).
    pub deadline_expired: u64,
    /// Frames that failed to decode (`BadRequest`).
    pub bad_requests: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
}

/// One admitted unit of work.
struct Job {
    id: u64,
    req: Request,
    key: Vec<u8>,
    endpoint: &'static str,
    deadline_ms: u64,
    /// Started at admission; workers check it against `deadline_ms`.
    admitted: Timer,
    /// The pipeline captured at admission: a hot swap between admission
    /// and execution must not change what this request runs against.
    pipeline: Arc<DiscoveryPipeline>,
    out: Arc<Mutex<TcpStream>>,
    /// The request's trace (absent when tracing is disabled).
    trace: Option<Trace>,
    /// The open `queue.wait` span: opened by the connection thread at
    /// admission, closed by the worker that dequeues the job — the guard
    /// rides the queue with the request.
    queue_span: Option<ActiveSpan>,
}

/// The epoch-versioned serving pipeline. Readers take the lock only long
/// enough to clone the `Arc` and the epoch; a `Reload` replaces the
/// pipeline and bumps the epoch while in-flight queries keep the `Arc`
/// they were admitted with.
struct PipelineSlot {
    epoch: u64,
    pipeline: Arc<DiscoveryPipeline>,
}

/// What the next [`Request::Reload`] promotes. The last writer wins: a
/// [`Server::stage_pipeline`] call replaces a pending durable marker and
/// a persist-plane mutation replaces a pending explicit pipeline.
enum Staged {
    /// Nothing: a `Reload` bumps the epoch over the serving pipeline.
    Nothing,
    /// A pipeline handed to [`Server::stage_pipeline`].
    Pipeline(Arc<DiscoveryPipeline>),
    /// The durable pipeline's current state; the `Reload` assembles it.
    Durable,
}

/// Registry handles held for the server's lifetime (hot paths must not
/// re-resolve metric names).
struct Metrics {
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    shed: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    latency: HashMap<&'static str, Arc<Histogram>>,
}

impl Metrics {
    fn new() -> Self {
        let reg = td_obs::global();
        let mut latency = HashMap::new();
        latency.insert("ping", reg.histogram("serve.ping.latency_ns"));
        latency.insert("reload", reg.histogram("serve.reload.latency_ns"));
        latency.insert("batch", reg.histogram("serve.batch.latency_ns"));
        for ep in Request::search_endpoints() {
            latency.insert(ep, reg.histogram(&format!("serve.{ep}.latency_ns")));
        }
        for ep in Request::admin_endpoints() {
            latency.insert(ep, reg.histogram(&format!("serve.{ep}.latency_ns")));
        }
        for ep in Request::persist_endpoints() {
            latency.insert(ep, reg.histogram(&format!("serve.{ep}.latency_ns")));
        }
        for ep in Request::shard_endpoints() {
            latency.insert(ep, reg.histogram(&format!("serve.{ep}.latency_ns")));
        }
        Metrics {
            queue_depth: reg.gauge("serve.queue.depth"),
            inflight: reg.gauge("serve.inflight"),
            shed: reg.counter("serve.shed"),
            deadline_expired: reg.counter("serve.deadline_expired"),
            cache_hits: reg.counter("serve.cache.hits"),
            cache_misses: reg.counter("serve.cache.misses"),
            latency,
        }
    }

    fn record_latency(&self, endpoint: &str, elapsed: Duration) {
        if let Some(h) = self.latency.get(endpoint) {
            h.record_duration(elapsed);
        }
    }
}

struct Shared {
    slot: Mutex<PipelineSlot>,
    /// What the next `Reload` promotes. Lock order: `persist` → `staged`
    /// → `slot`.
    staged: Mutex<Staged>,
    queue: AdmissionQueue<Job>,
    cache: ResultCache<Reply>,
    shutting_down: AtomicBool,
    metrics: Metrics,
    requests: AtomicU64,
    served_ok: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    bad_requests: AtomicU64,
    /// td-trace state; absent when tracing is disabled.
    trace: Option<TraceLayer>,
    /// Worker-pool size (reported by `Health`).
    workers: u64,
    /// The durable pipeline behind the persist plane (absent on servers
    /// started without a store). Persist requests serialize on this
    /// mutex; query workers never touch it, so a checkpoint cannot
    /// block in-flight searches.
    persist: Option<Mutex<DurablePipeline>>,
}

fn relock<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Execute one request against the pipeline. Public so tests and
/// benches can compute the *direct in-process* answer and compare it
/// byte-for-byte against the served response.
#[must_use]
pub fn execute(pipeline: &DiscoveryPipeline, req: &Request) -> Reply {
    match req {
        Request::Ping => Reply::Pong,
        Request::Keyword { query, k } => Reply::Scores(pipeline.search_keyword(query, *k)),
        Request::Joinable { column, k } => Reply::Overlaps(pipeline.search_joinable(column, *k)),
        Request::Unionable { table, k } => Reply::Scores(pipeline.search_unionable(table, *k)),
        Request::UnionableSemantic { table, k } => {
            Reply::Scores(pipeline.search_unionable_semantic(table, *k))
        }
        Request::UnionableRelationship { table, k } => {
            Reply::Scores(pipeline.search_unionable_relationship(table, *k))
        }
        Request::FuzzyJoinable { column, tau, k } => {
            Reply::Scores(pipeline.search_fuzzy_joinable(column, *tau, *k))
        }
        Request::MultiJoinable { table, key_cols, k } => {
            Reply::Scores(pipeline.search_multi_joinable(table, key_cols, *k))
        }
        Request::Correlated { key, numeric, k } => {
            Reply::Correlated(pipeline.search_correlated(key, numeric, *k))
        }
        // A direct in-process call has no swap machinery; the server
        // answers `Reload` inline with the real epoch and never routes it
        // here.
        Request::Reload => Reply::Reloaded(0),
        // Likewise the admin plane: answered inline from server state
        // (which a direct in-process call does not have), never routed
        // here — these arms return empty shells.
        Request::Stats => Reply::Stats(StatsReply::default()),
        Request::MetricsDump => Reply::Metrics(MetricsReply::default()),
        Request::SlowQueries { .. } => Reply::SlowQueries(Vec::new()),
        Request::Health => Reply::Health(HealthReply::default()),
        // And the persist plane: routed to the durable pipeline (which a
        // direct in-process call does not have), never here.
        Request::IngestTable { .. } => Reply::Ingested(IngestReply::default()),
        Request::DropTable { .. } => Reply::Dropped(DropReply::default()),
        Request::Snapshot => Reply::Snapshotted(SnapshotReply::default()),
        // The shard plane: the per-shard halves of the coordinator's
        // scatter-gather. They run on the serving pipeline like any
        // search (queued, cacheable, deterministic).
        Request::KeywordStats { query } => Reply::KeywordStats(pipeline.keyword_term_stats(query)),
        Request::KeywordScored { query, k, stats } => {
            Reply::Scores(pipeline.search_keyword_with_stats(query, *k, stats))
        }
        Request::JoinableColumns { column, width } => {
            Reply::OverlapColumns(pipeline.search_joinable_columns(column, *width))
        }
        Request::FuzzyColumns { column, tau, width } => {
            Reply::FuzzyColumns(pipeline.search_fuzzy_columns(column, *tau, *width))
        }
        Request::SemanticCandidates { table } => {
            Reply::CandidateWindows(pipeline.semantic_candidates(table))
        }
        Request::SemanticScored { table, k, tables } => Reply::Scores(
            pipeline.search_semantic_with_candidates(table, *k, &tables.iter().copied().collect()),
        ),
        // A batch frame is a map of singles: one sub-reply per
        // sub-request, in input order, each the single's own answer. The
        // server validates shape at admission; a direct caller handing
        // an invalid batch here still gets a well-formed answer.
        Request::Batch { requests } => {
            Reply::Batch(td_core::run_batch(requests, |r| execute(pipeline, r)))
        }
    }
}

/// Assemble the [`Request::Stats`] answer from the server's own counters
/// plus the global latency histograms. Endpoint rows are emitted in
/// [`Request::search_endpoints`] order — a deterministic rendering.
fn build_stats(shared: &Shared) -> StatsReply {
    let snap = td_obs::global().snapshot();
    let cache = shared.cache.stats();
    let epoch = relock(shared.slot.lock()).epoch;
    let slo = shared
        .trace
        .as_ref()
        .map(TraceLayer::slo_stats)
        .unwrap_or_default();
    let endpoints = Request::search_endpoints()
        .iter()
        .map(|ep| {
            let h = snap.histogram(&format!("serve.{ep}.latency_ns"));
            EndpointStats {
                endpoint: (*ep).to_string(),
                count: h.map_or(0, |h| h.count),
                p50_ns: h.map_or(0.0, |h| h.p50),
                p95_ns: h.map_or(0.0, |h| h.p95),
                p99_ns: h.map_or(0.0, |h| h.p99),
            }
        })
        .collect();
    StatsReply {
        epoch,
        requests: shared.requests.load(Ordering::Relaxed),
        served_ok: shared.served_ok.load(Ordering::Relaxed),
        shed: shared.shed.load(Ordering::Relaxed),
        deadline_expired: shared.deadline_expired.load(Ordering::Relaxed),
        bad_requests: shared.bad_requests.load(Ordering::Relaxed),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        queue_depth: shared.queue.depth() as u64,
        inflight: shared.metrics.inflight.get().max(0.0) as u64,
        slo,
        endpoints,
    }
}

/// Assemble the [`Request::Health`] answer. Segment/tombstone counts come
/// from the `pipeline.*` gauges the segmented pipeline maintains; for a
/// single-segment build they read zero.
fn build_health(shared: &Shared) -> HealthReply {
    let reg = td_obs::global();
    let draining = shared.shutting_down.load(Ordering::SeqCst);
    // Read the epoch in its own statement: inside the struct literal the
    // slot guard (a temporary) would live until the literal completes,
    // i.e. across the gauge/queue-depth lock acquisitions below.
    let epoch = relock(shared.slot.lock()).epoch;
    HealthReply {
        healthy: !draining,
        epoch,
        segments: reg.gauge("pipeline.segments").get().max(0.0) as u64,
        tombstones: reg.gauge("pipeline.tombstones").get().max(0.0) as u64,
        queue_depth: shared.queue.depth() as u64,
        inflight: shared.metrics.inflight.get().max(0.0) as u64,
        workers: shared.workers,
        draining,
        traced: shared.trace.as_ref().map_or(0, |l| l.ring.len() as u64),
    }
}

/// Answer one admin-plane request from server state. The caller guards
/// with [`Request::is_admin`], so the fallback arm is unreachable.
fn answer_admin(shared: &Shared, req: &Request) -> Reply {
    match req {
        Request::Stats => Reply::Stats(build_stats(shared)),
        Request::MetricsDump => {
            let reg = td_obs::global();
            Reply::Metrics(MetricsReply {
                prometheus: reg.export_prometheus(),
                json: reg.export_json(),
            })
        }
        Request::SlowQueries { n } => {
            let trees = shared.trace.as_ref().map_or_else(Vec::new, |l| {
                l.slow.worst(*n).iter().map(tree_to_json).collect()
            });
            Reply::SlowQueries(trees)
        }
        _ => Reply::Health(build_health(shared)),
    }
}

/// Answer one persist-plane request against the durable pipeline.
/// Mutations (`IngestTable`, `DropTable`) are WAL-logged, applied, and
/// synced to stable storage before they are acknowledged; each costs
/// O(table). They stage lazily: the reply says `staged: true`, but the
/// only thing staged is a marker, and the next [`Request::Reload`]
/// assembles the serving pipeline from the durable state — once, however
/// many mutations came before it. Queries keep running against the
/// current epoch until then. `Snapshot` folds the WAL into a new
/// checkpoint file without touching the staged marker or the epoch slot.
///
/// A persistence I/O failure answers `Status::Internal`. A failed append
/// leaves the logical state unchanged (nothing was applied); a failed
/// sync leaves the mutation applied and staged but unacknowledged.
fn answer_persist(shared: &Shared, id: u64, req: &Request) -> ResponseEnvelope {
    let Some(persist) = shared.persist.as_ref() else {
        return ResponseEnvelope::fail(
            id,
            Status::BadRequest,
            "persistence is not configured on this server",
        );
    };
    let mut durable = relock(persist.lock());
    let applied = match req {
        Request::IngestTable {
            id: table_id,
            table,
        } => {
            // td-lint: allow(TD008) the persist mutex exists to serialize WAL append + apply; doing the mutation under it is the point
            let result = durable.ingest_table(*table_id, table);
            result.map(|()| {
                Reply::Ingested(IngestReply {
                    tables: durable.pipeline().len() as u64,
                    wal_records: durable.wal_records(),
                    staged: true,
                })
            })
        }
        Request::DropTable { id: table_id } => {
            // td-lint: allow(TD008) drop is WAL-logged under the persist mutex by design, same as ingest above
            let result = durable.drop_table(*table_id);
            result.map(|existed| {
                Reply::Dropped(DropReply {
                    existed,
                    wal_records: durable.wal_records(),
                    staged: true,
                })
            })
        }
        // `answer_persist` is guarded by `Request::is_persist`, so the
        // remaining persist variant is `Snapshot`.
        _ => {
            // td-lint: allow(TD008) folding the WAL into a checkpoint must exclude concurrent mutations; the persist mutex is that exclusion
            return match durable.checkpoint() {
                Ok(cp) => ResponseEnvelope::ok(
                    id,
                    Reply::Snapshotted(SnapshotReply {
                        seq: cp.snapshot_seq,
                        bytes: cp.snapshot_bytes,
                        wal_records_folded: cp.wal_records_folded,
                    }),
                ),
                Err(e) => ResponseEnvelope::fail(id, Status::Internal, e.to_string()),
            };
        }
    };
    let reply = match applied {
        Ok(reply) => reply,
        Err(e) => return ResponseEnvelope::fail(id, Status::Internal, e.to_string()),
    };
    // The durable state changed: the next `Reload` must assemble it,
    // whether or not the sync below succeeds.
    // td-lint: allow(TD008) lock order persist → staged: a marker set under the persist mutex cannot be missed by a Reload that builds after this mutation; the staged lock is held for one store
    *relock(shared.staged.lock()) = Staged::Durable;
    // td-lint: allow(TD008) the sync must cover exactly the records appended under this mutex, and "acknowledged" must mean durable
    match durable.sync() {
        Ok(()) => ResponseEnvelope::ok(id, reply),
        Err(e) => ResponseEnvelope::fail(id, Status::Internal, e.to_string()),
    }
}

/// Write a response frame; a failed write means the client is gone,
/// which is not the server's error to surface.
fn respond(out: &Arc<Mutex<TcpStream>>, resp: &ResponseEnvelope) {
    if let Ok(payload) = encode_response(resp) {
        let ok = {
            let mut stream = relock(out.lock());
            // td-lint: allow(TD008) the out-mutex exists to keep a whole frame contiguous on the shared stream; writing under it is the point
            write_frame(&mut *stream, &payload).is_ok()
        };
        if !ok {
            td_obs::global().counter("serve.io.write_errors").add(1);
        }
    }
}

/// A running server. Dropping it performs a full graceful shutdown.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
    down: bool,
}

impl Server {
    /// Bind, start the worker pool, and begin accepting clients.
    ///
    /// # Errors
    /// Fails if the listener cannot bind `cfg.addr`.
    pub fn start(pipeline: Arc<DiscoveryPipeline>, cfg: ServerConfig) -> std::io::Result<Server> {
        Self::start_inner(pipeline, None, cfg)
    }

    /// Start a server whose state is backed by a td-store directory: the
    /// initial serving pipeline is merged from the (restored) durable
    /// pipeline, and the persist plane ([`Request::IngestTable`],
    /// [`Request::DropTable`], [`Request::Snapshot`]) is enabled.
    /// Mutations are WAL-logged, applied and synced before they are
    /// acknowledged, and stage lazily: the next [`Request::Reload`]
    /// assembles the durable state into a fresh serving pipeline, once
    /// per reload rather than once per mutation.
    ///
    /// Restore-aware boot is `crate::persist::boot` + this:
    ///
    /// ```no_run
    /// # use td_serve::{Server, ServerConfig};
    /// # let ctx: td_core::segment::PipelineContext = unimplemented!();
    /// let (durable, stats) = td_serve::persist::boot("/var/lib/td", ctx)?;
    /// assert!(stats.restore_ms >= 0.0);
    /// let server = Server::start_durable(durable, ServerConfig::default())?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    /// Fails if the listener cannot bind `cfg.addr`.
    pub fn start_durable(durable: DurablePipeline, cfg: ServerConfig) -> std::io::Result<Server> {
        let pipeline = serving_snapshot(&durable);
        Self::start_inner(pipeline, Some(durable), cfg)
    }

    fn start_inner(
        pipeline: Arc<DiscoveryPipeline>,
        persist: Option<DurablePipeline>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        td_obs::global().gauge("serve.pipeline.epoch").set(0.0);
        let worker_count = cfg.workers.max(1);
        let trace = cfg
            .trace
            .enabled
            .then(|| TraceLayer::new(cfg.trace.clone(), worker_count));
        let shared = Arc::new(Shared {
            slot: Mutex::new(PipelineSlot { epoch: 0, pipeline }),
            staged: Mutex::new(Staged::Nothing),
            queue: AdmissionQueue::new(cfg.queue_capacity),
            cache: ResultCache::new(cfg.cache),
            shutting_down: AtomicBool::new(false),
            metrics: Metrics::new(),
            requests: AtomicU64::new(0),
            served_ok: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            trace,
            workers: worker_count as u64,
            persist: persist.map(Mutex::new),
        });

        let workers = (0..worker_count)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, idx as u64))
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let max_frame = cfg.max_frame_bytes;
            let poll = cfg.poll_interval;
            std::thread::spawn(move || accept_loop(&listener, &shared, &conns, max_frame, poll))
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            conns,
            workers,
            down: false,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stage a pipeline for the next [`Request::Reload`]. Staging is
    /// side-effect free: queries keep running against the current epoch
    /// until a `Reload` promotes the staged pipeline. The last writer
    /// wins: staging again before a reload replaces the previously staged
    /// pipeline, a staged pipeline replaces durable state staged by
    /// earlier persist-plane mutations, and a later mutation replaces the
    /// staged pipeline (that `Reload` then assembles the durable state).
    pub fn stage_pipeline(&self, pipeline: Arc<DiscoveryPipeline>) {
        *relock(self.shared.staged.lock()) = Staged::Pipeline(pipeline);
    }

    /// The pipeline epoch currently serving (starts at 0, bumped by every
    /// [`Request::Reload`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        relock(self.shared.slot.lock()).epoch
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            served_ok: self.shared.served_ok.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            deadline_expired: self.shared.deadline_expired.load(Ordering::Relaxed),
            bad_requests: self.shared.bad_requests.load(Ordering::Relaxed),
            cache: self.shared.cache.stats(),
        }
    }

    /// Graceful drain-then-shutdown: stop accepting, let connection
    /// threads finish their current frame, refuse new admissions, run
    /// every already-admitted job to completion, then join all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it so it can observe the flag.
        // td-lint: allow(TD011) best-effort wake-up dial: a refused connect means the accept loop already exited
        let _ = TcpStream::connect(self.addr);
        let mut panicked = 0u64;
        if let Some(h) = self.accept.take() {
            panicked += u64::from(h.join().is_err());
        }
        let conns = std::mem::take(&mut *relock(self.conns.lock()));
        for h in conns {
            panicked += u64::from(h.join().is_err());
        }
        // Connections are quiet: close the queue so workers drain the
        // backlog and exit.
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            panicked += u64::from(h.join().is_err());
        }
        if panicked > 0 {
            td_obs::global()
                .counter("serve.thread.panics")
                .add(panicked);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_frame: usize,
    poll: Duration,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): drop it.
                    return;
                }
                let shared = Arc::clone(shared);
                let handle =
                    std::thread::spawn(move || connection_loop(stream, &shared, max_frame, poll));
                // Prune exited connection threads so the handle list is
                // bounded by *live* connections, not by lifetime total.
                let mut conns = relock(conns.lock());
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failures (EMFILE, aborted handshakes)
                // must not kill the server; surface them to the operator.
                // td-lint: allow(TD004) accept-loop diagnostics have no other channel
                eprintln!("td-serve: accept error: {e}");
            }
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>, max_frame: usize, poll: Duration) {
    // The read timeout is what lets this thread observe shutdown between
    // (or inside) frames; FrameReader keeps partial progress across
    // timeouts.
    if stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    let out = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut read_half = stream;
    let mut reader = FrameReader::new();
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match reader.poll(&mut read_half, max_frame) {
            Ok(FramePoll::Pending) => {}
            Ok(FramePoll::Eof) => return,
            Ok(FramePoll::Frame(payload)) => handle_frame(&payload, shared, &out),
            Err(e) => {
                // Framing is unrecoverable mid-stream: report and close.
                shared.bad_requests.fetch_add(1, Ordering::Relaxed);
                respond(
                    &out,
                    &ResponseEnvelope::fail(0, Status::BadRequest, e.to_string()),
                );
                return;
            }
        }
    }
}

fn handle_frame(payload: &[u8], shared: &Arc<Shared>, out: &Arc<Mutex<TcpStream>>) {
    let env = match decode_request(payload) {
        Ok(env) => env,
        Err(e) => {
            shared.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond(
                out,
                &ResponseEnvelope::fail(0, Status::BadRequest, e.to_string()),
            );
            return;
        }
    };
    shared.requests.fetch_add(1, Ordering::Relaxed);

    // Liveness probes are answered inline — they must succeed even when
    // the queue is saturated, or health checks flap exactly when the
    // operator needs them.
    if matches!(env.req, Request::Ping) {
        let t = Timer::start();
        shared.served_ok.fetch_add(1, Ordering::Relaxed);
        respond(out, &ResponseEnvelope::ok(env.id, Reply::Pong));
        shared.metrics.record_latency("ping", t.elapsed());
        return;
    }

    // The admin plane is likewise answered inline from server state —
    // observability must keep working exactly when the queue is full or
    // the server is draining.
    if env.req.is_admin() {
        let t = Timer::start();
        let reply = answer_admin(shared, &env.req);
        shared.served_ok.fetch_add(1, Ordering::Relaxed);
        respond(out, &ResponseEnvelope::ok(env.id, reply));
        shared
            .metrics
            .record_latency(env.req.endpoint(), t.elapsed());
        return;
    }

    if shared.shutting_down.load(Ordering::SeqCst) {
        respond(
            out,
            &ResponseEnvelope::fail(env.id, Status::ShuttingDown, "server is draining"),
        );
        return;
    }

    // The persist plane is answered inline on this connection thread:
    // mutations serialize on the durable-pipeline mutex, which no query
    // worker ever takes, so a slow checkpoint cannot stall searches. It
    // sits after the drain check — a draining server refuses mutations.
    if env.req.is_persist() {
        let t = Timer::start();
        let resp = answer_persist(shared, env.id, &env.req);
        if resp.status == Status::Ok {
            shared.served_ok.fetch_add(1, Ordering::Relaxed);
        }
        respond(out, &resp);
        shared
            .metrics
            .record_latency(env.req.endpoint(), t.elapsed());
        return;
    }

    // Batch frames are shape-checked at admission so a malformed batch
    // (empty, oversized, mixed-family, or nesting non-batchable work)
    // fails fast with `BadRequest` instead of occupying a queue slot —
    // and can never panic a worker.
    if let Request::Batch { requests } = &env.req {
        if let Err(e) = Request::validate_batch(requests) {
            shared.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond(out, &ResponseEnvelope::fail(env.id, Status::BadRequest, e));
            return;
        }
    }

    // Hot swap, answered inline: promote what is staged (if anything),
    // bump the epoch, flush the cache. Ordering matters — the epoch/
    // pipeline move under the slot lock first, the flush second: a racing
    // query either carries the old epoch (its stale cache fill is keyed
    // under the old epoch, unreachable by post-swap requests) or the new
    // one (it executes against the new pipeline).
    if matches!(env.req, Request::Reload) {
        let t = Timer::start();
        let staged = std::mem::replace(&mut *relock(shared.staged.lock()), Staged::Nothing);
        let incoming = match staged {
            Staged::Nothing => None,
            Staged::Pipeline(p) => Some(p),
            Staged::Durable => shared.persist.as_ref().map(|persist| {
                let durable = relock(persist.lock());
                // td-lint: allow(TD008) assembling reads the durable pipeline, so it must exclude mutations; it runs once per Reload, and query workers never take the persist mutex
                serving_snapshot(&durable)
            }),
        };
        let (epoch, retired) = {
            let mut slot = relock(shared.slot.lock());
            let retired = incoming.map(|p| std::mem::replace(&mut slot.pipeline, p));
            slot.epoch += 1;
            (slot.epoch, retired)
        };
        // The retired pipeline may be the last reference to a whole index
        // set; free it outside the slot lock every query's epoch read takes.
        drop(retired);
        shared.cache.clear();
        td_obs::global()
            .gauge("serve.pipeline.epoch")
            .set(epoch as f64);
        shared.served_ok.fetch_add(1, Ordering::Relaxed);
        respond(out, &ResponseEnvelope::ok(env.id, Reply::Reloaded(epoch)));
        shared.metrics.record_latency("reload", t.elapsed());
        return;
    }

    // Epoch and pipeline are read under one lock so a request can never
    // pair a new-epoch cache key with an old pipeline (or vice versa).
    let (epoch, pipeline) = {
        let slot = relock(shared.slot.lock());
        (slot.epoch, Arc::clone(&slot.pipeline))
    };

    // The request's trace starts here — everything before this point is
    // framing. The id is a pure function of (server seed, envelope id),
    // so a seeded replay reproduces its trace ids.
    let trace = shared.trace.as_ref().map(|l| {
        let tr = l.start(env.id);
        tr.set_endpoint(env.req.endpoint());
        tr.set_epoch(epoch);
        tr
    });

    // Cache keys are epoch-prefixed: entries filled before a swap are
    // unreachable afterwards even if a racing worker writes one after the
    // flush.
    let key = match canonical_bytes(&env.req) {
        Ok(k) => {
            let mut key = epoch.to_be_bytes().to_vec();
            key.extend_from_slice(&k);
            key
        }
        Err(e) => {
            shared.bad_requests.fetch_add(1, Ordering::Relaxed);
            respond(
                out,
                &ResponseEnvelope::fail(env.id, Status::BadRequest, e.to_string()),
            );
            return;
        }
    };

    // Cache hits bypass admission entirely: they cost microseconds and
    // consuming queue slots for them would shed real work.
    let t = Timer::start();
    let cached = {
        let _lookup = trace.as_ref().map(|tr| tr.open("cache.lookup"));
        shared.cache.get(&key)
    };
    if let Some(reply) = cached {
        shared.metrics.cache_hits.inc();
        shared.served_ok.fetch_add(1, Ordering::Relaxed);
        // Finish the trace before the response leaves: once the client
        // has its reply, an admin probe must already see this request.
        if let (Some(layer), Some(tr)) = (shared.trace.as_ref(), trace.as_ref()) {
            tr.set_cache_hit(true);
            layer.finish(tr.id().0, tr, t.elapsed_ns());
        }
        respond(out, &ResponseEnvelope::ok(env.id, (*reply).clone()));
        shared
            .metrics
            .record_latency(env.req.endpoint(), t.elapsed());
        return;
    }
    shared.metrics.cache_misses.inc();

    let endpoint = env.req.endpoint();
    // The queue-wait span opens on this thread and rides the queue inside
    // the job; the worker that dequeues it drops the guard.
    let queue_span = trace.as_ref().map(|tr| tr.open("queue.wait"));
    let job = Job {
        id: env.id,
        req: env.req,
        key,
        endpoint,
        deadline_ms: env.deadline_ms,
        admitted: Timer::start(),
        pipeline,
        out: Arc::clone(out),
        trace,
        queue_span,
    };
    // Raise the depth gauge *before* the push: once pushed, a worker can
    // pop and decrement immediately, and inc-after-push would let the
    // gauge go negative. The floored decrement on the error paths (and in
    // the workers) keeps concurrent snapshots at zero or above.
    shared.metrics.queue_depth.inc();
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.metrics.queue_depth.dec_floored();
            shared.shed.fetch_add(1, Ordering::Relaxed);
            shared.metrics.shed.inc();
            respond(
                out,
                &ResponseEnvelope::fail(
                    env.id,
                    Status::Overloaded,
                    "admission queue full; retry later",
                ),
            );
        }
        Err(PushError::Closed) => {
            shared.metrics.queue_depth.dec_floored();
            respond(
                out,
                &ResponseEnvelope::fail(env.id, Status::ShuttingDown, "server is draining"),
            );
        }
    }
}

/// Answer a job whose deadline passed while it sat in the queue.
fn expire_job(shared: &Arc<Shared>, worker_idx: u64, job: &Job) {
    shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
    shared.metrics.deadline_expired.inc();
    if let (Some(layer), Some(tr)) = (shared.trace.as_ref(), job.trace.as_ref()) {
        tr.set_status("deadline_exceeded");
        layer.finish(worker_idx, tr, job.admitted.elapsed_ns());
    }
    respond(
        &job.out,
        &ResponseEnvelope::fail(
            job.id,
            Status::DeadlineExceeded,
            "deadline passed while queued",
        ),
    );
}

/// Record, trace-finish, cache, and write one job's reply.
fn deliver(shared: &Arc<Shared>, worker_idx: u64, job: Job, reply: Arc<Reply>, elapsed: Duration) {
    shared.metrics.record_latency(job.endpoint, elapsed);
    if let (Some(layer), Some(tr)) = (shared.trace.as_ref(), job.trace.as_ref()) {
        layer.finish(worker_idx, tr, job.admitted.elapsed_ns());
    }
    let resp = ResponseEnvelope::ok(job.id, (*reply).clone());
    if let Ok(payload) = encode_response(&resp) {
        // Charge the cache what the reply costs on the wire.
        shared.cache.put(job.key, reply, payload.len());
        shared.served_ok.fetch_add(1, Ordering::Relaxed);
        let ok = {
            let mut stream = relock(job.out.lock());
            // td-lint: allow(TD008) frame serialization: the out-mutex is held across the write so concurrent workers cannot interleave frames
            let wrote = write_frame(&mut *stream, &payload).is_ok();
            wrote && stream.flush().is_ok() // td-lint: allow(TD008) same frame-serialization section as the write above
        };
        if !ok {
            td_obs::global().counter("serve.io.write_errors").add(1);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, worker_idx: u64) {
    while let Some(mut job) = shared.queue.pop() {
        shared.metrics.queue_depth.dec_floored();
        // The request is out of the queue: close its queue-wait span.
        drop(job.queue_span.take());
        if job.deadline_ms > 0 && job.admitted.elapsed_ms() > job.deadline_ms as f64 {
            expire_job(shared, worker_idx, &job);
            continue;
        }
        shared.metrics.inflight.inc();
        let t = Timer::start();
        let reply = {
            // Attach the trace to this worker thread for the duration
            // of the query: the pipeline's probe/rank instrumentation
            // finds it through the thread-local and nests under
            // `execute`.
            let _attached = job.trace.as_ref().map(td_obs::trace::attach);
            let _exec = job.trace.as_ref().map(|tr| tr.open("execute"));
            Arc::new(execute(&job.pipeline, &job.req))
        };
        shared.metrics.inflight.dec_floored();
        deliver(shared, worker_idx, job, reply, t.elapsed());
    }
}
