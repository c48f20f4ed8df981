//! The wire protocol: length-prefixed JSON frames carrying typed
//! request/response envelopes, plus the canonical request encoder that
//! cache keys are derived from.
//!
//! ## Framing
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Frames longer than the
//! receiver's configured maximum are rejected without buffering.
//!
//! ## Canonicalization
//!
//! Cache keys must be byte-stable across client-side formatting noise:
//! `{"tau":0.5}`, `{"tau":5e-1}`, and `{"k":10.0}` versus `{"k":10}` all
//! describe the same query. The server therefore never keys a cache on
//! raw request bytes — it parses the request into [`Request`] and
//! re-serializes it with the single canonical encoder
//! ([`canonical_bytes`]): struct fields in declaration order, floats in
//! Rust's shortest-round-trip rendering, integers as integers.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use td_core::join::{CorrelatedHit, OverlapHit};
use td_shard::Bm25Stats;
use td_table::{Column, ColumnRef, Table, TableId};

/// Hard ceiling on accepted frame payloads (32 MiB) unless a tighter
/// limit is configured.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Ceiling on the buffer capacity a [`FrameReader`] allocates up front
/// for a declared payload length (64 KiB). A length prefix is attacker
/// data: a client that declares a huge frame and then stalls must tie
/// up at most this much memory, not `declared` bytes. Larger payloads
/// still work — the buffer grows as bytes actually arrive.
pub const MAX_FRAME_PREALLOC: usize = 64 << 10;

/// One discovery query, covering every `DiscoveryPipeline::search_*`
/// entry point plus a `Ping` health check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Keyword search over table metadata.
    Keyword {
        /// Query text.
        query: String,
        /// Results requested.
        k: usize,
    },
    /// Exact top-k joinable tables on a query column.
    Joinable {
        /// Query column.
        column: Column,
        /// Results requested.
        k: usize,
    },
    /// Unionable tables by the ensemble TUS measure.
    Unionable {
        /// Query table.
        table: Table,
        /// Results requested.
        k: usize,
    },
    /// Unionable tables by Starmie's contextual-embedding ranking.
    UnionableSemantic {
        /// Query table.
        table: Table,
        /// Results requested.
        k: usize,
    },
    /// Unionable tables by SANTOS's relationship-aware ranking.
    UnionableRelationship {
        /// Query table.
        table: Table,
        /// Results requested.
        k: usize,
    },
    /// Fuzzily joinable tables under similarity threshold `tau`.
    FuzzyJoinable {
        /// Query column.
        column: Column,
        /// Embedding similarity predicate.
        tau: f32,
        /// Results requested.
        k: usize,
    },
    /// Tables joinable on a composite key (MATE-style row matching).
    MultiJoinable {
        /// Query table.
        table: Table,
        /// Key column indices within the query table.
        key_cols: Vec<usize>,
        /// Results requested.
        k: usize,
    },
    /// Numeric columns correlated with the query's, reachable through a
    /// key join (QCR sketches).
    Correlated {
        /// Query key column.
        key: Column,
        /// Query numeric column.
        numeric: Column,
        /// Results requested.
        k: usize,
    },
    /// Administrative hot swap: atomically promote the staged pipeline
    /// (see `Server::stage_pipeline`; on a durable server, the durable
    /// state staged by persist-plane mutations, assembled here) to
    /// serving, bump the epoch, and flush the result cache. With nothing staged it still bumps the
    /// epoch and flushes — a cache-invalidation barrier. Answered inline
    /// (never queued); in-flight queries finish on the pipeline they were
    /// admitted with.
    Reload,
    /// Admin: per-endpoint throughput/latency, shed/cache counters, and
    /// SLO error-budget accounting. Answered inline, never queued.
    Stats,
    /// Admin: full metrics dump — Prometheus exposition text plus the
    /// registry's JSON rendering. Answered inline, never queued.
    MetricsDump,
    /// Admin: the `n` worst request span trees since boot (over the
    /// server's slow-query latency threshold), worst first. Answered
    /// inline, never queued.
    SlowQueries {
        /// Maximum trees returned.
        n: usize,
    },
    /// Admin: liveness plus topology — pipeline epoch, segment/tombstone
    /// counts, queue depth, in-flight count, drain state. Answered
    /// inline, never queued (health checks must not flap under load).
    Health,
    /// Persist plane: extract, WAL-log, apply, and sync one table into
    /// the durable pipeline, staging the durable state for the next
    /// [`Request::Reload`], which assembles it into a serving pipeline.
    /// Queries keep running against the current epoch until then.
    /// Answered inline; requires a server started with persistence
    /// (`Server::start_durable`).
    IngestTable {
        /// Table id (re-ingesting a live id replaces it).
        id: TableId,
        /// The table itself; extraction happens server-side, once.
        table: Table,
    },
    /// Persist plane: WAL-log, apply, and sync a table drop, staging the
    /// durable state like `IngestTable`. Answered inline; requires
    /// persistence.
    DropTable {
        /// Table id to drop (tombstoned until compaction).
        id: TableId,
    },
    /// Persist plane: checkpoint — fold the WAL into a fresh snapshot
    /// file so the next boot restores instead of replaying. Runs on the
    /// connection thread holding only the persistence lock; in-flight
    /// queries (worker threads, epoch slot) are untouched. Answered
    /// inline; requires persistence.
    Snapshot,
    /// Shard plane: per-shard BM25 statistics for a keyword query
    /// (phase one of the coordinator's two-phase distributed keyword
    /// search — see `td_shard::merge`).
    KeywordStats {
        /// Query text.
        query: String,
    },
    /// Shard plane: keyword search scored against *pinned* corpus
    /// statistics (phase two — every shard scores on the merged global
    /// scale, so the coordinator's merge is byte-identical to a
    /// one-shard answer).
    KeywordScored {
        /// Query text.
        query: String,
        /// Results requested.
        k: usize,
        /// Merged global corpus statistics from phase one.
        stats: Bm25Stats,
    },
    /// Shard plane: the exact-join *column* window (`width` best
    /// overlapping columns). The coordinator merges per-shard windows
    /// and runs the shared table aggregation on the merged window.
    JoinableColumns {
        /// Query column.
        column: Column,
        /// Window width (`td_core::join::exact::column_fetch_width(k)`).
        width: usize,
    },
    /// Shard plane: the fuzzy-join *column* window under threshold
    /// `tau`.
    FuzzyColumns {
        /// Query column.
        column: Column,
        /// Embedding similarity predicate.
        tau: f32,
        /// Window width.
        width: usize,
    },
    /// Shard plane: per-query-column semantic candidate windows (phase
    /// one of two-phase Starmie search).
    SemanticCandidates {
        /// Query table.
        table: Table,
    },
    /// Shard plane: semantic search restricted to a pinned candidate
    /// table set (phase two).
    SemanticScored {
        /// Query table.
        table: Table,
        /// Results requested.
        k: usize,
        /// Merged candidate tables from phase one (sorted ascending).
        tables: Vec<TableId>,
    },
    /// A batch of same-family queries answered as one unit: admitted as
    /// one queue entry and executed as a map of singles (each
    /// sub-request through the same code as a lone request, spread over
    /// cores by `td_core::run_batch`), answered with [`Reply::Batch`]
    /// carrying one sub-reply per sub-request in input order. Each
    /// sub-reply is byte-identical to what the same request sent alone
    /// would return.
    /// Constraints ([`Request::validate_batch`]): 1..=[`MAX_BATCH`]
    /// sub-requests, all of one search or shard-plane family — nested
    /// batches, pings, and the admin/persist planes are rejected as
    /// `BadRequest`.
    Batch {
        /// The sub-requests, all of one family.
        requests: Vec<Request>,
    },
}

/// Ceiling on sub-requests per [`Request::Batch`] frame. Large client
/// workloads split into multiple batches; one frame must stay bounded
/// in queue residency and reply size.
pub const MAX_BATCH: usize = 64;

impl Request {
    /// Stable endpoint name, used for per-endpoint metrics
    /// (`serve.<endpoint>.latency_ns`) and bench breakdowns.
    #[must_use]
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Keyword { .. } => "keyword",
            Request::Joinable { .. } => "joinable",
            Request::Unionable { .. } => "unionable",
            Request::UnionableSemantic { .. } => "unionable_semantic",
            Request::UnionableRelationship { .. } => "unionable_relationship",
            Request::FuzzyJoinable { .. } => "fuzzy_joinable",
            Request::MultiJoinable { .. } => "multi_joinable",
            Request::Correlated { .. } => "correlated",
            Request::Reload => "reload",
            Request::Stats => "stats",
            Request::MetricsDump => "metrics_dump",
            Request::SlowQueries { .. } => "slow_queries",
            Request::Health => "health",
            Request::IngestTable { .. } => "ingest_table",
            Request::DropTable { .. } => "drop_table",
            Request::Snapshot => "snapshot",
            Request::KeywordStats { .. } => "keyword_stats",
            Request::KeywordScored { .. } => "keyword_scored",
            Request::JoinableColumns { .. } => "joinable_columns",
            Request::FuzzyColumns { .. } => "fuzzy_columns",
            Request::SemanticCandidates { .. } => "semantic_candidates",
            Request::SemanticScored { .. } => "semantic_scored",
            Request::Batch { .. } => "batch",
        }
    }

    /// True for the request kinds a [`Request::Batch`] may carry: the
    /// eight search families and the shard plane — read-only queries
    /// answered from one pipeline snapshot. Everything stateful or
    /// inline-answered (ping, reload, admin, persist, nested batches)
    /// is excluded.
    #[must_use]
    pub fn is_batchable(&self) -> bool {
        matches!(
            self,
            Request::Keyword { .. }
                | Request::Joinable { .. }
                | Request::Unionable { .. }
                | Request::UnionableSemantic { .. }
                | Request::UnionableRelationship { .. }
                | Request::FuzzyJoinable { .. }
                | Request::MultiJoinable { .. }
                | Request::Correlated { .. }
                | Request::KeywordStats { .. }
                | Request::KeywordScored { .. }
                | Request::JoinableColumns { .. }
                | Request::FuzzyColumns { .. }
                | Request::SemanticCandidates { .. }
                | Request::SemanticScored { .. }
        )
    }

    /// Validate a batch payload: non-empty, at most [`MAX_BATCH`]
    /// sub-requests, every element batchable, and all of one family
    /// (homogeneous endpoint).
    ///
    /// # Errors
    /// Returns the diagnostic a server should attach to its
    /// `BadRequest` response.
    pub fn validate_batch(requests: &[Request]) -> Result<(), String> {
        if requests.is_empty() {
            return Err("empty batch".into());
        }
        if requests.len() > MAX_BATCH {
            return Err(format!(
                "batch of {} exceeds the {MAX_BATCH}-request limit",
                requests.len()
            ));
        }
        let family = requests[0].endpoint();
        for r in requests {
            if !r.is_batchable() {
                return Err(format!("'{}' requests cannot be batched", r.endpoint()));
            }
            if r.endpoint() != family {
                return Err(format!(
                    "mixed-family batch: '{family}' and '{}'",
                    r.endpoint()
                ));
            }
        }
        Ok(())
    }

    /// Every search endpoint name, in protocol order (excludes `ping`,
    /// `reload`, and the admin plane).
    #[must_use]
    pub fn search_endpoints() -> [&'static str; 8] {
        [
            "keyword",
            "joinable",
            "unionable",
            "unionable_semantic",
            "unionable_relationship",
            "fuzzy_joinable",
            "multi_joinable",
            "correlated",
        ]
    }

    /// Every admin-plane endpoint name, in protocol order.
    #[must_use]
    pub fn admin_endpoints() -> [&'static str; 4] {
        ["stats", "metrics_dump", "slow_queries", "health"]
    }

    /// Every persist-plane endpoint name, in protocol order.
    #[must_use]
    pub fn persist_endpoints() -> [&'static str; 3] {
        ["ingest_table", "drop_table", "snapshot"]
    }

    /// Every shard-plane endpoint name, in protocol order. These are the
    /// per-shard halves of the coordinator's two-phase keyword/semantic
    /// searches and the column-window fetches; they execute on the
    /// serving pipeline like any search request (queued, cacheable).
    #[must_use]
    pub fn shard_endpoints() -> [&'static str; 6] {
        [
            "keyword_stats",
            "keyword_scored",
            "joinable_columns",
            "fuzzy_columns",
            "semantic_candidates",
            "semantic_scored",
        ]
    }

    /// True for the admin observability plane (`Stats`, `MetricsDump`,
    /// `SlowQueries`, `Health`): answered inline from server state,
    /// never queued, never cached, never routed to a pipeline.
    #[must_use]
    pub fn is_admin(&self) -> bool {
        matches!(
            self,
            Request::Stats | Request::MetricsDump | Request::SlowQueries { .. } | Request::Health
        )
    }

    /// True for the persist plane (`IngestTable`, `DropTable`,
    /// `Snapshot`): mutations routed to the durable pipeline, answered
    /// inline, never queued, never cached.
    #[must_use]
    pub fn is_persist(&self) -> bool {
        matches!(
            self,
            Request::IngestTable { .. } | Request::DropTable { .. } | Request::Snapshot
        )
    }

    /// True for the shard plane (`KeywordStats`, `KeywordScored`,
    /// `JoinableColumns`, `FuzzyColumns`, `SemanticCandidates`,
    /// `SemanticScored`): the per-shard halves of the coordinator's
    /// scatter-gather. A server answers them like searches; the
    /// coordinator only sends them and refuses them from clients.
    #[must_use]
    pub fn is_shard_plane(&self) -> bool {
        matches!(
            self,
            Request::KeywordStats { .. }
                | Request::KeywordScored { .. }
                | Request::JoinableColumns { .. }
                | Request::FuzzyColumns { .. }
                | Request::SemanticCandidates { .. }
                | Request::SemanticScored { .. }
        )
    }
}

/// A client-to-server frame payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Per-request deadline in milliseconds from arrival; `0` disables.
    /// A request still queued when its deadline passes is answered
    /// `DeadlineExceeded` without executing.
    pub deadline_ms: u64,
    /// The query.
    pub req: Request,
}

/// Terminal status of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Executed; `reply` carries the result.
    Ok,
    /// Shed at admission: the bounded queue was full. Retry later.
    Overloaded,
    /// The request's deadline passed before execution.
    DeadlineExceeded,
    /// The frame parsed as JSON but not as a valid request envelope.
    BadRequest,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request was valid but the server failed to execute it
    /// (persistence I/O — WAL append, checkpoint write). The logical
    /// state is unchanged; the client may retry.
    Internal,
}

/// A successful query result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Score-ranked tables (keyword, unionable family, fuzzy/multi join).
    Scores(Vec<(TableId, f64)>),
    /// Overlap-ranked tables (exact join).
    Overlaps(Vec<(TableId, usize)>),
    /// Correlated-column hits.
    Correlated(Vec<CorrelatedHit>),
    /// Answer to [`Request::Reload`]: the pipeline epoch now serving.
    Reloaded(u64),
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Answer to [`Request::MetricsDump`].
    Metrics(MetricsReply),
    /// Answer to [`Request::SlowQueries`]: worst first (duration
    /// descending, trace id ascending — a deterministic total order).
    SlowQueries(Vec<TraceJson>),
    /// Answer to [`Request::Health`].
    Health(HealthReply),
    /// Answer to [`Request::IngestTable`].
    Ingested(IngestReply),
    /// Answer to [`Request::DropTable`].
    Dropped(DropReply),
    /// Answer to [`Request::Snapshot`].
    Snapshotted(SnapshotReply),
    /// Answer to [`Request::KeywordStats`].
    KeywordStats(Bm25Stats),
    /// Answer to [`Request::JoinableColumns`]: the shard's exact-join
    /// column window (overlap descending, column ascending).
    OverlapColumns(Vec<OverlapHit>),
    /// Answer to [`Request::FuzzyColumns`]: the shard's fuzzy-join
    /// column window (containment descending, column ascending).
    FuzzyColumns(Vec<(ColumnRef, f64)>),
    /// Answer to [`Request::SemanticCandidates`]: one candidate window
    /// per query column (similarity descending, column ascending).
    CandidateWindows(Vec<Vec<(ColumnRef, f32)>>),
    /// Answer to [`Request::Batch`]: one sub-reply per sub-request, in
    /// input order, each byte-identical to the lone-request answer.
    Batch(Vec<Reply>),
}

/// Answer to [`Request::IngestTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestReply {
    /// Live tables in the durable pipeline after the ingest.
    pub tables: u64,
    /// WAL records accumulated since the last checkpoint.
    pub wal_records: u64,
    /// True when the durable state was staged for the next
    /// [`Request::Reload`] to assemble and promote.
    pub staged: bool,
}

/// Answer to [`Request::DropTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropReply {
    /// True when the id was live (the drop tombstoned something).
    pub existed: bool,
    /// WAL records accumulated since the last checkpoint.
    pub wal_records: u64,
    /// True when the durable state was staged for the next
    /// [`Request::Reload`] to assemble and promote.
    pub staged: bool,
}

/// Answer to [`Request::Snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotReply {
    /// Sequence number of the snapshot file written.
    pub seq: u64,
    /// Snapshot size in bytes.
    pub bytes: u64,
    /// WAL records folded into the snapshot and dropped from the log.
    pub wal_records_folded: u64,
}

/// Latency summary for one endpoint (from the `serve.<endpoint>.latency_ns`
/// histogram; nanoseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Endpoint name.
    pub endpoint: String,
    /// Requests recorded.
    pub count: u64,
    /// Approximate median latency.
    pub p50_ns: f64,
    /// Approximate 95th-percentile latency.
    pub p95_ns: f64,
    /// Approximate 99th-percentile latency.
    pub p99_ns: f64,
}

/// SLO error-budget accounting: of the executed requests, how many blew
/// the latency objective, against an allowed violation fraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloStats {
    /// Latency objective in nanoseconds.
    pub threshold_ns: u64,
    /// Executed requests measured against the objective.
    pub total: u64,
    /// Requests that exceeded the objective.
    pub violations: u64,
    /// Allowed violation fraction (e.g. `0.01` = 1% error budget).
    pub budget: f64,
    /// Budget remaining in `[0, 1]`: `1` = untouched, `0` = exhausted.
    pub budget_remaining: f64,
}

impl Default for SloStats {
    /// The zero-traffic state: nothing measured, so the whole budget
    /// remains (`budget_remaining` defaults to `1`, not `0`).
    fn default() -> Self {
        SloStats {
            threshold_ns: 0,
            total: 0,
            violations: 0,
            budget: 0.0,
            budget_remaining: 1.0,
        }
    }
}

/// Answer to [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Pipeline epoch currently serving.
    pub epoch: u64,
    /// Decoded request envelopes (every endpoint, including admin).
    pub requests: u64,
    /// Requests answered `Ok`.
    pub served_ok: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests expired in the queue.
    pub deadline_expired: u64,
    /// Frames that failed to decode.
    pub bad_requests: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Queries executing at snapshot time.
    pub inflight: u64,
    /// SLO error-budget accounting.
    pub slo: SloStats,
    /// Per-endpoint latency summaries in [`Request::search_endpoints`]
    /// order — a deterministic rendering, never a hash-map drain.
    pub endpoints: Vec<EndpointStats>,
}

/// Answer to [`Request::MetricsDump`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Prometheus text exposition of the metrics registry.
    pub prometheus: String,
    /// JSON rendering of the same registry snapshot.
    pub json: String,
}

/// Answer to [`Request::Health`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReply {
    /// True unless the server is draining.
    pub healthy: bool,
    /// Pipeline epoch currently serving.
    pub epoch: u64,
    /// Live segments in the serving pipeline (from the
    /// `pipeline.segments` gauge; `0` for a single-segment build).
    pub segments: u64,
    /// Tombstoned tables awaiting compaction (`pipeline.tombstones`).
    pub tombstones: u64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Queries executing at snapshot time.
    pub inflight: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// True once shutdown has begun.
    pub draining: bool,
    /// Finished traces currently retained in the trace ring.
    pub traced: u64,
}

/// One span of a request trace on the wire (mirrors
/// `td_obs::trace::TraceNode`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNodeJson {
    /// Span name, e.g. `probe.exact_join`.
    pub name: String,
    /// Offset from the trace start (nanoseconds, or logical ticks when
    /// the server traces with the deterministic logical clock).
    pub start_ns: u64,
    /// Span duration (same unit as `start_ns`).
    pub dur_ns: u64,
    /// Child spans, in open order.
    pub children: Vec<SpanNodeJson>,
}

/// One finished request trace on the wire (mirrors
/// `td_obs::trace::TraceTree`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceJson {
    /// Trace id (derived deterministically from the server's trace seed
    /// and the request envelope id).
    pub trace_id: u64,
    /// Endpoint the request hit.
    pub endpoint: String,
    /// Pipeline epoch the request was admitted under.
    pub epoch: u64,
    /// Terminal status (`ok`, `deadline_exceeded`, …).
    pub status: String,
    /// Whether the result cache answered the request.
    pub cache_hit: bool,
    /// Total duration (same unit as the spans).
    pub dur_ns: u64,
    /// Spans dropped by the per-trace cap.
    pub dropped: u64,
    /// Root spans, in open order.
    pub spans: Vec<SpanNodeJson>,
}

/// A server-to-client frame payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Correlation id copied from the request (`0` when the envelope
    /// could not be parsed far enough to recover one).
    pub id: u64,
    /// Terminal status.
    pub status: Status,
    /// Result when `status` is `Ok`, absent otherwise.
    pub reply: Option<Reply>,
    /// Human-readable diagnostic for non-`Ok` statuses.
    pub error: Option<String>,
    /// Shard ids whose answers are missing from `reply` because the
    /// shard was unreachable — always empty from a single server;
    /// non-empty only from a degraded coordinator, whose merged ranking
    /// then covers the reachable shards only.
    pub degraded: Vec<u32>,
}

impl ResponseEnvelope {
    /// A successful response.
    #[must_use]
    pub fn ok(id: u64, reply: Reply) -> Self {
        ResponseEnvelope {
            id,
            status: Status::Ok,
            reply: Some(reply),
            error: None,
            degraded: Vec::new(),
        }
    }

    /// A successful-but-degraded coordinator response: `reply` merges
    /// the reachable shards; `degraded` names the missing ones.
    #[must_use]
    pub fn ok_degraded(id: u64, reply: Reply, degraded: Vec<u32>) -> Self {
        ResponseEnvelope {
            id,
            status: Status::Ok,
            reply: Some(reply),
            error: None,
            degraded,
        }
    }

    /// A failure response with a diagnostic.
    #[must_use]
    pub fn fail(id: u64, status: Status, error: impl Into<String>) -> Self {
        ResponseEnvelope {
            id,
            status,
            reply: None,
            error: Some(error.into()),
            degraded: Vec::new(),
        }
    }
}

/// Protocol-level failure.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying socket/file error.
    Io(io::Error),
    /// A frame exceeded the configured maximum payload size.
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// Payload was not valid JSON for the expected envelope type.
    Decode(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::Decode(m) => write!(f, "decode error: {m}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Serialize a request with the canonical encoder. Two semantically
/// equal requests — regardless of how the client formatted floats or
/// ordered JSON text — produce identical bytes, so these are the cache
/// key.
///
/// # Errors
/// Fails only if the value cannot be rendered as JSON (unrepresentable
/// map keys — impossible for [`Request`]'s types, kept as a `Result`
/// rather than a hidden panic).
pub fn canonical_bytes(req: &Request) -> Result<Vec<u8>, ProtocolError> {
    serde_json::to_string(req)
        .map(String::into_bytes)
        .map_err(|e| ProtocolError::Decode(e.to_string()))
}

/// Serialize a response envelope with the canonical encoder (the same
/// deterministic rendering clients can reproduce for byte-for-byte
/// comparison against direct in-process calls).
///
/// # Errors
/// Same (practically unreachable) condition as [`canonical_bytes`].
pub fn encode_response(resp: &ResponseEnvelope) -> Result<Vec<u8>, ProtocolError> {
    serde_json::to_string(resp)
        .map(String::into_bytes)
        .map_err(|e| ProtocolError::Decode(e.to_string()))
}

/// Parse a request envelope from frame payload bytes.
///
/// # Errors
/// Fails on non-UTF-8 payloads, malformed JSON, or a shape mismatch.
pub fn decode_request(payload: &[u8]) -> Result<RequestEnvelope, ProtocolError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ProtocolError::Decode(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Decode(e.to_string()))
}

/// Parse a response envelope from frame payload bytes.
///
/// # Errors
/// Fails on non-UTF-8 payloads, malformed JSON, or a shape mismatch.
pub fn decode_response(payload: &[u8]) -> Result<ResponseEnvelope, ProtocolError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ProtocolError::Decode(format!("not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| ProtocolError::Decode(e.to_string()))
}

/// Write one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
/// Propagates socket errors; rejects payloads over [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge {
            declared: payload.len(),
            max: MAX_FRAME_BYTES,
        });
    }
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX); // bounded by MAX_FRAME_BYTES above
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Outcome of one [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum FramePoll {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly (EOF between frames).
    Eof,
    /// No complete frame yet (the socket's read timeout elapsed);
    /// partial state is retained — call `poll` again.
    Pending,
}

/// Incremental frame reader that survives read timeouts mid-frame.
///
/// Server connection threads read with a socket timeout so they can
/// observe the shutdown flag between frames; a timeout must not discard
/// partially received bytes, so the reader keeps its progress across
/// `poll` calls.
#[derive(Debug, Default)]
pub struct FrameReader {
    len_buf: [u8; 4],
    len_got: usize,
    body: Vec<u8>,
    body_need: Option<usize>,
}

impl FrameReader {
    /// A reader with no buffered state.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Advance the in-progress frame with bytes from `r`.
    ///
    /// # Errors
    /// Propagates socket errors, EOF mid-frame, and frames whose
    /// declared length exceeds `max_payload`.
    pub fn poll(
        &mut self,
        r: &mut impl Read,
        max_payload: usize,
    ) -> Result<FramePoll, ProtocolError> {
        // Phase 1: the 4-byte length prefix.
        while self.body_need.is_none() {
            match r.read(&mut self.len_buf[self.len_got..]) {
                Ok(0) => {
                    if self.len_got == 0 {
                        return Ok(FramePoll::Eof);
                    }
                    return Err(ProtocolError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside frame header",
                    )));
                }
                Ok(n) => {
                    self.len_got += n;
                    if self.len_got == 4 {
                        let declared = u32::from_be_bytes(self.len_buf) as usize;
                        if declared > max_payload {
                            return Err(ProtocolError::FrameTooLarge {
                                declared,
                                max: max_payload,
                            });
                        }
                        // The declared length is untrusted until the
                        // bytes actually arrive: allocate at most
                        // MAX_FRAME_PREALLOC up front and let the buffer
                        // grow with real data.
                        self.body = Vec::with_capacity(declared.min(MAX_FRAME_PREALLOC));
                        self.body_need = Some(declared);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FramePoll::Pending);
                }
                Err(e) => return Err(ProtocolError::Io(e)),
            }
        }
        // Phase 2: the payload.
        let need = self.body_need.unwrap_or(0);
        let mut chunk = [0u8; 8192];
        while self.body.len() < need {
            let want = (need - self.body.len()).min(chunk.len());
            match r.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(ProtocolError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside frame payload",
                    )));
                }
                Ok(n) => self.body.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FramePoll::Pending);
                }
                Err(e) => return Err(ProtocolError::Io(e)),
            }
        }
        let payload = std::mem::take(&mut self.body);
        self.len_got = 0;
        self.body_need = None;
        Ok(FramePoll::Frame(payload))
    }
}

/// Read frames until one completes or the stream ends — the blocking
/// convenience used by clients (whose sockets have no read timeout).
///
/// # Errors
/// Propagates the same conditions as [`FrameReader::poll`].
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(r, max_payload)? {
            FramePoll::Frame(p) => return Ok(Some(p)),
            FramePoll::Eof => return Ok(None),
            FramePoll::Pending => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_table::Column;

    fn fuzzy(tau_text: &str, k_text: &str) -> RequestEnvelope {
        let text = format!(
            "{{\"deadline_ms\":0,\"id\":9,\"req\":{{\"FuzzyJoinable\":{{\"column\":{{\"name\":\"c\",\"values\":[{{\"Text\":\"x\"}}]}},\"tau\":{tau_text},\"k\":{k_text}}}}}}}"
        );
        decode_request(text.as_bytes()).expect("parse")
    }

    #[test]
    fn canonical_bytes_are_stable_across_float_formatting() {
        // `5e-1` vs `0.5`, `10.0` vs `10`: same query, same cache slot.
        let a = fuzzy("0.5", "10");
        let b = fuzzy("5e-1", "10.0");
        assert_eq!(a.req, b.req);
        assert_eq!(
            canonical_bytes(&a.req).expect("canonical"),
            canonical_bytes(&b.req).expect("canonical"),
        );
    }

    #[test]
    fn canonical_bytes_distinguish_different_requests() {
        let a = fuzzy("0.5", "10");
        let b = fuzzy("0.25", "10");
        assert_ne!(
            canonical_bytes(&a.req).expect("canonical"),
            canonical_bytes(&b.req).expect("canonical"),
        );
    }

    #[test]
    fn envelopes_round_trip() {
        let env = RequestEnvelope {
            id: 42,
            deadline_ms: 250,
            req: Request::Keyword {
                query: "census".into(),
                k: 5,
            },
        };
        let bytes = serde_json::to_string(&env).expect("encode").into_bytes();
        let back = decode_request(&bytes).expect("decode");
        assert_eq!(back, env);

        let resp = ResponseEnvelope::ok(42, Reply::Scores(vec![(TableId(3), 0.75)]));
        let bytes = encode_response(&resp).expect("encode");
        let back = decode_response(&bytes).expect("decode");
        assert_eq!(back, resp);
    }

    #[test]
    fn frames_round_trip_and_enforce_limits() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).expect("frame 1"),
            Some(b"hello".to_vec())
        );
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).expect("frame 2"),
            Some(Vec::new())
        );
        assert_eq!(read_frame(&mut r, MAX_FRAME_BYTES).expect("eof"), None);

        // A frame whose declared length exceeds the receiver limit is
        // rejected before any payload is buffered.
        let mut oversized = Vec::new();
        write_frame(&mut oversized, &[0u8; 128]).expect("write");
        let mut r = &oversized[..];
        assert!(matches!(
            read_frame(&mut r, 64),
            Err(ProtocolError::FrameTooLarge {
                declared: 128,
                max: 64
            })
        ));
    }

    #[test]
    fn frame_reader_survives_split_reads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").expect("write");
        // Feed one byte at a time through a reader that times out after
        // every byte, as a socket with a short read timeout would.
        struct OneByte<'a>(&'a [u8], usize, bool);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.2 {
                    self.2 = false;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
                }
                self.2 = true;
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut src = OneByte(&buf, 0, false);
        let mut reader = FrameReader::new();
        let mut pendings = 0;
        loop {
            match reader.poll(&mut src, MAX_FRAME_BYTES).expect("poll") {
                FramePoll::Frame(p) => {
                    assert_eq!(p, b"abcdef");
                    break;
                }
                FramePoll::Pending => pendings += 1,
                FramePoll::Eof => panic!("EOF before frame completed"),
            }
        }
        assert!(pendings >= 9, "every byte should hit a timeout first");
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        // A 4 GiB length prefix (u32::MAX) followed by nothing: the
        // reader must reject it from the prefix alone with a clean
        // protocol error, never waiting for (or allocating) the payload.
        let bytes = u32::MAX.to_be_bytes();
        let mut r = &bytes[..];
        let mut reader = FrameReader::new();
        match reader.poll(&mut r, MAX_FRAME_BYTES) {
            Err(ProtocolError::FrameTooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn declared_length_does_not_drive_preallocation() {
        // A frame declared just under the limit but never delivered must
        // not pin `declared` bytes of buffer — the initial allocation is
        // capped and growth follows actually-received data.
        let declared = (MAX_FRAME_BYTES - 1) as u32;
        let bytes = declared.to_be_bytes();
        let mut r = &bytes[..];
        let mut reader = FrameReader::new();
        // The header is consumed, then the empty source reports EOF
        // inside the payload — either way the allocation already
        // happened, which is what this test inspects.
        let _ = reader.poll(&mut r, MAX_FRAME_BYTES);
        assert_eq!(reader.body_need, Some(declared as usize));
        assert!(
            reader.body.capacity() <= MAX_FRAME_PREALLOC,
            "preallocated {} bytes for a {declared}-byte declaration",
            reader.body.capacity()
        );

        // And a frame larger than the prealloc cap still round-trips.
        let payload = vec![0xabu8; MAX_FRAME_PREALLOC * 2];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, MAX_FRAME_BYTES).expect("frame"),
            Some(payload)
        );
    }

    #[test]
    fn endpoint_names_are_stable() {
        let col = Column::from_strings("c", &["a"]);
        assert_eq!(
            Request::Joinable { column: col, k: 1 }.endpoint(),
            "joinable"
        );
        assert_eq!(Request::Ping.endpoint(), "ping");
        assert_eq!(Request::search_endpoints().len(), 8);
    }

    #[test]
    fn batch_validation_enforces_shape() {
        let kw = |q: &str| Request::Keyword {
            query: q.into(),
            k: 3,
        };
        // Happy path: homogeneous search batch.
        assert!(Request::validate_batch(&[kw("a"), kw("b")]).is_ok());
        // Zero-length.
        assert!(Request::validate_batch(&[]).is_err());
        // Oversized.
        let big: Vec<Request> = (0..=MAX_BATCH).map(|i| kw(&format!("q{i}"))).collect();
        assert!(Request::validate_batch(&big).is_err());
        // Mixed family.
        let col = Column::from_strings("c", &["a"]);
        let join = Request::Joinable { column: col, k: 2 };
        assert!(Request::validate_batch(&[kw("a"), join]).is_err());
        // Non-batchable kinds, including a nested batch.
        assert!(Request::validate_batch(&[Request::Ping]).is_err());
        assert!(Request::validate_batch(&[Request::Reload]).is_err());
        assert!(Request::validate_batch(&[Request::Health]).is_err());
        let nested = Request::Batch {
            requests: vec![kw("a")],
        };
        assert!(Request::validate_batch(&[nested]).is_err());
        assert!(!Request::Batch {
            requests: Vec::new()
        }
        .is_batchable());
    }
}
