//! # td-serve — the concurrent query-serving layer
//!
//! The tutorial's architecture ends where most reproductions stop: a
//! library of discovery operators. A data lake's discovery service is a
//! *server* — many analysts, notebooks, and catalog UIs issuing
//! joinability/unionability probes concurrently against one shared set
//! of indexes. This crate is that layer, std-only (no tokio, no
//! hyper): a multi-threaded TCP server exposing every
//! `DiscoveryPipeline::search_*` entry point over a length-prefixed
//! JSON protocol. The served pipeline is epoch-versioned: a staged
//! replacement (typically a [`td_core::SegmentedPipeline`] snapshot) is
//! promoted by an admin `Request::Reload` while in-flight queries
//! finish on the pipeline they were admitted under.
//!
//! The load-bearing pieces, each its own module:
//!
//! * [`protocol`] — framing, typed envelopes, and the canonical request
//!   encoder cache keys derive from (byte-stable across client float
//!   formatting).
//! * [`queue`] — the bounded admission queue: full ⇒ the request is
//!   shed with an immediate `Overloaded` response instead of joining an
//!   unbounded backlog.
//! * [`cache`] — a sharded, byte-bounded LRU over canonical request
//!   bytes, so repeated queries skip the pipeline entirely.
//! * [`server`] — accept loop, connection threads, worker pool sharing
//!   the epoch-versioned `Arc<DiscoveryPipeline>` slot, per-request
//!   deadlines, hot swap via staged pipelines + `Reload`, and graceful
//!   drain-then-shutdown.
//! * [`admin`] — the td-trace layer: per-request span trees (queue
//!   wait, cache lookup, per-component probes, rank/merge) recorded
//!   into per-worker rings, a slow-query log, and SLO error-budget
//!   accounting behind the `Stats` / `MetricsDump` / `SlowQueries` /
//!   `Health` admin endpoints.
//! * [`persist`] — restore-aware boot glue over `td-store`: a server
//!   started with `Server::start_durable` restores its pipeline from a
//!   snapshot + WAL directory instead of rebuilding, serves the persist
//!   plane (`IngestTable` / `DropTable` / `Snapshot`) with every
//!   mutation WAL-logged before it applies, and checkpoints without
//!   blocking in-flight queries.
//! * [`coord`] — the sharded deployment's front-end: a deterministic
//!   scatter-gather coordinator fanning every search family out to K
//!   shard servers and folding the answers with `td_shard::merge`, so
//!   a K-shard reply is byte-identical to a 1-shard reply; unreachable
//!   shards degrade the reply (the envelope's `degraded` field) instead
//!   of failing it.
//! * [`fleet`] — spawning K shard servers (hash-partitioned, optionally
//!   each with its own td-store directory) behind one coordinator.
//! * [`client`] — a minimal blocking client, with optional
//!   reconnect-with-backoff dialing.
//! * [`workload`] — seeded deterministic query streams for the
//!   `serve_report` load generator.
//!
//! ```no_run
//! use std::sync::Arc;
//! use td_serve::{Client, Reply, Request, RequestEnvelope, Server, ServerConfig};
//! # let pipeline: Arc<td_core::DiscoveryPipeline> = unimplemented!();
//! let mut server = Server::start(pipeline, ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let resp = client.call(&RequestEnvelope {
//!     id: 1,
//!     deadline_ms: 0,
//!     req: Request::Keyword { query: "census".into(), k: 5 },
//! })?;
//! assert!(matches!(resp.reply, Some(Reply::Scores(_))));
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admin;
pub mod cache;
pub mod client;
pub mod coord;
pub mod fleet;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod workload;

pub use admin::TraceConfig;
pub use cache::{CacheConfig, CacheStats, ResultCache};
pub use client::{BackoffConfig, Client};
pub use coord::{CoordConfig, CoordServer, CoordServerConfig, Coordinator};
pub use fleet::ShardFleet;
pub use persist::{boot, serving_snapshot, DurablePipeline, RestoreStats, Store};
pub use protocol::{
    canonical_bytes, decode_request, decode_response, encode_response, read_frame, write_frame,
    DropReply, EndpointStats, FramePoll, FrameReader, HealthReply, IngestReply, MetricsReply,
    ProtocolError, Reply, Request, RequestEnvelope, ResponseEnvelope, SloStats, SnapshotReply,
    SpanNodeJson, StatsReply, Status, TraceJson, MAX_BATCH, MAX_FRAME_BYTES, MAX_FRAME_PREALLOC,
};
pub use queue::{AdmissionQueue, PushError};
pub use server::{execute, Server, ServerConfig, ServerStats};
pub use workload::{Workload, WorkloadConfig};
