//! The scatter-gather coordinator: one td-serve endpoint fronting K
//! shard servers.
//!
//! Each shard server owns a hash partition of the lake (routing is the
//! pure function `td_shard::ShardMap::shard_of`, so the coordinator and
//! the shards never exchange placement state). A query fans out to
//! every shard over the ordinary td-serve protocol and the per-shard
//! answers are folded with `td_shard::merge` — the same algebra the
//! in-process `td_shard::ShardedPipeline` uses, so a K-shard answer is
//! byte-identical to a 1-shard answer (pinned by the equivalence
//! suites).
//!
//! Two families need two network phases:
//!
//! * **keyword** — gather per-shard BM25 statistics
//!   ([`Request::KeywordStats`]), merge, re-scatter the pinned global
//!   statistics ([`Request::KeywordScored`]);
//! * **unionable semantic** — gather per-query-column candidate
//!   windows ([`Request::SemanticCandidates`]), merge and truncate to
//!   the configured fanout, re-scatter the pinned candidate table set
//!   ([`Request::SemanticScored`]).
//!
//! The join families fetch per-shard *column* windows
//! ([`Request::JoinableColumns`], [`Request::FuzzyColumns`]) and run
//! the shared table aggregation on the merged window; the remaining
//! families are plain top-k unions.
//!
//! Each family's plan is written once, over a slice of requests: a
//! single is a slice of one, a client [`Request::Batch`] the whole
//! slice. Every phase reaches a shard as one frame — a lone
//! sub-request bare, more as one `Request::Batch` — so a 16-query batch
//! over K shards costs the same round-trips as a single query, and each
//! query's per-shard answers fold with the same merge either way.
//!
//! ## Partial failure
//!
//! A shard that cannot be dialed (after the configured backoff) or that
//! fails mid-call is dropped from the scatter: the reply still carries
//! `Status::Ok`, merged over the reachable shards, and the response
//! envelope's `degraded` field names the missing shard ids. Mutations
//! are different — an unreachable *owner* shard fails the request with
//! [`Status::Internal`], because a routed write has exactly one home.
//! A shard that comes back (same address, or a replacement registered
//! via [`Coordinator::set_shard_addr`]) is re-admitted on the next
//! scatter by the reconnect path, restoring byte-identical answers.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use td_core::join::exact::column_fetch_width;
use td_core::union::starmie::StarmieConfig;
use td_obs::{Counter, Gauge, Histogram, Timer};
use td_shard::{merge, ShardMap};
use td_table::TableId;

use crate::client::{BackoffConfig, Client};
use crate::protocol::{
    decode_request, write_frame, FramePoll, FrameReader, HealthReply, MetricsReply, Reply, Request,
    RequestEnvelope, ResponseEnvelope, SnapshotReply, StatsReply, Status, TraceJson,
    MAX_FRAME_BYTES,
};

fn relock<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One phase's answers: per shard (indexed by shard id), the
/// sub-replies in query order, or `None` for a shard that was not asked
/// or did not answer.
type Gathered = Vec<Option<Vec<Reply>>>;

/// Query `qi`'s sub-reply from every shard that answered a phase.
fn answers(gathered: &Gathered, qi: usize) -> Vec<&Reply> {
    gathered.iter().flatten().map(|rs| &rs[qi]).collect()
}

/// The payloads of one `Reply` variant among a query's per-shard
/// answers; other shapes contribute nothing, like a missing shard.
macro_rules! payloads {
    ($answers:expr, $variant:path) => {
        $answers
            .iter()
            .filter_map(|r| match r {
                $variant(v) => Some(v.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
}

/// Phase one of a search plan: the request a shard answers for a
/// client search. The join families fetch *column* windows
/// (`column_fetch_width(k)` wide), keyword gathers BM25 statistics and
/// semantic gathers candidate windows; the plain top-k unions send the
/// request itself.
fn shard_form(req: &Request) -> Request {
    match req {
        Request::Keyword { query, .. } => Request::KeywordStats {
            query: query.clone(),
        },
        Request::Joinable { column, k } => Request::JoinableColumns {
            column: column.clone(),
            width: column_fetch_width(*k),
        },
        Request::FuzzyJoinable { column, tau, k } => Request::FuzzyColumns {
            column: column.clone(),
            tau: *tau,
            width: column_fetch_width(*k),
        },
        Request::UnionableSemantic { table, .. } => Request::SemanticCandidates {
            table: table.clone(),
        },
        other => other.clone(),
    }
}

/// Fold one query's last per-shard answers into the client reply: the
/// join families merge column windows and aggregate tables, correlated
/// merges under its sketch-order tie-break, and every other family
/// (keyword and semantic after phase two) is a plain top-k union.
fn gather(req: &Request, answers: &[&Reply]) -> Reply {
    match req {
        Request::Joinable { k, .. } => {
            let per_shard = payloads!(answers, Reply::OverlapColumns);
            let window = merge::merge_overlap_columns(per_shard, column_fetch_width(*k));
            Reply::Overlaps(td_core::join::exact::aggregate_tables(window, *k))
        }
        Request::FuzzyJoinable { k, .. } => {
            let per_shard = payloads!(answers, Reply::FuzzyColumns);
            let window = merge::merge_fuzzy_columns(per_shard, column_fetch_width(*k));
            Reply::Scores(td_core::join::fuzzy::aggregate_tables(window, *k))
        }
        Request::Correlated { k, .. } => Reply::Correlated(merge::merge_correlated(
            payloads!(answers, Reply::Correlated),
            *k,
        )),
        Request::Keyword { k, .. }
        | Request::Unionable { k, .. }
        | Request::UnionableSemantic { k, .. }
        | Request::UnionableRelationship { k, .. }
        | Request::MultiJoinable { k, .. } => {
            Reply::Scores(merge::merge_scores(payloads!(answers, Reply::Scores), *k))
        }
        // Not a search request: `Coordinator::handle` never plans one.
        _ => Reply::Scores(Vec::new()),
    }
}

/// Coordinator construction parameters.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Shard server addresses; index in this list IS the shard id, and
    /// the list length fixes the `ShardMap` modulus.
    pub addrs: Vec<String>,
    /// Semantic candidate fanout — must match the shards'
    /// `StarmieConfig::fanout`, or the merged candidate window will not
    /// reproduce a one-shard window.
    pub fanout: usize,
    /// Per-frame payload ceiling on shard connections.
    pub max_frame_bytes: usize,
    /// Dial-retry policy when (re)connecting to a shard.
    pub backoff: BackoffConfig,
}

impl CoordConfig {
    /// A config over `addrs` with the default Starmie fanout and a fast
    /// two-attempt dial policy (a dead shard must degrade the reply,
    /// not stall it behind a long retry ladder).
    #[must_use]
    pub fn new(addrs: Vec<String>) -> Self {
        CoordConfig {
            addrs,
            fanout: StarmieConfig::default().fanout,
            max_frame_bytes: MAX_FRAME_BYTES,
            backoff: BackoffConfig {
                attempts: 2,
                initial: Duration::from_millis(5),
                max: Duration::from_millis(20),
            },
        }
    }
}

/// One shard's connection slot: the address it is dialed at and the
/// cached connection (dropped on any call failure, re-dialed lazily).
struct ShardSlot {
    addr: Mutex<String>,
    conn: Mutex<Option<Client>>,
}

/// Registry handles held for the coordinator's lifetime.
struct CoordMetrics {
    /// Wall time of one whole scatter-gather (all shards, one phase).
    fanout_latency: Arc<Histogram>,
    /// Replies that shipped with a non-empty `degraded` list.
    degraded_replies: Arc<Counter>,
    /// Per-shard liveness, 1.0 after a successful call, 0.0 after a
    /// failure (`coord.shard.<i>.up`).
    shard_up: Vec<Arc<Gauge>>,
}

/// The scatter-gather front-end over K shard servers. Thread-safe:
/// connection threads of a [`CoordServer`] share one coordinator.
pub struct Coordinator {
    map: ShardMap,
    slots: Vec<ShardSlot>,
    cfg: CoordConfig,
    metrics: CoordMetrics,
}

impl Coordinator {
    /// A coordinator over `cfg.addrs` (one address per shard).
    ///
    /// # Panics
    /// Panics if `cfg.addrs` is empty — a coordinator needs at least
    /// one shard.
    #[must_use]
    pub fn new(cfg: CoordConfig) -> Self {
        let reg = td_obs::global();
        let shards = cfg.addrs.len();
        reg.gauge("coord.shards").set(shards as f64);
        let metrics = CoordMetrics {
            fanout_latency: reg.histogram("coord.fanout.latency_ns"),
            degraded_replies: reg.counter("coord.degraded_replies"),
            shard_up: (0..shards)
                .map(|i| reg.gauge(&format!("coord.shard.{i}.up")))
                .collect(),
        };
        let slots = cfg
            .addrs
            .iter()
            .map(|a| ShardSlot {
                addr: Mutex::new(a.clone()),
                conn: Mutex::new(None),
            })
            .collect();
        Coordinator {
            map: ShardMap::new(shards),
            slots,
            cfg,
            metrics,
        }
    }

    /// The routing map (same modulus as the shard fleet).
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Re-point shard `i` at a new address (a restarted or replacement
    /// server) and drop the stale connection; the next scatter
    /// re-admits it.
    pub fn set_shard_addr(&self, shard: usize, addr: impl Into<String>) {
        *relock(self.slots[shard].addr.lock()) = addr.into();
        *relock(self.slots[shard].conn.lock()) = None;
    }

    /// One call to one shard, re-dialing (with backoff) on a missing or
    /// broken connection. Any failure drops the cached connection so
    /// the next call starts from a clean dial.
    fn call_shard(&self, shard: usize, req: &Request, deadline_ms: u64) -> Option<Reply> {
        let slot = &self.slots[shard];
        // The cached connection is *taken* out of the slot for the
        // duration of the call, so the slot lock is never held across a
        // blocking dial or round-trip. Concurrent callers that find the
        // slot empty dial their own connection; the last one back wins
        // the slot and the loser is simply dropped.
        let mut conn = relock(slot.conn.lock()).take();
        // One fresh-dial retry: a cached connection may have died since
        // the last scatter (the server restarted), in which case the
        // write fails and a clean reconnect is the correct second try.
        for _ in 0..2 {
            let mut client = match conn.take() {
                Some(c) => c,
                None => {
                    let addr = relock(slot.addr.lock()).clone();
                    match Client::connect_with_backoff(&addr, &self.cfg.backoff) {
                        Ok(c) => c,
                        Err(_) => break,
                    }
                }
            };
            let env = RequestEnvelope {
                id: client.next_id(),
                deadline_ms,
                req: req.clone(),
            };
            match client.call(&env) {
                Ok(resp) if resp.status == Status::Ok => {
                    *relock(slot.conn.lock()) = Some(client);
                    self.metrics.shard_up[shard].set(1.0);
                    return resp.reply;
                }
                // Drop the broken connection; the retry dials fresh.
                Ok(_) | Err(_) => {}
            }
        }
        self.metrics.shard_up[shard].set(0.0);
        None
    }

    /// Send `req` to every shard with `asked[shard]` set and gather the
    /// replies positionally, returning them with the ids of the asked
    /// shards that did not answer. Shards are called from scoped
    /// threads so a slow shard overlaps the others; the result vector
    /// is indexed by shard id, so gather order is deterministic
    /// regardless of completion order.
    fn scatter(
        &self,
        req: &Request,
        asked: &[bool],
        deadline_ms: u64,
    ) -> (Vec<Option<Reply>>, Vec<u32>) {
        let _span = td_obs::trace::probe("coord.scatter");
        let t = Timer::start();
        let mut out: Vec<Option<Reply>> = (0..self.slots.len()).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = asked
                .iter()
                .enumerate()
                .map(|(shard, &a)| {
                    a.then(|| s.spawn(move || self.call_shard(shard, req, deadline_ms)))
                })
                .collect();
            for (shard, h) in handles.into_iter().enumerate() {
                if let Some(h) = h {
                    out[shard] = h.join().unwrap_or(None);
                }
            }
        });
        self.metrics.fanout_latency.record_duration(t.elapsed());
        let missing = out
            .iter()
            .enumerate()
            .filter(|(i, r)| asked[*i] && r.is_none())
            .map(|(i, _)| i as u32)
            .collect();
        (out, missing)
    }

    /// Send `req` to every shard.
    fn scatter_all(&self, req: &Request, deadline_ms: u64) -> (Vec<Option<Reply>>, Vec<u32>) {
        self.scatter(req, &vec![true; self.slots.len()], deadline_ms)
    }

    /// One network phase of a search plan: `subs` (one sub-request per
    /// query) go to every asked shard as one frame — a lone sub-request
    /// bare, more as one `Request::Batch`, whose sub-replies are
    /// byte-identical to the bare ones. Each shard gathers its
    /// sub-replies in input order; a shard that did not answer, or
    /// answered a batch of the wrong length, gathers `None`.
    fn phase(&self, subs: Vec<Request>, asked: &[bool], dl: u64) -> (Gathered, Vec<u32>) {
        let n = subs.len();
        let frame = match <[Request; 1]>::try_from(subs) {
            Ok([one]) => one,
            Err(requests) => Request::Batch { requests },
        };
        let (replies, missing) = self.scatter(&frame, asked, dl);
        let gathered = replies
            .into_iter()
            .map(|r| match r {
                Some(Reply::Batch(rs)) if n > 1 && rs.len() == n => Some(rs),
                Some(r) if n == 1 => Some(vec![r]),
                _ => None,
            })
            .collect();
        (gathered, missing)
    }

    /// Answer search requests, all of one family, with that family's
    /// plan; a single is a slice of one, and a batch costs the same
    /// round-trips. Phase one scatters each query's shard-side form
    /// ([`shard_form`]). Keyword and semantic queries then scatter a
    /// second request pinned to their merged phase-one answers
    /// ([`Self::pinned`]) to the shards that answered phase one. The
    /// gather folds each query's last per-shard answers with the
    /// `td_shard::merge` algebra ([`gather`]).
    fn search(&self, requests: &[Request], dl: u64) -> (Vec<Reply>, Vec<u32>) {
        let everyone = vec![true; self.slots.len()];
        let (first, mut degraded) =
            self.phase(requests.iter().map(shard_form).collect(), &everyone, dl);
        // `second_of[qi]`: query `qi`'s index in phase two, if it has one.
        let mut subs = Vec::new();
        let mut second_of = Vec::with_capacity(requests.len());
        for (qi, r) in requests.iter().enumerate() {
            let sub = self.pinned(r, &answers(&first, qi));
            second_of.push(sub.is_some().then_some(subs.len()));
            subs.extend(sub);
        }
        let mut second = Vec::new();
        if !subs.is_empty() {
            let answered: Vec<bool> = first.iter().map(Option::is_some).collect();
            let (gathered, missing) = self.phase(subs, &answered, dl);
            second = gathered;
            degraded.extend(missing);
            degraded.sort_unstable();
            degraded.dedup();
        }
        let _span = td_obs::trace::probe("coord.gather");
        let replies = requests
            .iter()
            .zip(second_of)
            .enumerate()
            .map(|(qi, (r, ri))| match ri {
                Some(ri) => gather(r, &answers(&second, ri)),
                None => gather(r, &answers(&first, qi)),
            })
            .collect();
        (replies, degraded)
    }

    /// Phase two of the two-phase families: the query pinned to its
    /// merged phase-one answers. `None` for the one-phase families, and
    /// for a keyword query no shard has statistics for (it answers
    /// empty, as one pipeline would).
    fn pinned(&self, req: &Request, first: &[&Reply]) -> Option<Request> {
        match req {
            Request::Keyword { query, k } => {
                let stats = merge::merge_keyword_stats(&payloads!(first, Reply::KeywordStats))?;
                Some(Request::KeywordScored {
                    query: query.clone(),
                    k: *k,
                    stats,
                })
            }
            Request::UnionableSemantic { table, k } => {
                let windows = payloads!(first, Reply::CandidateWindows);
                let merged = merge::merge_candidate_windows(&windows, self.cfg.fanout);
                Some(Request::SemanticScored {
                    table: table.clone(),
                    k: *k,
                    tables: merge::candidate_tables(&merged).into_iter().collect(),
                })
            }
            _ => None,
        }
    }

    /// Rolling reload: shards are reloaded one at a time, in shard
    /// order, so K-1 shards keep serving at full capacity throughout.
    /// The reported epoch is the maximum across successful shards.
    fn rolling_reload(&self, deadline_ms: u64) -> (Option<Reply>, Vec<u32>) {
        let mut degraded = Vec::new();
        let mut epoch = 0u64;
        let mut any = false;
        for shard in 0..self.slots.len() {
            match self.call_shard(shard, &Request::Reload, deadline_ms) {
                Some(Reply::Reloaded(e)) => {
                    epoch = epoch.max(e);
                    any = true;
                }
                _ => degraded.push(shard as u32),
            }
        }
        (any.then_some(Reply::Reloaded(epoch)), degraded)
    }

    /// Fleet-wide checkpoint: every shard folds its own WAL; the reply
    /// sums sizes and record counts.
    fn snapshot_all(&self, deadline_ms: u64) -> (Option<Reply>, Vec<u32>) {
        let (replies, degraded) = self.scatter_all(&Request::Snapshot, deadline_ms);
        let mut sum = SnapshotReply::default();
        let mut any = false;
        for r in replies.into_iter().flatten() {
            if let Reply::Snapshotted(s) = r {
                sum.seq = sum.seq.max(s.seq);
                sum.bytes += s.bytes;
                sum.wal_records_folded += s.wal_records_folded;
                any = true;
            }
        }
        (any.then_some(Reply::Snapshotted(sum)), degraded)
    }

    /// Aggregate `Health` across shards: healthy iff every shard
    /// answered and reports healthy; gauges sum; the epoch is the
    /// maximum (shards bump independently under rolling reloads).
    fn health(&self, deadline_ms: u64) -> (Option<Reply>, Vec<u32>) {
        let (replies, degraded) = self.scatter_all(&Request::Health, deadline_ms);
        let mut agg = HealthReply {
            healthy: degraded.is_empty(),
            ..HealthReply::default()
        };
        for r in replies.into_iter().flatten() {
            if let Reply::Health(h) = r {
                agg.healthy &= h.healthy;
                agg.epoch = agg.epoch.max(h.epoch);
                agg.segments += h.segments;
                agg.tombstones += h.tombstones;
                agg.queue_depth += h.queue_depth;
                agg.inflight += h.inflight;
                agg.workers += h.workers;
                agg.draining |= h.draining;
                agg.traced += h.traced;
            }
        }
        (Some(Reply::Health(agg)), degraded)
    }

    /// Aggregate `Stats` across shards: monotonic counters sum, the
    /// epoch is the maximum, per-endpoint latency rows are omitted
    /// (percentiles do not compose across shards).
    fn stats(&self, deadline_ms: u64) -> (Option<Reply>, Vec<u32>) {
        let (replies, degraded) = self.scatter_all(&Request::Stats, deadline_ms);
        let mut agg = StatsReply::default();
        for r in replies.into_iter().flatten() {
            if let Reply::Stats(s) = r {
                agg.epoch = agg.epoch.max(s.epoch);
                agg.requests += s.requests;
                agg.served_ok += s.served_ok;
                agg.shed += s.shed;
                agg.deadline_expired += s.deadline_expired;
                agg.bad_requests += s.bad_requests;
                agg.cache_hits += s.cache_hits;
                agg.cache_misses += s.cache_misses;
                agg.cache_evictions += s.cache_evictions;
                agg.queue_depth += s.queue_depth;
                agg.inflight += s.inflight;
            }
        }
        (Some(Reply::Stats(agg)), degraded)
    }

    /// Concatenate per-shard metric dumps, each under a shard header.
    fn metrics_dump(&self, deadline_ms: u64) -> (Option<Reply>, Vec<u32>) {
        let (replies, degraded) = self.scatter_all(&Request::MetricsDump, deadline_ms);
        let mut prometheus = String::new();
        let mut json_parts = Vec::new();
        for (shard, r) in replies.into_iter().enumerate() {
            if let Some(Reply::Metrics(m)) = r {
                prometheus.push_str(&format!("# shard {shard}\n"));
                prometheus.push_str(&m.prometheus);
                json_parts.push(m.json);
            }
        }
        let json = format!("[{}]", json_parts.join(","));
        (
            Some(Reply::Metrics(MetricsReply { prometheus, json })),
            degraded,
        )
    }

    /// Merge per-shard slow-query logs: worst first (duration
    /// descending, trace id ascending), truncated to `n`.
    fn slow_queries(&self, n: usize, deadline_ms: u64) -> (Option<Reply>, Vec<u32>) {
        let (replies, degraded) = self.scatter_all(&Request::SlowQueries { n }, deadline_ms);
        let mut all: Vec<TraceJson> = replies
            .into_iter()
            .flatten()
            .filter_map(|r| match r {
                Reply::SlowQueries(t) => Some(t),
                _ => None,
            })
            .flatten()
            .collect();
        all.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.trace_id.cmp(&b.trace_id)));
        all.truncate(n);
        (Some(Reply::SlowQueries(all)), degraded)
    }

    /// Route a mutation to the owning shard. Unlike searches, a routed
    /// write has exactly one home: an unreachable owner is a hard
    /// failure, not a degradation.
    fn route_mutation(&self, id: TableId, env_id: u64, req: &Request, dl: u64) -> ResponseEnvelope {
        let owner = self.map.shard_of(id);
        match self.call_shard(owner, req, dl) {
            Some(reply) => ResponseEnvelope::ok(env_id, reply),
            None => {
                let mut resp = ResponseEnvelope::fail(
                    env_id,
                    Status::Internal,
                    format!("owning shard {owner} is unreachable"),
                );
                resp.degraded = vec![owner as u32];
                resp
            }
        }
    }

    /// Answer one client envelope: the coordinator's whole dispatch
    /// surface. Search families scatter-gather; mutations route to the
    /// owning shard; `Reload` rolls across shards; admin aggregates.
    /// Shard-plane requests are refused — they are the coordinator's
    /// *outbound* vocabulary, not part of its public surface.
    #[must_use]
    pub fn handle(&self, env: &RequestEnvelope) -> ResponseEnvelope {
        let id = env.id;
        let dl = env.deadline_ms;
        let refuse_shard_plane = || {
            ResponseEnvelope::fail(
                id,
                Status::BadRequest,
                "shard-plane requests are not part of the coordinator's public surface",
            )
        };
        let (reply, degraded) = match &env.req {
            Request::Ping => (Some(Reply::Pong), Vec::new()),
            Request::IngestTable { id: tid, .. } | Request::DropTable { id: tid } => {
                return self.route_mutation(*tid, id, &env.req, dl);
            }
            Request::Reload => self.rolling_reload(dl),
            Request::Snapshot => self.snapshot_all(dl),
            Request::Health => self.health(dl),
            Request::Stats => self.stats(dl),
            Request::MetricsDump => self.metrics_dump(dl),
            Request::SlowQueries { n } => self.slow_queries(*n, dl),
            Request::Batch { requests } => {
                if let Err(e) = Request::validate_batch(requests) {
                    return ResponseEnvelope::fail(id, Status::BadRequest, e);
                }
                // `validate_batch` admits shard-plane kinds (they are the
                // coordinator's *outbound* vocabulary), but clients may
                // only batch the public search families.
                if requests.iter().any(Request::is_shard_plane) {
                    return refuse_shard_plane();
                }
                let (replies, d) = self.search(requests, dl);
                (Some(Reply::Batch(replies)), d)
            }
            req if req.is_shard_plane() => return refuse_shard_plane(),
            // The eight search families.
            req => {
                let (replies, d) = self.search(std::slice::from_ref(req), dl);
                (replies.into_iter().next(), d)
            }
        };
        if !degraded.is_empty() {
            self.metrics.degraded_replies.inc();
        }
        match reply {
            Some(reply) => ResponseEnvelope::ok_degraded(id, reply, degraded),
            None => {
                let mut resp = ResponseEnvelope::fail(
                    id,
                    Status::Internal,
                    "no shard answered the fleet-wide request",
                );
                resp.degraded = degraded;
                resp
            }
        }
    }
}

/// Front-end server parameters.
#[derive(Debug, Clone)]
pub struct CoordServerConfig {
    /// Bind address; use port `0` for an ephemeral port.
    pub addr: String,
    /// Per-frame payload ceiling on client connections.
    pub max_frame_bytes: usize,
    /// Socket read timeout; bounds how fast connection threads observe
    /// the shutdown flag.
    pub poll_interval: Duration,
}

impl Default for CoordServerConfig {
    fn default() -> Self {
        CoordServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame_bytes: MAX_FRAME_BYTES,
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// A running coordinator front-end speaking the td-serve protocol.
/// Requests are answered on the connection thread — the heavy lifting
/// (index probes) happens on the shard servers, so the coordinator's
/// own work per request is merge arithmetic. Dropping it performs a
/// graceful shutdown.
pub struct CoordServer {
    addr: SocketAddr,
    coord: Arc<Coordinator>,
    shutting_down: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    down: bool,
}

impl CoordServer {
    /// Bind and begin accepting clients.
    ///
    /// # Errors
    /// Fails if the listener cannot bind `cfg.addr`.
    pub fn start(coord: Arc<Coordinator>, cfg: CoordServerConfig) -> std::io::Result<CoordServer> {
        let listener = std::net::TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shutting_down = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let coord = Arc::clone(&coord);
            let down = Arc::clone(&shutting_down);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if down.load(Ordering::SeqCst) {
                            return;
                        }
                        let coord = Arc::clone(&coord);
                        let down = Arc::clone(&down);
                        let max_frame = cfg.max_frame_bytes;
                        let poll = cfg.poll_interval;
                        let handle = std::thread::spawn(move || {
                            conn_loop(&stream, &coord, &down, max_frame, poll);
                        });
                        let mut conns = relock(conns.lock());
                        conns.retain(|h| !h.is_finished());
                        conns.push(handle);
                    }
                    Err(_) => {
                        if down.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                }
            })
        };
        Ok(CoordServer {
            addr,
            coord,
            shutting_down,
            accept: Some(accept),
            conns,
            down: false,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coordinator behind this front-end (e.g. to re-point a shard
    /// address after a replacement server comes up).
    #[must_use]
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coord
    }

    /// Graceful shutdown: stop accepting, join connection threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.shutting_down.store(true, Ordering::SeqCst);
        // td-lint: allow(TD011) best-effort wake-up dial: a refused connect means the accept loop already exited
        let _ = std::net::TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join(); // td-lint: allow(TD011) a panicked accept loop has nothing further to clean up
        }
        let conns = std::mem::take(&mut *relock(self.conns.lock()));
        for h in conns {
            let _ = h.join(); // td-lint: allow(TD011) connection threads hold no state beyond their socket
        }
    }
}

impl Drop for CoordServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn conn_loop(
    stream: &std::net::TcpStream,
    coord: &Coordinator,
    down: &AtomicBool,
    max_frame: usize,
    poll: Duration,
) {
    if stream.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    let mut write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut read_half = stream;
    let mut reader = FrameReader::new();
    loop {
        if down.load(Ordering::SeqCst) {
            return;
        }
        match reader.poll(&mut read_half, max_frame) {
            Ok(FramePoll::Pending) => {}
            Ok(FramePoll::Eof) => return,
            Ok(FramePoll::Frame(payload)) => {
                let resp = match decode_request(&payload) {
                    Ok(env) => coord.handle(&env),
                    Err(e) => ResponseEnvelope::fail(0, Status::BadRequest, e.to_string()),
                };
                if let Ok(bytes) = crate::protocol::encode_response(&resp) {
                    if write_frame(&mut write_half, &bytes).is_err() {
                        return;
                    }
                }
            }
            Err(_) => return,
        }
    }
}
