//! The per-layer ledger of a traced run. Every figure is timed from the
//! benchmark's side of a public call into one crate, or read as a delta of
//! a counter the program already exports through `td_obs::global()`; the
//! program itself carries no extra tracing. The ledger runs after the
//! workload's timed phase, on the workload's own lake and requests.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use td_core::join::exact::column_fetch_width;
use td_core::join::{
    ContainmentJoinSearch, CorrelatedSearch, ExactJoinSearch, FuzzyJoinSearch, MateSearch,
};
use td_core::union::{SantosSearch, StarmieSearch, TusSearch};
use td_core::{
    DiscoveryPipeline, IndexComponent, KeywordSearch, PipelineContext, SegmentedPipeline,
    TableArtifacts,
};
use td_embed::{DomainEmbedder, NGramEmbedder};
use td_serve::{
    boot, canonical_bytes, decode_request, decode_response, encode_response, execute, Client,
    CoordConfig, CoordServer, CoordServerConfig, Coordinator, Request, RequestEnvelope,
    ResponseEnvelope, Server, ShardFleet,
};
use td_shard::{ShardMap, ShardedPipeline};
use td_store::{SnapshotReader, Wal, WalRecord};
use td_table::{Column, LakeProfile, Table, TableId, Value};

use crate::inputs::{self, Lake, FAMILIES, K, TAU};
use crate::served::timed_call;
use crate::stats::{mean, metric, ms, percentile, ratio, Metric};
use crate::trace::SpanLog;
use crate::workloads::{server_config, Env};

/// What the ledger measures against.
pub struct LedgerIn<'a> {
    /// The workload's lake.
    pub lake: &'a Lake,
    /// Its pipeline context.
    pub ctx: &'a PipelineContext,
    /// Its extracted artifacts.
    pub arts: &'a [(TableId, TableArtifacts)],
    /// The pipeline the workload searched.
    pub pipeline: &'a Arc<DiscoveryPipeline>,
    /// A sample of the workload's own requests.
    pub requests: Vec<Request>,
    /// Result-cache hit share seen by the workload's timed phase.
    pub cache_hit_share: f64,
    /// Traced-half p50 minus untraced-half p50 of the timed phase.
    pub trace_overhead_ms: f64,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Tables timed for the extraction split.
const EXTRACT_SAMPLE: usize = 40;
/// Queries per family in the in-process sweep.
const SWEEP_PER_FAMILY: usize = 5;
/// Pings timed for the round trip.
const PINGS: usize = 30;

/// Measure every layer; returns the per-layer metrics in the order
/// `BENCHMARK.json` lists them.
///
/// # Errors
/// Server start, socket, and store failures.
pub fn run(input: &LedgerIn<'_>, env: &mut Env) -> Res<Vec<Metric>> {
    env.spans.set_enabled(true);
    let mut out = Vec::new();
    core_layer(input, &mut env.spans, &mut out);
    index_and_query_layer(input, env.seed, &mut env.spans, &mut out);
    serve_layer(input, &mut env.spans, &mut out)?;
    coord_and_shard_layer(input, &mut env.spans, &mut out)?;
    store_layer(input, &env.dir.join("ledger"), &mut env.spans, &mut out)?;
    out.push(metric(
        "obs.trace_overhead_ms",
        "ms",
        input.trace_overhead_ms,
    ));
    env.spans.set_enabled(false);
    Ok(out)
}

fn time_extract<C: IndexComponent>(t: &Table, ctx: &PipelineContext) -> f64 {
    let start = Instant::now();
    black_box(C::extract(t, ctx));
    ms(start.elapsed())
}

/// Times one component's extraction of one table, in ms.
type ExtractTimer = fn(&Table, &PipelineContext) -> f64;

/// The ten components in `TableArtifacts` order.
const COMPONENTS: [(&str, ExtractTimer); 10] = [
    ("profile", time_extract::<LakeProfile>),
    ("keyword", time_extract::<KeywordSearch>),
    ("exact_join", time_extract::<ExactJoinSearch>),
    ("containment", time_extract::<ContainmentJoinSearch>),
    ("fuzzy_join", time_extract::<FuzzyJoinSearch<NGramEmbedder>>),
    ("mate", time_extract::<MateSearch>),
    ("correlated", time_extract::<CorrelatedSearch>),
    ("tus", time_extract::<TusSearch>),
    ("santos", time_extract::<SantosSearch>),
    ("starmie", time_extract::<StarmieSearch<DomainEmbedder>>),
];

fn core_layer(input: &LedgerIn<'_>, log: &mut SpanLog, out: &mut Vec<Metric>) {
    let ctx = input.ctx;
    let sample: Vec<&(TableId, Table)> = input.lake.tables.iter().take(EXTRACT_SAMPLE).collect();
    let mut whole = Vec::new();
    let mut parts = vec![Vec::new(); COMPONENTS.len()];
    for (id, t) in &sample {
        let op = u64::from(id.0);
        let start = Instant::now();
        log.span("core.extract", op, || {
            black_box(TableArtifacts::extract(t, ctx))
        });
        whole.push(ms(start.elapsed()));
        for (i, (name, f)) in COMPONENTS.iter().enumerate() {
            parts[i].push(log.span(&format!("core.extract.{name}"), op, || f(t, ctx)));
        }
    }
    out.push(metric("core.extract_ms_per_table", "ms", mean(&whole)));
    for ((name, _), p) in COMPONENTS.iter().zip(&parts) {
        out.push(metric(
            format!("core.extract.{name}_ms_per_table"),
            "ms",
            mean(p),
        ));
    }

    let start = Instant::now();
    log.span("core.assemble", 0, || {
        black_box(inputs::assemble(ctx, input.arts))
    });
    out.push(metric("core.assemble_ms", "ms", ms(start.elapsed())));

    // Snapshot after one mutation: the staging cost of every served write.
    let mut sp = SegmentedPipeline::with_context(ctx.clone());
    for (id, a) in input.arts {
        sp.ingest_artifacts(*id, a.clone());
    }
    black_box(sp.snapshot());
    let mut snaps = Vec::new();
    for (id, a) in input.arts.iter().take(3) {
        sp.ingest_artifacts(*id, a.clone());
        let start = Instant::now();
        log.span("core.snapshot", u64::from(id.0), || {
            black_box(sp.snapshot())
        });
        snaps.push(ms(start.elapsed()));
    }
    out.push(metric("core.snapshot_ms", "ms", percentile(&snaps, 0.5)));
}

/// Index counters: `(metric, counter, per-query denominator counter)`.
const INDEX_COUNTERS: [(&str, &str, &str); 8] = [
    (
        "index.lsh.candidates_per_query",
        "index.lsh.candidates",
        "index.lsh.queries",
    ),
    (
        "index.lsh.band_probes_per_query",
        "index.lsh.band_probes",
        "index.lsh.queries",
    ),
    (
        "index.ensemble.partition_probes_per_query",
        "index.ensemble.partition_probes",
        "index.ensemble.queries",
    ),
    (
        "index.ensemble.raw_candidates_per_query",
        "index.ensemble.raw_candidates",
        "index.ensemble.queries",
    ),
    (
        "index.ensemble.verified_hits_per_query",
        "index.ensemble.verified_hits",
        "index.ensemble.queries",
    ),
    (
        "index.hnsw.nodes_visited_per_query",
        "index.hnsw.nodes_visited",
        "index.hnsw.queries",
    ),
    (
        "index.inverted.postings_read_per_query",
        "index.inverted.adaptive.postings_read",
        "index.inverted.adaptive.queries",
    ),
    (
        "index.inverted.sets_verified_per_query",
        "index.inverted.adaptive.sets_verified",
        "index.inverted.adaptive.queries",
    ),
];

fn counter(snap: &td_obs::MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn index_and_query_layer(
    input: &LedgerIn<'_>,
    seed: u64,
    log: &mut SpanLog,
    out: &mut Vec<Metric>,
) {
    let mut sweep = inputs::pool(input.lake, &FAMILIES, SWEEP_PER_FAMILY, seed ^ 0x1ED6E2);
    // A lake without numeric columns (the union benchmark's) still gets
    // correlated queries: a lake key column against a row-number column.
    if sweep[7].is_empty() {
        sweep[7] = sweep[1]
            .iter()
            .filter_map(|e| match &e.req {
                Request::Joinable { column, k } => Some(inputs::Entry {
                    req: Request::Correlated {
                        key: column.clone(),
                        numeric: Column::new(
                            "row",
                            (0..column.len()).map(|i| Value::Int(i as i64)).collect(),
                        ),
                        k: *k,
                    },
                    source: e.source,
                }),
                _ => None,
            })
            .collect();
    }
    let before = td_obs::global().snapshot();
    let mut p50s = Vec::new();
    for (family, entries) in FAMILIES.iter().zip(&sweep) {
        let lat: Vec<f64> = entries
            .iter()
            .map(|e| {
                let start = Instant::now();
                log.span(
                    &format!("core.query.{family}"),
                    u64::from(e.source.0),
                    || black_box(execute(input.pipeline, &e.req)),
                );
                ms(start.elapsed())
            })
            .collect();
        p50s.push((family, percentile(&lat, 0.5)));
    }
    let after = td_obs::global().snapshot();
    for (family, p50) in p50s {
        out.push(metric(format!("core.query.{family}_p50_ms"), "ms", p50));
    }

    // PEXESO filtering work on the same fuzzy queries.
    let (mut verified, mut pruned, mut n) = (0.0, 0.0, 0.0);
    for e in &sweep[5] {
        if let Request::FuzzyJoinable { column, .. } = &e.req {
            let (_, stats) = input
                .pipeline
                .fuzzy_join
                .search(column, TAU, column_fetch_width(K));
            verified += stats.pairs_verified as f64;
            pruned += stats.pairs_pruned as f64;
            n += 1.0;
        }
    }
    out.push(metric(
        "index.fuzzy.pairs_verified_per_query",
        "count",
        ratio(verified, n),
    ));
    out.push(metric(
        "index.fuzzy.pruned_share",
        "share",
        ratio(pruned, pruned + verified),
    ));

    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    for (metric_name, num, den) in &INDEX_COUNTERS {
        out.push(metric(*metric_name, "count", ratio(delta(num), delta(den))));
    }
    out.push(metric(
        "index.ensemble.verified_per_candidate",
        "share",
        ratio(
            delta("index.ensemble.verified_hits"),
            delta("index.ensemble.raw_candidates"),
        ),
    ));
}

/// Time each request as its own frame; `(latencies ms, replies ok)`.
fn singles(
    client: &mut Client,
    log: &mut SpanLog,
    span: &str,
    requests: &[Request],
) -> Res<Vec<f64>> {
    requests
        .iter()
        .map(|r| {
            let (resp, lat) = timed_call(client, log, span, r.clone());
            crate::checks::ok_reply(&resp?)?;
            Ok(lat)
        })
        .collect()
}

/// Time batch frames; total milliseconds.
fn batched(client: &mut Client, log: &mut SpanLog, span: &str, requests: &[Request]) -> Res<f64> {
    let mut total = 0.0;
    for b in crate::served::batches(requests) {
        let (resp, lat) = timed_call(client, log, span, Request::Batch { requests: b });
        crate::checks::ok_reply(&resp?)?;
        total += lat;
    }
    Ok(total)
}

fn reload(client: &mut Client, log: &mut SpanLog) -> Res<f64> {
    let (resp, lat) = timed_call(client, log, "serve.client.reload", Request::Reload);
    crate::checks::ok_reply(&resp?)?;
    Ok(lat)
}

fn serve_layer(input: &LedgerIn<'_>, log: &mut SpanLog, out: &mut Vec<Metric>) -> Res<()> {
    let reqs = &input.requests;
    let mut server = Server::start(Arc::clone(input.pipeline), server_config()).map_err(err)?;
    let mut client = Client::connect(server.local_addr()).map_err(err)?;
    let pings = singles(
        &mut client,
        log,
        "serve.client.ping",
        &vec![Request::Ping; PINGS],
    )?;
    reload(&mut client, log)?;
    let served = singles(&mut client, log, "serve.client.single", reqs)?;
    let exec: Vec<f64> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let start = Instant::now();
            log.span("serve.execute", i as u64, || {
                black_box(execute(input.pipeline, r))
            });
            ms(start.elapsed())
        })
        .collect();
    reload(&mut client, log)?;
    let batch_total = batched(&mut client, log, "serve.client.batch", reqs)?;
    drop(client);
    server.shutdown();

    // Protocol codec over the same requests and their replies.
    let (mut enc, mut dec, mut req_bytes, mut rep_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, r) in reqs.iter().enumerate() {
        let env = RequestEnvelope {
            id: i as u64,
            deadline_ms: 0,
            req: r.clone(),
        };
        let env_bytes = serde_json::to_string(&env).map_err(err)?.into_bytes();
        let resp = ResponseEnvelope::ok(i as u64, execute(input.pipeline, r));
        let start = Instant::now();
        black_box(canonical_bytes(r).map_err(err)?);
        let resp_bytes = encode_response(&resp).map_err(err)?;
        enc.push(ms(start.elapsed()) * 1e3);
        let start = Instant::now();
        black_box(decode_request(&env_bytes).map_err(err)?);
        black_box(decode_response(&resp_bytes).map_err(err)?);
        dec.push(ms(start.elapsed()) * 1e3);
        req_bytes.push(env_bytes.len() as f64);
        rep_bytes.push(resp_bytes.len() as f64);
    }

    let n = reqs.len() as f64;
    out.push(metric("serve.ping_rtt_ms", "ms", percentile(&pings, 0.5)));
    out.push(metric("serve.execute_p50_ms", "ms", percentile(&exec, 0.5)));
    out.push(metric(
        "serve.wire_gap_ms",
        "ms",
        percentile(&served, 0.5) - percentile(&exec, 0.5),
    ));
    out.push(metric("serve.protocol.encode_us", "us", mean(&enc)));
    out.push(metric("serve.protocol.decode_us", "us", mean(&dec)));
    out.push(metric(
        "serve.protocol.request_bytes",
        "bytes",
        mean(&req_bytes),
    ));
    out.push(metric(
        "serve.protocol.reply_bytes",
        "bytes",
        mean(&rep_bytes),
    ));
    out.push(metric(
        "serve.cache.hit_share",
        "share",
        input.cache_hit_share,
    ));
    out.push(metric("serve.single_ms_per_query", "ms", mean(&served)));
    out.push(metric("serve.batch_ms_per_query", "ms", batch_total / n));
    Ok(())
}

/// The in-process sharded search for one request.
fn sharded_search(sp: &ShardedPipeline, req: &Request) {
    match req {
        Request::Keyword { query, k } => drop(black_box(sp.search_keyword(query, *k))),
        Request::Joinable { column, k } => drop(black_box(sp.search_joinable(column, *k))),
        Request::Unionable { table, k } => drop(black_box(sp.search_unionable(table, *k))),
        Request::UnionableSemantic { table, k } => {
            drop(black_box(sp.search_unionable_semantic(table, *k)))
        }
        Request::UnionableRelationship { table, k } => {
            drop(black_box(sp.search_unionable_relationship(table, *k)));
        }
        Request::FuzzyJoinable { column, tau, k } => {
            drop(black_box(sp.search_fuzzy_joinable(column, *tau, *k)))
        }
        Request::MultiJoinable { table, key_cols, k } => {
            drop(black_box(sp.search_multi_joinable(table, key_cols, *k)));
        }
        Request::Correlated { key, numeric, k } => {
            drop(black_box(sp.search_correlated(key, numeric, *k)))
        }
        _ => {}
    }
}

fn coord_and_shard_layer(
    input: &LedgerIn<'_>,
    log: &mut SpanLog,
    out: &mut Vec<Metric>,
) -> Res<()> {
    const SHARDS: usize = 2;
    let reqs = &input.requests;
    let map = ShardMap::new(SHARDS);
    let shards: Vec<Arc<DiscoveryPipeline>> = (0..SHARDS)
        .map(|s| {
            Arc::new(inputs::assemble(
                input.ctx,
                input.arts.iter().filter(|(id, _)| map.shard_of(*id) == s),
            ))
        })
        .collect();
    let mut fleet = ShardFleet::start(shards, &server_config()).map_err(err)?;
    let addrs = fleet.addrs();
    let mut front = CoordServer::start(
        Arc::new(Coordinator::new(CoordConfig::new(addrs.clone()))),
        CoordServerConfig::default(),
    )
    .map_err(err)?;
    let mut client = Client::connect(front.local_addr()).map_err(err)?;
    let shard_requests = |fleet: &ShardFleet| -> u64 {
        (0..SHARDS)
            .filter_map(|i| fleet.server(i))
            .map(|s| s.stats().requests)
            .sum()
    };

    reload(&mut client, log)?;
    let before = shard_requests(&fleet);
    let coord = singles(&mut client, log, "coord.client.single", reqs)?;
    let single_calls = shard_requests(&fleet) - before;
    reload(&mut client, log)?;
    let before = shard_requests(&fleet);
    batched(&mut client, log, "coord.client.batch", reqs)?;
    let batch_calls = shard_requests(&fleet) - before;
    reload(&mut client, log)?;
    let mut direct = vec![0.0f64; reqs.len()];
    for addr in &addrs {
        let mut c = Client::connect(addr.as_str()).map_err(err)?;
        let lat = singles(&mut c, log, "coord.direct_shard", reqs)?;
        for (d, l) in direct.iter_mut().zip(lat) {
            *d = d.max(l);
        }
    }
    drop(client);
    front.shutdown();
    fleet.shutdown();

    let n = reqs.len() as f64;
    out.push(metric(
        "coord.shard_calls_per_query.single",
        "count",
        single_calls as f64 / n,
    ));
    out.push(metric(
        "coord.shard_calls_per_query.batch",
        "count",
        batch_calls as f64 / n,
    ));
    out.push(metric(
        "coord.gap_ms",
        "ms",
        percentile(&coord, 0.5) - percentile(&direct, 0.5),
    ));

    // The merge algebra without the wire.
    let mut sp = ShardedPipeline::with_context(SHARDS, input.ctx);
    for (id, t) in &input.lake.tables {
        sp.ingest_table(*id, t);
    }
    black_box(sp.snapshots());
    let lat: Vec<f64> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let start = Instant::now();
            log.span("shard.search", i as u64, || sharded_search(&sp, r));
            ms(start.elapsed())
        })
        .collect();
    out.push(metric("shard.inproc_p50_ms", "ms", percentile(&lat, 0.5)));
    Ok(())
}

fn newest_snapshot(dir: &Path) -> Option<std::path::PathBuf> {
    let mut snaps: Vec<_> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tds"))
        .collect();
    snaps.sort();
    snaps.pop()
}

fn store_layer(
    input: &LedgerIn<'_>,
    dir: &Path,
    log: &mut SpanLog,
    out: &mut Vec<Metric>,
) -> Res<()> {
    const EXTRA: usize = 8;
    let _ = std::fs::remove_dir_all(dir);
    let store = dir.join("store");
    let (mut durable, _) = boot(&store, input.ctx.clone()).map_err(err)?;
    let mut appends = Vec::new();
    for (id, a) in input.arts {
        let a = a.clone();
        let start = Instant::now();
        log.span("store.wal_append", u64::from(id.0), || {
            durable.ingest_artifacts(*id, a)
        })
        .map_err(err)?;
        appends.push(ms(start.elapsed()));
    }
    let wal_path = store.join("pipeline.wal");
    let wal_bytes = std::fs::metadata(&wal_path).map_err(err)?.len() as f64;
    let start = Instant::now();
    let cp = log
        .span("store.checkpoint", 0, || durable.checkpoint())
        .map_err(err)?;
    let checkpoint_ms = ms(start.elapsed());
    for (id, a) in input.arts.iter().take(EXTRA) {
        durable.ingest_artifacts(*id, a.clone()).map_err(err)?;
    }
    drop(durable);

    let snap = newest_snapshot(&store).ok_or("no snapshot written")?;
    let start = Instant::now();
    log.span("store.restore_snapshot", 0, || {
        SnapshotReader::open(&snap)
            .and_then(|mut r| r.read_state())
            .map(black_box)
    })
    .map_err(err)?;
    let restore_snapshot_ms = ms(start.elapsed());

    // Replay a copy of the log, so the store itself stays untouched.
    let copy = dir.join("replay.wal");
    std::fs::copy(&wal_path, &copy).map_err(err)?;
    let mut sp = SegmentedPipeline::with_context(input.ctx.clone());
    let start = Instant::now();
    log.span("store.wal_replay", 0, || {
        Wal::open_with(&copy, |rec| match rec {
            WalRecord::Ingest { id, artifacts } => sp.ingest_artifacts(id, *artifacts),
            WalRecord::Drop { id } => {
                sp.drop_table(id);
            }
            WalRecord::Seal => sp.seal(),
            WalRecord::Compact => sp.compact(),
        })
    })
    .map_err(err)?;
    let wal_replay_ms = ms(start.elapsed());

    // Served writes: ingest under fresh ids, each followed by a reload.
    let (durable, _) = boot(&store, input.ctx.clone()).map_err(err)?;
    let mut server = Server::start_durable(durable, server_config()).map_err(err)?;
    let mut client = Client::connect(server.local_addr()).map_err(err)?;
    let next_id = input.arts.iter().map(|(id, _)| id.0).max().unwrap_or(0) + 1;
    let (mut ingest, mut reloads) = (Vec::new(), Vec::new());
    for (i, (_, t)) in input.lake.tables.iter().take(4).enumerate() {
        let req = Request::IngestTable {
            id: TableId(next_id + i as u32),
            table: t.clone(),
        };
        let (resp, lat) = timed_call(&mut client, log, "serve.client.ingest", req);
        crate::checks::ok_reply(&resp?)?;
        ingest.push(lat);
        reloads.push(reload(&mut client, log)?);
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);

    out.push(metric(
        "serve.ingest_call_ms",
        "ms",
        percentile(&ingest, 0.5),
    ));
    out.push(metric("serve.reload_ms", "ms", percentile(&reloads, 0.5)));
    out.push(metric("store.wal_append_ms", "ms", mean(&appends)));
    out.push(metric(
        "store.wal_bytes_per_record",
        "bytes",
        wal_bytes / input.arts.len() as f64,
    ));
    out.push(metric("store.checkpoint_ms", "ms", checkpoint_ms));
    out.push(metric(
        "store.snapshot_bytes",
        "bytes",
        cp.snapshot_bytes as f64,
    ));
    out.push(metric(
        "store.restore_snapshot_ms",
        "ms",
        restore_snapshot_ms,
    ));
    out.push(metric("store.wal_replay_ms", "ms", wal_replay_ms));
    Ok(())
}
