//! The persist plane end-to-end: a server started from a td-store
//! directory ingests over the wire (WAL-logged), promotes the staged
//! durable state via `Reload` — assembling it once per reload, however
//! many mutations came before — checkpoints via `Snapshot`, and — after
//! a full process "restart" (drop the server, boot from the same
//! directory) — serves responses byte-identical to a one-shot batch
//! build over the same live tables.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use td_core::segment::PipelineContext;
use td_core::{DiscoveryPipeline, PipelineConfig, PipelineSegment, SegmentView};
use td_serve::{
    boot, encode_response, execute, Client, Reply, Request, RequestEnvelope, ResponseEnvelope,
    Server, ServerConfig, Status,
};
use td_table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td_table::{Table, TableId};

struct Fixture {
    tables: Vec<(TableId, Table)>,
    ctx: PipelineContext,
    /// Batch pipeline over the whole lake: the byte-identity oracle.
    batch: Arc<DiscoveryPipeline>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let gl = LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: 10,
            rows: (8, 24),
            cols: (2, 4),
            seed: 20260807,
            ..LakeGenConfig::default()
        });
        let cfg = PipelineConfig::default();
        let batch = Arc::new(DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &cfg));
        let ctx = PipelineContext::new(&gl.registry, &[], &cfg);
        let tables = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
        Fixture { tables, ctx, batch }
    })
}

fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "td-serve-persist-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serializes the tests of this file that run a durable server: they
/// read deltas of the process-wide `pipeline.snapshot.builds` counter,
/// which the others would move.
fn durable_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serving pipelines assembled from segmented state so far (a durable
/// server assembles one at boot and one per `Reload` of staged state).
fn builds() -> u64 {
    td_obs::global().counter("pipeline.snapshot.builds").get()
}

/// One-shot oracle over the fixture tables at `live`: a single
/// `PipelineSegment::build` merged by `from_segments`.
fn oracle(fx: &Fixture, live: &[usize]) -> DiscoveryPipeline {
    let view = SegmentView::new(
        live.iter()
            .map(|&i| (fx.tables[i].0, &fx.tables[i].1))
            .collect(),
    );
    let seg = PipelineSegment::build(&view, &fx.ctx);
    DiscoveryPipeline::from_segments(&fx.ctx, &[&seg], &BTreeSet::new())
}

fn ingest(client: &mut Client, id: u64, fx: &Fixture, i: usize) {
    let resp = client
        .call(&env(
            id,
            Request::IngestTable {
                id: fx.tables[i].0,
                table: fx.tables[i].1.clone(),
            },
        ))
        .expect("ingest");
    assert_eq!(resp.status, Status::Ok);
}

fn drop_table(client: &mut Client, id: u64, fx: &Fixture, i: usize) {
    let resp = client
        .call(&env(id, Request::DropTable { id: fx.tables[i].0 }))
        .expect("drop");
    assert_eq!(resp.status, Status::Ok);
}

fn reload(client: &mut Client, id: u64) -> u64 {
    match client
        .call(&env(id, Request::Reload))
        .expect("reload")
        .reply
    {
        Some(Reply::Reloaded(epoch)) => epoch,
        other => panic!("unexpected reload reply {other:?}"),
    }
}

fn env(id: u64, req: Request) -> RequestEnvelope {
    RequestEnvelope {
        id,
        deadline_ms: 0,
        req,
    }
}

/// Probe requests that exercise several search families against the
/// serving pipeline.
fn probes(fx: &Fixture) -> Vec<Request> {
    let qt = &fx.tables[0].1;
    let mut out = vec![
        Request::Keyword {
            query: "dataset".into(),
            k: 8,
        },
        Request::Unionable {
            table: qt.clone(),
            k: 8,
        },
        Request::UnionableSemantic {
            table: qt.clone(),
            k: 8,
        },
    ];
    if let Some(c) = qt.columns.first() {
        out.push(Request::Joinable {
            column: c.clone(),
            k: 8,
        });
        out.push(Request::FuzzyJoinable {
            column: c.clone(),
            tau: 0.8,
            k: 8,
        });
    }
    out
}

/// Every probe served over the wire must byte-match the direct
/// in-process answer from `oracle`.
fn assert_serves(client: &mut Client, fx: &Fixture, oracle: &DiscoveryPipeline) {
    for (i, req) in probes(fx).into_iter().enumerate() {
        let id = 7000 + i as u64;
        let served = client.call_raw(&env(id, req.clone())).expect("probe");
        let direct =
            encode_response(&ResponseEnvelope::ok(id, execute(oracle, &req))).expect("encode");
        assert_eq!(
            served,
            direct,
            "served response diverged from batch build on {}",
            req.endpoint()
        );
    }
}

/// The tentpole round trip: ingest the lake over the wire, checkpoint,
/// "restart" the process, and the restored server answers byte-
/// identically to the batch build — without re-ingesting anything.
#[test]
fn durable_server_survives_restart_with_identical_answers() {
    let _serial = durable_lock();
    let fx = fixture();
    let dir = scratch();

    // Boot 1: empty store, ingest everything over the wire.
    let (durable, stats) = boot(&dir, fx.ctx.clone()).expect("boot");
    assert!(stats.snapshot_seq.is_none());
    let mut server = Server::start_durable(durable, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for (i, (id, t)) in fx.tables.iter().enumerate() {
        let resp = client
            .call(&env(
                i as u64,
                Request::IngestTable {
                    id: *id,
                    table: t.clone(),
                },
            ))
            .expect("ingest");
        assert_eq!(resp.status, Status::Ok);
        match resp.reply {
            Some(Reply::Ingested(r)) => {
                assert_eq!(r.tables, i as u64 + 1);
                assert!(r.staged);
            }
            other => panic!("unexpected ingest reply {other:?}"),
        }
    }

    // Ingests stage but do not swap: promotion is the operator's Reload.
    assert_eq!(server.epoch(), 0);
    let resp = client.call(&env(100, Request::Reload)).expect("reload");
    assert_eq!(resp.reply, Some(Reply::Reloaded(1)));
    assert_serves(&mut client, fx, &fx.batch);

    // Checkpoint: the WAL (one record per ingest) folds into snapshot 1.
    let resp = client.call(&env(101, Request::Snapshot)).expect("snapshot");
    match resp.reply {
        Some(Reply::Snapshotted(s)) => {
            assert_eq!(s.seq, 1);
            assert!(s.bytes > 0);
            assert_eq!(s.wal_records_folded, fx.tables.len() as u64);
        }
        other => panic!("unexpected snapshot reply {other:?}"),
    }
    drop(client);
    server.shutdown();

    // Boot 2: restore from the snapshot — no WAL replay, no rebuild.
    let (durable, stats) = boot(&dir, fx.ctx.clone()).expect("reboot");
    assert_eq!(stats.snapshot_seq, Some(1));
    assert_eq!(stats.wal_records_replayed, 0);
    let mut server = Server::start_durable(durable, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_serves(&mut client, fx, &fx.batch);
    drop(client);
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Ingest stages without swapping (queries keep the current epoch until
/// a Reload), and a drop over the wire tombstones the table in both the
/// durable state and the next promoted serving pipeline.
#[test]
fn ingest_and_drop_go_through_the_epoch_slot() {
    let _serial = durable_lock();
    let fx = fixture();
    let dir = scratch();

    let (durable, _) = boot(&dir, fx.ctx.clone()).expect("boot");
    let mut server = Server::start_durable(durable, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let (victim, vt) = (fx.tables[0].0, fx.tables[0].1.clone());
    let probe = Request::Unionable { table: vt, k: 5 };

    // Epoch 0 serves the (empty) boot pipeline even after the ingest.
    for (i, (id, t)) in fx.tables.iter().enumerate() {
        client
            .call(&env(
                i as u64,
                Request::IngestTable {
                    id: *id,
                    table: t.clone(),
                },
            ))
            .expect("ingest");
    }
    match client.call(&env(50, probe.clone())).expect("probe").reply {
        Some(Reply::Scores(s)) => assert!(s.is_empty(), "pre-reload epoch must still be empty"),
        other => panic!("unexpected reply {other:?}"),
    }

    client.call(&env(51, Request::Reload)).expect("reload");
    match client.call(&env(52, probe.clone())).expect("probe").reply {
        Some(Reply::Scores(s)) => {
            assert!(s.iter().any(|(id, _)| *id == victim), "self-union ranks");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Drop the table, promote, and it disappears from the ranking.
    let resp = client
        .call(&env(53, Request::DropTable { id: victim }))
        .expect("drop");
    match resp.reply {
        Some(Reply::Dropped(d)) => {
            assert!(d.existed);
            assert!(d.staged);
        }
        other => panic!("unexpected drop reply {other:?}"),
    }
    client.call(&env(54, Request::Reload)).expect("reload");
    match client.call(&env(55, probe)).expect("probe").reply {
        Some(Reply::Scores(s)) => {
            assert!(s.iter().all(|(id, _)| *id != victim), "dropped table gone");
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Dropping a dead id is observable but not an error.
    let resp = client
        .call(&env(56, Request::DropTable { id: victim }))
        .expect("re-drop");
    match resp.reply {
        Some(Reply::Dropped(d)) => assert!(!d.existed),
        other => panic!("unexpected drop reply {other:?}"),
    }

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persist requests against a server started without a store answer a
/// clean BadRequest — not a panic, not a hang.
#[test]
fn persist_requests_without_a_store_are_refused_cleanly() {
    let fx = fixture();
    let mut server = Server::start(Arc::clone(&fx.batch), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for (i, req) in [
        Request::Snapshot,
        Request::DropTable { id: fx.tables[0].0 },
        Request::IngestTable {
            id: fx.tables[0].0,
            table: fx.tables[0].1.clone(),
        },
    ]
    .into_iter()
    .enumerate()
    {
        let resp = client.call(&env(i as u64, req)).expect("call");
        assert_eq!(resp.status, Status::BadRequest);
        assert!(
            resp.error.as_deref().unwrap_or("").contains("persistence"),
            "error should say persistence is not configured: {:?}",
            resp.error
        );
    }

    // The connection is still usable for ordinary queries afterwards.
    let resp = client
        .call(&env(
            99,
            Request::Keyword {
                query: "dataset".into(),
                k: 3,
            },
        ))
        .expect("query");
    assert_eq!(resp.status, Status::Ok);

    drop(client);
    server.shutdown();
}

/// Mutations only mark the durable state as staged; the `Reload` that
/// promotes it assembles one serving pipeline, however many ingests and
/// drops came before it, and a `Reload` with nothing staged assembles
/// none. The promoted pipeline answers byte-identically to a one-shot
/// build over the live tables.
#[test]
fn reload_assembles_the_durable_state_once() {
    let _serial = durable_lock();
    let fx = fixture();
    let dir = scratch();
    let (durable, _) = boot(&dir, fx.ctx.clone()).expect("boot");
    let mut server = Server::start_durable(durable, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let n = fx.tables.len();

    // Nothing staged: the reload is a cache barrier and builds nothing.
    let before = builds();
    assert_eq!(reload(&mut client, 1), 1);
    assert_eq!(builds(), before, "a reload with nothing staged builds");

    // Ten ingests, one reload, one build.
    for i in 0..n {
        ingest(&mut client, 10 + i as u64, fx, i);
    }
    assert_eq!(builds(), before, "a mutation built a serving pipeline");
    assert_eq!(reload(&mut client, 2), 2);
    assert_eq!(builds(), before + 1);
    assert_serves(&mut client, fx, &fx.batch);

    // k re-ingests and k drops, one reload, one build.
    let k = 4;
    for i in 0..k {
        ingest(&mut client, 30 + i as u64, fx, i);
    }
    for i in n - k..n {
        drop_table(&mut client, 40 + i as u64, fx, i);
    }
    assert_eq!(builds(), before + 1, "a mutation built a serving pipeline");
    assert_eq!(reload(&mut client, 3), 3);
    assert_eq!(builds(), before + 2);
    let live: Vec<usize> = (0..n - k).collect();
    assert_serves(&mut client, fx, &oracle(fx, &live));

    // A checkpoint stages nothing, and neither does a second reload.
    let resp = client.call(&env(4, Request::Snapshot)).expect("snapshot");
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(reload(&mut client, 5), 4);
    assert_eq!(builds(), before + 2);
    assert_serves(&mut client, fx, &oracle(fx, &live));

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Between `Server::stage_pipeline` and persist-plane mutations, the
/// last writer before a `Reload` decides what it promotes.
#[test]
fn last_staging_writer_wins() {
    let _serial = durable_lock();
    let fx = fixture();
    let dir = scratch();
    let (durable, _) = boot(&dir, fx.ctx.clone()).expect("boot");
    let mut server = Server::start_durable(durable, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let n = fx.tables.len();
    for i in 0..n {
        ingest(&mut client, i as u64, fx, i);
    }
    reload(&mut client, 20);
    let explicit = Arc::new(oracle(fx, &[0, 1, 2]));

    // stage_pipeline, then a drop: the reload assembles the durable state.
    server.stage_pipeline(Arc::clone(&explicit));
    drop_table(&mut client, 21, fx, n - 1);
    let before = builds();
    reload(&mut client, 22);
    assert_eq!(builds(), before + 1);
    let live: Vec<usize> = (0..n - 1).collect();
    assert_serves(&mut client, fx, &oracle(fx, &live));

    // A drop, then stage_pipeline: the reload promotes the explicit
    // pipeline and assembles nothing.
    drop_table(&mut client, 23, fx, n - 2);
    server.stage_pipeline(Arc::clone(&explicit));
    let before = builds();
    reload(&mut client, 24);
    assert_eq!(builds(), before);
    assert_serves(&mut client, fx, &explicit);

    // The durable state still holds the drop: the next mutation stages
    // it again, and its reload serves it.
    drop_table(&mut client, 25, fx, n - 3);
    reload(&mut client, 26);
    let live: Vec<usize> = (0..n - 3).collect();
    assert_serves(&mut client, fx, &oracle(fx, &live));

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
