//! The sharded deployment end-to-end, over real sockets: K shard
//! servers behind the scatter-gather coordinator answer every search
//! family **byte-identically** to a single server over the whole lake;
//! mutations route to the owning shard; `Reload` rolls across shards;
//! a killed shard degrades replies (named in the envelope's `degraded`
//! field) without hanging, and a rejoined shard restores byte-identical
//! answers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use td_core::segment::PipelineContext;
use td_core::{DiscoveryPipeline, PipelineConfig};
use td_serve::{
    encode_response, execute, Client, CoordServer, CoordServerConfig, Reply, Request,
    RequestEnvelope, ResponseEnvelope, ServerConfig, ShardFleet, Status,
};
use td_table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td_table::{Table, TableId};

const K: usize = 6;

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
            num_tables: 12,
            rows: (8, 24),
            cols: (2, 4),
            seed: 20260808,
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
        "td-serve-shard-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn env(id: u64, req: Request) -> RequestEnvelope {
    RequestEnvelope {
        id,
        deadline_ms: 0,
        req,
    }
}

/// One probe per search family (all eight), built from the fixture's
/// first table (correlated from the first table with a numeric column).
fn probes(fx: &Fixture) -> Vec<Request> {
    let qt = &fx.tables[0].1;
    let mut out = vec![
        Request::Keyword {
            query: "dataset".into(),
            k: K,
        },
        Request::Unionable {
            table: qt.clone(),
            k: K,
        },
        Request::UnionableSemantic {
            table: qt.clone(),
            k: K,
        },
        Request::UnionableRelationship {
            table: qt.clone(),
            k: K,
        },
        Request::MultiJoinable {
            table: qt.clone(),
            key_cols: vec![0, 1],
            k: K,
        },
    ];
    if let Some(c) = qt.columns.first() {
        out.push(Request::Joinable {
            column: c.clone(),
            k: K,
        });
        out.push(Request::FuzzyJoinable {
            column: c.clone(),
            tau: 0.8,
            k: K,
        });
    }
    // Correlated needs a categorical key and a numeric column; take the
    // first table that has both.
    let pair = fx.tables.iter().find_map(|(_, t)| {
        let key = t.columns.iter().find(|c| !c.is_numeric())?;
        let num = t.columns.iter().find(|c| c.is_numeric())?;
        Some((key, num))
    });
    if let Some((key, num)) = pair {
        out.push(Request::Correlated {
            key: key.clone(),
            numeric: num.clone(),
            k: K,
        });
    }
    out
}

/// Every family served through the coordinator front-end (real TCP on
/// both hops: client → coordinator → shards) is byte-for-byte the
/// response a single whole-lake server would produce.
#[test]
fn coordinator_answers_are_byte_identical_to_single_pipeline() {
    let fx = fixture();
    for shards in [1, 3] {
        let mut fleet = ShardFleet::start_partitioned(
            shards,
            &fx.ctx,
            &fx.tables,
            &ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("fleet");
        let coord = Arc::new(fleet.coordinator());
        let mut front = CoordServer::start(coord, CoordServerConfig::default()).expect("front");
        let mut client = Client::connect(front.local_addr()).expect("connect");

        for (i, req) in probes(fx).into_iter().enumerate() {
            let id = 100 + i as u64;
            let raw = client.call_raw(&env(id, req.clone())).expect("call");
            let expected = encode_response(&ResponseEnvelope::ok(id, execute(&fx.batch, &req)))
                .expect("encode");
            assert_eq!(
                raw,
                expected,
                "{shards}-shard coordinator diverged on {}",
                req.endpoint()
            );
        }

        front.shutdown();
        fleet.shutdown();
    }
}

/// The full admin story over a durable fleet: mutations route to owning
/// shards (WAL-logged per shard), a rolling `Reload` promotes every
/// shard, then a killed shard degrades replies without hanging and a
/// restarted shard (restored from its own store directory) brings the
/// fleet back to byte-identical answers.
#[test]
fn degraded_replies_and_rejoin_over_durable_fleet() {
    let fx = fixture();
    let root = scratch();
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let mut fleet = ShardFleet::start_durable(3, &root, &fx.ctx, &cfg).expect("fleet");
    let coord = fleet.coordinator();

    // Ingest the whole lake through the coordinator: each table is
    // routed to (and WAL-logged on) exactly its owning shard.
    for (i, (id, t)) in fx.tables.iter().enumerate() {
        let resp = coord.handle(&env(
            i as u64,
            Request::IngestTable {
                id: *id,
                table: t.clone(),
            },
        ));
        assert_eq!(resp.status, Status::Ok, "ingest {id:?}: {:?}", resp.error);
        assert!(resp.degraded.is_empty());
    }

    // Rolling reload: every shard promotes its staged pipeline.
    let resp = coord.handle(&env(900, Request::Reload));
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.reply, Some(Reply::Reloaded(1)));
    assert!(resp.degraded.is_empty());

    // Healthy fleet answers match the whole-lake oracle byte-for-byte.
    let reqs = probes(fx);
    let healthy: Vec<ResponseEnvelope> = reqs
        .iter()
        .enumerate()
        .map(|(i, req)| coord.handle(&env(1000 + i as u64, req.clone())))
        .collect();
    for (req, resp) in reqs.iter().zip(&healthy) {
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.degraded.is_empty());
        assert_eq!(
            resp.reply.as_ref(),
            Some(&execute(&fx.batch, req)),
            "healthy fleet diverged on {}",
            req.endpoint()
        );
    }

    // Kill shard 1 mid-workload: every family still answers Ok, fast,
    // with `degraded: [1]` — never a hang, never an error.
    fleet.stop_shard(1);
    for (i, req) in reqs.iter().enumerate() {
        let resp = coord.handle(&env(2000 + i as u64, req.clone()));
        assert_eq!(
            resp.status,
            Status::Ok,
            "degraded fleet must still answer {}",
            req.endpoint()
        );
        assert_eq!(
            resp.degraded,
            vec![1],
            "missing shard must be named on {}",
            req.endpoint()
        );
    }

    // Mutations whose owner is down fail hard (a routed write has one
    // home); mutations owned by live shards keep working.
    let owner_down = fx
        .tables
        .iter()
        .find(|(id, _)| coord.map().shard_of(*id) == 1)
        .expect("some table routes to shard 1");
    let resp = coord.handle(&env(3000, Request::DropTable { id: owner_down.0 }));
    assert_eq!(resp.status, Status::Internal);
    assert_eq!(resp.degraded, vec![1]);

    // Rejoin: restart shard 1 from its own store directory and re-point
    // the coordinator. Answers are byte-identical to the healthy run.
    let addr = fleet
        .restart_shard_durable(1, &root, &fx.ctx, &cfg)
        .expect("restart shard 1");
    coord.set_shard_addr(1, addr);
    for (i, (req, before)) in reqs.iter().zip(&healthy).enumerate() {
        let resp = coord.handle(&env(4000 + i as u64, req.clone()));
        assert_eq!(resp.status, Status::Ok);
        assert!(
            resp.degraded.is_empty(),
            "rejoined shard must clear degradation on {}",
            req.endpoint()
        );
        assert_eq!(
            resp.reply,
            before.reply,
            "rejoined fleet diverged on {}",
            req.endpoint()
        );
    }

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// One request of each of the six shard-plane kinds.
fn shard_plane_probes(fx: &Fixture) -> Vec<Request> {
    let qt = &fx.tables[0].1;
    let column = qt.columns[0].clone();
    vec![
        Request::KeywordStats {
            query: "dataset".into(),
        },
        Request::KeywordScored {
            query: "dataset".into(),
            k: K,
            stats: fx.batch.keyword_term_stats("dataset"),
        },
        Request::JoinableColumns {
            column: column.clone(),
            width: K,
        },
        Request::FuzzyColumns {
            column,
            tau: 0.8,
            width: K,
        },
        Request::SemanticCandidates { table: qt.clone() },
        Request::SemanticScored {
            table: qt.clone(),
            k: K,
            tables: fx.tables.iter().map(|(id, _)| *id).collect(),
        },
    ]
}

/// The coordinator refuses every shard-plane kind on its public
/// surface, alone and inside a batch.
#[test]
fn shard_plane_requests_are_rejected_by_the_coordinator() {
    let fx = fixture();
    let mut fleet = ShardFleet::start_partitioned(
        2,
        &fx.ctx,
        &fx.tables,
        &ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("fleet");
    let coord = fleet.coordinator();
    for (i, req) in shard_plane_probes(fx).into_iter().enumerate() {
        let alone = coord.handle(&env(i as u64, req.clone()));
        assert_eq!(
            alone.status,
            Status::BadRequest,
            "lone {} was not refused",
            req.endpoint()
        );
        let batched = coord.handle(&env(
            100 + i as u64,
            Request::Batch {
                requests: vec![req.clone(), req.clone()],
            },
        ));
        assert_eq!(
            batched.status,
            Status::BadRequest,
            "batched {} was not refused",
            req.endpoint()
        );
    }
    fleet.shutdown();
}

/// The coordinator→shard traffic per client call: every shard gets one
/// frame per network phase, whether the client sent a single or a
/// batch — one for the plain and join families, two for keyword and
/// semantic (statistics or candidates, then the pinned scoring).
#[test]
fn each_phase_reaches_each_shard_as_one_frame() {
    let fx = fixture();
    let mut fleet = ShardFleet::start_partitioned(
        2,
        &fx.ctx,
        &fx.tables,
        &ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("fleet");
    let coord = fleet.coordinator();
    let requests_seen = |fleet: &ShardFleet| -> Vec<u64> {
        (0..2)
            .map(|i| fleet.server(i).expect("shard up").stats().requests)
            .collect()
    };
    // Dial both shards before counting.
    let warm = coord.handle(&env(1, Request::Health));
    assert_eq!(warm.status, Status::Ok);

    let all = probes(fx);
    assert_eq!(all.len(), 8, "the fixture covers all eight families");
    for (i, probe) in all.into_iter().enumerate() {
        let phases: u64 = match &probe {
            Request::Keyword { .. } | Request::UnionableSemantic { .. } => 2,
            _ => 1,
        };
        let batch = Request::Batch {
            requests: vec![probe.clone(), probe.clone(), probe.clone()],
        };
        for (shape, req) in [("single", probe.clone()), ("batch of 3", batch)] {
            let before = requests_seen(&fleet);
            let resp = coord.handle(&env(10 + i as u64, req));
            assert_eq!(resp.status, Status::Ok);
            assert!(resp.degraded.is_empty());
            let after = requests_seen(&fleet);
            for shard in 0..2 {
                assert_eq!(
                    after[shard] - before[shard],
                    phases,
                    "{shape} {} sent shard {shard} the wrong number of frames",
                    probe.endpoint()
                );
            }
        }
    }
    fleet.shutdown();
}
