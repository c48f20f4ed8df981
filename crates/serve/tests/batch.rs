//! The serve-layer batch story, over real sockets:
//!
//! * a `Request::Batch` frame answers with one sub-reply per sub-request,
//!   each **byte-identical** to the single-request response — against a
//!   single server and against the K-shard coordinator;
//! * singles from concurrent clients queued behind one worker, each
//!   executed on its own, answer byte-identically to `execute`;
//! * malformed batch frames — empty, oversized, mixed-family, nested,
//!   admin/control requests inside — fail with a clean `BadRequest` and
//!   never panic or hang the server. The committed corpus under
//!   `tests/corpus/batch/` replays those frames raw off disk and doubles
//!   as a seed corpus for future fuzzing of the batch surface.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use td_core::segment::PipelineContext;
use td_core::{DiscoveryPipeline, PipelineConfig};
use td_serve::{
    decode_response, encode_response, execute, read_frame, write_frame, Client, CoordServer,
    CoordServerConfig, Reply, Request, RequestEnvelope, ResponseEnvelope, Server, ServerConfig,
    ShardFleet, Status, MAX_BATCH, MAX_FRAME_BYTES,
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

/// One request of each of the six shard-plane kinds (what a shard
/// server answers for the coordinator), built from the fixture's first
/// table.
fn shard_plane_probes(fx: &Fixture) -> Vec<Request> {
    let qt = &fx.tables[0].1;
    let column = qt.columns[0].clone();
    let candidates = fx
        .batch
        .semantic_candidates(qt)
        .into_iter()
        .flatten()
        .map(|(c, _)| c.table)
        .collect::<std::collections::BTreeSet<_>>();
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
            tables: candidates.into_iter().collect(),
        },
    ]
}

/// The same request with a different k (a column window's width) —
/// batches mix result sizes.
fn with_k(req: &Request, k: usize) -> Request {
    let mut r = req.clone();
    match &mut r {
        Request::Keyword { k: kk, .. }
        | Request::Joinable { k: kk, .. }
        | Request::Unionable { k: kk, .. }
        | Request::UnionableSemantic { k: kk, .. }
        | Request::UnionableRelationship { k: kk, .. }
        | Request::FuzzyJoinable { k: kk, .. }
        | Request::MultiJoinable { k: kk, .. }
        | Request::Correlated { k: kk, .. }
        | Request::KeywordScored { k: kk, .. }
        | Request::SemanticScored { k: kk, .. }
        | Request::JoinableColumns { width: kk, .. }
        | Request::FuzzyColumns { width: kk, .. } => *kk = k,
        _ => {}
    }
    r
}

/// A batch frame against a single server answers each sub-request
/// byte-for-byte like the one-at-a-time path — for every search family
/// and every shard-plane kind, with mixed k values, and again from the
/// result cache.
#[test]
fn batch_frames_are_byte_identical_to_singles() {
    let fx = fixture();
    let mut server = Server::start(
        Arc::clone(&fx.batch),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for round in 0..2 {
        // Round 1 misses the cache, round 2 hits it: both byte-identical.
        let all = probes(fx).into_iter().chain(shard_plane_probes(fx));
        for (i, probe) in all.enumerate() {
            let requests: Vec<Request> = [1, K, 17].iter().map(|&k| with_k(&probe, k)).collect();
            let id = 500 + round * 100 + i as u64;
            let raw = client
                .call_raw(&env(
                    id,
                    Request::Batch {
                        requests: requests.clone(),
                    },
                ))
                .expect("call");
            let subs: Vec<Reply> = requests.iter().map(|r| execute(&fx.batch, r)).collect();
            let expected =
                encode_response(&ResponseEnvelope::ok(id, Reply::Batch(subs))).expect("encode");
            assert_eq!(
                raw,
                expected,
                "round {round} batch diverged on {}",
                probe.endpoint()
            );
        }
    }
    server.shutdown();
}

/// Malformed batches constructed in-process: every shape violation is a
/// clean `BadRequest` on a connection that stays usable afterwards.
#[test]
fn malformed_batches_fail_clean_and_never_hang() {
    let fx = fixture();
    let mut server = Server::start(
        Arc::clone(&fx.batch),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let kw = |k: usize| Request::Keyword {
        query: "dataset".into(),
        k,
    };

    let cases: Vec<(&str, Vec<Request>)> = vec![
        ("empty", Vec::new()),
        ("oversized", (0..=MAX_BATCH).map(|i| kw(i + 1)).collect()),
        (
            "mixed-family",
            vec![
                kw(3),
                Request::Unionable {
                    table: fx.tables[0].1.clone(),
                    k: 3,
                },
            ],
        ),
        (
            "nested",
            vec![Request::Batch {
                requests: vec![kw(1)],
            }],
        ),
        ("admin-inside", vec![Request::Stats]),
        ("ping-inside", vec![Request::Ping]),
        ("reload-inside", vec![Request::Reload]),
    ];
    for (i, (name, requests)) in cases.into_iter().enumerate() {
        let resp = client
            .call(&env(700 + i as u64, Request::Batch { requests }))
            .expect("a malformed batch must still get a reply");
        assert_eq!(resp.status, Status::BadRequest, "{name} must be rejected");
        assert!(resp.reply.is_none(), "{name} must carry no reply payload");
    }

    // The connection survives every rejection.
    let resp = client
        .call(&env(990, kw(3)))
        .expect("call after rejections");
    assert_eq!(resp.status, Status::Ok);
    server.shutdown();
}

/// Replay the committed seed corpus raw off disk — the server must
/// answer every frame with a well-formed error envelope (never a panic,
/// never a hang, never a protocol desync).
#[test]
fn seed_corpus_replays_to_clean_errors() {
    let fx = fixture();
    let mut server = Server::start(
        Arc::clone(&fx.batch),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/batch");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 6, "corpus must stay seeded");

    for path in entries {
        let payload = std::fs::read(&path).expect("read corpus file");
        write_frame(&mut stream, &payload).expect("send corpus frame");
        let resp_bytes = read_frame(&mut stream, MAX_FRAME_BYTES)
            .expect("server must answer the corpus frame")
            .expect("connection must stay open");
        let resp = decode_response(&resp_bytes).expect("well-formed response envelope");
        assert_eq!(
            resp.status,
            Status::BadRequest,
            "{} must be rejected cleanly",
            path.display()
        );
    }

    // The same connection still serves valid work: no desync.
    let valid = env(
        4242,
        Request::Keyword {
            query: "dataset".into(),
            k: 3,
        },
    );
    let payload = serde_json::to_string(&valid).expect("encode").into_bytes();
    write_frame(&mut stream, &payload).expect("send valid frame");
    let resp_bytes = read_frame(&mut stream, MAX_FRAME_BYTES)
        .expect("answer")
        .expect("open");
    let resp = decode_response(&resp_bytes).expect("decode");
    assert_eq!(resp.status, Status::Ok);
    server.shutdown();
}

/// Hammer a single-worker server from concurrent clients so the queue
/// backs up: every reply must still be byte-identical to the direct
/// oracle.
#[test]
fn concurrent_singles_on_one_worker_stay_byte_identical() {
    let fx = fixture();
    let mut server = Server::start(
        Arc::clone(&fx.batch),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.local_addr();
    let reqs = probes(fx);

    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let reqs = reqs.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut out = Vec::new();
                for round in 0..3u64 {
                    for (i, req) in reqs.iter().enumerate() {
                        // Unique k per (client, round) so replies cannot
                        // all come from the cache.
                        let req = with_k(req, 1 + ((t + round) as usize % 5));
                        let id = t * 1000 + round * 100 + i as u64;
                        let raw = client.call_raw(&env(id, req.clone())).expect("call");
                        out.push((id, req, raw));
                    }
                }
                out
            })
        })
        .collect();

    for h in handles {
        for (id, req, raw) in h.join().expect("client thread") {
            let expected = encode_response(&ResponseEnvelope::ok(id, execute(&fx.batch, &req)))
                .expect("encode");
            assert_eq!(
                raw,
                expected,
                "queued single diverged on {}",
                req.endpoint()
            );
        }
    }
    server.shutdown();
}

/// A batch through the coordinator front-end (real TCP on both hops,
/// one fanout round per phase for the whole batch) matches the
/// whole-lake oracle byte-for-byte, for 1 and 3 shards; malformed and
/// shard-plane batches are refused.
#[test]
fn coordinator_batches_are_byte_identical_to_singles() {
    let fx = fixture();
    for shards in [1usize, 3] {
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
        let mut front =
            CoordServer::start(Arc::clone(&coord), CoordServerConfig::default()).expect("front");
        let mut client = Client::connect(front.local_addr()).expect("connect");

        // A batch of one ships its phases to the shards bare; a batch
        // of three as one `Request::Batch` per phase.
        for (i, probe) in probes(fx).into_iter().enumerate() {
            for ks in [&[K][..], &[1, K, 17][..]] {
                let requests: Vec<Request> = ks.iter().map(|&k| with_k(&probe, k)).collect();
                let id = 600 + 10 * i as u64 + ks.len() as u64;
                let raw = client
                    .call_raw(&env(
                        id,
                        Request::Batch {
                            requests: requests.clone(),
                        },
                    ))
                    .expect("call");
                let subs: Vec<Reply> = requests.iter().map(|r| execute(&fx.batch, r)).collect();
                let expected =
                    encode_response(&ResponseEnvelope::ok(id, Reply::Batch(subs))).expect("encode");
                assert_eq!(
                    raw,
                    expected,
                    "{shards}-shard coordinator batch of {} diverged on {}",
                    ks.len(),
                    probe.endpoint()
                );
            }
        }

        // The coordinator applies the same shape validation...
        let mixed = coord.handle(&env(
            900,
            Request::Batch {
                requests: vec![
                    Request::Keyword {
                        query: "dataset".into(),
                        k: 2,
                    },
                    Request::Unionable {
                        table: fx.tables[0].1.clone(),
                        k: 2,
                    },
                ],
            },
        ));
        assert_eq!(mixed.status, Status::BadRequest);
        // ...and keeps refusing shard-plane kinds even inside a batch.
        let plane = coord.handle(&env(
            901,
            Request::Batch {
                requests: vec![Request::KeywordStats {
                    query: "dataset".into(),
                }],
            },
        ));
        assert_eq!(plane.status, Status::BadRequest);

        front.shutdown();
        fleet.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random homogeneous batches (any search family or shard-plane
    /// kind, any mix of k, any batch size up to the limit) over a live
    /// socket: byte-identical to the sequential oracle.
    #[test]
    fn random_batches_match_singles_over_sockets(
        family in 0usize..14,
        ks in proptest::collection::vec(1usize..20, 1..12),
    ) {
        static SRV: OnceLock<Server> = OnceLock::new();
        let fx = fixture();
        let server = SRV.get_or_init(|| {
            Server::start(
                Arc::clone(&fx.batch),
                ServerConfig { workers: 2, ..ServerConfig::default() },
            )
            .expect("server")
        });
        let mut all = probes(fx);
        all.extend(shard_plane_probes(fx));
        let probe = &all[family % all.len()];
        let requests: Vec<Request> = ks.iter().map(|&k| with_k(probe, k)).collect();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let raw = client
            .call_raw(&env(42, Request::Batch { requests: requests.clone() }))
            .expect("call");
        let subs: Vec<Reply> = requests.iter().map(|r| execute(&fx.batch, r)).collect();
        let expected = encode_response(&ResponseEnvelope::ok(42, Reply::Batch(subs)))
            .expect("encode");
        prop_assert_eq!(raw, expected);
    }
}
