//! td-trace end-to-end tests: trace-id uniqueness under a saturated
//! worker pool, span-tree well-formedness over the wire, byte-identical
//! `SlowQueries` output across two identically seeded runs, and the
//! admin plane answering inline.

use std::sync::{Arc, OnceLock};

use std::io::Write;
use td_core::{DiscoveryPipeline, PipelineConfig};

use td_serve::{
    decode_response, read_frame, write_frame, Client, Reply, Request, RequestEnvelope, Server,
    ServerConfig, SpanNodeJson, Status, TraceConfig, TraceJson, Workload, WorkloadConfig,
    MAX_BATCH, MAX_FRAME_BYTES,
};
use td_table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td_table::DataLake;

struct Fixture {
    lake: DataLake,
    pipeline: Arc<DiscoveryPipeline>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let gl = LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: 12,
            rows: (8, 24),
            cols: (2, 5),
            seed: 20260807,
            ..LakeGenConfig::default()
        });
        let pipeline =
            DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &PipelineConfig::default());
        Fixture {
            lake: gl.lake,
            pipeline: Arc::new(pipeline),
        }
    })
}

fn start_server(cfg: ServerConfig) -> Server {
    Server::start(Arc::clone(&fixture().pipeline), cfg).expect("bind ephemeral port")
}

/// Recursively collect every span name in a subtree.
fn names(span: &SpanNodeJson, out: &mut Vec<String>) {
    out.push(span.name.clone());
    for c in &span.children {
        names(c, out);
    }
}

/// Every child span must lie within its parent's `[start, start+dur)`
/// window — the wire-level restatement of `TraceTree::well_formed`.
fn well_formed(span: &SpanNodeJson) -> bool {
    span.children.iter().all(|c| {
        c.start_ns >= span.start_ns
            && c.start_ns.saturating_add(c.dur_ns) <= span.start_ns.saturating_add(span.dur_ns)
            && well_formed(c)
    })
}

fn span_names(tree: &TraceJson) -> Vec<String> {
    let mut out = Vec::new();
    for s in &tree.spans {
        names(s, &mut out);
    }
    out
}

fn slow_queries(client: &mut Client, id: u64, n: usize) -> Vec<TraceJson> {
    let resp = client
        .call(&RequestEnvelope {
            id,
            deadline_ms: 0,
            req: Request::SlowQueries { n },
        })
        .expect("slow_queries");
    assert_eq!(resp.status, Status::Ok);
    match resp.reply {
        Some(Reply::SlowQueries(trees)) => trees,
        other => panic!("expected SlowQueries reply, got {other:?}"),
    }
}

/// Eight concurrent clients against eight workers: every admitted
/// request gets a distinct trace id, and every recorded span tree is
/// well-formed with the expected structure (queue wait + cache lookup
/// on misses, per-component probes under `execute`).
#[test]
fn trace_ids_unique_and_trees_well_formed_under_load() {
    let fx = fixture();
    let mut server = start_server(ServerConfig {
        workers: 8,
        queue_capacity: 256,
        trace: TraceConfig {
            slow_threshold_ns: 0, // admit every trace to the slow log
            slow_capacity: 512,
            ..TraceConfig::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let mut workload = Workload::new(
                &fx.lake,
                &WorkloadConfig {
                    seed: 9000 + t,
                    pool_size: 12,
                    k: 4,
                    deadline_ms: 0,
                },
            );
            let mut requests = Vec::new();
            for i in 0..20u64 {
                requests.push(workload.next_envelope(t * 1000 + i).expect("pool"));
            }
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for env in requests {
                    let resp = client.call(&env).expect("response");
                    assert_eq!(resp.status, Status::Ok, "capacity 256 must not shed");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let mut client = Client::connect(addr).expect("connect admin");
    let trees = slow_queries(&mut client, 1_000_000, 512);
    assert_eq!(trees.len(), 8 * 20, "every finished request is traced");

    let mut ids: Vec<u64> = trees.iter().map(|t| t.trace_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 8 * 20, "trace ids must be unique across workers");

    for tree in &trees {
        assert!(tree.spans.iter().all(well_formed), "nested spans in bounds");
        assert!(!tree.endpoint.is_empty());
        let names = span_names(tree);
        assert!(
            names.iter().any(|n| n == "cache.lookup"),
            "every request records its cache probe: {names:?}"
        );
        if tree.cache_hit {
            assert!(
                !names.iter().any(|n| n == "execute"),
                "cache hits never reach a worker: {names:?}"
            );
        } else {
            assert!(
                names.iter().any(|n| n == "queue.wait"),
                "missing queue.wait: {names:?}"
            );
            assert!(
                names.iter().any(|n| n == "execute"),
                "missing execute: {names:?}"
            );
            assert!(
                names.iter().any(|n| n.starts_with("probe.")),
                "an executed query must probe at least one index component: {names:?}"
            );
        }
    }
    // Durations are descending — the log is the N *worst* since boot.
    for w in trees.windows(2) {
        assert!(w[0].dur_ns >= w[1].dur_ns, "slow log must be ordered");
    }
    server.shutdown();
}

/// Send `reqs` in one write on one connection (so the server's
/// connection thread admits them back to back) and read every reply.
fn send_burst(server: &Server, reqs: &[Request]) {
    let mut buf = Vec::new();
    for (id, req) in reqs.iter().enumerate() {
        let env = RequestEnvelope {
            id: id as u64,
            deadline_ms: 0,
            req: req.clone(),
        };
        let payload = serde_json::to_string(&env).expect("encode").into_bytes();
        write_frame(&mut buf, &payload).expect("frame");
    }
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&buf).expect("send burst");
    for _ in reqs {
        let raw = read_frame(&mut stream, MAX_FRAME_BYTES)
            .expect("reply")
            .expect("connection open");
        let resp = decode_response(&raw).expect("decode");
        assert_eq!(resp.status, Status::Ok);
    }
}

/// Every executed request records its own probes: one worker, busy with
/// a large batch frame while a burst of same-family singles queues behind
/// it, runs each queued request through its own `execute` with its own
/// trace attached. So every tree that was not answered from the cache
/// holds per-component `probe.*` spans, and none holds a placeholder
/// marker standing in for probes recorded under another request.
#[test]
fn every_executed_request_records_its_own_probes() {
    let fx = fixture();
    let tables: Vec<_> = fx.lake.iter().map(|(_, t)| t.clone()).collect();
    let mut server = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 256,
        trace: TraceConfig {
            slow_threshold_ns: 0,
            slow_capacity: 512,
            ..TraceConfig::default()
        },
        ..ServerConfig::default()
    });
    let blocker = Request::Batch {
        requests: (0..MAX_BATCH)
            .map(|i| Request::Unionable {
                table: tables[i % tables.len()].clone(),
                k: 1 + i / tables.len(),
            })
            .collect(),
    };
    // Distinct `k`s: no single is answered from the cache.
    let singles = (1..=12).map(|k| Request::Keyword {
        query: "dataset".into(),
        k,
    });
    let burst: Vec<Request> = std::iter::once(blocker).chain(singles).collect();
    send_burst(&server, &burst);

    let mut client = Client::connect(server.local_addr()).expect("connect admin");
    let trees = slow_queries(&mut client, 1_000_000, 512);
    server.shutdown();
    assert_eq!(trees.len(), burst.len(), "every request is traced");
    for tree in trees.iter().filter(|t| !t.cache_hit) {
        let names = span_names(tree);
        assert!(
            names.iter().any(|n| n.starts_with("probe.")),
            "an executed request must record its own probes: {} {names:?}",
            tree.endpoint
        );
        assert!(
            !names.iter().any(|n| n.contains("batched")),
            "no request's probes may be recorded under another's trace: {} {names:?}",
            tree.endpoint
        );
    }
}

/// The determinism contract: two fresh servers with the same trace seed
/// and the logical trace clock, fed the same seeded workload, answer
/// `SlowQueries` with byte-identical JSON.
#[test]
fn slow_queries_bytes_identical_across_seeded_runs() {
    fn run() -> Vec<u8> {
        let fx = fixture();
        let mut server = start_server(ServerConfig {
            workers: 2,
            queue_capacity: 64,
            trace: TraceConfig {
                logical_clock: true, // durations become event counts
                slow_threshold_ns: 0,
                slow_capacity: 64,
                seed: 0xDE7E_C7AB,
                ..TraceConfig::default()
            },
            ..ServerConfig::default()
        });
        let mut workload = Workload::new(
            &fx.lake,
            &WorkloadConfig {
                seed: 4242,
                pool_size: 10,
                k: 3,
                deadline_ms: 0,
            },
        );
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for i in 0..24u64 {
            let env = workload.next_envelope(i).expect("pool");
            let resp = client.call(&env).expect("response");
            assert_eq!(resp.status, Status::Ok);
        }
        let bytes = client
            .call_raw(&RequestEnvelope {
                id: 9999,
                deadline_ms: 0,
                req: Request::SlowQueries { n: 32 },
            })
            .expect("slow_queries raw");
        server.shutdown();
        bytes
    }
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "seeded SlowQueries must be byte-identical");
}

/// `Stats`, `MetricsDump`, and `Health` answer inline with a coherent
/// picture of the server, and `Health` keeps answering during drain.
#[test]
fn admin_plane_reports_coherent_state() {
    let mut server = start_server(ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Issue the same query twice: one miss (executed) + one cache hit.
    for id in 0..2u64 {
        let resp = client
            .call(&RequestEnvelope {
                id,
                deadline_ms: 0,
                req: Request::Keyword {
                    query: "census".into(),
                    k: 3,
                },
            })
            .expect("keyword");
        assert_eq!(resp.status, Status::Ok);
    }

    let resp = client
        .call(&RequestEnvelope {
            id: 10,
            deadline_ms: 0,
            req: Request::Stats,
        })
        .expect("stats");
    assert_eq!(resp.status, Status::Ok);
    let stats = match resp.reply {
        Some(Reply::Stats(s)) => s,
        other => panic!("expected Stats reply, got {other:?}"),
    };
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.slo.total, 2, "both keyword requests charge the SLO");
    assert!(stats.slo.budget_remaining >= 0.0 && stats.slo.budget_remaining <= 1.0);
    let kw = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "keyword")
        .expect("keyword endpoint row");
    assert!(kw.count >= 2);
    assert!(kw.p50_ns <= kw.p95_ns && kw.p95_ns <= kw.p99_ns);

    let resp = client
        .call(&RequestEnvelope {
            id: 11,
            deadline_ms: 0,
            req: Request::MetricsDump,
        })
        .expect("metrics_dump");
    let metrics = match resp.reply {
        Some(Reply::Metrics(m)) => m,
        other => panic!("expected Metrics reply, got {other:?}"),
    };
    assert!(metrics.prometheus.contains("serve_keyword_latency_ns"));
    assert!(metrics.json.starts_with('{'), "JSON export must be JSON");

    let resp = client
        .call(&RequestEnvelope {
            id: 12,
            deadline_ms: 0,
            req: Request::Health,
        })
        .expect("health");
    let health = match resp.reply {
        Some(Reply::Health(h)) => h,
        other => panic!("expected Health reply, got {other:?}"),
    };
    assert!(health.healthy);
    assert!(!health.draining);
    assert_eq!(health.workers, 3);
    assert!(health.traced >= 1, "the executed keyword query was traced");
    server.shutdown();
}

/// Tracing off: the request path works identically and the admin plane
/// degrades gracefully (empty SlowQueries, zeroed SLO) instead of
/// erroring.
#[test]
fn disabled_tracing_serves_and_answers_admin_empty() {
    let mut server = start_server(ServerConfig {
        trace: TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .call(&RequestEnvelope {
            id: 1,
            deadline_ms: 0,
            req: Request::Keyword {
                query: "census".into(),
                k: 3,
            },
        })
        .expect("keyword");
    assert_eq!(resp.status, Status::Ok);
    let trees = slow_queries(&mut client, 2, 8);
    assert!(trees.is_empty(), "no tracing, no slow queries");
    let resp = client
        .call(&RequestEnvelope {
            id: 3,
            deadline_ms: 0,
            req: Request::Stats,
        })
        .expect("stats");
    let stats = match resp.reply {
        Some(Reply::Stats(s)) => s,
        other => panic!("expected Stats reply, got {other:?}"),
    };
    assert_eq!(stats.slo.total, 0);
    assert_eq!(stats.slo.budget_remaining, 1.0);
    server.shutdown();
}
