//! trace_report — measures what td-trace costs and proves what it
//! records, emitting `BENCH_trace.json`.
//!
//! Three phases over one synthetic lake:
//!
//! 1. **overhead** — alternating tracing-off / tracing-on server
//!    rounds under the same seeded closed-loop workload, comparing
//!    client-observed p50/p95 latency. The gate is the *best* (minimum)
//!    per-round p95 regression, which filters scheduler noise while
//!    still catching a real systematic slowdown. Fails hard if tracing
//!    costs more than 5% at p95.
//! 2. **determinism** — two fresh logical-clock servers with the same
//!    trace seed replay the same workload; their `SlowQueries` answers
//!    must be byte-identical, and the slowest trace must carry the full
//!    span anatomy (queue wait, cache lookup, execute, component
//!    probes, rank/merge).
//! 3. **admin** — every admin endpoint (`Stats`, `MetricsDump`,
//!    `SlowQueries`, `Health`) must answer `Ok` with zero protocol
//!    errors on a live traced server.
//!
//! Flags (all optional): `--seed N`, `--tables N`, `--requests N` (per
//! round), `--rounds N` (off/on pairs), `--pool N`.

use std::sync::Arc;

use td::core::{DiscoveryPipeline, PipelineConfig};
use td::serve::{
    Client, Reply, Request, RequestEnvelope, Server, ServerConfig, SpanNodeJson, Status,
    TraceConfig, TraceJson, Workload, WorkloadConfig,
};
use td::table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td::table::DataLake;
use td_bench::{ms, parse_flags, print_table, quantile, time, BenchReport, Timer};

struct Args {
    seed: u64,
    tables: usize,
    requests: u64,
    rounds: usize,
    pool: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        tables: 48,
        requests: 120,
        rounds: 3,
        pool: 16,
    };
    parse_flags(&mut [
        ("--seed", &mut args.seed),
        ("--tables", &mut args.tables),
        ("--requests", &mut args.requests),
        ("--rounds", &mut args.rounds),
        ("--pool", &mut args.pool),
    ]);
    args.rounds = args.rounds.max(1);
    args
}

/// One measurement round: a fresh server (so both modes start with a
/// cold cache), one sequential closed-loop client, client-observed
/// latency per request. Returns `(p50_ns, p95_ns)`.
fn run_round(
    pipeline: &Arc<DiscoveryPipeline>,
    lake: &DataLake,
    args: &Args,
    traced: bool,
) -> (f64, f64) {
    let mut server = Server::start(
        Arc::clone(pipeline),
        ServerConfig {
            workers: 2,
            trace: TraceConfig {
                enabled: traced,
                ..TraceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind round server");
    let mut workload = Workload::new(
        lake,
        &WorkloadConfig {
            seed: args.seed ^ 0x0FF5E7,
            pool_size: args.pool,
            k: 5,
            deadline_ms: 0,
        },
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut lat_ns = Vec::with_capacity(args.requests as usize);
    for i in 0..args.requests {
        let env = workload.next_envelope(i).expect("non-empty pool");
        let t = Timer::start();
        let resp = client.call(&env).expect("response");
        lat_ns.push(t.elapsed_ns());
        assert_eq!(resp.status, Status::Ok, "round request must succeed");
    }
    server.shutdown();
    lat_ns.sort_unstable();
    (
        quantile(&lat_ns, 0.50) as f64,
        quantile(&lat_ns, 0.95) as f64,
    )
}

/// One determinism run: logical-clock tracing, threshold 0, sequential
/// seeded workload. Returns the raw `SlowQueries` response bytes and
/// the decoded trees.
fn determinism_run(
    pipeline: &Arc<DiscoveryPipeline>,
    lake: &DataLake,
    args: &Args,
) -> (Vec<u8>, Vec<TraceJson>) {
    let mut server = Server::start(
        Arc::clone(pipeline),
        ServerConfig {
            workers: 2,
            trace: TraceConfig {
                logical_clock: true,
                slow_threshold_ns: 0,
                slow_capacity: 32,
                seed: args.seed ^ 0x7D15_7ACE,
                ..TraceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind determinism server");
    let mut workload = Workload::new(
        lake,
        &WorkloadConfig {
            seed: args.seed ^ 0xD37E_12A1,
            pool_size: args.pool,
            k: 5,
            deadline_ms: 0,
        },
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..48u64 {
        let env = workload.next_envelope(i).expect("non-empty pool");
        let resp = client.call(&env).expect("response");
        assert_eq!(resp.status, Status::Ok);
    }
    let env = RequestEnvelope {
        id: 1_000_000,
        deadline_ms: 0,
        req: Request::SlowQueries { n: 16 },
    };
    let bytes = client.call_raw(&env).expect("slow_queries raw");
    let resp = client.call(&env).expect("slow_queries decoded");
    let trees = match resp.reply {
        Some(Reply::SlowQueries(trees)) => trees,
        other => panic!("expected SlowQueries reply, got {other:?}"),
    };
    server.shutdown();
    (bytes, trees)
}

fn collect_names(span: &SpanNodeJson, out: &mut Vec<String>) {
    out.push(span.name.clone());
    for c in &span.children {
        collect_names(c, out);
    }
}

fn tree_names(tree: &TraceJson) -> Vec<String> {
    let mut out = Vec::new();
    for s in &tree.spans {
        collect_names(s, &mut out);
    }
    out
}

/// Exercise all four admin endpoints against a live traced server;
/// returns how many answered `Ok` with the expected reply shape.
fn admin_sweep(pipeline: &Arc<DiscoveryPipeline>, lake: &DataLake, args: &Args) -> usize {
    let mut server = Server::start(
        Arc::clone(pipeline),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind admin server");
    let mut workload = Workload::new(
        lake,
        &WorkloadConfig {
            seed: args.seed ^ 0xAD111,
            pool_size: args.pool,
            k: 5,
            deadline_ms: 0,
        },
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..16u64 {
        let env = workload.next_envelope(i).expect("non-empty pool");
        assert_eq!(client.call(&env).expect("response").status, Status::Ok);
    }
    let mut ok = 0;
    let probes: Vec<(u64, Request)> = vec![
        (1, Request::Stats),
        (2, Request::MetricsDump),
        (3, Request::SlowQueries { n: 4 }),
        (4, Request::Health),
    ];
    for (id, req) in probes {
        let resp = client
            .call(&RequestEnvelope {
                id,
                deadline_ms: 0,
                req,
            })
            .expect("admin response");
        let shape_ok = matches!(
            (&resp.status, &resp.reply),
            (Status::Ok, Some(Reply::Stats(_)))
                | (Status::Ok, Some(Reply::Metrics(_)))
                | (Status::Ok, Some(Reply::SlowQueries(_)))
                | (Status::Ok, Some(Reply::Health(_)))
        );
        if shape_ok {
            ok += 1;
        }
    }
    server.shutdown();
    ok
}

fn main() {
    let args = parse_args();
    let mut report = BenchReport::new("trace");

    let (gl, t_gen) = time(|| {
        LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: args.tables,
            rows: (10, 50),
            cols: (2, 5),
            seed: args.seed,
            ..LakeGenConfig::default()
        })
    });
    let (pipeline, t_build) =
        time(|| DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &PipelineConfig::default()));
    let pipeline = Arc::new(pipeline);
    println!(
        "trace_report: lake of {} tables (gen {} ms, build {} ms), seed {}",
        gl.lake.len(),
        ms(t_gen),
        ms(t_build),
        args.seed
    );

    // Phase 1: overhead. One throwaway warmup round, then alternating
    // off/on pairs so slow drift (thermal, page cache) hits both modes.
    let _warmup = run_round(&pipeline, &gl.lake, &args, false);
    let mut rows = Vec::new();
    let mut round_json = Vec::new();
    let mut overheads_p95 = Vec::new();
    let mut overheads_p50 = Vec::new();
    for round in 0..args.rounds {
        let (off_p50, off_p95) = run_round(&pipeline, &gl.lake, &args, false);
        let (on_p50, on_p95) = run_round(&pipeline, &gl.lake, &args, true);
        let ov95 = (on_p95 - off_p95) / off_p95.max(1.0);
        let ov50 = (on_p50 - off_p50) / off_p50.max(1.0);
        overheads_p95.push(ov95);
        overheads_p50.push(ov50);
        rows.push(vec![
            round.to_string(),
            format!("{:.3}", off_p95 / 1e6),
            format!("{:.3}", on_p95 / 1e6),
            format!("{:+.2}%", ov95 * 100.0),
        ]);
        round_json.push(serde_json::json!({
            "round": round,
            "off_p50_ns": off_p50,
            "off_p95_ns": off_p95,
            "on_p50_ns": on_p50,
            "on_p95_ns": on_p95,
            "overhead_p95": ov95,
            "overhead_p50": ov50,
        }));
    }
    // Minimum across rounds: the round least polluted by ambient noise
    // still contains the full systematic tracing cost.
    let best_p95 = overheads_p95.iter().copied().fold(f64::INFINITY, f64::min);
    let best_p50 = overheads_p50.iter().copied().fold(f64::INFINITY, f64::min);
    print_table(
        "tracing overhead (client-observed p95)",
        &["round", "off p95 (ms)", "on p95 (ms)", "overhead"],
        &rows,
    );
    println!("best-round p95 overhead: {:+.2}%", best_p95 * 100.0);

    // Phase 2: determinism + span anatomy of the slowest request.
    let (bytes_a, trees) = determinism_run(&pipeline, &gl.lake, &args);
    let (bytes_b, _) = determinism_run(&pipeline, &gl.lake, &args);
    let deterministic = bytes_a == bytes_b;
    let slowest = trees.first().expect("threshold 0 must record traces");
    let names = tree_names(slowest);
    let has = |n: &str| names.iter().any(|x| x == n);
    let anatomy_ok = has("cache.lookup")
        && has("queue.wait")
        && has("execute")
        && names.iter().any(|x| x.starts_with("probe."));
    let merge_traced = trees
        .iter()
        .any(|t| tree_names(t).iter().any(|x| x == "rank.merge"));
    print_table(
        "determinism phase",
        &["metric", "value"],
        &[
            vec!["slow_queries bytes".into(), bytes_a.len().to_string()],
            vec!["byte-identical reruns".into(), deterministic.to_string()],
            vec!["slowest endpoint".into(), slowest.endpoint.clone()],
            vec!["slowest dur (ticks)".into(), slowest.dur_ns.to_string()],
            vec!["slowest span count".into(), names.len().to_string()],
            vec!["full anatomy".into(), anatomy_ok.to_string()],
            vec!["rank.merge traced".into(), merge_traced.to_string()],
        ],
    );

    // Phase 3: admin plane.
    let admin_ok = admin_sweep(&pipeline, &gl.lake, &args);
    println!("admin endpoints answering Ok: {admin_ok}/4");

    report
        .stage("generate", t_gen)
        .stage("pipeline_build", t_build)
        .field("seed", &args.seed)
        .field("tables", &gl.lake.len())
        .field("requests_per_round", &args.requests)
        .field("rounds", &args.rounds)
        .field("overhead_rounds", &serde_json::Value::Seq(round_json))
        .merge(&serde_json::json!({
            "overhead": {
                "p95_best": best_p95,
                "p50_best": best_p50,
                "target_p95_max": 0.05,
            },
            "determinism": {
                "byte_identical": deterministic,
                "slow_queries_bytes": bytes_a.len(),
                "slowest_endpoint": slowest.endpoint,
                "slowest_dur_ticks": slowest.dur_ns,
                "slowest_span_count": names.len(),
                "full_anatomy": anatomy_ok,
                "rank_merge_traced": merge_traced,
            },
            "admin": { "endpoints_ok": admin_ok, "endpoints_total": 4 },
        }));
    report.finish();

    // The regression gates: CI fails on any of these.
    assert!(
        best_p95 <= 0.05,
        "tracing p95 overhead {:.2}% exceeds the 5% budget",
        best_p95 * 100.0
    );
    assert!(
        deterministic,
        "SlowQueries must be byte-identical across seeded runs"
    );
    assert!(
        anatomy_ok,
        "slowest trace must carry the full span anatomy: {names:?}"
    );
    assert!(
        merge_traced,
        "a joinable-family query must record rank.merge"
    );
    assert_eq!(admin_ok, 4, "every admin endpoint must answer Ok");
}
