//! serve_report — closed-loop load generation against the td-serve
//! layer, emitting `BENCH_serve.json`.
//!
//! Two phases over one synthetic lake:
//!
//! 1. **load** — a provisioned server (≥4 workers, roomy queue) under a
//!    seeded repeated-query mix from N concurrent closed-loop clients:
//!    throughput, per-endpoint p50/p95/p99 service latency, cache hit
//!    rate, and (expected zero) shed rate.
//! 2. **saturation** — the same workload against a deliberately starved
//!    server (1 worker, queue bound 1): shows admission control
//!    shedding promptly instead of building unbounded backlog.
//!
//! Flags (all optional): `--seed N` (workload reproducibility),
//! `--tables N`, `--clients N`, `--workers N`, `--requests N` (per
//! client), `--queue N`, `--pool N` (distinct-query pool; smaller =
//! more cache hits).

use std::sync::Arc;

use td::core::{DiscoveryPipeline, PipelineConfig};
use td::serve::{Client, Server, ServerConfig, Status, Workload, WorkloadConfig};
use td::table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td::table::DataLake;
use td_bench::{ms, parse_flags, print_table, time, BenchReport, Timer};

struct Args {
    seed: u64,
    tables: usize,
    clients: usize,
    workers: usize,
    requests: u64,
    queue: usize,
    pool: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        tables: 64,
        clients: 8,
        workers: 4,
        requests: 50,
        queue: 64,
        pool: 24,
    };
    parse_flags(&mut [
        ("--seed", &mut args.seed),
        ("--tables", &mut args.tables),
        ("--clients", &mut args.clients),
        ("--workers", &mut args.workers),
        ("--requests", &mut args.requests),
        ("--queue", &mut args.queue),
        ("--pool", &mut args.pool),
    ]);
    args
}

#[derive(Default, Clone, Copy)]
struct Outcome {
    ok: u64,
    overloaded: u64,
    deadline: u64,
    other: u64,
    protocol_errors: u64,
}

impl Outcome {
    fn total(&self) -> u64 {
        self.ok + self.overloaded + self.deadline + self.other + self.protocol_errors
    }
}

/// Drive `clients` closed-loop client threads against `server`, each
/// with its own seed-derived workload, and fold their outcomes.
fn drive(
    server: &Server,
    lake: &DataLake,
    args: &Args,
    seed_salt: u64,
    requests_per_client: u64,
) -> Outcome {
    let addr = server.local_addr();
    let handles: Vec<_> = (0..args.clients)
        .map(|t| {
            let mut workload = Workload::new(
                lake,
                &WorkloadConfig {
                    // Distinct per-client stream, reproducible per seed.
                    seed: args.seed ^ seed_salt ^ ((t as u64) << 32),
                    pool_size: args.pool,
                    k: 5,
                    deadline_ms: 0,
                },
            );
            let mut envelopes = Vec::new();
            for i in 0..requests_per_client {
                if let Some(env) = workload.next_envelope(((t as u64) << 24) | i) {
                    envelopes.push(env);
                }
            }
            std::thread::spawn(move || {
                let mut out = Outcome::default();
                let Ok(mut client) = Client::connect(addr) else {
                    out.protocol_errors += envelopes.len() as u64;
                    return out;
                };
                for env in &envelopes {
                    match client.call(env) {
                        Ok(resp) => match resp.status {
                            Status::Ok => out.ok += 1,
                            Status::Overloaded => out.overloaded += 1,
                            Status::DeadlineExceeded => out.deadline += 1,
                            _ => out.other += 1,
                        },
                        Err(_) => out.protocol_errors += 1,
                    }
                }
                out
            })
        })
        .collect();
    let mut folded = Outcome::default();
    for h in handles {
        if let Ok(out) = h.join() {
            folded.ok += out.ok;
            folded.overloaded += out.overloaded;
            folded.deadline += out.deadline;
            folded.other += out.other;
            folded.protocol_errors += out.protocol_errors;
        }
    }
    folded
}

fn main() {
    let args = parse_args();
    let mut report = BenchReport::new("serve");

    let (gl, t_gen) = time(|| {
        LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: args.tables,
            rows: (10, 60),
            cols: (2, 5),
            seed: args.seed,
            ..LakeGenConfig::default()
        })
    });
    let (pipeline, t_build) =
        time(|| DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &PipelineConfig::default()));
    let pipeline = Arc::new(pipeline);
    println!(
        "serve_report: lake of {} tables (gen {} ms, build {} ms), seed {}",
        gl.lake.len(),
        ms(t_gen),
        ms(t_build),
        args.seed
    );

    // Phase 1: provisioned load.
    let mut server = Server::start(
        Arc::clone(&pipeline),
        ServerConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            ..ServerConfig::default()
        },
    )
    .expect("bind load server");
    let wall = Timer::start();
    let load = drive(&server, &gl.lake, &args, 0, args.requests);
    let load_secs = wall.elapsed().as_secs_f64();
    let load_stats = server.stats();
    server.shutdown();

    let issued = load.total();
    let throughput = if load_secs > 0.0 {
        load.ok as f64 / load_secs
    } else {
        0.0
    };
    let shed_rate = if issued > 0 {
        load.overloaded as f64 / issued as f64
    } else {
        0.0
    };

    // Per-endpoint service latency comes from the server's own
    // histograms (recorded worker-side, so queue wait is excluded).
    let reg = td_obs::global();
    let mut endpoint_rows = Vec::new();
    let mut endpoint_json = Vec::new();
    for ep in td::serve::Request::search_endpoints() {
        let hist = reg.histogram(&format!("serve.{ep}.latency_ns"));
        if hist.count() == 0 {
            continue;
        }
        let (p50, p95, p99) = (
            hist.quantile(0.50),
            hist.quantile(0.95),
            hist.quantile(0.99),
        );
        endpoint_rows.push(vec![
            ep.to_string(),
            hist.count().to_string(),
            format!("{:.3}", p50 / 1e6),
            format!("{:.3}", p95 / 1e6),
            format!("{:.3}", p99 / 1e6),
        ]);
        endpoint_json.push(serde_json::json!({
            "endpoint": ep,
            "count": hist.count(),
            "p50_ns": p50,
            "p95_ns": p95,
            "p99_ns": p99,
        }));
    }
    print_table(
        "per-endpoint service latency (load phase)",
        &["endpoint", "count", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
        &endpoint_rows,
    );
    print_table(
        "load phase",
        &["metric", "value"],
        &[
            vec!["clients".into(), args.clients.to_string()],
            vec!["workers".into(), args.workers.to_string()],
            vec!["requests issued".into(), issued.to_string()],
            vec!["ok".into(), load.ok.to_string()],
            vec!["throughput (req/s)".into(), format!("{throughput:.1}")],
            vec!["shed rate".into(), format!("{shed_rate:.4}")],
            vec![
                "cache hit rate".into(),
                format!("{:.4}", load_stats.cache.hit_rate()),
            ],
            vec!["protocol errors".into(), load.protocol_errors.to_string()],
        ],
    );

    // Phase 2: saturation — 1 worker, queue bound 1 — must shed.
    let mut starved = Server::start(
        Arc::clone(&pipeline),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            cache: td::serve::CacheConfig {
                // A tiny cache keeps the starved server from answering
                // the repeated mix from memory instead of shedding.
                capacity_bytes: 1,
                ..td::serve::CacheConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind saturation server");
    let sat_wall = Timer::start();
    let sat = drive(&starved, &gl.lake, &args, 0x5A7, args.requests.min(25));
    let sat_secs = sat_wall.elapsed().as_secs_f64();
    starved.shutdown();
    let sat_issued = sat.total();
    let sat_shed_rate = if sat_issued > 0 {
        sat.overloaded as f64 / sat_issued as f64
    } else {
        0.0
    };
    print_table(
        "saturation phase (1 worker, queue bound 1)",
        &["metric", "value"],
        &[
            vec!["requests issued".into(), sat_issued.to_string()],
            vec!["ok".into(), sat.ok.to_string()],
            vec!["shed".into(), sat.overloaded.to_string()],
            vec!["shed rate".into(), format!("{sat_shed_rate:.4}")],
            vec!["protocol errors".into(), sat.protocol_errors.to_string()],
        ],
    );

    report
        .stage("generate", t_gen)
        .stage("pipeline_build", t_build)
        .field("seed", &args.seed)
        .field("tables", &gl.lake.len())
        .field("clients", &args.clients)
        .field("workers", &args.workers)
        .field("endpoints", &serde_json::Value::Seq(endpoint_json))
        .merge(&serde_json::json!({
            "load": {
                "requests": issued,
                "ok": load.ok,
                "overloaded": load.overloaded,
                "deadline_exceeded": load.deadline,
                "protocol_errors": load.protocol_errors,
                "seconds": load_secs,
                "throughput_rps": throughput,
                "shed_rate": shed_rate,
                "cache_hits": load_stats.cache.hits,
                "cache_misses": load_stats.cache.misses,
                "cache_hit_rate": load_stats.cache.hit_rate(),
                "cache_evictions": load_stats.cache.evictions,
            },
            "saturation": {
                "requests": sat_issued,
                "ok": sat.ok,
                "shed": sat.overloaded,
                "shed_rate": sat_shed_rate,
                "protocol_errors": sat.protocol_errors,
                "seconds": sat_secs,
            },
        }));
    report.finish();

    assert_eq!(
        load.protocol_errors + sat.protocol_errors,
        0,
        "load generation must complete with zero protocol errors"
    );
    assert!(
        load_stats.cache.hits > 0,
        "the repeated-query mix must produce cache hits"
    );
    assert!(
        sat.overloaded > 0,
        "the starved server must shed under saturation"
    );
}
