//! batch_report — batched vs one-at-a-time serving throughput, emitting
//! `BENCH_batch.json`.
//!
//! One synthetic lake is served by a single td-serve server over real
//! sockets, and the same deterministic per-family workloads (all eight
//! search families) are driven through it five ways: one request per
//! frame (the classic path), then `Request::Batch` frames of size 1, 4,
//! 8, and 16. The report records per-family and aggregate throughput at
//! each batch size and *asserts* the byte-identity invariant on every
//! single sub-reply: whatever the batch size, each query's answer must
//! equal the direct in-process `execute` on the oracle pipeline.
//!
//! Batching buys throughput two ways: `td_core::run_batch` runs the
//! batch's singles on scoped threads (which needs cores), and a 16-query
//! batch pays the framing/queueing/cache round-trip once instead of 16
//! times (which doesn't). Like
//! `shard_report`, the ≥1.5× speedup assertion is armed only on ≥4-core
//! machines; on fewer cores the sweep still runs and records what
//! amortization alone buys.
//!
//! The result cache is flushed (via `Reload`) before every phase so
//! each phase measures execution, not cache hits.
//!
//! Flags (all optional): `--seed N`, `--tables N` (default 10000),
//! `--queries N` (queries per family, default 8), `--k N`,
//! `--workers N`.

use std::sync::Arc;

use td::core::{DiscoveryPipeline, PipelineConfig};
use td::serve::{execute, Client, Reply, Request, RequestEnvelope, Server, ServerConfig, Status};
use td::table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td::table::{Table, TableId};
use td_bench::{ms, parse_flags, print_table, time, BenchReport, Timer};

struct Args {
    seed: u64,
    tables: usize,
    queries: usize,
    k: usize,
    workers: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        tables: 10_000,
        queries: 8,
        k: 10,
        workers: 2,
    };
    parse_flags(&mut [
        ("--seed", &mut args.seed),
        ("--tables", &mut args.tables),
        ("--queries", &mut args.queries),
        ("--k", &mut args.k),
        ("--workers", &mut args.workers),
    ]);
    args
}

/// One named workload per search family: `queries` requests each, built
/// from query tables sampled at a fixed stride. Batches must be
/// family-homogeneous, so the workloads stay grouped.
fn build_workloads(tables: &[(TableId, Table)], args: &Args) -> Vec<(&'static str, Vec<Request>)> {
    let step = (tables.len() / args.queries.max(1)).max(1);
    let k = args.k;
    let qts: Vec<&Table> = tables
        .iter()
        .step_by(step)
        .take(args.queries)
        .map(|(_, t)| t)
        .collect();
    let mut out: Vec<(&'static str, Vec<Request>)> = Vec::new();

    out.push((
        "keyword",
        qts.iter()
            .enumerate()
            .map(|(qi, _)| Request::Keyword {
                query: ["dataset", "census", "city", "total"][qi % 4].to_string(),
                k: k + qi % 3,
            })
            .collect(),
    ));
    out.push((
        "unionable",
        qts.iter()
            .map(|qt| Request::Unionable {
                table: (*qt).clone(),
                k,
            })
            .collect(),
    ));
    out.push((
        "unionable_semantic",
        qts.iter()
            .map(|qt| Request::UnionableSemantic {
                table: (*qt).clone(),
                k,
            })
            .collect(),
    ));
    out.push((
        "unionable_relationship",
        qts.iter()
            .map(|qt| Request::UnionableRelationship {
                table: (*qt).clone(),
                k,
            })
            .collect(),
    ));
    out.push((
        "multi_joinable",
        qts.iter()
            .map(|qt| Request::MultiJoinable {
                table: (*qt).clone(),
                key_cols: vec![0, 1],
                k,
            })
            .collect(),
    ));
    out.push((
        "joinable",
        qts.iter()
            .filter_map(|qt| {
                qt.columns.first().map(|c| Request::Joinable {
                    column: c.clone(),
                    k,
                })
            })
            .collect(),
    ));
    out.push((
        "fuzzy_joinable",
        qts.iter()
            .filter_map(|qt| {
                qt.columns.first().map(|c| Request::FuzzyJoinable {
                    column: c.clone(),
                    tau: 0.8,
                    k,
                })
            })
            .collect(),
    ));
    out.push((
        "correlated",
        qts.iter()
            .filter_map(|qt| {
                let key = qt.columns.iter().find(|c| !c.is_numeric())?;
                let num = qt.columns.iter().find(|c| c.is_numeric())?;
                Some(Request::Correlated {
                    key: key.clone(),
                    numeric: num.clone(),
                    k,
                })
            })
            .collect(),
    ));
    out.retain(|(_, w)| !w.is_empty());
    out
}

/// Flush the server's result cache so the next phase executes for real.
fn flush_cache(client: &mut Client) {
    let resp = client
        .call(&RequestEnvelope {
            id: 0,
            deadline_ms: 0,
            req: Request::Reload,
        })
        .expect("reload");
    assert_eq!(resp.status, Status::Ok, "cache flush must succeed");
}

fn main() {
    let args = parse_args();
    let mut report = BenchReport::new("batch");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let (gl, t_gen) = time(|| {
        LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: args.tables,
            rows: (8, 24),
            cols: (2, 4),
            seed: args.seed,
            ..LakeGenConfig::default()
        })
    });
    // Exact retrieval for the byte-identity assertion, the same choice
    // shard_report makes: the flat vector backend is exhaustive, so
    // batched and sequential execution provably see identical windows.
    let mut cfg = PipelineConfig::default();
    cfg.starmie.backend = td::core::union::starmie::VectorBackend::Flat;
    let tables: Vec<(TableId, Table)> = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
    let (oracle, t_build) =
        time(|| Arc::new(DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &cfg)));
    println!(
        "batch_report: lake of {} tables (gen {} ms, build {} ms), seed {}, {} cores",
        tables.len(),
        ms(t_gen),
        ms(t_build),
        args.seed,
        cores
    );

    let workloads = build_workloads(&tables, &args);
    let total_queries: usize = workloads.iter().map(|(_, w)| w.len()).sum();
    // The byte-identity oracle: every sub-reply in every phase must
    // equal this direct in-process answer.
    let expected: Vec<(&'static str, Vec<Reply>)> = workloads
        .iter()
        .map(|(name, w)| (*name, w.iter().map(|r| execute(&oracle, r)).collect()))
        .collect();

    let mut server = Server::start(
        Arc::clone(&oracle),
        ServerConfig {
            workers: args.workers,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Phase 0: one request per frame — the baseline the batch frames
    // are measured against.
    flush_cache(&mut client);
    let mut id = 1u64;
    let mut family_seq_secs: Vec<f64> = Vec::new();
    let wall = Timer::start();
    for ((_, w), (_, want)) in workloads.iter().zip(&expected) {
        let t = Timer::start();
        for (req, want) in w.iter().zip(want) {
            let resp = client
                .call(&RequestEnvelope {
                    id,
                    deadline_ms: 0,
                    req: req.clone(),
                })
                .expect("call");
            id += 1;
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(
                resp.reply.as_ref(),
                Some(want),
                "single-request reply diverged from the oracle on {}",
                req.endpoint()
            );
        }
        family_seq_secs.push(t.elapsed().as_secs_f64());
    }
    let seq_secs = wall.elapsed().as_secs_f64();
    let seq_rps = total_queries as f64 / seq_secs.max(1e-9);

    // Batch-size sweep: the same workloads, b queries per frame.
    let mut sweep: Vec<(usize, f64, f64)> = Vec::new(); // (b, secs, rps)
    let mut family_b16_secs: Vec<f64> = vec![0.0; workloads.len()];
    for &b in &[1usize, 4, 8, 16] {
        flush_cache(&mut client);
        let wall = Timer::start();
        for (fi, ((_, w), (_, want))) in workloads.iter().zip(&expected).enumerate() {
            let t = Timer::start();
            for (chunk, want) in w.chunks(b).zip(want.chunks(b)) {
                let resp = client
                    .call(&RequestEnvelope {
                        id,
                        deadline_ms: 0,
                        req: Request::Batch {
                            requests: chunk.to_vec(),
                        },
                    })
                    .expect("batch call");
                id += 1;
                assert_eq!(resp.status, Status::Ok);
                let Some(Reply::Batch(subs)) = resp.reply else {
                    panic!("batch frame must answer Reply::Batch");
                };
                assert_eq!(subs.len(), chunk.len());
                for ((sub, req), want) in subs.iter().zip(chunk).zip(want) {
                    assert_eq!(
                        sub,
                        want,
                        "batch={b} sub-reply diverged from the oracle on {}",
                        req.endpoint()
                    );
                }
            }
            if b == 16 {
                family_b16_secs[fi] = t.elapsed().as_secs_f64();
            }
        }
        let secs = wall.elapsed().as_secs_f64();
        sweep.push((b, secs, total_queries as f64 / secs.max(1e-9)));
    }
    server.shutdown();

    // Per-family table: sequential vs batch=16.
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .enumerate()
        .map(|(fi, (name, w))| {
            let seq = family_seq_secs[fi];
            let b16 = family_b16_secs[fi];
            let speedup = if b16 > 0.0 { seq / b16 } else { 0.0 };
            vec![
                (*name).to_string(),
                w.len().to_string(),
                format!("{:.1}", w.len() as f64 / seq.max(1e-9)),
                format!("{:.1}", w.len() as f64 / b16.max(1e-9)),
                format!("{speedup:.2}x"),
            ]
        })
        .collect();
    print_table(
        "batched vs one-at-a-time (every sub-reply checked against the oracle)",
        &[
            "family",
            "queries",
            "seq (req/s)",
            "batch16 (req/s)",
            "speedup",
        ],
        &rows,
    );

    let batch16_rps = sweep.last().map_or(0.0, |&(_, _, rps)| rps);
    let speedup = if seq_rps > 0.0 {
        batch16_rps / seq_rps
    } else {
        0.0
    };
    println!(
        "aggregate: sequential {seq_rps:.1} req/s, batch=16 {batch16_rps:.1} req/s \
         ({speedup:.2}x, {cores} cores)"
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "batch=16 must reach >= 1.5x one-at-a-time throughput on a \
             {cores}-core machine (got {speedup:.2}x)"
        );
    } else {
        println!(
            "note: only {cores} core(s) available — `run_batch` cannot \
             run queries in parallel, so the >= 1.5x speedup assertion \
             is skipped and the sweep measures round-trip amortization instead"
        );
    }

    let sweep_json: Vec<serde_json::Value> = sweep
        .iter()
        .map(|&(b, secs, rps)| {
            serde_json::json!({
                "batch_size": b,
                "run_seconds": secs,
                "queries": total_queries,
                "throughput_rps": rps,
                "speedup_vs_sequential": if seq_rps > 0.0 { rps / seq_rps } else { 0.0 },
            })
        })
        .collect();
    let families_json: Vec<serde_json::Value> = workloads
        .iter()
        .enumerate()
        .map(|(fi, (name, w))| {
            serde_json::json!({
                "family": *name,
                "queries": w.len(),
                "sequential_rps": w.len() as f64 / family_seq_secs[fi].max(1e-9),
                "batch16_rps": w.len() as f64 / family_b16_secs[fi].max(1e-9),
            })
        })
        .collect();
    report
        .stage("generate", t_gen)
        .stage("pipeline_build", t_build)
        .field("seed", &args.seed)
        .field("tables", &tables.len())
        .field("queries_per_family", &args.queries)
        .field("k", &args.k)
        .field("workers", &args.workers)
        .field("cores", &cores)
        .field("total_queries", &total_queries)
        .field("sequential_rps", &seq_rps)
        .field("speedup_batch16_vs_sequential", &speedup)
        .field("speedup_assertion_armed", &(cores >= 4))
        .field(
            "byte_identity",
            &"every sub-reply byte-equal to the in-process oracle",
        )
        .field("sweep", &serde_json::Value::Seq(sweep_json))
        .field("families", &serde_json::Value::Seq(families_json));
    report.finish();
}
