//! shard_report — the sharded scatter-gather sweep, emitting
//! `BENCH_shard.json`.
//!
//! One synthetic lake is served three ways — behind 1, 2, and 4 shard
//! servers (real sockets, hash-partitioned, one scatter-gather
//! coordinator in front) — and the same deterministic query mix (all
//! eight search families) is driven through the coordinator at each
//! shard count. The report records per-shard-count throughput and
//! p50/p95 latency, and *asserts* the merge-equivalence invariant on
//! every single reply: whatever the shard count, the coordinator's
//! answer must equal the whole-lake single-pipeline answer.
//!
//! Sharding buys latency only when shards actually run in parallel, so
//! the report records the machine's core count and arms the ≥1.5×
//! 4-shard speedup assertion only when ≥4 cores are available; on a
//! 1-core box the sweep degenerates to measuring pure scatter-gather
//! overhead (which is itself worth pinning).
//!
//! Flags (all optional): `--seed N`, `--tables N` (default 10000),
//! `--queries N` (query tables sampled per family), `--k N`,
//! `--workers N` (per shard server).

use td::core::segment::PipelineContext;
use td::core::{DiscoveryPipeline, PipelineConfig};
use td::serve::{execute, Reply, Request, RequestEnvelope, ServerConfig, ShardFleet, Status};
use td::table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td::table::{Table, TableId};
use td_bench::{ms, parse_flags, print_table, quantile, time, BenchReport, Timer};

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

/// The deterministic query mix: `queries` tables sampled at a fixed
/// stride, each probed with every applicable search family.
fn build_mix(tables: &[(TableId, Table)], args: &Args) -> Vec<Request> {
    let step = (tables.len() / args.queries.max(1)).max(1);
    let k = args.k;
    let mut mix = Vec::new();
    for (qi, (_, qt)) in tables.iter().step_by(step).take(args.queries).enumerate() {
        mix.push(Request::Keyword {
            query: ["dataset", "census", "city", "total"][qi % 4].to_string(),
            k,
        });
        mix.push(Request::Unionable {
            table: qt.clone(),
            k,
        });
        mix.push(Request::UnionableSemantic {
            table: qt.clone(),
            k,
        });
        mix.push(Request::UnionableRelationship {
            table: qt.clone(),
            k,
        });
        mix.push(Request::MultiJoinable {
            table: qt.clone(),
            key_cols: vec![0, 1],
            k,
        });
        if let Some(c) = qt.columns.first() {
            mix.push(Request::Joinable {
                column: c.clone(),
                k,
            });
            mix.push(Request::FuzzyJoinable {
                column: c.clone(),
                tau: 0.8,
                k,
            });
        }
        let key = qt.columns.iter().find(|c| !c.is_numeric());
        let num = qt.columns.iter().find(|c| c.is_numeric());
        if let (Some(key), Some(num)) = (key, num) {
            mix.push(Request::Correlated {
                key: key.clone(),
                numeric: num.clone(),
                k,
            });
        }
    }
    mix
}

struct SweepPoint {
    shards: usize,
    build_secs: f64,
    run_secs: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
}

fn main() {
    let args = parse_args();
    let mut report = BenchReport::new("shard");
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
    let mut cfg = PipelineConfig::default();
    // The exactness invariant is stated for exact retrieval: HNSW is
    // approximate, and at 10k-table scale per-shard graphs explore
    // differently than one whole-lake graph, so the semantic family is
    // swept on the flat (exhaustive) vector backend — the same choice
    // the Flat fixture in crates/shard/tests/equivalence.rs pins.
    cfg.starmie.backend = td::core::union::starmie::VectorBackend::Flat;
    let tables: Vec<(TableId, Table)> = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
    let ctx = PipelineContext::new(&gl.registry, &[], &cfg);
    // The whole-lake single pipeline: the equivalence oracle every
    // coordinator reply is checked against.
    let (oracle, t_oracle) = time(|| DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &cfg));
    println!(
        "shard_report: lake of {} tables (gen {} ms, oracle build {} ms), seed {}, {} cores",
        tables.len(),
        ms(t_gen),
        ms(t_oracle),
        args.seed,
        cores
    );

    let mix = build_mix(&tables, &args);
    let expected: Vec<Reply> = mix.iter().map(|req| execute(&oracle, req)).collect();

    let server_cfg = ServerConfig {
        workers: args.workers,
        ..ServerConfig::default()
    };
    let mut sweep = Vec::new();
    for shards in [1usize, 2, 4] {
        let build = Timer::start();
        let mut fleet = ShardFleet::start_partitioned(shards, &ctx, &tables, &server_cfg)
            .expect("start shard fleet");
        let build_secs = build.elapsed().as_secs_f64();
        let coord = fleet.coordinator();

        // Warm the shard connections so the sweep measures serving, not
        // first-dial latency.
        let warm = coord.handle(&RequestEnvelope {
            id: 0,
            deadline_ms: 0,
            req: Request::Health,
        });
        assert_eq!(warm.status, Status::Ok, "fleet must come up healthy");

        let mut lat_ns: Vec<u128> = Vec::with_capacity(mix.len());
        let wall = Timer::start();
        for (i, (req, want)) in mix.iter().zip(&expected).enumerate() {
            let t = Timer::start();
            let resp = coord.handle(&RequestEnvelope {
                id: 1 + i as u64,
                deadline_ms: 0,
                req: req.clone(),
            });
            lat_ns.push(t.elapsed().as_nanos());
            assert_eq!(resp.status, Status::Ok, "{shards}-shard {}", req.endpoint());
            assert!(resp.degraded.is_empty());
            assert_eq!(
                resp.reply.as_ref(),
                Some(want),
                "merge-equivalence violated: {shards}-shard coordinator diverged \
                 from the single-pipeline oracle on {}",
                req.endpoint()
            );
        }
        let run_secs = wall.elapsed().as_secs_f64();
        fleet.shutdown();

        lat_ns.sort_unstable();
        sweep.push(SweepPoint {
            shards,
            build_secs,
            run_secs,
            throughput_rps: if run_secs > 0.0 {
                mix.len() as f64 / run_secs
            } else {
                0.0
            },
            p50_ms: quantile(&lat_ns, 0.50) as f64 / 1e6,
            p95_ms: quantile(&lat_ns, 0.95) as f64 / 1e6,
        });
    }

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                p.shards.to_string(),
                format!("{:.0}", p.build_secs * 1e3),
                mix.len().to_string(),
                format!("{:.1}", p.throughput_rps),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p95_ms),
            ]
        })
        .collect();
    print_table(
        "scatter-gather sweep (every reply checked against the 1-pipeline oracle)",
        &[
            "shards",
            "build (ms)",
            "requests",
            "throughput (req/s)",
            "p50 (ms)",
            "p95 (ms)",
        ],
        &rows,
    );

    let thr_1 = sweep[0].throughput_rps;
    let thr_4 = sweep[2].throughput_rps;
    let speedup = if thr_1 > 0.0 { thr_4 / thr_1 } else { 0.0 };
    println!("4-shard vs 1-shard throughput: {speedup:.2}x ({cores} cores)");
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "4-shard fleet must reach >= 1.5x 1-shard throughput on a \
             {cores}-core machine (got {speedup:.2}x)"
        );
    } else {
        println!(
            "note: only {cores} core(s) available — shards cannot run in \
             parallel, so the >= 1.5x speedup assertion is skipped and the \
             sweep measures scatter-gather overhead instead"
        );
    }

    let sweep_json: Vec<serde_json::Value> = sweep
        .iter()
        .map(|p| {
            serde_json::json!({
                "shards": p.shards,
                "build_seconds": p.build_secs,
                "run_seconds": p.run_secs,
                "requests": mix.len(),
                "throughput_rps": p.throughput_rps,
                "p50_ms": p.p50_ms,
                "p95_ms": p.p95_ms,
            })
        })
        .collect();
    report
        .stage("generate", t_gen)
        .stage("oracle_build", t_oracle)
        .field("seed", &args.seed)
        .field("tables", &tables.len())
        .field("queries", &args.queries)
        .field("k", &args.k)
        .field("workers", &args.workers)
        .field("cores", &cores)
        .field("requests_per_sweep", &mix.len())
        .field("speedup_4shard_vs_1shard", &speedup)
        .field("speedup_assertion_armed", &(cores >= 4))
        .field(
            "merge_equivalence",
            &"every reply byte-equal to the 1-pipeline oracle",
        )
        .field("sweep", &serde_json::Value::Seq(sweep_json));
    report.finish();
}
