//! ingest_report — incremental-maintenance telemetry for the segmented
//! pipeline, emitting `BENCH_ingest.json`.
//!
//! Four measurements over one synthetic lake:
//!
//! 1. **full rebuild baseline** — one-shot `DiscoveryPipeline::build`
//!    wall time, and its per-table amortization.
//! 2. **delta ingest** — per-table `SegmentedPipeline::ingest_table`
//!    latency (artifact extraction only; the shared context is built
//!    once). The report asserts a single-table delta ingest is at least
//!    10× cheaper than a full rebuild — the point of the segmented
//!    architecture.
//! 3. **compaction** — cost of flattening a many-segment stack (pure
//!    artifact concatenation, no re-extraction).
//! 4. **segment-count knee** — cold-snapshot (merge) latency and a fixed
//!    query mix as the same tables are spread over 1, 2, 4, 8 segments:
//!    where stacking segments without compacting starts to hurt.
//!
//! Flags (all optional): `--seed N`, `--tables N`.

use std::sync::Arc;

use td::core::{DiscoveryPipeline, PipelineConfig, PipelineContext, SegmentedPipeline};
use td::table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td::table::{Table, TableId};
use td_bench::{ms, parse_flags, print_table, time, BenchReport};

struct Args {
    seed: u64,
    tables: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        tables: 48,
    };
    parse_flags(&mut [("--seed", &mut args.seed), ("--tables", &mut args.tables)]);
    args
}

/// Build a segmented pipeline over `tables`, sealing so the stack ends up
/// with `segments` sealed segments.
fn stacked(
    ctx: &PipelineContext,
    tables: &[(TableId, Table)],
    segments: usize,
) -> SegmentedPipeline {
    let per = tables.len().div_ceil(segments.max(1));
    let mut sp = SegmentedPipeline::with_context(ctx.clone());
    for (i, (id, t)) in tables.iter().enumerate() {
        sp.ingest_table(*id, t);
        if (i + 1) % per == 0 {
            sp.seal();
        }
    }
    sp.seal();
    sp
}

/// A fixed query mix against a snapshot; returns total wall time in ms.
fn query_mix(p: &Arc<DiscoveryPipeline>, queries: &[(TableId, Table)]) -> f64 {
    let (_, d) = time(|| {
        let mut sink = 0usize;
        for (_, q) in queries {
            sink += p.search_unionable(q, 5).len();
            sink += p.search_joinable(&q.columns[0], 5).len();
        }
        sink += p.search_keyword("dataset", 5).len();
        sink
    });
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = parse_args();
    let mut report = BenchReport::new("ingest");

    let (gl, t_gen) = time(|| {
        LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: args.tables,
            rows: (10, 60),
            cols: (2, 5),
            seed: args.seed,
            ..LakeGenConfig::default()
        })
    });
    let cfg = PipelineConfig::default();
    let tables: Vec<(TableId, Table)> = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
    let queries: Vec<(TableId, Table)> = tables[..tables.len().min(3)].to_vec();

    // 1. Full rebuild baseline: what every table addition costs without
    // incremental maintenance.
    let (batch, t_full) = time(|| DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &cfg));
    let full_ms = t_full.as_secs_f64() * 1e3;
    let amortized_ms = full_ms / tables.len() as f64;
    println!(
        "ingest_report: lake of {} tables (gen {} ms, full build {} ms), seed {}",
        tables.len(),
        ms(t_gen),
        ms(t_full),
        args.seed
    );

    // 2. Delta ingest: shared context once, then per-table extraction.
    let (ctx, t_ctx) = time(|| PipelineContext::new(&gl.registry, &[], &cfg));
    let mut sp = SegmentedPipeline::with_context(ctx.clone());
    let mut ingest_ms: Vec<f64> = Vec::with_capacity(tables.len());
    for (id, t) in &tables {
        let (_, d) = time(|| sp.ingest_table(*id, t));
        ingest_ms.push(d.as_secs_f64() * 1e3);
    }
    let total_ingest: f64 = ingest_ms.iter().sum();
    let mean_ingest = total_ingest / ingest_ms.len() as f64;
    let mut sorted = ingest_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p50_ingest = sorted[sorted.len() / 2];
    let max_ingest = sorted[sorted.len() - 1];
    let speedup = full_ms / mean_ingest;

    // First queryability after a delta: one snapshot merge over the
    // single-segment stack (artifact concatenation, no re-extraction).
    let (snap, t_snap) = time(|| sp.snapshot());
    let snapshot_ms = t_snap.as_secs_f64() * 1e3;

    // Sanity: incremental must agree with the batch build exactly.
    for (_, q) in &queries {
        assert_eq!(
            format!("{:?}", batch.search_unionable(q, 5)),
            format!("{:?}", snap.search_unionable(q, 5)),
            "segmented snapshot diverged from the batch build"
        );
    }

    // 3. Compaction cost over a deliberately fragmented stack.
    let mut frag = stacked(&ctx, &tables, 8);
    let segments_before = frag.num_segments();
    let (_, t_compact) = time(|| frag.compact());
    let compact_ms = t_compact.as_secs_f64() * 1e3;
    assert_eq!(frag.len(), tables.len(), "compaction must not lose tables");
    assert_eq!(frag.num_segments(), 1);

    // 4. Segment-count knee: cold merge + query mix per stack shape.
    let mut knee_rows = Vec::new();
    let mut knee_json = Vec::new();
    for segments in [1usize, 2, 4, 8] {
        // Two fresh stacks per shape; keep the faster run so one-off
        // allocator warm-up does not masquerade as a knee.
        let mut actual = 0;
        let mut merge_ms = f64::INFINITY;
        let mut q_ms = f64::INFINITY;
        for _ in 0..2 {
            let sp = stacked(&ctx, &tables, segments);
            actual = sp.num_segments();
            let (p, t_merge) = time(|| sp.snapshot());
            merge_ms = merge_ms.min(t_merge.as_secs_f64() * 1e3);
            q_ms = q_ms.min(query_mix(&p, &queries));
        }
        knee_rows.push(vec![
            actual.to_string(),
            format!("{merge_ms:.2}"),
            format!("{q_ms:.2}"),
        ]);
        knee_json.push(serde_json::json!({
            "segments": actual,
            "snapshot_ms": merge_ms,
            "query_mix_ms": q_ms,
        }));
    }

    print_table(
        "delta ingest vs full rebuild",
        &["metric", "value"],
        &[
            vec!["tables".into(), tables.len().to_string()],
            vec!["full rebuild (ms)".into(), format!("{full_ms:.2}")],
            vec![
                "amortized per table (ms)".into(),
                format!("{amortized_ms:.2}"),
            ],
            vec!["context build (ms)".into(), ms(t_ctx)],
            vec!["ingest mean (ms)".into(), format!("{mean_ingest:.3}")],
            vec!["ingest p50 (ms)".into(), format!("{p50_ingest:.3}")],
            vec!["ingest max (ms)".into(), format!("{max_ingest:.3}")],
            vec!["snapshot merge (ms)".into(), format!("{snapshot_ms:.2}")],
            vec![
                "speedup (full / mean ingest)".into(),
                format!("{speedup:.1}x"),
            ],
            vec![
                "compaction of 8 segments (ms)".into(),
                format!("{compact_ms:.2}"),
            ],
        ],
    );
    print_table(
        "segment-count knee",
        &["segments", "snapshot (ms)", "query mix (ms)"],
        &knee_rows,
    );

    report
        .stage("generate", t_gen)
        .stage("full_build", t_full)
        .stage("context_build", t_ctx)
        .field("seed", &args.seed)
        .field("tables", &tables.len())
        .field("segment_knee", &serde_json::Value::Seq(knee_json))
        .merge(&serde_json::json!({
            "full_rebuild_ms": full_ms,
            "amortized_per_table_ms": amortized_ms,
            "ingest": {
                "mean_ms": mean_ingest,
                "p50_ms": p50_ingest,
                "max_ms": max_ingest,
                "total_ms": total_ingest,
            },
            "snapshot_merge_ms": snapshot_ms,
            "speedup_vs_full_rebuild": speedup,
            "compaction": {
                "segments_before": segments_before,
                "ms": compact_ms,
            },
        }));
    report.finish();

    assert!(
        speedup >= 10.0,
        "single-table delta ingest must be >= 10x cheaper than a full rebuild (got {speedup:.1}x)"
    );
}
