//! `td_core::run_batch` over the pipeline's own single-query entry
//! points — how td-serve answers a `Batch` frame — returns rankings
//! **byte-identical** to calling those singles one at a time in order,
//! for all eight search families and the six shard-plane entry points,
//! on both a one-shot pipeline and a segmented pipeline's snapshot.
//!
//! `run_batch` farms queries out to scoped threads, so this suite is
//! the proof that per-query probe state (epoch scratch, TopK heaps)
//! never leaks across concurrently-running queries.
//!
//! Comparisons render full outputs (ids and scores) via `Debug`; `Debug`
//! on `f64` prints the shortest round-trip representation, so string
//! equality is bit equality of every score.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use td_core::{run_batch, DiscoveryPipeline, PipelineConfig, SegmentedPipeline};
use td_table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td_table::{Column, Table, TableId};

struct Fixture {
    pipeline: DiscoveryPipeline,
    segmented: SegmentedPipeline,
    queries: Vec<(TableId, Table)>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let gl = LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: 12,
            rows: (12, 30),
            cols: (2, 4),
            seed: 20260808,
            ..LakeGenConfig::default()
        });
        let cfg = PipelineConfig::default();
        let pipeline = DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &cfg);
        let ctx = td_core::segment::PipelineContext::new(&gl.registry, &[], &cfg);
        let mut segmented = SegmentedPipeline::with_context(ctx);
        for (step, (id, t)) in gl.lake.iter().enumerate() {
            segmented.ingest_table(id, t);
            if step % 5 == 4 {
                segmented.seal();
            }
        }
        let queries: Vec<(TableId, Table)> = gl
            .lake
            .iter()
            .take(4)
            .map(|(id, t)| (id, t.clone()))
            .collect();
        Fixture {
            pipeline,
            segmented,
            queries,
        }
    })
}

/// Answer `queries` with `run_batch` over one single-query closure and
/// with a sequential loop over the same closure; the `Debug` renderings
/// (every id and every score bit) must be equal.
macro_rules! assert_batch_matches {
    ($family:literal, $queries:expr, $single:expr) => {
        assert_eq!(
            format!("{:?}", run_batch(&$queries, $single)),
            format!("{:?}", $queries.iter().map($single).collect::<Vec<_>>()),
            "{} batch diverged from sequential",
            $family
        );
    };
}

/// Keyword terms drawn from generated metadata; workloads cycle them.
const TERMS: [&str; 4] = ["dataset", "sensor", "city", "record"];

/// The workload's keyword queries: `(term, k)`.
fn keyword_queries(workload: &[(usize, usize)]) -> Vec<(&'static str, usize)> {
    workload
        .iter()
        .map(|&(qi, k)| (TERMS[qi % TERMS.len()], k))
        .collect()
}

/// The workload's column queries: the selected table's first column.
fn column_queries<'a>(
    queries: &'a [(TableId, Table)],
    workload: &[(usize, usize)],
) -> Vec<(&'a Column, usize)> {
    workload
        .iter()
        .map(|&(qi, k)| (&queries[qi % queries.len()].1.columns[0], k))
        .collect()
}

/// The workload's table queries: the selected table itself.
fn table_queries<'a>(
    queries: &'a [(TableId, Table)],
    workload: &[(usize, usize)],
) -> Vec<(&'a Table, usize)> {
    workload
        .iter()
        .map(|&(qi, k)| (&queries[qi % queries.len()].1, k))
        .collect()
}

/// Run the eight search families over `workload` (pairs of query-table
/// index and k) and assert batched == sequential on the given pipeline.
fn check_searches(
    p: &DiscoveryPipeline,
    queries: &[(TableId, Table)],
    workload: &[(usize, usize)],
) {
    let kw = keyword_queries(workload);
    assert_batch_matches!("keyword", kw, |&(q, k)| p.search_keyword(q, k));

    let cols = column_queries(queries, workload);
    assert_batch_matches!("joinable", cols, |&(c, k)| p.search_joinable(c, k));
    let fuzzy: Vec<(&Column, f32, usize)> = cols.iter().map(|&(c, k)| (c, 0.8, k)).collect();
    assert_batch_matches!("fuzzy", fuzzy, |&(c, tau, k)| p
        .search_fuzzy_joinable(c, tau, k));

    let tabs = table_queries(queries, workload);
    assert_batch_matches!("unionable", tabs, |&(t, k)| p.search_unionable(t, k));
    assert_batch_matches!("starmie", tabs, |&(t, k)| p.search_unionable_semantic(t, k));
    assert_batch_matches!("santos", tabs, |&(t, k)| p
        .search_unionable_relationship(t, k));
    let multi: Vec<(&Table, &[usize], usize)> = tabs
        .iter()
        .map(|&(t, k)| (t, &[0usize, 1][..], k))
        .collect();
    assert_batch_matches!("mate", multi, |&(t, key_cols, k)| p
        .search_multi_joinable(t, key_cols, k));

    // Correlated: needs a categorical key and a numeric column.
    let corr: Vec<(&Column, &Column, usize)> = workload
        .iter()
        .filter_map(|&(qi, k)| {
            let t = &queries[qi % queries.len()].1;
            let key = t.columns.iter().find(|c| !c.is_numeric())?;
            let num = t.columns.iter().find(|c| c.is_numeric())?;
            Some((key, num, k))
        })
        .collect();
    assert_batch_matches!("correlated", corr, |&(key, num, k)| p
        .search_correlated(key, num, k));
}

/// Run the six shard-plane entry points — what a coordinator's phases
/// run on each shard (two-phase keyword and semantic, column windows) —
/// over `workload` and assert batched == sequential.
fn check_shard_plane(
    p: &DiscoveryPipeline,
    queries: &[(TableId, Table)],
    workload: &[(usize, usize)],
) {
    let kw = keyword_queries(workload);
    let texts: Vec<&str> = kw.iter().map(|&(q, _)| q).collect();
    assert_batch_matches!("term stats", texts, |q| p.keyword_term_stats(q));
    let stats: Vec<td_index::Bm25Stats> = texts.iter().map(|q| p.keyword_term_stats(q)).collect();
    let scored: Vec<(&str, usize, &td_index::Bm25Stats)> = kw
        .iter()
        .zip(&stats)
        .map(|(&(q, k), s)| (q, k, s))
        .collect();
    assert_batch_matches!("keyword scored", scored, |&(q, k, s)| p
        .search_keyword_with_stats(q, k, s));
    let cols = column_queries(queries, workload);
    assert_batch_matches!("joinable columns", cols, |&(c, w)| p
        .search_joinable_columns(c, w));
    let fuzzy: Vec<(&Column, f32, usize)> = cols.iter().map(|&(c, w)| (c, 0.8, w)).collect();
    assert_batch_matches!("fuzzy columns", fuzzy, |&(c, tau, w)| p
        .search_fuzzy_columns(c, tau, w));
    let tabs = table_queries(queries, workload);
    let qtabs: Vec<&Table> = tabs.iter().map(|&(t, _)| t).collect();
    assert_batch_matches!("semantic candidates", qtabs, |t| p.semantic_candidates(t));
    // The candidate set a one-shard coordinator would pin.
    let sets: Vec<BTreeSet<TableId>> = qtabs
        .iter()
        .map(|t| {
            p.semantic_candidates(t)
                .into_iter()
                .flatten()
                .map(|(cref, _)| cref.table)
                .collect()
        })
        .collect();
    let semscored: Vec<(&Table, usize, &BTreeSet<TableId>)> = tabs
        .iter()
        .zip(&sets)
        .map(|(&(t, k), s)| (t, k, s))
        .collect();
    assert_batch_matches!("semantic scored", semscored, |&(t, k, s)| p
        .search_semantic_with_candidates(t, k, s));
}

/// Fixed workload spanning batch sizes around the probe-sweep width,
/// duplicate queries, and k values from 1 up past the lake size.
fn fixed_workload() -> Vec<(usize, usize)> {
    (0..9).map(|i| (i % 4, [1, 4, 8, 20][i % 4])).collect()
}

/// The eight search families on the one-shot pipeline.
#[test]
fn all_families_batch_matches_sequential() {
    let f = fixture();
    check_searches(&f.pipeline, &f.queries, &fixed_workload());
}

/// A segmented pipeline's queries run on one snapshot; a batch over it
/// must still equal the one-at-a-time answers on that snapshot.
#[test]
fn segmented_batch_matches_sequential() {
    let f = fixture();
    check_searches(&f.segmented.snapshot(), &f.queries, &fixed_workload());
}

/// The six shard-plane entry points, which a shard server runs for the
/// coordinator's batched phases.
#[test]
fn shard_plane_batch_matches_sequential() {
    let f = fixture();
    check_shard_plane(&f.pipeline, &f.queries, &fixed_workload());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random workloads — any mix of query tables, duplicate queries,
    /// k values, and batch sizes — stay byte-identical on both the
    /// one-shot and the segmented pipeline.
    #[test]
    fn random_workload_matches_sequential(
        workload in proptest::collection::vec((0usize..4, 1usize..16), 1..12),
    ) {
        let f = fixture();
        check_searches(&f.pipeline, &f.queries, &workload);
        check_shard_plane(&f.pipeline, &f.queries, &workload);
        let snap = f.segmented.snapshot();
        check_searches(&snap, &f.queries, &workload);
        check_shard_plane(&snap, &f.queries, &workload);
    }
}
