//! The end-to-end discovery pipeline: Figure 1 of the tutorial as one
//! object.
//!
//! `DiscoveryPipeline::build` runs the offline passes a data-lake
//! management system performs — profiling, understanding (annotation),
//! indexing for every search family — and then serves the online
//! operations: keyword search, joinable search (exact / containment /
//! fuzzy / multi-attribute / correlated), and unionable search
//! (TUS / SANTOS / Starmie).

use crate::join::{
    ContainmentJoinSearch, CorrelatedSearch, ExactJoinSearch, ExactStrategy, FuzzyJoinSearch,
    MateSearch,
};
use crate::keyword::{KeywordConfig, KeywordSearch};
use crate::segment::{
    ArtifactOf, ComponentSegment, IndexComponent, PipelineContext, PipelineSegment, SegmentView,
};
use crate::union::{SantosSearch, StarmieConfig, StarmieSearch, TusSearch, UnionMeasure};
use std::collections::BTreeSet;
use td_embed::model::{DomainEmbedder, NGramEmbedder};
use td_table::gen::domains::DomainRegistry;
use td_table::{Column, DataLake, LakeProfile, Table, TableId};
use td_understand::kb::KbConfig;

/// Pipeline construction parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// MinHash functions per signature.
    pub minhash_k: usize,
    /// LSH Ensemble partitions.
    pub partitions: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Values sampled per column when embedding.
    pub sample: usize,
    /// QCR sketch budget.
    pub qcr_k: usize,
    /// Fuzzy-join pivot count.
    pub pivots: usize,
    /// Starmie configuration.
    pub starmie: StarmieConfig,
    /// KB construction (coverage etc.).
    pub kb: KbConfig,
    /// Keyword index configuration.
    pub keyword: KeywordConfig,
    /// Seed for the embedding models.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            minhash_k: 128,
            partitions: 8,
            dim: 64,
            sample: 48,
            qcr_k: 256,
            pivots: 8,
            starmie: StarmieConfig::default(),
            kb: KbConfig::default(),
            keyword: KeywordConfig::default(),
            seed: 7,
        }
    }
}

impl PipelineConfig {
    /// The shared n-gram embedder (fuzzy join and the TUS natural-language
    /// signal use the same model; constructing it in one place keeps the
    /// two from drifting).
    #[must_use]
    pub fn ngram_embedder(&self) -> NGramEmbedder {
        NGramEmbedder::new(self.dim, 3, self.seed ^ 0xF0)
    }
}

/// All offline state of a discovery system over one lake.
pub struct DiscoveryPipeline {
    /// Column/table statistics.
    pub profile: LakeProfile,
    /// Metadata keyword search.
    pub keyword: KeywordSearch,
    /// Exact top-k overlap (JOSIE).
    pub exact_join: ExactJoinSearch,
    /// Containment search (LSH Ensemble).
    pub containment_join: ContainmentJoinSearch,
    /// Fuzzy embedding join (PEXESO).
    pub fuzzy_join: FuzzyJoinSearch<NGramEmbedder>,
    /// Multi-attribute join (MATE).
    pub mate: MateSearch,
    /// Correlated search (QCR sketches).
    pub correlated: CorrelatedSearch,
    /// TUS union search.
    pub tus: TusSearch,
    /// SANTOS union search.
    pub santos: SantosSearch,
    /// Starmie union search.
    pub starmie: StarmieSearch<DomainEmbedder>,
}

impl DiscoveryPipeline {
    /// Run every offline pass over the lake.
    ///
    /// `registry` supplies the ontology/embedding world (for generated
    /// lakes, pass the generator's registry so embeddings and the KB align
    /// with the data); `relations` are the KB's known relation specs.
    #[must_use]
    pub fn build(
        lake: &DataLake,
        registry: &DomainRegistry,
        relations: &[td_table::gen::bench_union::RelationSpec],
        cfg: &PipelineConfig,
    ) -> Self {
        let _build = td_obs::span!("pipeline.build");
        td_obs::global()
            .gauge("pipeline.lake.tables")
            .set(lake.len() as f64);
        td_obs::global()
            .gauge("pipeline.lake.columns")
            .set(lake.num_columns() as f64);
        let ctx = PipelineContext::new(registry, relations, cfg);
        let segment = PipelineSegment::build(&SegmentView::of_lake(lake), &ctx);
        Self::from_segments(&ctx, &[&segment], &BTreeSet::new())
    }

    /// Assemble the searchable pipeline from a stack of segments (oldest
    /// first) minus tombstones.
    ///
    /// This is the **only** construction path: [`Self::build`] calls it
    /// with one whole-lake segment, and [`crate::SegmentedPipeline`] calls
    /// it with however many segments its ingest history produced — so the
    /// two cannot return different rankings for the same live tables.
    #[must_use]
    pub fn from_segments(
        ctx: &PipelineContext,
        segments: &[&PipelineSegment],
        tombstones: &BTreeSet<TableId>,
    ) -> Self {
        fn project<'s, A>(
            segments: &[&'s PipelineSegment],
            f: impl Fn(&'s PipelineSegment) -> &'s ComponentSegment<A>,
        ) -> Vec<&'s ComponentSegment<A>> {
            segments.iter().map(|s| f(s)).collect()
        }
        fn merged<C: IndexComponent>(
            span: &str,
            segs: Vec<&ComponentSegment<ArtifactOf<C>>>,
            tombstones: &BTreeSet<TableId>,
            ctx: &PipelineContext,
        ) -> C {
            let _s = td_obs::global().span(span);
            C::merge(&segs, tombstones, ctx)
        }
        DiscoveryPipeline {
            profile: merged(
                "pipeline.profile",
                project(segments, |s| &s.profile),
                tombstones,
                ctx,
            ),
            keyword: merged(
                "pipeline.keyword.build",
                project(segments, |s| &s.keyword),
                tombstones,
                ctx,
            ),
            exact_join: merged(
                "pipeline.exact_join.build",
                project(segments, |s| &s.exact_join),
                tombstones,
                ctx,
            ),
            containment_join: merged(
                "pipeline.containment.build",
                project(segments, |s| &s.containment_join),
                tombstones,
                ctx,
            ),
            fuzzy_join: merged(
                "pipeline.fuzzy.build",
                project(segments, |s| &s.fuzzy_join),
                tombstones,
                ctx,
            ),
            mate: merged(
                "pipeline.mate.build",
                project(segments, |s| &s.mate),
                tombstones,
                ctx,
            ),
            correlated: merged(
                "pipeline.correlated.build",
                project(segments, |s| &s.correlated),
                tombstones,
                ctx,
            ),
            tus: merged(
                "pipeline.tus.build",
                project(segments, |s| &s.tus),
                tombstones,
                ctx,
            ),
            santos: merged(
                "pipeline.santos.build",
                project(segments, |s| &s.santos),
                tombstones,
                ctx,
            ),
            starmie: merged(
                "pipeline.starmie.build",
                project(segments, |s| &s.starmie),
                tombstones,
                ctx,
            ),
        }
    }

    /// Keyword search over metadata/schema.
    #[must_use]
    pub fn search_keyword(&self, query: &str, k: usize) -> Vec<(TableId, f64)> {
        observe_query("keyword", || self.keyword.search(query, k))
    }

    /// Exact top-k joinable tables on a query column.
    #[must_use]
    pub fn search_joinable(&self, query: &Column, k: usize) -> Vec<(TableId, usize)> {
        observe_query("joinable", || {
            self.exact_join
                .search_tables(query, k, ExactStrategy::Adaptive)
        })
    }

    /// Unionable tables by the ensemble TUS measure.
    #[must_use]
    pub fn search_unionable(&self, query: &Table, k: usize) -> Vec<(TableId, f64)> {
        observe_query("unionable", || {
            self.tus.search(query, k, UnionMeasure::Ensemble)
        })
    }

    /// Unionable tables by Starmie's contextual-embedding ranking.
    #[must_use]
    pub fn search_unionable_semantic(&self, query: &Table, k: usize) -> Vec<(TableId, f64)> {
        observe_query("unionable_semantic", || self.starmie.search(query, k))
    }

    /// Unionable tables by SANTOS's relationship-aware ranking.
    #[must_use]
    pub fn search_unionable_relationship(&self, query: &Table, k: usize) -> Vec<(TableId, f64)> {
        observe_query("unionable_relationship", || self.santos.search(query, k))
    }

    /// Fuzzily joinable tables (embedding similarity predicate `tau`).
    #[must_use]
    pub fn search_fuzzy_joinable(&self, query: &Column, tau: f32, k: usize) -> Vec<(TableId, f64)> {
        observe_query("fuzzy_joinable", || {
            self.fuzzy_join.search_tables(query, tau, k)
        })
    }

    /// Tables joinable on a composite key (MATE-style row matching).
    #[must_use]
    pub fn search_multi_joinable(
        &self,
        query: &Table,
        key_cols: &[usize],
        k: usize,
    ) -> Vec<(TableId, f64)> {
        observe_query("multi_joinable", || self.mate.search(query, key_cols, k).0)
    }

    /// Tables whose numeric column correlates with the query's, reachable
    /// through a key join (QCR sketches).
    #[must_use]
    pub fn search_correlated(
        &self,
        query_key: &Column,
        query_num: &Column,
        k: usize,
    ) -> Vec<crate::join::CorrelatedHit> {
        observe_query("correlated", || {
            self.correlated.search(query_key, query_num, k, 8)
        })
    }

    // --- shard plane -----------------------------------------------------
    //
    // Entry points a scatter-gather coordinator (td-shard) uses to make a
    // K-shard answer byte-identical to this pipeline's own answer. Three
    // families need more than per-shard top-k merging: BM25 scores depend
    // on whole-corpus statistics (two-phase: stats, then pinned-stats
    // scoring), and the two column-aggregating join families must merge
    // *column* windows before table aggregation.

    /// This corpus's BM25 statistics for `query` — phase one of
    /// distributed keyword search.
    #[must_use]
    pub fn keyword_term_stats(&self, query: &str) -> td_index::Bm25Stats {
        self.keyword.term_stats(query)
    }

    /// Keyword search scored with pinned (merged) corpus statistics —
    /// phase two of distributed keyword search.
    #[must_use]
    pub fn search_keyword_with_stats(
        &self,
        query: &str,
        k: usize,
        stats: &td_index::Bm25Stats,
    ) -> Vec<(TableId, f64)> {
        observe_query("keyword", || {
            self.keyword.search_with_stats(query, k, stats)
        })
    }

    /// Column-level exact-overlap window (before table aggregation).
    /// `width` is normally [`crate::join::exact::column_fetch_width`] of
    /// the final table `k`.
    #[must_use]
    pub fn search_joinable_columns(
        &self,
        query: &Column,
        width: usize,
    ) -> Vec<crate::join::OverlapHit> {
        observe_query("joinable", || {
            self.exact_join
                .search(query, width, ExactStrategy::Adaptive)
                .0
        })
    }

    /// Column-level fuzzy-containment window (before table aggregation).
    #[must_use]
    pub fn search_fuzzy_columns(
        &self,
        query: &Column,
        tau: f32,
        width: usize,
    ) -> Vec<(td_table::ColumnRef, f64)> {
        observe_query("fuzzy_joinable", || {
            self.fuzzy_join.search(query, tau, width).0
        })
    }

    /// Per-query-column semantic candidate window — phase one of
    /// distributed Starmie search.
    #[must_use]
    pub fn semantic_candidates(&self, query: &Table) -> Vec<Vec<(td_table::ColumnRef, f32)>> {
        observe_query("unionable_semantic", || {
            self.starmie.candidate_columns(query)
        })
    }

    /// Starmie scoring restricted to a pinned candidate-table set —
    /// phase two of distributed Starmie search.
    #[must_use]
    pub fn search_semantic_with_candidates(
        &self,
        query: &Table,
        k: usize,
        tables: &BTreeSet<TableId>,
    ) -> Vec<(TableId, f64)> {
        observe_query("unionable_semantic", || {
            self.starmie.search_with_candidates(query, k, tables)
        })
    }
}

/// Record one online query against the global registry: a
/// `query.<family>.count` counter and a `query.<family>.latency_ns`
/// histogram.
fn observe_query<T>(family: &str, f: impl FnOnce() -> T) -> T {
    let reg = td_obs::global();
    reg.counter(&format!("query.{family}.count")).inc();
    let _t = td_obs::ScopedTimer::new(reg.histogram(&format!("query.{family}.latency_ns")));
    // Request-scoped view of the same event: when td-serve attached a
    // trace to this worker thread, the family span becomes the parent of
    // the component probe/rank spans recorded further down.
    let _q = td_obs::trace::probe(&format!("query.{family}"));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_table::gen::lakegen::{LakeGenConfig, LakeGenerator};

    /// Compile-time proof that the pipeline can be shared across server
    /// worker threads behind an `Arc` (td-serve depends on this). If any
    /// component regresses to interior mutability that is not
    /// thread-safe, this test stops compiling.
    #[test]
    fn pipeline_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DiscoveryPipeline>();
        assert_send_sync::<td_index::AdaptiveVectorIndex>();
    }

    #[test]
    fn pipeline_builds_and_serves_all_families() {
        let gl = LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: 30,
            rows: (20, 60),
            cols: (2, 4),
            seed: 3,
            ..LakeGenConfig::default()
        });
        let p = DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &PipelineConfig::default());
        assert_eq!(p.profile.len(), gl.lake.num_columns());
        assert_eq!(p.keyword.len(), 30);
        assert!(!p.exact_join.is_empty());
        assert!(!p.containment_join.is_empty());
        assert!(!p.mate.is_empty());
        // Serve a query derived from a lake table.
        let (qid, qt) = gl.lake.iter().next().map(|(i, t)| (i, t.clone())).unwrap();
        let joinable = p.search_joinable(&qt.columns[0], 5);
        if !qt.columns[0].is_numeric() {
            assert_eq!(joinable[0].0, qid, "self-join should rank first");
        }
        let unionable = p.search_unionable(&qt, 5);
        assert_eq!(unionable[0].0, qid, "self-union should rank first");
        let kw = p.search_keyword("dataset", 5);
        assert!(kw.len() <= 5);
    }
}
