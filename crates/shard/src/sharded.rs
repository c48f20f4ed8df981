//! In-process sharded pipeline: the reference scatter-gather
//! implementation.
//!
//! [`ShardedPipeline`] owns K [`SegmentedPipeline`]s, routes every write
//! through [`ShardMap`], and answers all eight search families by
//! running the merge algebra of [`crate::merge`] over per-shard
//! snapshots — exactly the orchestration td-serve's TCP coordinator
//! performs over sockets, minus the sockets. It is the byte-identity
//! oracle the equivalence proptests pin (K shards vs one pipeline) and
//! the in-process baseline `shard_report` sweeps.
//!
//! There are no batched variants: a batch here is a loop (or a
//! `td_core::run_batch`) over the singles. Batching pays off only where
//! a call crosses a socket, so it lives in td-serve's coordinator, which
//! ships each phase of a client batch to a shard as one frame.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use td_core::join::exact::column_fetch_width;
use td_core::join::CorrelatedHit;
use td_core::segment::PipelineContext;
use td_core::{DiscoveryPipeline, SegmentedPipeline};
use td_table::{Column, Table, TableId};

use crate::merge;
use crate::partition::ShardMap;

/// K hash-partitioned [`SegmentedPipeline`]s behind one search surface.
pub struct ShardedPipeline {
    map: ShardMap,
    shards: Vec<SegmentedPipeline>,
    /// Per-shard live-table gauges (`shard.<i>.tables`), kept current by
    /// the routed ingest/drop paths so an operator can see skew at a
    /// glance.
    table_gauges: Vec<std::sync::Arc<td_obs::Gauge>>,
}

impl ShardedPipeline {
    /// Empty sharded pipeline over `shards` partitions of one lake
    /// world. All shards share the context (embedders, KB, config), so
    /// a table's extracted artifacts do not depend on which shard owns
    /// it.
    #[must_use]
    pub fn with_context(shards: usize, ctx: &PipelineContext) -> Self {
        let map = ShardMap::new(shards);
        let reg = td_obs::global();
        ShardedPipeline {
            map,
            shards: (0..shards)
                .map(|_| SegmentedPipeline::with_context(ctx.clone()))
                .collect(),
            table_gauges: (0..shards)
                .map(|i| reg.gauge(&format!("shard.{i}.tables")))
                .collect(),
        }
    }

    /// The routing map.
    #[must_use]
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Per-shard pipelines (read access, e.g. to serve each behind its
    /// own server).
    #[must_use]
    pub fn shards(&self) -> &[SegmentedPipeline] {
        &self.shards
    }

    /// Total live tables across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(SegmentedPipeline::len).sum()
    }

    /// True if no shard holds a live table.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Route a table to its owning shard and ingest it there. Returns
    /// the shard index.
    pub fn ingest_table(&mut self, id: TableId, table: &Table) -> usize {
        let s = self.map.shard_of(id);
        self.shards[s].ingest_table(id, table);
        self.table_gauges[s].set(self.shards[s].len() as f64);
        s
    }

    /// Route a drop to the owning shard. Returns the shard index.
    pub fn drop_table(&mut self, id: TableId) -> usize {
        let s = self.map.shard_of(id);
        self.shards[s].drop_table(id);
        self.table_gauges[s].set(self.shards[s].len() as f64);
        s
    }

    /// Seal every shard's delta segment.
    pub fn seal_all(&mut self) {
        for s in &mut self.shards {
            s.seal();
        }
    }

    /// Compact every shard.
    pub fn compact_all(&mut self) {
        for s in &mut self.shards {
            s.compact();
        }
    }

    /// Current per-shard snapshots (cached inside each shard).
    #[must_use]
    pub fn snapshots(&self) -> Vec<Arc<DiscoveryPipeline>> {
        self.shards
            .iter()
            .map(SegmentedPipeline::snapshot)
            .collect()
    }

    /// Keyword search: two-phase (gather stats, scatter pinned stats).
    #[must_use]
    pub fn search_keyword(&self, query: &str, k: usize) -> Vec<(TableId, f64)> {
        let snaps = self.snapshots();
        let stats: Vec<_> = snaps.iter().map(|p| p.keyword_term_stats(query)).collect();
        let Some(global) = merge::merge_keyword_stats(&stats) else {
            return Vec::new();
        };
        merge::merge_scores(
            snaps
                .iter()
                .map(|p| p.search_keyword_with_stats(query, k, &global))
                .collect(),
            k,
        )
    }

    /// Exact-join search: merge column windows, then aggregate tables.
    #[must_use]
    pub fn search_joinable(&self, query: &Column, k: usize) -> Vec<(TableId, usize)> {
        let width = column_fetch_width(k);
        let window = merge::merge_overlap_columns(
            self.snapshots()
                .iter()
                .map(|p| p.search_joinable_columns(query, width))
                .collect(),
            width,
        );
        td_core::join::exact::aggregate_tables(window, k)
    }

    /// TUS union search: plain top-k union (pairwise scores).
    #[must_use]
    pub fn search_unionable(&self, query: &Table, k: usize) -> Vec<(TableId, f64)> {
        merge::merge_scores(
            self.snapshots()
                .iter()
                .map(|p| p.search_unionable(query, k))
                .collect(),
            k,
        )
    }

    /// Starmie union search: two-phase (merge candidate windows, scatter
    /// the pinned candidate set).
    #[must_use]
    pub fn search_unionable_semantic(&self, query: &Table, k: usize) -> Vec<(TableId, f64)> {
        let snaps = self.snapshots();
        let fanout = self.shards[0].context().cfg.starmie.fanout;
        let windows: Vec<_> = snaps.iter().map(|p| p.semantic_candidates(query)).collect();
        let merged = merge::merge_candidate_windows(&windows, fanout);
        let tables = merge::candidate_tables(&merged);
        merge::merge_scores(
            snaps
                .iter()
                .map(|p| p.search_semantic_with_candidates(query, k, &tables))
                .collect(),
            k,
        )
    }

    /// SANTOS union search: plain top-k union (pairwise scores).
    #[must_use]
    pub fn search_unionable_relationship(&self, query: &Table, k: usize) -> Vec<(TableId, f64)> {
        merge::merge_scores(
            self.snapshots()
                .iter()
                .map(|p| p.search_unionable_relationship(query, k))
                .collect(),
            k,
        )
    }

    /// Fuzzy-join search: merge column windows, then aggregate tables.
    #[must_use]
    pub fn search_fuzzy_joinable(&self, query: &Column, tau: f32, k: usize) -> Vec<(TableId, f64)> {
        let width = column_fetch_width(k);
        let window = merge::merge_fuzzy_columns(
            self.snapshots()
                .iter()
                .map(|p| p.search_fuzzy_columns(query, tau, width))
                .collect(),
            width,
        );
        td_core::join::fuzzy::aggregate_tables(window, k)
    }

    /// MATE multi-attribute join: plain top-k union (pairwise scores).
    #[must_use]
    pub fn search_multi_joinable(
        &self,
        query: &Table,
        key_cols: &[usize],
        k: usize,
    ) -> Vec<(TableId, f64)> {
        merge::merge_scores(
            self.snapshots()
                .iter()
                .map(|p| p.search_multi_joinable(query, key_cols, k))
                .collect(),
            k,
        )
    }

    /// Correlated search: plain union under the sketch-order tie-break.
    #[must_use]
    pub fn search_correlated(
        &self,
        query_key: &Column,
        query_num: &Column,
        k: usize,
    ) -> Vec<CorrelatedHit> {
        merge::merge_correlated(
            self.snapshots()
                .iter()
                .map(|p| p.search_correlated(query_key, query_num, k))
                .collect(),
            k,
        )
    }
}

/// The persistence root for one shard under a fleet store root
/// (`<root>/shard-<i>`): each shard gets its own WAL + snapshot
/// directory so restore, checkpoint, and corruption stay independent
/// per shard.
#[must_use]
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}
