//! Incremental discovery pipeline: ingest and drop tables without a full
//! rebuild.
//!
//! [`SegmentedPipeline`] keeps the offline state as a stack of sealed,
//! immutable [`PipelineSegment`]s plus one mutable *delta* segment and a
//! tombstone set — the LSM shape. Ingesting a table extracts that table's
//! per-component artifacts into the delta (no other table is touched);
//! dropping a table writes a tombstone. Queries run against a lazily
//! assembled [`DiscoveryPipeline`] snapshot produced by
//! [`DiscoveryPipeline::from_segments`] — the *same* construction path the
//! batch [`DiscoveryPipeline::build`] uses — so an incremental history and
//! a one-shot build over the same live tables return **byte-identical**
//! rankings. `crates/core/tests/segmented.rs` enforces that invariant with
//! a fixed-seed regression and a property test over random ingest orders.
//!
//! [`Self::compact`]-style maintenance is pure artifact concatenation
//! ([`PipelineSegment::from_live`]): no table is re-profiled, re-embedded,
//! or re-annotated.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, PoisonError};

use td_table::gen::bench_union::RelationSpec;
use td_table::gen::domains::DomainRegistry;
use td_table::{Table, TableId};

use crate::pipeline::{DiscoveryPipeline, PipelineConfig};
use crate::segment::{PipelineContext, PipelineSegment, SegmentView};

/// An incrementally maintained discovery pipeline.
///
/// The write path (`ingest_table` / `drop_table` / `seal` / `compact`)
/// mutates segments; the read path is [`Self::snapshot`], a cached
/// [`DiscoveryPipeline`] assembled from the current segment stack,
/// rebuilt only after a write invalidated it. Queries run on the
/// snapshot (`sp.snapshot().search_keyword(..)`), so a burst of queries
/// shares one assembly.
pub struct SegmentedPipeline {
    ctx: PipelineContext,
    sealed: Vec<PipelineSegment>,
    delta: PipelineSegment,
    tombstones: BTreeSet<TableId>,
    snapshot: Mutex<Option<Arc<DiscoveryPipeline>>>,
}

impl SegmentedPipeline {
    /// Empty pipeline over a lake world (same inputs as
    /// [`DiscoveryPipeline::build`]; the registry and relation specs feed
    /// the shared embedders and knowledge base).
    #[must_use]
    pub fn new(
        registry: &DomainRegistry,
        relations: &[RelationSpec],
        cfg: &PipelineConfig,
    ) -> Self {
        Self::with_context(PipelineContext::new(registry, relations, cfg))
    }

    /// Empty pipeline reusing an already-built context (lets callers share
    /// one KB/embedder set between a batch build and an incremental one).
    #[must_use]
    pub fn with_context(ctx: PipelineContext) -> Self {
        SegmentedPipeline {
            ctx,
            sealed: Vec::new(),
            delta: PipelineSegment::default(),
            tombstones: BTreeSet::new(),
            snapshot: Mutex::new(None),
        }
    }

    /// Reassemble a pipeline from externally held state — the restore
    /// hook for `td-store`: a snapshot file decodes into exactly these
    /// four pieces, and queries over the result go through the same
    /// [`DiscoveryPipeline::from_segments`] merge as a live pipeline.
    #[must_use]
    pub fn from_state(
        ctx: PipelineContext,
        sealed: Vec<PipelineSegment>,
        delta: PipelineSegment,
        tombstones: BTreeSet<TableId>,
    ) -> Self {
        let sp = SegmentedPipeline {
            ctx,
            sealed,
            delta,
            tombstones,
            snapshot: Mutex::new(None),
        };
        sp.update_gauges();
        sp
    }

    /// The shared context (config, embedders, KB) this pipeline extracts
    /// with.
    #[must_use]
    pub fn context(&self) -> &PipelineContext {
        &self.ctx
    }

    /// The sealed, immutable segments (oldest first) — the persistence
    /// hook a snapshot writer serializes.
    #[must_use]
    pub fn sealed_segments(&self) -> &[PipelineSegment] {
        &self.sealed
    }

    /// The mutable delta segment (artifacts ingested since the last
    /// [`Self::seal`]).
    #[must_use]
    pub fn delta_segment(&self) -> &PipelineSegment {
        &self.delta
    }

    /// The outstanding tombstones (dropped tables still carried by a
    /// sealed segment).
    #[must_use]
    pub fn tombstones(&self) -> &BTreeSet<TableId> {
        &self.tombstones
    }

    /// Ingest (or replace) one table under a caller-assigned id.
    ///
    /// Only this table's artifacts are extracted; every other table's
    /// offline state is untouched. Ids are caller-assigned so an
    /// incremental history can mirror the dense ids a one-shot
    /// [`td_table::DataLake`] would hand out.
    pub fn ingest_table(&mut self, id: TableId, table: &Table) {
        self.tombstones.remove(&id);
        self.delta.insert(id, table, &self.ctx);
        self.invalidate();
        self.update_gauges();
    }

    /// Ingest one table from an already-extracted artifact bundle — the
    /// WAL-replay half of [`Self::ingest_table`]: no extraction runs, the
    /// bundle lands in the delta exactly as the original ingest's did.
    pub fn ingest_artifacts(&mut self, id: TableId, artifacts: crate::segment::TableArtifacts) {
        self.tombstones.remove(&id);
        self.delta.insert_artifacts(id, artifacts);
        self.invalidate();
        self.update_gauges();
    }

    /// Ingest every table of a view into the delta in one pass. The view's
    /// artifacts shadow any the delta already held for the same ids.
    pub fn ingest_view(&mut self, view: &SegmentView<'_>) {
        for (id, _) in view.iter() {
            self.tombstones.remove(&id);
        }
        let built = PipelineSegment::build(view, &self.ctx);
        self.delta = PipelineSegment::from_live(&[&self.delta, &built], &BTreeSet::new());
        self.invalidate();
        self.update_gauges();
    }

    /// Drop a table: removed from the delta immediately, tombstoned if any
    /// sealed segment still carries it. Returns true if the table was live.
    pub fn drop_table(&mut self, id: TableId) -> bool {
        let was_live = self.is_live(id);
        self.delta.remove(id);
        if self.sealed.iter().any(|s| s.table_ids().contains(&id)) {
            self.tombstones.insert(id);
        }
        self.invalidate();
        self.update_gauges();
        was_live
    }

    /// Seal the delta: it becomes an immutable segment and a fresh empty
    /// delta starts. A no-op on an empty delta.
    pub fn seal(&mut self) {
        if !self.delta.is_empty() {
            self.sealed.push(std::mem::take(&mut self.delta));
        }
        self.update_gauges();
    }

    /// Compact the whole stack into a single sealed segment: tombstoned
    /// tables are dropped for good, shadowed artifacts discarded. Pure
    /// artifact concatenation — no table is re-extracted.
    pub fn compact(&mut self) {
        let _s = td_obs::span!("pipeline.compact");
        self.seal();
        let refs: Vec<&PipelineSegment> = self.sealed.iter().collect();
        let merged = PipelineSegment::from_live(&refs, &self.tombstones);
        self.sealed = vec![merged];
        self.tombstones.clear();
        self.invalidate();
        self.update_gauges();
    }

    /// The searchable pipeline for the current live tables, cached until
    /// the next write. Each assembly (a cache miss) adds one to the
    /// `pipeline.snapshot.builds` counter.
    ///
    /// # Panics
    ///
    /// Panics if no live table has a textual column (the containment
    /// index's LSH ensemble needs at least one set), mirroring
    /// [`DiscoveryPipeline::build`] on such a lake.
    #[must_use]
    pub fn snapshot(&self) -> Arc<DiscoveryPipeline> {
        let mut slot = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = slot.as_ref() {
            return Arc::clone(p);
        }
        let mut refs: Vec<&PipelineSegment> = self.sealed.iter().collect();
        if !self.delta.is_empty() {
            refs.push(&self.delta);
        }
        let built = Arc::new(DiscoveryPipeline::from_segments(
            &self.ctx,
            &refs,
            &self.tombstones,
        ));
        td_obs::global().counter("pipeline.snapshot.builds").inc();
        *slot = Some(Arc::clone(&built));
        built
    }

    /// Ids of the live tables, ascending.
    #[must_use]
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut ids: BTreeSet<TableId> = self.delta.table_ids().into_iter().collect();
        for seg in &self.sealed {
            ids.extend(seg.table_ids());
        }
        ids.into_iter()
            .filter(|id| !self.tombstones.contains(id))
            .collect()
    }

    /// Number of live tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table_ids().len()
    }

    /// True if no table is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.table_ids().is_empty()
    }

    /// True if `id` resolves to a live (non-tombstoned) table.
    #[must_use]
    pub fn is_live(&self, id: TableId) -> bool {
        !self.tombstones.contains(&id)
            && (self.delta.table_ids().contains(&id)
                || self.sealed.iter().any(|s| s.table_ids().contains(&id)))
    }

    /// Number of sealed segments plus the delta if non-empty.
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.sealed.len() + usize::from(!self.delta.is_empty())
    }

    /// Number of outstanding tombstones.
    #[must_use]
    pub fn num_tombstones(&self) -> usize {
        self.tombstones.len()
    }

    fn invalidate(&mut self) {
        *self
            .snapshot
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    fn update_gauges(&self) {
        td_obs::global()
            .gauge("pipeline.segments")
            .set(self.num_segments() as f64);
        td_obs::global()
            .gauge("pipeline.tombstones")
            .set(self.tombstones.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_table::gen::lakegen::{LakeGenConfig, LakeGenerator};

    #[test]
    fn bookkeeping_tracks_segments_and_tombstones() {
        let gl = LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: 6,
            rows: (10, 20),
            cols: (2, 3),
            seed: 11,
            ..LakeGenConfig::default()
        });
        let mut sp = SegmentedPipeline::new(&gl.registry, &[], &PipelineConfig::default());
        assert!(sp.is_empty());
        let tables: Vec<(TableId, Table)> = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
        for (id, t) in &tables[..3] {
            sp.ingest_table(*id, t);
        }
        assert_eq!(sp.num_segments(), 1, "delta counts as one segment");
        sp.seal();
        for (id, t) in &tables[3..] {
            sp.ingest_table(*id, t);
        }
        assert_eq!(sp.num_segments(), 2);
        assert_eq!(sp.len(), 6);

        // Drop a sealed table → tombstone; drop a delta table → no tombstone.
        assert!(sp.drop_table(tables[0].0));
        assert_eq!(sp.num_tombstones(), 1);
        assert!(sp.drop_table(tables[4].0));
        assert_eq!(sp.num_tombstones(), 1);
        assert!(!sp.is_live(tables[0].0));
        assert!(!sp.drop_table(tables[0].0), "already dropped");
        assert_eq!(sp.len(), 4);

        // Re-ingest clears the tombstone.
        sp.ingest_table(tables[0].0, &tables[0].1);
        assert_eq!(sp.num_tombstones(), 0);
        assert_eq!(sp.len(), 5);

        sp.compact();
        assert_eq!(sp.num_segments(), 1);
        assert_eq!(sp.num_tombstones(), 0);
        assert_eq!(sp.len(), 5);
        let mut expect: Vec<TableId> = tables.iter().map(|(id, _)| *id).collect();
        expect.retain(|id| *id != tables[4].0);
        assert_eq!(sp.table_ids(), expect);
    }

    #[test]
    fn snapshot_is_cached_until_a_write() {
        let gl = LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: 5,
            rows: (10, 20),
            cols: (2, 3),
            seed: 12,
            ..LakeGenConfig::default()
        });
        let mut sp = SegmentedPipeline::new(&gl.registry, &[], &PipelineConfig::default());
        let tables: Vec<(TableId, Table)> = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
        for (id, t) in &tables {
            sp.ingest_table(*id, t);
        }
        let a = sp.snapshot();
        let b = sp.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "second snapshot should be cached");
        sp.ingest_table(tables[0].0, &tables[0].1);
        let c = sp.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "write must invalidate the snapshot");
    }
}
