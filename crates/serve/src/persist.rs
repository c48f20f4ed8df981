//! Persist-aware startup: boot a server by *restoring* pipeline state
//! from a td-store directory instead of rebuilding it from the lake.
//!
//! The flow a durable deployment follows:
//!
//! 1. [`boot`] opens the store directory, loads the newest valid
//!    snapshot, truncates any torn WAL tail, and replays the surviving
//!    records — yielding a [`DurablePipeline`] whose merged rankings are
//!    byte-identical to a pipeline that lived through the same history
//!    in one process.
//! 2. [`serving_snapshot`] merges that segmented state into the
//!    immutable `Arc<DiscoveryPipeline>` the worker pool serves.
//! 3. `Server::start_durable` wires both together: queries run against
//!    the merged snapshot, while the persist-plane requests
//!    (`IngestTable`, `DropTable`, `Snapshot`) mutate the durable
//!    pipeline — every mutation WAL-logged before it is applied and
//!    synced before it is acknowledged. Mutations stage lazily: the next
//!    `Reload` calls [`serving_snapshot`] once, however many mutations
//!    came before it.
//!
//! The store sits *below* serve in the crate layering: this module is
//! glue, not format logic. Format, checksums, and recovery semantics
//! live in `td-store`; the epoch-versioned hot-swap slot lives in
//! [`crate::server`].

use std::path::PathBuf;
use std::sync::Arc;

use td_core::segment::PipelineContext;
use td_core::DiscoveryPipeline;

pub use td_store::{CheckpointStats, DurablePipeline, RestoreStats, Store, StoreError};

/// Open (creating if needed) a store directory and restore the durable
/// pipeline from it: newest valid snapshot plus WAL replay, with torn
/// tails truncated and corrupt snapshots skipped.
///
/// A fresh directory yields an empty pipeline and zeroed
/// [`RestoreStats`] — the same call serves first boot and every restart.
///
/// # Errors
/// Fails on I/O errors and on a context fingerprint mismatch
/// ([`StoreError::ContextMismatch`]): restoring artifacts built under a
/// different pipeline configuration would silently mix incompatible
/// embedding spaces, so it is refused loudly.
pub fn boot(
    dir: impl Into<PathBuf>,
    ctx: PipelineContext,
) -> Result<(DurablePipeline, RestoreStats), StoreError> {
    let store = Store::open(dir)?;
    DurablePipeline::open(store, ctx)
}

/// Merge the durable pipeline's current segmented state into the
/// immutable pipeline the server slot serves. This is the same
/// `from_segments` construction path live ingest uses, so the served
/// rankings are byte-identical to a one-shot batch build over the same
/// live tables.
#[must_use]
pub fn serving_snapshot(durable: &DurablePipeline) -> Arc<DiscoveryPipeline> {
    durable.pipeline().snapshot()
}
