//! Crash drills: every corruption a torn write or bit rot can leave
//! behind is recovered from without a panic — torn WAL tails are
//! truncated to the last valid record, corrupt snapshots are rejected in
//! favor of an older valid one (or the WAL alone), and a context
//! mismatch is a clean error.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use td_core::segment::PipelineContext;
use td_core::{PipelineConfig, SegmentedPipeline};
use td_store::{DurablePipeline, Store, StoreError};
use td_table::gen::lakegen::{GeneratedLake, LakeGenConfig, LakeGenerator};
use td_table::{Table, TableId};

type LakeFixture = (GeneratedLake, PipelineContext, Vec<(TableId, Table)>);

fn lake() -> &'static LakeFixture {
    static FIX: OnceLock<LakeFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let gl = LakeGenerator::standard().generate(&LakeGenConfig {
            num_tables: 8,
            rows: (12, 24),
            cols: (2, 3),
            seed: 20260808,
            ..LakeGenConfig::default()
        });
        let ctx = PipelineContext::new(&gl.registry, &[], &PipelineConfig::default());
        let tables: Vec<(TableId, Table)> = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
        (gl, ctx, tables)
    })
}

fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "td-store-crash-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, ctx: &PipelineContext) -> (DurablePipeline, td_store::RestoreStats) {
    DurablePipeline::open(Store::open(dir.to_path_buf()).expect("open"), ctx.clone())
        .expect("restore must not fail on recoverable corruption")
}

fn flip_byte(path: &Path, offset_from_end: u64) {
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let len = f.metadata().unwrap().len();
    let pos = len.saturating_sub(offset_from_end);
    f.seek(SeekFrom::Start(pos)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(pos)).unwrap();
    f.write_all(&[b[0] ^ 0xff]).unwrap();
}

/// Tear the WAL mid-record: recovery truncates to the last valid record
/// and the restored state equals a fresh pipeline over the surviving
/// prefix, byte-for-byte.
#[test]
fn torn_wal_tail_recovers_prefix() {
    let (_, ctx, tables) = lake();
    let dir = scratch();

    let (mut dp, _) = open(&dir, ctx);
    for (id, t) in &tables[..5] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.sync().expect("sync");
    let wal_path = dir.join("pipeline.wal");
    let full_len = std::fs::metadata(&wal_path).unwrap().len();
    drop(dp);

    // Cut 7 bytes off the tail — the 5th record is torn mid-payload.
    let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
    f.set_len(full_len - 7).unwrap();
    drop(f);

    let (dp, stats) = open(&dir, ctx);
    assert!(stats.wal_bytes_truncated > 0, "tail must be reported");
    assert_eq!(stats.wal_records_replayed, 4, "only intact records replay");
    assert_eq!(dp.pipeline().len(), 4);

    // Byte-identical to a pipeline that only ever saw the prefix.
    let mut fresh = SegmentedPipeline::with_context(ctx.clone());
    for (id, t) in &tables[..4] {
        fresh.ingest_table(*id, t);
    }
    assert_eq!(
        format!(
            "{:?}",
            dp.pipeline().snapshot().search_keyword("dataset", 8)
        ),
        format!("{:?}", fresh.snapshot().search_keyword("dataset", 8)),
    );

    // The truncated log keeps accepting appends and survives another trip.
    let mut dp = dp;
    dp.ingest_table(tables[4].0, &tables[4].1).expect("ingest");
    drop(dp);
    let (dp, stats) = open(&dir, ctx);
    assert_eq!(stats.wal_bytes_truncated, 0, "second recovery is clean");
    assert_eq!(dp.pipeline().len(), 5);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip a byte in the newest snapshot's payload: restore rejects it on
/// checksum and falls back to the older snapshot without panicking.
#[test]
fn corrupt_snapshot_falls_back_to_older_one() {
    let (_, ctx, tables) = lake();
    let dir = scratch();

    let (mut dp, _) = open(&dir, ctx);
    for (id, t) in &tables[..4] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.checkpoint().expect("checkpoint 1");
    let at_cp1 = format!(
        "{:?}",
        dp.pipeline().snapshot().search_keyword("dataset", 8)
    );
    for (id, t) in &tables[4..6] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.checkpoint().expect("checkpoint 2");
    drop(dp);

    // Corrupt the newest snapshot deep in its payload.
    flip_byte(&dir.join("snapshot-00000002.tds"), 64);

    let (dp, stats) = open(&dir, ctx);
    assert_eq!(stats.corrupt_snapshots_skipped, 1);
    assert_eq!(stats.snapshot_seq, Some(1), "older snapshot won");
    assert_eq!(dp.pipeline().len(), 4);
    assert_eq!(
        format!(
            "{:?}",
            dp.pipeline().snapshot().search_keyword("dataset", 8)
        ),
        at_cp1,
        "fallback state is exactly checkpoint 1"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt the snapshot *header*: same clean fallback path as a payload
/// flip (the file never gets as far as section reads).
#[test]
fn corrupt_snapshot_header_falls_back() {
    let (_, ctx, tables) = lake();
    let dir = scratch();

    let (mut dp, _) = open(&dir, ctx);
    for (id, t) in &tables[..3] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.checkpoint().expect("checkpoint 1");
    for (id, t) in &tables[3..5] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.checkpoint().expect("checkpoint 2");
    drop(dp);

    let snap2 = dir.join("snapshot-00000002.tds");
    let len = std::fs::metadata(&snap2).unwrap().len();
    flip_byte(&snap2, len - 10); // byte 10: inside the header's fingerprint

    let (dp, stats) = open(&dir, ctx);
    assert_eq!(stats.corrupt_snapshots_skipped, 1);
    assert_eq!(stats.snapshot_seq, Some(1));
    assert_eq!(dp.pipeline().len(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every snapshot corrupt: restore still comes up (degraded) from
/// whatever the current WAL generation holds — never a panic.
#[test]
fn all_snapshots_corrupt_still_restores_from_wal() {
    let (_, ctx, tables) = lake();
    let dir = scratch();

    let (mut dp, _) = open(&dir, ctx);
    for (id, t) in &tables[..3] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.checkpoint().expect("checkpoint");
    // Two more tables logged after the checkpoint.
    for (id, t) in &tables[3..5] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    drop(dp);

    flip_byte(&dir.join("snapshot-00000001.tds"), 64);

    let (dp, stats) = open(&dir, ctx);
    assert_eq!(stats.corrupt_snapshots_skipped, 1);
    assert_eq!(stats.snapshot_seq, None);
    assert_eq!(stats.wal_records_replayed, 2, "current-generation records");
    assert_eq!(dp.pipeline().len(), 2, "degraded but alive");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Restoring under a different pipeline configuration is refused loudly
/// instead of mixing incompatible embedding spaces.
#[test]
fn context_mismatch_is_a_clean_error() {
    let (gl, ctx, tables) = lake();
    let dir = scratch();

    let (mut dp, _) = open(&dir, ctx);
    for (id, t) in &tables[..3] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.checkpoint().expect("checkpoint");
    drop(dp);

    let other_cfg = PipelineConfig {
        minhash_k: 64,
        ..PipelineConfig::default()
    };
    let other_ctx = PipelineContext::new(&gl.registry, &[], &other_cfg);
    let err = DurablePipeline::open(Store::open(dir.clone()).expect("open"), other_ctx)
        .err()
        .expect("mismatched context must not restore");
    assert!(matches!(err, StoreError::ContextMismatch { .. }), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty or truncated snapshot file (crash during the very first
/// write before rename — or a partial copy) is skipped like any other
/// corruption.
#[test]
fn truncated_snapshot_file_is_skipped() {
    let (_, ctx, tables) = lake();
    let dir = scratch();

    let (mut dp, _) = open(&dir, ctx);
    for (id, t) in &tables[..3] {
        dp.ingest_table(*id, t).expect("ingest");
    }
    dp.checkpoint().expect("checkpoint");
    drop(dp);

    // A second "snapshot" that is 20 bytes of garbage.
    std::fs::write(dir.join("snapshot-00000002.tds"), b"TDSNAP01 not really!").unwrap();

    let (dp, stats) = open(&dir, ctx);
    assert_eq!(stats.corrupt_snapshots_skipped, 1);
    assert_eq!(stats.snapshot_seq, Some(1));
    assert_eq!(dp.pipeline().len(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}
