//! Cold-start bulk load: stream a flat record file through the external
//! sort pipeline straight into a durable store directory.
//!
//! This is the glue between `mp-extsort`'s [`BulkLoader`] (which
//! reconstructs the exact state one `add_batch` of the whole file would
//! build, under a bounded memory budget) and `mp-store`'s store layout:
//! the per-pass keys, pairs and counters are committed through the
//! *streaming* snapshot writer ([`MatchStore::write_snapshot_streamed`])
//! with the records iterated back off the input file — the full database
//! is never materialized in this process; peak record residency is the
//! sort's `memory_records` budget plus one scan window.
//!
//! The committed snapshot carries `batches_applied = 1` — a restarted
//! daemon sees a store that ingested the whole file as its first batch,
//! and the journal watermark (`next_seq = 2`) lines up so subsequent
//! incremental batches journal and replay normally.
//!
//! The load is **cold-start only**: a store that already holds a
//! snapshot or journaled batches is left untouched (the loader reports
//! it was skipped). Until the snapshot commit (an atomic rename), the
//! store directory holds no readable state — a crash mid-load just
//! reruns from scratch, which the kill-recovery tests exercise.

use merge_purge::KeySpec;
use mp_extsort::{BulkLoader, ExternalConfig, IoStats};
use mp_metrics::PipelineObserver;
use mp_record::io as rio;
use mp_record::Record;
use mp_rules::EquationalTheory;
use mp_store::{MatchStore, PassSnapshot, SnapshotStream};
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;

/// What to load and how: the daemon's pass configuration plus the
/// external-sort resource limits.
#[derive(Debug, Clone)]
pub struct BulkStoreConfig {
    /// Sorted-neighborhood window shared by all passes.
    pub window: usize,
    /// Pass keys, in order (must match the daemon that will serve the
    /// store).
    pub keys: Vec<KeySpec>,
    /// The band count of the daemon that will serve the store (checked
    /// to be in `serve --shards`'s range, 1..=27). The store layout is the
    /// same for every count.
    pub shards: usize,
    /// External-sort limits: memory budget, fan-in, run-formation
    /// threads, and sort strategy.
    pub external: ExternalConfig,
}

/// What a committed bulk load produced.
#[derive(Debug, Clone, Copy)]
pub struct BulkStoreReport {
    /// Records loaded (ids `0..records`).
    pub records: usize,
    /// Distinct matching pairs found.
    pub pairs: u64,
    /// Pair comparisons across all passes.
    pub comparisons: u64,
    /// Bytes of committed snapshot state.
    pub snapshot_bytes: u64,
    /// Sort + scan I/O accounting from the external pipeline.
    pub io: IoStats,
}

fn record_stream(input: &Path) -> Result<impl Iterator<Item = io::Result<Record>> + '_, String> {
    let file = File::open(input).map_err(|e| format!("open {}: {e}", input.display()))?;
    Ok(rio::RecordStream::new(BufReader::new(file)).map(|r| r.map_err(io::Error::other)))
}

/// Cold-loads the flat record file at `input` into the durable store at
/// `store_dir`, spilling sort runs under `work_dir`.
///
/// Returns `Ok(None)` — without touching anything — when the store
/// already holds state (a snapshot or journaled batches): the load is
/// strictly for empty stores, and a restart over an already-committed
/// load must be a no-op so `serve --bulk-load` is idempotent.
///
/// # Errors
///
/// I/O failures anywhere in the pipeline, or a configuration problem
/// (no keys, window < 2, shard count out of range).
pub fn bulk_load_store(
    store_dir: &Path,
    input: &Path,
    work_dir: &Path,
    cfg: &BulkStoreConfig,
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) -> Result<Option<BulkStoreReport>, String> {
    if cfg.keys.is_empty() {
        return Err("at least one pass key is required".into());
    }
    if cfg.window < 2 {
        return Err("window must be at least 2".into());
    }
    if cfg.shards == 0 || cfg.shards > 27 {
        return Err(format!(
            "shards must be 1..=27 (got {}): scan bands by key first letter",
            cfg.shards
        ));
    }
    let (mut store, loaded) = MatchStore::open(store_dir)
        .map_err(|e| format!("open store {}: {e}", store_dir.display()))?;
    if loaded.snapshot.is_some() || !loaded.replayable.is_empty() || store.next_seq() != 1 {
        return Ok(None);
    }

    std::fs::create_dir_all(work_dir)
        .map_err(|e| format!("create work dir {}: {e}", work_dir.display()))?;
    let mut loader = BulkLoader::new(cfg.external);
    for key in &cfg.keys {
        loader = loader.pass(key.clone(), cfg.window);
    }
    let outcome = loader
        .load_observed(input, work_dir, theory, observer)
        .map_err(|e| format!("bulk load {}: {e}", input.display()))?;
    let passes: Vec<PassSnapshot> = outcome
        .passes
        .into_iter()
        .map(|p| PassSnapshot {
            key_name: p.key_name,
            window: p.window,
            pairs_found: p.pairs_found,
            pairs_first_found: p.pairs_first_found,
            keys: p.keys,
        })
        .collect();
    let pairs = outcome.pairs.sorted();
    // Bulk loads carry no merge lineage: the external pipeline finds
    // pairs out of scan order, so there is no well-defined edge log.
    // Explain against a bulk-loaded base reports connectivity only.
    let provenance = mp_closure::ProvenanceLog::new();
    let state = SnapshotStream {
        n_records: outcome.records as u64,
        passes: &passes,
        pairs: &pairs,
        provenance: &provenance,
        comparisons: outcome.comparisons,
        batches_applied: 1,
    };
    // Commit: stream the records back off the input file through the
    // incremental-CRC snapshot writer — the one moment the whole
    // database flows through this process, and it flows, never resides.
    let snapshot_bytes = store
        .write_snapshot_streamed(&state, record_stream(input)?)
        .map_err(|e| format!("commit snapshot: {e}"))?;

    Ok(Some(BulkStoreReport {
        records: outcome.records,
        pairs: outcome.stats.pairs,
        comparisons: outcome.comparisons,
        snapshot_bytes,
        io: outcome.stats.io,
    }))
}
