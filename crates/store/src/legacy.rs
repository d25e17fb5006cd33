//! Read-only reader for the retired sharded store layout, and its
//! one-time conversion into the single layout.
//!
//! Earlier releases could keep a store as N per-shard journals and
//! snapshot slices behind a manifest:
//!
//! ```text
//! store/
//!   manifest.mpm          shard count + committed snapshot epoch
//!   shard-0/
//!     journal.mpj         standard journal (see `journal`)
//!     snapshot-<E>.mps    this shard's slice of checkpoint epoch E
//!   shard-1/
//!     ...
//! ```
//!
//! Every batch was scattered as one frame per shard journal, all with
//! the same sequence number (empty frames kept the sequences aligned),
//! and acknowledged only once every shard had fsync'd its frame. A
//! sequence number is therefore a real batch iff every shard journal
//! holds it; frames past the shortest journal are the orphans of a
//! scatter the crash cut short, and are dropped.
//!
//! [`crate::MatchStore::open`] turns such a directory into `journal.mpj` +
//! `snapshot.mps`. The legacy files are only read until the manifest is
//! unlinked — the commit point — so a crash at any step leaves either
//! the untouched legacy store (the next open redoes the conversion) or a
//! committed single store with leftover `shard-*` directories (the next
//! open removes them).

use crate::codec::{self, Reader};
use crate::journal::{self, Journal, JournalBatch};
use crate::snapshot::{write_streamed, PassSnapshot, Snapshot};
use crate::{commit_file, fsync_dir, StoreError, JOURNAL_FILE, SNAPSHOT_FILE};
use mp_closure::{MergeEdge, ProvenanceLog};
use mp_record::Record;
use std::path::Path;

/// File name of the manifest inside a legacy sharded store directory.
pub const MANIFEST_FILE: &str = "manifest.mpm";
const MANIFEST_VERSION: u32 = 1;
const MANIFEST_MAGIC: &[u8; 4] = b"MPMF";
/// Shard-snapshot format version (2 added the provenance slice).
const SHARD_SNAPSHOT_VERSION: u32 = 2;
const SHARD_SNAPSHOT_MAGIC: &[u8; 8] = b"MPSSHARD";

/// The manifest: shard count and committed checkpoint epoch (0 = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) shards: u32,
    pub(crate) epoch: u64,
}

#[cfg(test)]
pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut payload = Vec::new();
    codec::put_u32(&mut payload, m.shards);
    codec::put_u64(&mut payload, m.epoch);
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

pub(crate) fn decode_manifest(data: &[u8]) -> Result<Manifest, StoreError> {
    let corrupt = |msg: &str| StoreError::Corrupt(format!("manifest: {msg}"));
    if data.len() < 12 {
        return Err(corrupt("file too short"));
    }
    if &data[..4] != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != MANIFEST_VERSION {
        return Err(corrupt(&format!("unknown version {version}")));
    }
    let crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let payload = &data[12..];
    if codec::crc32(payload) != crc {
        return Err(corrupt("CRC mismatch"));
    }
    let mut r = Reader::new(payload);
    let m = (|| {
        let shards = r.u32()?;
        let epoch = r.u64()?;
        r.finish()?;
        Ok::<_, String>(Manifest { shards, epoch })
    })()
    .map_err(|e| corrupt(&e))?;
    // The sharded daemon banded keys by first letter: 1..=27 shards.
    if m.shards == 0 || m.shards > 27 {
        return Err(corrupt(&format!("{} shards (expected 1..=27)", m.shards)));
    }
    Ok(m)
}

/// One pass's slice of a shard snapshot: the global attribution meta
/// (duplicated into every shard for cross-validation) plus the keys of
/// this shard's owned records, aligned with [`ShardSnapshot::records`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardPassSlice {
    /// The pass's key name (global, duplicated).
    pub key_name: String,
    /// The pass's window size (global, duplicated).
    pub window: u32,
    /// Global `pairs_found` for this pass (duplicated).
    pub pairs_found: u64,
    /// Global `pairs_first_found` for this pass (duplicated).
    pub pairs_first_found: u64,
    /// Extracted key of each owned record, in [`ShardSnapshot::records`]
    /// order.
    pub keys: Vec<String>,
}

/// One shard's slice of a legacy checkpoint: its owned records (global
/// ids), per-pass keys for those records, its owned pairs and provenance
/// edges, and the global scalars duplicated for cross-shard consistency
/// checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardSnapshot {
    /// This slice's shard index.
    pub shard: u32,
    /// Total shard count (duplicated).
    pub shards: u32,
    /// Global comparison count (duplicated).
    pub comparisons: u64,
    /// Global batches-applied watermark (duplicated).
    pub batches_applied: u64,
    /// Global record count (duplicated; reassembly must reach it).
    pub total_records: u64,
    /// Per-pass meta + this shard's key slices, in pass order.
    pub passes: Vec<ShardPassSlice>,
    /// Records owned by this shard, ascending global id.
    pub records: Vec<Record>,
    /// Matched pairs owned by this shard (the shard owning the pair's
    /// larger id), sorted ascending.
    pub pairs: Vec<(u32, u32)>,
    /// Provenance edges owned by this shard, each tagged with its global
    /// ordinal in the log so the merge restores the original order.
    pub edges: Vec<(u64, MergeEdge)>,
    /// Global batch-trace table (duplicated into every shard).
    pub batch_traces: Vec<(u64, String)>,
    /// Global per-rule firing counts (duplicated into every shard).
    pub rule_firings: Vec<u64>,
}

impl ShardSnapshot {
    /// Serializes the slice as legacy binaries wrote it: magic + version
    /// + length + CRC, then the payload.
    #[cfg(test)]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        codec::put_u32(&mut p, self.shard);
        codec::put_u32(&mut p, self.shards);
        codec::put_u64(&mut p, self.comparisons);
        codec::put_u64(&mut p, self.batches_applied);
        codec::put_u64(&mut p, self.total_records);
        codec::put_u32(&mut p, self.passes.len() as u32);
        for pass in &self.passes {
            codec::put_str(&mut p, &pass.key_name);
            codec::put_u32(&mut p, pass.window);
            codec::put_u64(&mut p, pass.pairs_found);
            codec::put_u64(&mut p, pass.pairs_first_found);
            codec::put_u32(&mut p, pass.keys.len() as u32);
            for k in &pass.keys {
                codec::put_str(&mut p, k);
            }
        }
        codec::put_records(&mut p, &self.records);
        codec::put_u64(&mut p, self.pairs.len() as u64);
        for &(a, b) in &self.pairs {
            codec::put_u32(&mut p, a);
            codec::put_u32(&mut p, b);
        }
        codec::put_u64(&mut p, self.edges.len() as u64);
        for &(ord, e) in &self.edges {
            codec::put_u64(&mut p, ord);
            codec::put_u32(&mut p, e.a);
            codec::put_u32(&mut p, e.b);
            codec::put_u32(&mut p, e.pass);
            codec::put_u32(&mut p, e.rule_id);
            codec::put_u64(&mut p, e.batch_seq);
        }
        codec::put_u32(&mut p, self.batch_traces.len() as u32);
        for (seq, trace) in &self.batch_traces {
            codec::put_u64(&mut p, *seq);
            codec::put_str(&mut p, trace);
        }
        codec::put_u32(&mut p, self.rule_firings.len() as u32);
        for &f in &self.rule_firings {
            codec::put_u64(&mut p, f);
        }

        let mut out = Vec::with_capacity(24 + p.len());
        out.extend_from_slice(SHARD_SNAPSHOT_MAGIC);
        out.extend_from_slice(&SHARD_SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(&codec::crc32(&p).to_le_bytes());
        out.extend_from_slice(&p);
        out
    }

    /// Parses and validates a shard snapshot slice.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic/version, CRC mismatch, or a
    /// structural inconsistency (key slices misaligned with records,
    /// pairs out of range).
    pub(crate) fn decode(data: &[u8]) -> Result<ShardSnapshot, StoreError> {
        let corrupt = |msg: String| StoreError::Corrupt(format!("shard snapshot: {msg}"));
        if data.len() < 24 {
            return Err(corrupt(format!("file too short ({} bytes)", data.len())));
        }
        if &data[..8] != SHARD_SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != SHARD_SNAPSHOT_VERSION {
            return Err(corrupt(format!("unknown version {version}")));
        }
        let len = u64::from_le_bytes(data[12..20].try_into().unwrap());
        let crc = u32::from_le_bytes(data[20..24].try_into().unwrap());
        if (data.len() - 24) as u64 != len {
            return Err(corrupt(format!(
                "payload length {len} disagrees with file size {}",
                data.len()
            )));
        }
        let payload = &data[24..];
        if codec::crc32(payload) != crc {
            return Err(corrupt("CRC mismatch".into()));
        }

        let mut r = Reader::new(payload);
        let snap = (|| {
            let shard = r.u32()?;
            let shards = r.u32()?;
            let comparisons = r.u64()?;
            let batches_applied = r.u64()?;
            let total_records = r.u64()?;
            let np = r.u32()? as usize;
            let mut passes = Vec::with_capacity(np.min(64));
            for _ in 0..np {
                let key_name = r.str()?;
                let window = r.u32()?;
                let pairs_found = r.u64()?;
                let pairs_first_found = r.u64()?;
                let nk = r.u32()? as usize;
                let mut keys = Vec::with_capacity(nk.min(r.remaining() / 4));
                for _ in 0..nk {
                    keys.push(r.str()?);
                }
                passes.push(ShardPassSlice {
                    key_name,
                    window,
                    pairs_found,
                    pairs_first_found,
                    keys,
                });
            }
            let records = codec::take_records(&mut r)?;
            let n = r.u64()? as usize;
            let mut pairs = Vec::with_capacity(n.min(r.remaining() / 8));
            for _ in 0..n {
                pairs.push((r.u32()?, r.u32()?));
            }
            let ne = r.u64()? as usize;
            let mut edges = Vec::with_capacity(ne.min(r.remaining() / 32));
            for _ in 0..ne {
                let ord = r.u64()?;
                edges.push((
                    ord,
                    MergeEdge {
                        a: r.u32()?,
                        b: r.u32()?,
                        pass: r.u32()?,
                        rule_id: r.u32()?,
                        batch_seq: r.u64()?,
                    },
                ));
            }
            let nt = r.u32()? as usize;
            let mut batch_traces = Vec::with_capacity(nt.min(r.remaining() / 12));
            for _ in 0..nt {
                let seq = r.u64()?;
                batch_traces.push((seq, r.str()?));
            }
            let nf = r.u32()? as usize;
            let mut rule_firings = Vec::with_capacity(nf.min(r.remaining() / 8));
            for _ in 0..nf {
                rule_firings.push(r.u64()?);
            }
            r.finish()?;
            Ok::<_, String>(ShardSnapshot {
                shard,
                shards,
                comparisons,
                batches_applied,
                total_records,
                passes,
                records,
                pairs,
                edges,
                batch_traces,
                rule_firings,
            })
        })()
        .map_err(corrupt)?;

        if snap.shard >= snap.shards {
            return Err(corrupt(format!(
                "shard index {} out of range for {} shards",
                snap.shard, snap.shards
            )));
        }
        for (i, pass) in snap.passes.iter().enumerate() {
            if pass.keys.len() != snap.records.len() {
                return Err(corrupt(format!(
                    "pass {i}: {} keys for {} owned records",
                    pass.keys.len(),
                    snap.records.len()
                )));
            }
        }
        if snap
            .pairs
            .iter()
            .any(|&(a, b)| a >= b || b as u64 >= snap.total_records)
        {
            return Err(corrupt("pair out of range or not (low, high)".into()));
        }
        if snap
            .records
            .iter()
            .any(|rec| rec.id.0 as u64 >= snap.total_records)
        {
            return Err(corrupt("record id out of range".into()));
        }
        if snap.edges.iter().any(|&(_, e)| {
            e.a as u64 >= snap.total_records
                || e.b as u64 >= snap.total_records
                || e.batch_seq == 0
                || e.batch_seq > snap.batches_applied
        }) {
            return Err(corrupt("provenance edge out of range".into()));
        }
        Ok(snap)
    }
}

/// Recombines per-shard slices into the global [`Snapshot`], validating
/// cross-shard consistency (every duplicated scalar must agree) and
/// structural completeness (record ids must reassemble to a contiguous
/// range, provenance ordinals to `0..n`).
///
/// # Errors
///
/// [`StoreError::Corrupt`] naming the first inconsistency.
pub(crate) fn merge_shard_snapshots(parts: &[ShardSnapshot]) -> Result<Snapshot, StoreError> {
    let corrupt = |msg: String| StoreError::Corrupt(format!("shard snapshot merge: {msg}"));
    let first = parts
        .first()
        .ok_or_else(|| corrupt("no shard slices".into()))?;
    if parts.len() != first.shards as usize {
        return Err(corrupt(format!(
            "{} slices for a {}-shard store",
            parts.len(),
            first.shards
        )));
    }
    for (k, p) in parts.iter().enumerate() {
        if p.shard as usize != k {
            return Err(corrupt(format!(
                "slice {k} labels itself shard {}",
                p.shard
            )));
        }
        let same = p.shards == first.shards
            && p.comparisons == first.comparisons
            && p.batches_applied == first.batches_applied
            && p.total_records == first.total_records
            && p.batch_traces == first.batch_traces
            && p.rule_firings == first.rule_firings
            && p.passes.len() == first.passes.len()
            && p.passes.iter().zip(first.passes.iter()).all(|(a, b)| {
                a.key_name == b.key_name
                    && a.window == b.window
                    && a.pairs_found == b.pairs_found
                    && a.pairs_first_found == b.pairs_first_found
            });
        if !same {
            return Err(corrupt(format!(
                "shard {k} disagrees with shard 0 on the duplicated global state"
            )));
        }
    }

    let owned: u64 = parts.iter().map(|p| p.records.len() as u64).sum();
    if owned != first.total_records {
        return Err(corrupt(format!(
            "shards own {owned} records, the store has {}",
            first.total_records
        )));
    }
    let total = owned as usize;
    let mut records: Vec<Option<Record>> = vec![None; total];
    let mut keys: Vec<Vec<String>> = vec![vec![String::new(); total]; first.passes.len()];
    for part in parts {
        for (i, rec) in part.records.iter().enumerate() {
            let id = rec.id.0 as usize;
            if records[id].is_some() {
                return Err(corrupt(format!("record {id} owned by two shards")));
            }
            records[id] = Some(rec.clone());
            for (p, pass) in part.passes.iter().enumerate() {
                keys[p][id] = pass.keys[i].clone();
            }
        }
    }
    let records: Vec<Record> = records
        .into_iter()
        .enumerate()
        .map(|(id, r)| r.ok_or_else(|| corrupt(format!("record {id} owned by no shard"))))
        .collect::<Result<_, _>>()?;

    let mut pairs: Vec<(u32, u32)> = parts.iter().flat_map(|p| p.pairs.iter().copied()).collect();
    pairs.sort_unstable();
    if pairs.windows(2).any(|w| w[0] == w[1]) {
        return Err(corrupt("duplicate pair across shards".into()));
    }

    let mut tagged: Vec<(u64, MergeEdge)> =
        parts.iter().flat_map(|p| p.edges.iter().copied()).collect();
    tagged.sort_unstable_by_key(|&(ord, _)| ord);
    for (i, &(ord, _)) in tagged.iter().enumerate() {
        if ord != i as u64 {
            return Err(corrupt(format!(
                "provenance edge ordinals are not contiguous (expected {i}, found {ord})"
            )));
        }
    }
    let provenance = ProvenanceLog {
        edges: tagged.into_iter().map(|(_, e)| e).collect(),
        batch_traces: first.batch_traces.clone(),
        rule_firings: first.rule_firings.clone(),
    };

    let passes = first
        .passes
        .iter()
        .zip(keys)
        .map(|(meta, keys)| PassSnapshot {
            key_name: meta.key_name.clone(),
            window: meta.window,
            pairs_found: meta.pairs_found,
            pairs_first_found: meta.pairs_first_found,
            keys,
        })
        .collect();

    Ok(Snapshot {
        records,
        passes,
        pairs,
        provenance,
        comparisons: first.comparisons,
        batches_applied: first.batches_applied,
    })
}

/// What a legacy sharded store holds: the committed checkpoint, the
/// complete scatters after it, and what reassembly had to drop.
#[derive(Debug)]
struct LegacyState {
    snapshot: Option<Snapshot>,
    batches: Vec<JournalBatch>,
    dropped_bytes: u64,
    reasons: Vec<String>,
}

/// Reads a legacy sharded store without modifying it.
fn read(dir: &Path, manifest: Manifest) -> Result<LegacyState, StoreError> {
    let shards = manifest.shards as usize;
    let shard_dir = |k: usize| dir.join(format!("shard-{k}"));
    let snapshot = if manifest.epoch > 0 {
        let mut parts = Vec::with_capacity(shards.min(64));
        for k in 0..shards {
            let path = shard_dir(k).join(format!("snapshot-{}.mps", manifest.epoch));
            let data = std::fs::read(&path).map_err(|e| {
                StoreError::Corrupt(format!(
                    "committed epoch {} is missing shard {k}'s snapshot ({e})",
                    manifest.epoch
                ))
            })?;
            parts.push(ShardSnapshot::decode(&data)?);
        }
        Some(merge_shard_snapshots(&parts)?)
    } else {
        None
    };
    let watermark = snapshot.as_ref().map_or(0, |s| s.batches_applied);

    let mut dropped_bytes = 0;
    let mut reasons = Vec::new();
    let mut recoveries = Vec::with_capacity(shards.min(64));
    for k in 0..shards {
        let data = journal::read_if_exists(&shard_dir(k).join(JOURNAL_FILE))?;
        let (mut rec, _) = Journal::scan(&data);
        if let Some(r) = &rec.truncation_reason {
            dropped_bytes += rec.truncated_bytes;
            reasons.push(format!("shard {k}: {r}"));
        }
        Journal::filter_replayable(&mut rec, watermark)?;
        recoveries.push(rec);
    }
    // A batch is complete iff every shard holds its frame: the last
    // complete sequence is the minimum of the per-shard tails.
    let last_complete = recoveries
        .iter()
        .map(|r| r.batches.last().map_or(watermark, |b| b.seq))
        .min()
        .unwrap_or(watermark);

    let mut batches: Vec<JournalBatch> = (watermark + 1..=last_complete)
        .map(|seq| JournalBatch {
            seq,
            records: Vec::new(),
            trace: None,
        })
        .collect();
    for (k, rec) in recoveries.into_iter().enumerate() {
        let orphans = rec.batches.iter().filter(|b| b.seq > last_complete).count();
        if orphans > 0 {
            let kept_end = rec
                .frame_ends
                .iter()
                .filter(|&&(s, _)| s <= last_complete)
                .map(|&(_, e)| e)
                .max();
            let end = rec.frame_ends.last().map_or(0, |&(_, e)| e);
            // No complete frame kept: the orphans start after the header.
            dropped_bytes += end - kept_end.unwrap_or(journal::HEADER_LEN as u64);
            reasons.push(format!(
                "shard {k}: dropped {orphans} orphan frame(s) of an incomplete scatter \
                 (batch never acknowledged)"
            ));
        }
        for b in rec.batches.into_iter().filter(|b| b.seq <= last_complete) {
            let slot = &mut batches[(b.seq - watermark - 1) as usize];
            slot.records.extend(b.records);
            // Every frame of a scatter journals the same trace.
            if slot.trace.is_none() {
                slot.trace = b.trace;
            }
        }
    }
    // Scattered frames carry global ids; id order is the arrival order.
    for b in &mut batches {
        b.records.sort_by_key(|r| r.id.0);
    }
    Ok(LegacyState {
        snapshot,
        batches,
        dropped_bytes,
        reasons,
    })
}

/// Bytes and reasons a conversion dropped, surfaced through the opened
/// store's journal recovery report.
#[derive(Debug, Default)]
pub(crate) struct Dropped {
    pub(crate) bytes: u64,
    pub(crate) reasons: Vec<String>,
}

/// Converts the legacy sharded store at `dir`, if there is one, into the
/// single layout, and finishes an interrupted conversion's cleanup.
///
/// 1. `journal.mpj` (the complete scatters, with their sequence numbers
///    and trace ids) and, if an epoch was committed, `snapshot.mps` are
///    each written by temp file, fsync, and rename;
/// 2. `manifest.mpm` is unlinked and the directory fsync'd — the commit;
/// 3. the `shard-*` directories are removed.
pub(crate) fn convert(dir: &Path) -> Result<Dropped, StoreError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let mut dropped = Dropped::default();
    match std::fs::read(&manifest_path) {
        Ok(data) => {
            let legacy = read(dir, decode_manifest(&data)?)?;
            commit_file(&dir.join(JOURNAL_FILE), |w| {
                Ok(journal::write_image(w, &legacy.batches)?)
            })?;
            match &legacy.snapshot {
                Some(snap) => {
                    commit_file(&dir.join(SNAPSHOT_FILE), |w| {
                        write_streamed(w, &snap.stream(), snap.records.iter().map(Ok))
                    })?;
                }
                None => match std::fs::remove_file(dir.join(SNAPSHOT_FILE)) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                    _ => {}
                },
            }
            std::fs::remove_file(&manifest_path)?;
            fsync_dir(dir)?;
            dropped = Dropped {
                bytes: legacy.dropped_bytes,
                reasons: legacy.reasons,
            };
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    let mut removed = false;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let is_shard = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .is_some_and(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()));
        if is_shard && entry.file_type()?.is_dir() {
            std::fs::remove_dir_all(entry.path())?;
            removed = true;
        }
    }
    if removed {
        fsync_dir(dir)?;
    }
    Ok(dropped)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::MatchStore;
    use mp_record::RecordId;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-legacy-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn rec(id: u32, last: &str) -> Record {
        let mut r = Record::empty(RecordId(id));
        r.last_name = last.into();
        r
    }

    /// Splits a snapshot into legacy slices: records by `id % shards`, a
    /// pair and an edge by the owner of their larger id.
    pub(crate) fn split(snap: &Snapshot, shards: usize) -> Vec<ShardSnapshot> {
        let owner = |id: u32| id as usize % shards;
        (0..shards)
            .map(|k| {
                let mine = |id: u32| owner(id) == k;
                let ids: Vec<usize> = (0..snap.records.len())
                    .filter(|&i| mine(i as u32))
                    .collect();
                ShardSnapshot {
                    shard: k as u32,
                    shards: shards as u32,
                    comparisons: snap.comparisons,
                    batches_applied: snap.batches_applied,
                    total_records: snap.records.len() as u64,
                    passes: snap
                        .passes
                        .iter()
                        .map(|p| ShardPassSlice {
                            key_name: p.key_name.clone(),
                            window: p.window,
                            pairs_found: p.pairs_found,
                            pairs_first_found: p.pairs_first_found,
                            keys: ids.iter().map(|&i| p.keys[i].clone()).collect(),
                        })
                        .collect(),
                    records: ids.iter().map(|&i| snap.records[i].clone()).collect(),
                    pairs: snap
                        .pairs
                        .iter()
                        .copied()
                        .filter(|&(_, b)| mine(b))
                        .collect(),
                    edges: snap
                        .provenance
                        .edges
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| mine(e.a.max(e.b)))
                        .map(|(i, e)| (i as u64, *e))
                        .collect(),
                    batch_traces: snap.provenance.batch_traces.clone(),
                    rule_firings: snap.provenance.rule_firings.clone(),
                }
            })
            .collect()
    }

    fn sample() -> Snapshot {
        let names = ["ADAMS", "ZHU", "BAKER", "ADAMS", "MILLER", "BAKER"];
        let records: Vec<Record> = names
            .iter()
            .enumerate()
            .map(|(i, n)| rec(i as u32, n))
            .collect();
        let mut provenance = ProvenanceLog::new();
        for (a, b, batch_seq) in [(2, 5, 1), (0, 3, 2)] {
            provenance.record_edge(MergeEdge {
                a,
                b,
                pass: 0,
                rule_id: 1,
                batch_seq,
            });
            provenance.note_firing(1);
        }
        provenance.note_batch_trace(1, "cafef00d-00000001");
        Snapshot {
            passes: vec![PassSnapshot {
                key_name: "last-name".into(),
                window: 4,
                pairs_found: 3,
                pairs_first_found: 2,
                keys: names.iter().map(|n| n.to_string()).collect(),
            }],
            records,
            pairs: vec![(0, 3), (2, 5)],
            provenance,
            comparisons: 17,
            batches_applied: 2,
        }
    }

    /// Writes a legacy store with one shard per entry of `frames`:
    /// manifest, slices of `snap` as epoch 1 (if given), and per-shard
    /// journals of `frames[k]` = `(seq, records)`.
    fn write_legacy(dir: &Path, snap: Option<&Snapshot>, frames: &[Vec<(u64, Vec<Record>)>]) {
        let shards = frames.len();
        let epoch = u64::from(snap.is_some());
        std::fs::write(
            dir.join(MANIFEST_FILE),
            encode_manifest(&Manifest {
                shards: shards as u32,
                epoch,
            }),
        )
        .unwrap();
        for (k, shard_frames) in frames.iter().enumerate() {
            let sd = dir.join(format!("shard-{k}"));
            std::fs::create_dir_all(&sd).unwrap();
            if let Some(snap) = snap {
                std::fs::write(sd.join("snapshot-1.mps"), split(snap, shards)[k].encode()).unwrap();
            }
            let batches: Vec<JournalBatch> = shard_frames
                .iter()
                .map(|(seq, records)| JournalBatch {
                    seq: *seq,
                    records: records.clone(),
                    trace: Some(format!("t-{seq}")),
                })
                .collect();
            let mut image = Vec::new();
            journal::write_image(&mut image, &batches).unwrap();
            std::fs::write(sd.join(JOURNAL_FILE), image).unwrap();
        }
    }

    #[test]
    fn split_merge_round_trip_restores_the_global_snapshot() {
        let snap = sample();
        for shards in 1..=4usize {
            let parts = split(&snap, shards);
            let decoded: Vec<ShardSnapshot> = parts
                .iter()
                .map(|p| ShardSnapshot::decode(&p.encode()).unwrap())
                .collect();
            assert_eq!(decoded, parts);
            let merged = merge_shard_snapshots(&decoded).unwrap();
            assert_eq!(merged.records, snap.records);
            assert_eq!(merged.passes, snap.passes);
            assert_eq!(merged.pairs, snap.pairs);
            assert_eq!(merged.provenance, snap.provenance, "edge order restored");
            assert_eq!(merged.comparisons, snap.comparisons);
            assert_eq!(merged.batches_applied, snap.batches_applied);
        }
    }

    #[test]
    fn merge_rejects_inconsistent_slices() {
        let parts = split(&sample(), 2);
        let mut bad = parts.clone();
        bad[1].comparisons += 1;
        assert!(merge_shard_snapshots(&bad).is_err(), "disagreeing scalar");
        let mut bad = parts.clone();
        bad[1].records.pop();
        bad[1].passes[0].keys.pop();
        assert!(merge_shard_snapshots(&bad).is_err(), "missing record");
        let mut bad = parts.clone();
        let p = bad[1].pairs[0];
        bad[0].pairs.push(p);
        assert!(merge_shard_snapshots(&bad).is_err(), "duplicate pair");
        assert!(merge_shard_snapshots(&parts[..1]).is_err(), "slice count");
    }

    #[test]
    fn conversion_keeps_complete_scatters_and_drops_orphans() {
        let dir = tmp_dir("convert");
        let snap = sample();
        // Batches 3 and 4 complete on both shards; batch 5 reached shard 0
        // only (a crash mid-scatter), so it was never acknowledged.
        let frames = vec![
            vec![(3, vec![rec(6, "A")]), (4, vec![]), (5, vec![rec(9, "Q")])],
            vec![(3, vec![rec(7, "B")]), (4, vec![rec(8, "C")])],
        ];
        write_legacy(&dir, Some(&snap), &frames);

        let (store, loaded) = MatchStore::open(&dir).unwrap();
        let got = loaded.snapshot.unwrap();
        assert_eq!(got.records, snap.records);
        assert_eq!(got.provenance, snap.provenance);
        let seqs: Vec<u64> = loaded.replayable.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(
            loaded.replayable[0].records,
            vec![rec(6, "A"), rec(7, "B")],
            "reassembled in global id order"
        );
        assert_eq!(loaded.replayable[1].trace.as_deref(), Some("t-4"));
        assert!(loaded.recovery.truncated_bytes > 0);
        assert!(
            loaded
                .recovery
                .truncation_reason
                .as_deref()
                .unwrap()
                .contains("orphan"),
            "{:?}",
            loaded.recovery.truncation_reason
        );
        assert_eq!(store.next_seq(), 5, "the orphan's sequence is reused");
        assert!(!dir.join(MANIFEST_FILE).exists());
        assert!(!dir.join("shard-0").exists() && !dir.join("shard-1").exists());
        drop(store);

        // Reopening the converted store is a plain single-layout open.
        let (_, again) = MatchStore::open(&dir).unwrap();
        assert!(!again.recovery.truncated());
        assert_eq!(again.replayable, loaded.replayable);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn conversion_without_a_committed_epoch_writes_only_the_journal() {
        let dir = tmp_dir("no-epoch");
        write_legacy(
            &dir,
            None,
            &[
                vec![(1, vec![rec(0, "A")])],
                vec![(1, vec![])],
                vec![(1, vec![rec(1, "Z")])],
            ],
        );
        // A snapshot file left behind by nothing the legacy store knows
        // of must not survive the conversion.
        std::fs::write(dir.join(SNAPSHOT_FILE), b"stale").unwrap();
        let (store, loaded) = MatchStore::open(&dir).unwrap();
        assert!(loaded.snapshot.is_none());
        assert_eq!(loaded.replayable.len(), 1);
        assert_eq!(loaded.replayable[0].records.len(), 2);
        assert_eq!(store.next_seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_manifest_is_a_hard_error_and_nothing_is_touched() {
        let dir = tmp_dir("bad-manifest");
        write_legacy(&dir, None, &[vec![], vec![]]);
        let mut m = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        m[14] ^= 0x10;
        std::fs::write(dir.join(MANIFEST_FILE), &m).unwrap();
        assert!(matches!(
            MatchStore::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        assert!(dir.join("shard-0").exists() && !dir.join(JOURNAL_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
