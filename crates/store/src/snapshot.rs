//! Versioned binary snapshot of accumulated incremental merge/purge state.
//!
//! A snapshot is a self-contained checkpoint: the records seen so far, each
//! pass's sorted key index, the matched pair set with per-pass attribution,
//! the union-find closure forest, and the counters needed to resume cost
//! accounting. `state = snapshot + journal replayed` — see
//! [`crate::MatchStore`].
//!
//! # On-disk layout
//!
//! ```text
//! header   : magic   b"MPSTORE\0"     (8 bytes)
//!            version u32 = 2
//!            count   u32              (number of sections)
//! section* : tag     [u8; 4]          ("META" "RECS" "PASS" "PAIR" "CLOS" "PROV")
//!            len     u64              (payload byte length)
//!            crc     u32              (CRC-32 of payload)
//!            payload
//! ```
//!
//! Version 2 added the `PROV` section: the merge-provenance log
//! ([`mp_closure::ProvenanceLog`]) — spanning-forest edges, per-batch
//! trace ids, and per-rule firing counts — so the evidence behind every
//! merge survives checkpoints.
//!
//! Section CRCs are verified on load; any mismatch, unknown version, or
//! structural inconsistency (e.g. a pass index referencing a record that
//! does not exist) is a [`StoreError::Corrupt`] — a damaged snapshot is
//! *reported*, never silently loaded. Unknown section tags are skipped so
//! newer writers can add sections without breaking older readers.

use crate::codec::{self, Crc32, Reader};
use crate::StoreError;
use mp_closure::{ProvenanceLog, UnionFind};
use mp_record::Record;
use std::io::{self, Seek, SeekFrom, Write};

const SNAPSHOT_MAGIC: &[u8; 8] = b"MPSTORE\0";
/// Snapshot format version written into the header.
pub const SNAPSHOT_VERSION: u32 = 2;

/// One pass's persisted state: configuration (for validation on load),
/// attribution counters, and the sorted key index that lets the next batch
/// of B records splice in with O(B log B + B log N) key comparisons and one
/// O(N) `u32` memmove instead of a full resort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassSnapshot {
    /// Display name of the pass's key (`KeySpec::name` in the core crate);
    /// checked against the runtime configuration on load.
    pub key_name: String,
    /// Window size of the pass.
    pub window: u32,
    /// Matching pairs this pass's scans emitted (cumulative, incl. pairs
    /// other passes also found).
    pub pairs_found: u64,
    /// Of those, pairs no earlier scan of any pass had already recorded.
    pub pairs_first_found: u64,
    /// Extracted sort key per record, indexed by record id.
    pub keys: Vec<String>,
    /// Record ids in sorted key order (stable: ties keep smaller id first).
    pub order: Vec<u32>,
}

/// A complete, loadable checkpoint of incremental merge/purge state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All records accumulated so far, ids positional.
    pub records: Vec<Record>,
    /// Per-pass sorted key indexes and attribution, in pass order.
    pub passes: Vec<PassSnapshot>,
    /// Distinct matched pairs, sorted ascending.
    pub pairs: Vec<(u32, u32)>,
    /// Union-find closure over `0..records.len()`.
    pub closure: UnionFind,
    /// Pair comparisons performed across all absorbed batches.
    pub comparisons: u64,
    /// Number of batches this snapshot has absorbed; journal frames with
    /// `seq <= batches_applied` are skipped on replay.
    pub batches_applied: u64,
    /// Merge provenance: spanning-forest edges, batch trace ids, and
    /// per-rule firing counts. Empty for states whose closure predates
    /// the log (e.g. cold bulk loads, which union pairs without per-merge
    /// evidence).
    pub provenance: ProvenanceLog,
}

impl Snapshot {
    /// Serializes the snapshot into its on-disk byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        codec::put_u64(&mut meta, self.comparisons);
        codec::put_u64(&mut meta, self.batches_applied);
        codec::put_u64(&mut meta, self.records.len() as u64);
        codec::put_u64(&mut meta, self.pairs.len() as u64);

        let mut recs = Vec::new();
        codec::put_records(&mut recs, &self.records);

        let mut pass = Vec::new();
        codec::put_u32(&mut pass, self.passes.len() as u32);
        for p in &self.passes {
            codec::put_str(&mut pass, &p.key_name);
            codec::put_u32(&mut pass, p.window);
            codec::put_u64(&mut pass, p.pairs_found);
            codec::put_u64(&mut pass, p.pairs_first_found);
            codec::put_u32(&mut pass, p.keys.len() as u32);
            for k in &p.keys {
                codec::put_str(&mut pass, k);
            }
            codec::put_u32(&mut pass, p.order.len() as u32);
            for &o in &p.order {
                codec::put_u32(&mut pass, o);
            }
        }

        let mut pair = Vec::new();
        codec::put_u64(&mut pair, self.pairs.len() as u64);
        for &(a, b) in &self.pairs {
            codec::put_u32(&mut pair, a);
            codec::put_u32(&mut pair, b);
        }

        let mut clos = Vec::new();
        self.closure.encode_into(&mut clos);

        let mut prov = Vec::new();
        self.provenance.encode_into(&mut prov);

        let sections: [(&[u8; 4], Vec<u8>); 6] = [
            (b"META", meta),
            (b"RECS", recs),
            (b"PASS", pass),
            (b"PAIR", pair),
            (b"CLOS", clos),
            (b"PROV", prov),
        ];
        let total: usize = sections.iter().map(|(_, p)| p.len() + 16).sum();
        let mut out = Vec::with_capacity(16 + total);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        for (tag, payload) in sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Parses and validates a snapshot produced by [`Snapshot::encode`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on a bad magic/version, a section CRC
    /// mismatch, or any structural inconsistency.
    pub fn decode(data: &[u8]) -> Result<Snapshot, StoreError> {
        let corrupt = |msg: String| StoreError::Corrupt(format!("snapshot: {msg}"));
        if data.len() < 16 {
            return Err(corrupt(format!("file too short ({} bytes)", data.len())));
        }
        if &data[..8] != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!(
                "format version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let count = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;

        // Every section header takes 16 bytes, so the input bounds how
        // many the count can honestly claim.
        let mut sections: Vec<([u8; 4], &[u8])> =
            Vec::with_capacity(count.min((data.len() - 16) / 16));
        let mut off = 16usize;
        for i in 0..count {
            if data.len() < off + 16 {
                return Err(corrupt(format!("section {i}: truncated header")));
            }
            let tag: [u8; 4] = data[off..off + 4].try_into().unwrap();
            let len = u64::from_le_bytes(data[off + 4..off + 12].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(data[off + 12..off + 16].try_into().unwrap());
            off += 16;
            if data.len() < off + len {
                return Err(corrupt(format!("section {i}: truncated payload")));
            }
            let payload = &data[off..off + len];
            if codec::crc32(payload) != crc {
                return Err(corrupt(format!(
                    "section {:?}: CRC mismatch",
                    String::from_utf8_lossy(&tag)
                )));
            }
            sections.push((tag, payload));
            off += len;
        }
        if off != data.len() {
            return Err(corrupt(format!("{} trailing bytes", data.len() - off)));
        }
        let find = |tag: &[u8; 4]| -> Result<&[u8], StoreError> {
            sections
                .iter()
                .find(|(t, _)| t == tag)
                .map(|(_, p)| *p)
                .ok_or_else(|| {
                    corrupt(format!(
                        "missing section {:?}",
                        String::from_utf8_lossy(tag)
                    ))
                })
        };

        let mut r = Reader::new(find(b"META")?);
        let (comparisons, batches_applied, n_records, n_pairs) = (|| {
            let c = r.u64()?;
            let b = r.u64()?;
            let nr = r.u64()?;
            let np = r.u64()?;
            r.finish()?;
            Ok::<_, String>((c, b, nr as usize, np as usize))
        })()
        .map_err(|e| corrupt(format!("META: {e}")))?;

        let mut r = Reader::new(find(b"RECS")?);
        let records = codec::take_records(&mut r)
            .and_then(|recs| r.finish().map(|()| recs))
            .map_err(|e| corrupt(format!("RECS: {e}")))?;
        if records.len() != n_records {
            return Err(corrupt(format!(
                "META says {n_records} records, RECS holds {}",
                records.len()
            )));
        }

        let mut r = Reader::new(find(b"PASS")?);
        let passes = (|| {
            let np = r.u32()? as usize;
            let mut passes = Vec::with_capacity(np.min(64));
            for _ in 0..np {
                let key_name = r.str()?;
                let window = r.u32()?;
                let pairs_found = r.u64()?;
                let pairs_first_found = r.u64()?;
                let nk = r.u32()? as usize;
                let mut keys = Vec::with_capacity(nk.min(r.remaining()));
                for _ in 0..nk {
                    keys.push(r.str()?);
                }
                let no = r.u32()? as usize;
                let mut order = Vec::with_capacity(no.min(r.remaining() / 4 + 1));
                for _ in 0..no {
                    order.push(r.u32()?);
                }
                passes.push(PassSnapshot {
                    key_name,
                    window,
                    pairs_found,
                    pairs_first_found,
                    keys,
                    order,
                });
            }
            r.finish()?;
            Ok::<_, String>(passes)
        })()
        .map_err(|e| corrupt(format!("PASS: {e}")))?;
        for (i, p) in passes.iter().enumerate() {
            if p.keys.len() != records.len() || p.order.len() != records.len() {
                return Err(corrupt(format!(
                    "pass {i}: index sizes ({} keys, {} order) disagree with {} records",
                    p.keys.len(),
                    p.order.len(),
                    records.len()
                )));
            }
            if p.order.iter().any(|&o| o as usize >= records.len()) {
                return Err(corrupt(format!("pass {i}: order entry out of range")));
            }
        }

        let mut r = Reader::new(find(b"PAIR")?);
        let pairs = (|| {
            let n = r.u64()? as usize;
            let mut pairs = Vec::with_capacity(n.min(r.remaining() / 8 + 1));
            for _ in 0..n {
                pairs.push((r.u32()?, r.u32()?));
            }
            r.finish()?;
            Ok::<_, String>(pairs)
        })()
        .map_err(|e| corrupt(format!("PAIR: {e}")))?;
        if pairs.len() != n_pairs {
            return Err(corrupt(format!(
                "META says {n_pairs} pairs, PAIR holds {}",
                pairs.len()
            )));
        }
        if pairs
            .iter()
            .any(|&(a, b)| a >= b || b as usize >= records.len())
        {
            return Err(corrupt("PAIR: pair out of range or not (low, high)".into()));
        }

        let closure =
            UnionFind::decode(find(b"CLOS")?).map_err(|e| corrupt(format!("CLOS: {e}")))?;
        if closure.len() != records.len() {
            return Err(corrupt(format!(
                "closure covers {} elements but there are {} records",
                closure.len(),
                records.len()
            )));
        }

        let provenance =
            ProvenanceLog::decode(find(b"PROV")?).map_err(|e| corrupt(format!("PROV: {e}")))?;
        for (i, e) in provenance.edges.iter().enumerate() {
            if e.a as usize >= records.len() || e.b as usize >= records.len() {
                return Err(corrupt(format!("PROV: edge {i} references missing record")));
            }
            if e.batch_seq == 0 || e.batch_seq > batches_applied {
                return Err(corrupt(format!(
                    "PROV: edge {i} from batch {} outside 1..={batches_applied}",
                    e.batch_seq
                )));
            }
        }

        Ok(Snapshot {
            records,
            passes,
            pairs,
            closure,
            comparisons,
            batches_applied,
            provenance,
        })
    }
}

/// Streaming writer producing byte-identical output to
/// [`Snapshot::encode`] without buffering whole sections.
///
/// [`Snapshot::encode`] builds every section in memory — fine for
/// checkpoints of a running daemon (the records are resident anyway), but
/// wrong for the bulk-load path, where the whole point is never holding
/// 10M records at once. The writer streams instead: each section's header
/// is written with a 12-byte length/CRC placeholder, the payload streams
/// through an incremental [`Crc32`], and on section close the writer seeks
/// back and patches the real length and digest in. Readers cannot tell the
/// difference (a test enforces bit-identity with `encode`).
///
/// Sections must be written in the same order `encode` emits them
/// (`META`, `RECS`, `PASS`, `PAIR`, `CLOS`, `PROV`) for the outputs to be
/// identical; the writer itself only enforces the declared section count.
pub struct SnapshotWriter<W: Write + Seek> {
    out: W,
    declared: u32,
    written: u32,
    current: Option<OpenSection>,
}

struct OpenSection {
    /// Stream offset of the 12-byte len+crc placeholder.
    patch_at: u64,
    len: u64,
    crc: Crc32,
}

impl<W: Write + Seek> SnapshotWriter<W> {
    /// Writes the snapshot header and prepares for `sections` sections.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    pub fn new(mut out: W, sections: u32) -> io::Result<Self> {
        out.write_all(SNAPSHOT_MAGIC)?;
        out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        out.write_all(&sections.to_le_bytes())?;
        Ok(SnapshotWriter {
            out,
            declared: sections,
            written: 0,
            current: None,
        })
    }

    /// Opens a section: writes the tag and reserves the length/CRC slots.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when a section is already open or all declared sections have
    /// been written.
    pub fn begin_section(&mut self, tag: &[u8; 4]) -> io::Result<()> {
        assert!(self.current.is_none(), "close the previous section first");
        assert!(
            self.written < self.declared,
            "all {} declared sections already written",
            self.declared
        );
        self.out.write_all(tag)?;
        let patch_at = self.out.stream_position()?;
        self.out.write_all(&[0u8; 12])?; // len u64 + crc u32, patched later
        self.current = Some(OpenSection {
            patch_at,
            len: 0,
            crc: Crc32::new(),
        });
        Ok(())
    }

    /// Appends payload bytes to the open section.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when no section is open.
    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let sec = self.current.as_mut().expect("no open section");
        sec.crc.update(bytes);
        sec.len += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    /// Closes the open section, seeking back to patch its length and CRC.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when no section is open.
    pub fn end_section(&mut self) -> io::Result<()> {
        let sec = self.current.take().expect("no open section");
        let end = self.out.stream_position()?;
        self.out.seek(SeekFrom::Start(sec.patch_at))?;
        self.out.write_all(&sec.len.to_le_bytes())?;
        self.out.write_all(&sec.crc.finalize().to_le_bytes())?;
        self.out.seek(SeekFrom::Start(end))?;
        self.written += 1;
        Ok(())
    }

    /// Flushes and returns the underlying writer and total bytes written.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure.
    ///
    /// # Panics
    ///
    /// Panics when a section is still open or fewer sections than declared
    /// were written.
    pub fn finish(mut self) -> io::Result<(W, u64)> {
        assert!(self.current.is_none(), "close the open section first");
        assert_eq!(
            self.written, self.declared,
            "declared {} sections but wrote {}",
            self.declared, self.written
        );
        self.out.flush()?;
        let total = self.out.stream_position()?;
        Ok((self.out, total))
    }
}

/// Borrowed view of everything a snapshot stores *except* the records,
/// which [`write_streamed`] pulls from an iterator so a bulk load never
/// materializes them.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStream<'a> {
    /// Number of records the iterator will yield (ids `0..n_records`).
    pub n_records: u64,
    /// Per-pass state, in pass order.
    pub passes: &'a [PassSnapshot],
    /// Distinct matched pairs, sorted ascending.
    pub pairs: &'a [(u32, u32)],
    /// Union-find closure over `0..n_records`.
    pub closure: &'a UnionFind,
    /// Pair comparisons performed.
    pub comparisons: u64,
    /// Batches the snapshot absorbs (1 for a cold bulk load).
    pub batches_applied: u64,
    /// Merge provenance log (empty for bulk loads, whose closure is
    /// rebuilt from pairs without per-merge evidence).
    pub provenance: &'a ProvenanceLog,
}

/// Streams a complete snapshot to `out`, byte-identical to
/// [`Snapshot::encode`] on the equivalent in-memory state.
///
/// `records` must yield exactly [`SnapshotStream::n_records`] records with
/// positional ids; each is encoded and dropped, so peak memory is one
/// record regardless of database size.
///
/// # Errors
///
/// Underlying I/O failure, an error from the record iterator, or
/// [`StoreError::Corrupt`] when the iterator yields a different number of
/// records than declared (the snapshot would fail its own validation on
/// load, so it is never written silently).
pub fn write_streamed<W: Write + Seek>(
    out: W,
    state: &SnapshotStream<'_>,
    records: impl Iterator<Item = io::Result<Record>>,
) -> Result<u64, StoreError> {
    let mut w = SnapshotWriter::new(out, 6)?;
    let mut buf = Vec::new();

    w.begin_section(b"META")?;
    codec::put_u64(&mut buf, state.comparisons);
    codec::put_u64(&mut buf, state.batches_applied);
    codec::put_u64(&mut buf, state.n_records);
    codec::put_u64(&mut buf, state.pairs.len() as u64);
    w.write(&buf)?;
    w.end_section()?;

    w.begin_section(b"RECS")?;
    buf.clear();
    codec::put_u32(&mut buf, state.n_records as u32);
    w.write(&buf)?;
    let mut yielded = 0u64;
    for record in records {
        buf.clear();
        codec::put_record(&mut buf, &record?);
        w.write(&buf)?;
        yielded += 1;
    }
    if yielded != state.n_records {
        return Err(StoreError::Corrupt(format!(
            "streamed snapshot: declared {} records but the source yielded {yielded}",
            state.n_records
        )));
    }
    w.end_section()?;

    w.begin_section(b"PASS")?;
    buf.clear();
    codec::put_u32(&mut buf, state.passes.len() as u32);
    w.write(&buf)?;
    for p in state.passes {
        buf.clear();
        codec::put_str(&mut buf, &p.key_name);
        codec::put_u32(&mut buf, p.window);
        codec::put_u64(&mut buf, p.pairs_found);
        codec::put_u64(&mut buf, p.pairs_first_found);
        codec::put_u32(&mut buf, p.keys.len() as u32);
        w.write(&buf)?;
        for k in &p.keys {
            buf.clear();
            codec::put_str(&mut buf, k);
            w.write(&buf)?;
        }
        buf.clear();
        codec::put_u32(&mut buf, p.order.len() as u32);
        for &o in &p.order {
            codec::put_u32(&mut buf, o);
        }
        w.write(&buf)?;
    }
    w.end_section()?;

    w.begin_section(b"PAIR")?;
    buf.clear();
    codec::put_u64(&mut buf, state.pairs.len() as u64);
    for &(a, b) in state.pairs {
        codec::put_u32(&mut buf, a);
        codec::put_u32(&mut buf, b);
    }
    w.write(&buf)?;
    w.end_section()?;

    w.begin_section(b"CLOS")?;
    buf.clear();
    state.closure.encode_into(&mut buf);
    w.write(&buf)?;
    w.end_section()?;

    w.begin_section(b"PROV")?;
    buf.clear();
    state.provenance.encode_into(&mut buf);
    w.write(&buf)?;
    w.end_section()?;

    let (_, total) = w.finish()?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_record::RecordId;

    fn sample() -> Snapshot {
        let records: Vec<Record> = (0..4)
            .map(|i| {
                let mut r = Record::empty(RecordId(i));
                r.last_name = format!("L{i}");
                r.first_name = format!("F{}", i % 2);
                r
            })
            .collect();
        let mut closure = UnionFind::new(4);
        closure.union(0, 2);
        let mut provenance = ProvenanceLog::new();
        provenance.record_edge(mp_closure::MergeEdge {
            a: 0,
            b: 2,
            pass: 0,
            rule_id: 1,
            batch_seq: 1,
        });
        provenance.note_batch_trace(1, "cafef00d-00000001");
        provenance.note_firing(1);
        Snapshot {
            passes: vec![PassSnapshot {
                key_name: "last-name".into(),
                window: 4,
                pairs_found: 1,
                pairs_first_found: 1,
                keys: records.iter().map(|r| r.last_name.clone()).collect(),
                order: vec![0, 1, 2, 3],
            }],
            records,
            pairs: vec![(0, 2)],
            closure,
            comparisons: 6,
            batches_applied: 2,
            provenance,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.records, snap.records);
        assert_eq!(back.passes, snap.passes);
        assert_eq!(back.pairs, snap.pairs);
        assert_eq!(back.comparisons, 6);
        assert_eq!(back.batches_applied, 2);
        assert_eq!(back.closure.clone().classes(), vec![vec![0, 2]]);
        assert_eq!(back.provenance, snap.provenance);
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // Flip each byte of the encoding in turn: decode must never
        // succeed with silently wrong content — either it errors (CRC or
        // structure) or, for bytes outside any checksummed payload
        // (header/section framing), it still errors because framing is
        // validated.
        let snap = sample();
        let bytes = snap.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            if let Ok(decoded) = Snapshot::decode(&bad) {
                // The only way a flip can decode is if it flipped something
                // and flipped it back to equivalent content — impossible
                // with a single XOR, so reaching here is a real failure.
                assert_eq!(
                    (decoded.records, decoded.pairs),
                    (snap.records.clone(), snap.pairs.clone()),
                    "byte {i} flipped yet decode succeeded with different content"
                );
                panic!("byte flip at {i} went undetected");
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in [0, 3, 15, 16, 40, bytes.len() - 1] {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn streamed_write_is_byte_identical_to_encode() {
        let snap = sample();
        let want = snap.encode();
        let state = SnapshotStream {
            n_records: snap.records.len() as u64,
            passes: &snap.passes,
            pairs: &snap.pairs,
            closure: &snap.closure,
            comparisons: snap.comparisons,
            batches_applied: snap.batches_applied,
            provenance: &snap.provenance,
        };
        let mut cursor = io::Cursor::new(Vec::new());
        let total =
            write_streamed(&mut cursor, &state, snap.records.iter().cloned().map(Ok)).unwrap();
        let got = cursor.into_inner();
        assert_eq!(total as usize, got.len());
        assert_eq!(got, want, "streamed bytes diverge from encode()");
        // And it round-trips through the validating decoder.
        let back = Snapshot::decode(&got).unwrap();
        assert_eq!(back.records, snap.records);
        assert_eq!(back.passes, snap.passes);
    }

    #[test]
    fn streamed_write_rejects_record_count_mismatch() {
        let snap = sample();
        let state = SnapshotStream {
            n_records: snap.records.len() as u64 + 1, // lie
            passes: &snap.passes,
            pairs: &snap.pairs,
            closure: &snap.closure,
            comparisons: snap.comparisons,
            batches_applied: snap.batches_applied,
            provenance: &snap.provenance,
        };
        let mut cursor = io::Cursor::new(Vec::new());
        let err =
            write_streamed(&mut cursor, &state, snap.records.iter().cloned().map(Ok)).unwrap_err();
        assert!(err.to_string().contains("yielded"), "{err}");
    }

    #[test]
    fn huge_section_count_is_corrupt_not_an_allocation_abort() {
        // A 36-byte file whose header claims 2^32 - 1 sections.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.resize(36, 0);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample().encode();
        bytes[8] = 99;
        let err = Snapshot::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
