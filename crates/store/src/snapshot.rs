//! Versioned binary snapshot of accumulated incremental merge/purge state.
//!
//! A snapshot is a self-contained checkpoint of everything that cannot be
//! recomputed: the records seen so far, each pass's extracted keys and
//! attribution counters, the matched pair set, the merge-provenance log,
//! and the counters needed to resume cost accounting. `state = snapshot +
//! journal replayed` — see [`crate::MatchStore`].
//!
//! Derived state is not stored. A pass's sorted order is the stable
//! `(key, id)` sort of its keys, and the closure is the union of the pair
//! set (§3.3), so the engine rebuilds both on restore.
//!
//! # On-disk layout
//!
//! ```text
//! header   : magic   b"MPSTORE\0"     (8 bytes)
//!            version u32 = 3
//!            count   u32              (number of sections)
//! section* : tag     [u8; 4]          ("META" "RECS" "PASS" "PAIR" "PROV")
//!            len     u64              (payload byte length)
//!            crc     u32              (CRC-32 of payload)
//!            payload
//! ```
//!
//! Version 3 dropped each pass's sorted `order` from `PASS` and the
//! union-find `CLOS` section that version 2 carried. The decoder still
//! reads version 2: it skips the orders and ignores `CLOS` (both are
//! CRC-checked, neither is trusted). Binaries that read only version 2
//! cannot read a version 3 snapshot.
//!
//! Section CRCs are verified on load; any mismatch, unknown version, or
//! structural inconsistency (e.g. a pair referencing a record that does
//! not exist) is a [`StoreError::Corrupt`] — a damaged snapshot is
//! *reported*, never silently loaded. Unknown section tags are skipped so
//! newer writers can add sections without breaking older readers.

use crate::codec::{self, Crc32, Reader};
use crate::StoreError;
use mp_closure::ProvenanceLog;
use mp_record::Record;
use std::borrow::Borrow;
use std::io::{self, Seek, SeekFrom, Write};

const SNAPSHOT_MAGIC: &[u8; 8] = b"MPSTORE\0";
/// Snapshot format version written into the header.
pub const SNAPSHOT_VERSION: u32 = 3;
/// The previous format, still read: it also stored every pass's sorted
/// order and the union-find forest (`CLOS`).
const SNAPSHOT_VERSION_2: u32 = 2;
/// Section tags in the order [`write_streamed`] emits them.
const SECTIONS: [&[u8; 4]; 5] = [b"META", b"RECS", b"PASS", b"PAIR", b"PROV"];

/// One pass's persisted state: configuration (for validation on load),
/// attribution counters, and the extracted sort keys the restored engine
/// sorts into the pass's order.
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
}

/// A complete, loadable checkpoint of incremental merge/purge state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All records accumulated so far, ids positional.
    pub records: Vec<Record>,
    /// Per-pass keys and attribution, in pass order.
    pub passes: Vec<PassSnapshot>,
    /// Distinct matched pairs `(low, high)`, sorted ascending. Their
    /// transitive closure is the duplicate classes.
    pub pairs: Vec<(u32, u32)>,
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
    /// Borrowed view of everything but the records, for [`write_streamed`].
    pub fn stream(&self) -> SnapshotStream<'_> {
        SnapshotStream {
            n_records: self.records.len() as u64,
            passes: &self.passes,
            pairs: &self.pairs,
            provenance: &self.provenance,
            comparisons: self.comparisons,
            batches_applied: self.batches_applied,
        }
    }

    /// Serializes the snapshot into its on-disk byte representation (the
    /// bytes [`write_streamed`] writes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = io::Cursor::new(Vec::new());
        write_streamed(&mut out, &self.stream(), self.records.iter().map(Ok))
            .expect("encoding into memory cannot fail");
        out.into_inner()
    }

    /// Parses and validates a version 3 snapshot, or a version 2 one
    /// (whose pass orders and closure section are skipped).
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
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_2 {
            return Err(corrupt(format!(
                "format version {version} (this build reads {SNAPSHOT_VERSION_2} and \
                 {SNAPSHOT_VERSION})"
            )));
        }
        let v2 = version == SNAPSHOT_VERSION_2;
        let count = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;

        // Every section header takes 16 bytes, so the input bounds how
        // many the count can honestly claim.
        let mut sections: Vec<([u8; 4], &[u8])> =
            Vec::with_capacity(count.min((data.len() - 16) / 16));
        let mut off = 16usize;
        for i in 0..count {
            if data.len() - off < 16 {
                return Err(corrupt(format!("section {i}: truncated header")));
            }
            let tag: [u8; 4] = data[off..off + 4].try_into().unwrap();
            let len = u64::from_le_bytes(data[off + 4..off + 12].try_into().unwrap());
            let crc = u32::from_le_bytes(data[off + 12..off + 16].try_into().unwrap());
            off += 16;
            if ((data.len() - off) as u64) < len {
                return Err(corrupt(format!("section {i}: truncated payload")));
            }
            let payload = &data[off..off + len as usize];
            if codec::crc32(payload) != crc {
                return Err(corrupt(format!(
                    "section {:?}: CRC mismatch",
                    String::from_utf8_lossy(&tag)
                )));
            }
            sections.push((tag, payload));
            off += len as usize;
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
        // Version 2's closure is derived state: required (it is part of
        // that format) but never read. Version 3 never writes one.
        if v2 {
            find(b"CLOS")?;
        } else if find(b"CLOS").is_ok() {
            return Err(corrupt("CLOS section in a version 3 snapshot".into()));
        }

        let mut r = Reader::new(find(b"META")?);
        let (comparisons, batches_applied, n_records, n_pairs) = (|| {
            let c = r.u64()?;
            let b = r.u64()?;
            let nr = r.u64()?;
            let np = r.u64()?;
            r.finish()?;
            Ok::<_, String>((c, b, nr, np))
        })()
        .map_err(|e| corrupt(format!("META: {e}")))?;

        let mut r = Reader::new(find(b"RECS")?);
        let records = codec::take_records(&mut r)
            .and_then(|recs| r.finish().map(|()| recs))
            .map_err(|e| corrupt(format!("RECS: {e}")))?;
        if records.len() as u64 != n_records {
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
                let mut keys = Vec::with_capacity(nk.min(r.remaining() / 4));
                for _ in 0..nk {
                    keys.push(r.str()?);
                }
                if v2 {
                    let order_len = r.u32()? as usize;
                    r.skip(order_len.saturating_mul(4))?;
                }
                passes.push(PassSnapshot {
                    key_name,
                    window,
                    pairs_found,
                    pairs_first_found,
                    keys,
                });
            }
            r.finish()?;
            Ok::<_, String>(passes)
        })()
        .map_err(|e| corrupt(format!("PASS: {e}")))?;
        for (i, p) in passes.iter().enumerate() {
            if p.keys.len() != records.len() {
                return Err(corrupt(format!(
                    "pass {i}: {} keys disagree with {} records",
                    p.keys.len(),
                    records.len()
                )));
            }
        }

        let mut r = Reader::new(find(b"PAIR")?);
        let pairs = (|| {
            let n = r.u64()?;
            if n != n_pairs {
                return Err(format!("META says {n_pairs} pairs, PAIR says {n}"));
            }
            let mut pairs = Vec::with_capacity((n as usize).min(r.remaining() / 8));
            for _ in 0..n {
                pairs.push((r.u32()?, r.u32()?));
            }
            r.finish()?;
            Ok::<_, String>(pairs)
        })()
        .map_err(|e| corrupt(format!("PAIR: {e}")))?;
        if pairs
            .iter()
            .any(|&(a, b)| a >= b || b as usize >= records.len())
        {
            return Err(corrupt("PAIR: pair out of range or not (low, high)".into()));
        }
        if pairs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("PAIR: pairs not sorted and distinct".into()));
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
            comparisons,
            batches_applied,
            provenance,
        })
    }
}

/// Streaming snapshot writer: each section's header is written with a
/// 12-byte length/CRC placeholder, the payload streams through an
/// incremental [`Crc32`], and on section close the writer seeks back and
/// patches the real length and digest in. [`write_streamed`] drives it,
/// so no section is ever buffered whole.
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
    /// Pair comparisons performed.
    pub comparisons: u64,
    /// Batches the snapshot absorbs (1 for a cold bulk load).
    pub batches_applied: u64,
    /// Merge provenance log (empty for bulk loads, whose closure is
    /// rebuilt from pairs without per-merge evidence).
    pub provenance: &'a ProvenanceLog,
}

/// Writes a complete snapshot to `out` and returns its size in bytes —
/// the one encoder behind [`Snapshot::encode`] and both
/// [`crate::MatchStore`] commit paths.
///
/// `records` must yield exactly [`SnapshotStream::n_records`] records with
/// positional ids, owned or borrowed; each is encoded and released, so a
/// bulk load streaming them off its input holds one record at a time.
///
/// # Errors
///
/// Underlying I/O failure, an error from the record iterator, or
/// [`StoreError::Corrupt`] when the iterator yields a different number of
/// records than declared (the snapshot would fail its own validation on
/// load, so it is never written silently).
pub fn write_streamed<W: Write + Seek, R: Borrow<Record>>(
    out: W,
    state: &SnapshotStream<'_>,
    mut records: impl Iterator<Item = io::Result<R>>,
) -> Result<u64, StoreError> {
    let mut w = SnapshotWriter::new(out, SECTIONS.len() as u32)?;
    let mut buf = Vec::new();
    for tag in SECTIONS {
        w.begin_section(tag)?;
        buf.clear();
        match tag {
            b"META" => {
                codec::put_u64(&mut buf, state.comparisons);
                codec::put_u64(&mut buf, state.batches_applied);
                codec::put_u64(&mut buf, state.n_records);
                codec::put_u64(&mut buf, state.pairs.len() as u64);
            }
            b"RECS" => {
                codec::put_u32(&mut buf, state.n_records as u32);
                let mut yielded = 0u64;
                for record in records.by_ref() {
                    codec::put_record(&mut buf, record?.borrow());
                    yielded += 1;
                    if buf.len() >= 1 << 16 {
                        w.write(&buf)?;
                        buf.clear();
                    }
                }
                if yielded != state.n_records {
                    return Err(StoreError::Corrupt(format!(
                        "streamed snapshot: declared {} records but the source yielded {yielded}",
                        state.n_records
                    )));
                }
            }
            b"PASS" => {
                codec::put_u32(&mut buf, state.passes.len() as u32);
                for p in state.passes {
                    codec::put_str(&mut buf, &p.key_name);
                    codec::put_u32(&mut buf, p.window);
                    codec::put_u64(&mut buf, p.pairs_found);
                    codec::put_u64(&mut buf, p.pairs_first_found);
                    codec::put_u32(&mut buf, p.keys.len() as u32);
                    for k in &p.keys {
                        codec::put_str(&mut buf, k);
                        if buf.len() >= 1 << 16 {
                            w.write(&buf)?;
                            buf.clear();
                        }
                    }
                }
            }
            b"PAIR" => {
                codec::put_u64(&mut buf, state.pairs.len() as u64);
                for &(a, b) in state.pairs {
                    codec::put_u32(&mut buf, a);
                    codec::put_u32(&mut buf, b);
                }
            }
            _ => state.provenance.encode_into(&mut buf),
        }
        w.write(&buf)?;
        w.end_section()?;
    }
    let (_, total) = w.finish()?;
    Ok(total)
}

/// A version 2 encoding of `snap` — the layout binaries before version 3
/// wrote: each pass also carries its stable `(key, id)` order, and a
/// `CLOS` section (here an all-singleton forest; the decoder never reads
/// it) sits between `PAIR` and `PROV`.
#[cfg(test)]
pub(crate) fn encode_v2(snap: &Snapshot) -> Vec<u8> {
    let v3 = snap.encode();
    let mut pass = Vec::new();
    codec::put_u32(&mut pass, snap.passes.len() as u32);
    for p in &snap.passes {
        codec::put_str(&mut pass, &p.key_name);
        codec::put_u32(&mut pass, p.window);
        codec::put_u64(&mut pass, p.pairs_found);
        codec::put_u64(&mut pass, p.pairs_first_found);
        codec::put_u32(&mut pass, p.keys.len() as u32);
        for k in &p.keys {
            codec::put_str(&mut pass, k);
        }
        let mut order: Vec<u32> = (0..p.keys.len() as u32).collect();
        order.sort_by(|&a, &b| p.keys[a as usize].cmp(&p.keys[b as usize]));
        codec::put_u32(&mut pass, order.len() as u32);
        for o in order {
            codec::put_u32(&mut pass, o);
        }
    }
    let n = snap.records.len() as u32;
    let mut clos = Vec::new();
    codec::put_u32(&mut clos, n);
    for i in 0..n {
        codec::put_u32(&mut clos, i);
    }
    clos.resize(clos.len() + n as usize, 0);

    // Re-frame: v3's sections, PASS swapped and CLOS inserted.
    let mut sections: Vec<([u8; 4], Vec<u8>)> = Vec::new();
    let mut off = 16;
    while off < v3.len() {
        let tag: [u8; 4] = v3[off..off + 4].try_into().unwrap();
        let len = u64::from_le_bytes(v3[off + 4..off + 12].try_into().unwrap()) as usize;
        let payload = v3[off + 16..off + 16 + len].to_vec();
        off += 16 + len;
        match &tag {
            b"PASS" => sections.push((tag, pass.clone())),
            b"PROV" => {
                sections.push((*b"CLOS", clos.clone()));
                sections.push((tag, payload));
            }
            _ => sections.push((tag, payload)),
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION_2.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(&tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&codec::crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mp_record::RecordId;

    pub(crate) fn sample() -> Snapshot {
        let records: Vec<Record> = (0..4)
            .map(|i| {
                let mut r = Record::empty(RecordId(i));
                r.last_name = format!("L{}", 3 - i);
                r.first_name = format!("F{}", i % 2);
                r
            })
            .collect();
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
            }],
            records,
            pairs: vec![(0, 2)],
            comparisons: 6,
            batches_applied: 2,
            provenance,
        }
    }

    fn assert_same(back: &Snapshot, snap: &Snapshot) {
        assert_eq!(back.records, snap.records);
        assert_eq!(back.passes, snap.passes);
        assert_eq!(back.pairs, snap.pairs);
        assert_eq!(back.comparisons, snap.comparisons);
        assert_eq!(back.batches_applied, snap.batches_applied);
        assert_eq!(back.provenance, snap.provenance);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        assert_same(&Snapshot::decode(&snap.encode()).unwrap(), &snap);
    }

    #[test]
    fn version_2_decodes_to_the_same_state_without_trusting_orders() {
        let snap = sample();
        let v2 = encode_v2(&snap);
        assert_eq!(&v2[8..12], &2u32.to_le_bytes());
        assert_same(&Snapshot::decode(&v2).unwrap(), &snap);
        // A version 2 order is skipped, not read: one that is no
        // permutation at all (here all zeros, CRC recomputed) still loads
        // to the same state.
        let mut pass = Vec::new();
        codec::put_u32(&mut pass, 1);
        let p = &snap.passes[0];
        codec::put_str(&mut pass, &p.key_name);
        codec::put_u32(&mut pass, p.window);
        codec::put_u64(&mut pass, p.pairs_found);
        codec::put_u64(&mut pass, p.pairs_first_found);
        codec::put_u32(&mut pass, p.keys.len() as u32);
        for k in &p.keys {
            codec::put_str(&mut pass, k);
        }
        codec::put_u32(&mut pass, 4);
        pass.extend_from_slice(&[0u8; 16]);
        let tag_at = v2.windows(4).position(|t| t == b"PASS").unwrap();
        let len = u64::from_le_bytes(v2[tag_at + 4..tag_at + 12].try_into().unwrap()) as usize;
        let mut bad = v2[..tag_at + 4].to_vec();
        bad.extend_from_slice(&(pass.len() as u64).to_le_bytes());
        bad.extend_from_slice(&codec::crc32(&pass).to_le_bytes());
        bad.extend_from_slice(&pass);
        bad.extend_from_slice(&v2[tag_at + 16 + len..]);
        assert_same(&Snapshot::decode(&bad).unwrap(), &snap);
    }

    #[test]
    fn closure_section_is_required_in_v2_and_refused_in_v3() {
        let snap = sample();
        let mut v3_as_v2 = snap.encode();
        v3_as_v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = Snapshot::decode(&v3_as_v2).unwrap_err();
        assert!(err.to_string().contains("CLOS"), "{err}");
        let mut v2_as_v3 = encode_v2(&snap);
        v2_as_v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        let err = Snapshot::decode(&v2_as_v3).unwrap_err();
        assert!(err.to_string().contains("CLOS"), "{err}");
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // Every byte is either framing (validated) or inside a
        // CRC-protected payload, so no single flip decodes.
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "byte flip at {i} went undetected"
            );
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
        let mut cursor = io::Cursor::new(Vec::new());
        let total = write_streamed(
            &mut cursor,
            &snap.stream(),
            snap.records.iter().cloned().map(Ok),
        )
        .unwrap();
        let got = cursor.into_inner();
        assert_eq!(total as usize, got.len());
        assert_eq!(got, want, "streamed bytes diverge from encode()");
        assert_same(&Snapshot::decode(&got).unwrap(), &snap);
    }

    #[test]
    fn streamed_write_rejects_record_count_mismatch() {
        let snap = sample();
        let state = SnapshotStream {
            n_records: snap.records.len() as u64 + 1, // lie
            ..snap.stream()
        };
        let mut cursor = io::Cursor::new(Vec::new());
        let err = write_streamed(&mut cursor, &state, snap.records.iter().map(Ok)).unwrap_err();
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
