//! Little-endian binary primitives shared by the snapshot and journal
//! encoders.
//!
//! Everything the store writes is built from four shapes: `u32`, `u64`,
//! length-prefixed UTF-8 strings, and length-prefixed byte blobs. The
//! [`Reader`] is bounds-checked on every read and never panics on corrupt
//! input — decode errors surface as `Err(String)` that the store wraps in
//! [`crate::StoreError::Corrupt`].

use mp_record::{EntityId, Record, RecordId};

/// Appends a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string as `u32` byte length + UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked sequential reader over an encoded byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "unexpected end of data: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Skips `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), String> {
        self.take(n).map(|_| ())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    /// Fails unless every byte has been consumed — encoders write exact
    /// payloads, so trailing garbage means corruption.
    pub fn finish(self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{} trailing bytes after payload", self.remaining()));
        }
        Ok(())
    }
}

/// Appends one record: id, optional entity, then the ten data fields in
/// [`mp_record::Field::ALL`] order.
pub fn put_record(out: &mut Vec<u8>, r: &Record) {
    put_u32(out, r.id.0);
    match r.entity {
        Some(EntityId(e)) => {
            out.push(1);
            put_u32(out, e);
        }
        None => out.push(0),
    }
    for f in mp_record::Field::ALL {
        put_str(out, r.field(f));
    }
}

/// Reads one record written by [`put_record`].
pub fn take_record(r: &mut Reader<'_>) -> Result<Record, String> {
    let id = RecordId(r.u32()?);
    let entity = match r.take(1)?[0] {
        0 => None,
        1 => Some(EntityId(r.u32()?)),
        other => return Err(format!("invalid entity flag {other}")),
    };
    let mut rec = Record::empty(id);
    rec.entity = entity;
    for f in mp_record::Field::ALL {
        *rec.field_mut(f) = r.str()?;
    }
    Ok(rec)
}

/// Appends a batch as `u32` count + records.
pub fn put_records(out: &mut Vec<u8>, records: &[Record]) {
    put_u32(out, records.len() as u32);
    for rec in records {
        put_record(out, rec);
    }
}

/// Reads a batch written by [`put_records`].
pub fn take_records(r: &mut Reader<'_>) -> Result<Vec<Record>, String> {
    let n = r.u32()? as usize;
    // Cap the pre-allocation: `n` is attacker/corruption-controlled, and
    // an encoded record takes at least 45 bytes (id, entity flag, ten
    // string lengths).
    let mut out = Vec::with_capacity(n.min(r.remaining() / 45));
    for _ in 0..n {
        out.push(take_record(r)?);
    }
    Ok(out)
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.
///
/// Every snapshot section and journal frame carries the CRC of its payload;
/// a mismatch on load is treated as corruption, never silently accepted.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 over a byte stream; feeding chunks through
/// [`Crc32::update`] yields the same digest [`crc32`] computes over their
/// concatenation, so streamed writers (the bulk-load snapshot path) can
/// checksum payloads they never hold in one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    crc: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { crc: 0xFFFF_FFFF }
    }

    /// Folds `data` into the running digest.
    pub fn update(&mut self, data: &[u8]) {
        const TABLE: [u32; 256] = crc32_table();
        for &b in data {
            self.crc = (self.crc >> 8) ^ TABLE[((self.crc ^ b as u32) & 0xFF) as usize];
        }
    }

    /// The digest of everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.crc
    }
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn incremental_crc_matches_one_shot_for_any_chunking() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let want = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 999, 1000] {
            let mut h = Crc32::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), want, "chunk size {chunk}");
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_str(&mut buf, "HERNANDEZ");
        put_str(&mut buf, "");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.str().unwrap(), "HERNANDEZ");
        assert_eq!(r.str().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn record_roundtrip_with_and_without_entity() {
        let mut a = Record::empty(RecordId(42));
        a.entity = Some(EntityId(7));
        a.first_name = "MAURICIO".into();
        a.last_name = "HERNANDEZ".into();
        a.zip = "10027".into();
        let b = Record::empty(RecordId(0));
        let mut buf = Vec::new();
        put_records(&mut buf, &[a.clone(), b.clone()]);
        let mut r = Reader::new(&buf);
        assert_eq!(take_records(&mut r).unwrap(), vec![a, b]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_trailing_garbage() {
        let mut buf = Vec::new();
        put_str(&mut buf, "STOLFO");
        assert!(Reader::new(&buf[..buf.len() - 1]).str().is_err());
        buf.push(0xAA);
        let mut r = Reader::new(&buf);
        r.str().unwrap();
        assert!(r.finish().is_err());
    }
}
