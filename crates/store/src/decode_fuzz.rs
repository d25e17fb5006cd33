//! Deterministic decoder fuzzing for every format the store reads:
//! snapshots (version 3 and version 2), the legacy sharded store's
//! manifest, and its shard snapshot slices.
//!
//! For generated valid encodings, every truncation and every single-bit
//! flip must decode to `Err` — never a panic, never a wrong value — and
//! the decoder may allocate at most a constant multiple of the input it
//! was given (length fields are untrusted). A version 3 encoding must
//! decode back to the snapshot it came from and re-encode to the same
//! bytes.
//!
//! The allocation bound is measured with a counting global allocator
//! that charges each thread for the bytes it allocates, so concurrently
//! running tests do not disturb the figure.

use crate::legacy::{decode_manifest, encode_manifest, tests::split, Manifest, ShardSnapshot};
use crate::snapshot::{encode_v2, PassSnapshot, Snapshot};
use mp_closure::{MergeEdge, ProvenanceLog};
use mp_record::{Record, RecordId};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only counts requested sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes a decoder may allocate for an input of `len` bytes: decoded
/// structs are wider than their encodings (an in-memory record takes
/// about six times its minimal 45 encoded bytes, a key string six times
/// its 4-byte length prefix), plus slack for error messages.
fn allocation_bound(len: usize) -> u64 {
    16 * len as u64 + 4096
}

/// Runs `decode` on `input`, checking its allocation bound, and returns
/// whether it succeeded.
fn decodes<T, E>(input: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) -> bool {
    let before = ALLOCATED.with(Cell::get);
    let ok = decode(input).is_ok();
    let spent = ALLOCATED.with(Cell::get) - before;
    assert!(
        spent <= allocation_bound(input.len()),
        "decoding {} bytes allocated {spent}",
        input.len()
    );
    ok
}

/// Every strict prefix and every single-bit flip of `valid` fails.
fn mutations_fail<T, E>(valid: &[u8], decode: impl Fn(&[u8]) -> Result<T, E>) {
    assert!(decodes(valid, &decode), "the valid encoding must decode");
    for cut in 0..valid.len() {
        assert!(
            !decodes(&valid[..cut], &decode),
            "truncation to {cut} of {} bytes decoded",
            valid.len()
        );
    }
    let mut bad = valid.to_vec();
    for i in 0..valid.len() {
        for bit in 0..8 {
            bad[i] ^= 1 << bit;
            assert!(
                !decodes(&bad, &decode),
                "flip of bit {bit} in byte {i} decoded"
            );
            bad[i] ^= 1 << bit;
        }
    }
}

/// A small, structurally valid snapshot from generated raw material.
fn snapshot(
    n: usize,
    names: &[String],
    raw_pairs: &[(u32, u32)],
    passes: usize,
    batches_applied: u64,
) -> Snapshot {
    let name = |i: usize| {
        names
            .get(i % names.len().max(1))
            .cloned()
            .unwrap_or_default()
    };
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let mut r = Record::empty(RecordId(i as u32));
            r.last_name = name(i);
            r.first_name = name(i + 1);
            r.entity = (i % 2 == 0).then_some(mp_record::EntityId(i as u32));
            r
        })
        .collect();
    let mut pairs: Vec<(u32, u32)> = raw_pairs
        .iter()
        .filter_map(|&(a, b)| {
            let (a, b) = (a % n.max(1) as u32, b % n.max(1) as u32);
            (a != b).then(|| (a.min(b), a.max(b)))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut provenance = ProvenanceLog::new();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        provenance.record_edge(MergeEdge {
            a,
            b,
            pass: 0,
            rule_id: i as u32 % 3,
            batch_seq: 1 + i as u64 % batches_applied,
        });
        provenance.note_firing(i as u32 % 3);
    }
    provenance.note_batch_trace(batches_applied, "0000beef-00000001");
    Snapshot {
        passes: (0..passes)
            .map(|p| PassSnapshot {
                key_name: format!("key-{p}"),
                window: 4 + p as u32,
                pairs_found: pairs.len() as u64 + p as u64,
                pairs_first_found: pairs.len() as u64,
                keys: records
                    .iter()
                    .map(|r| r.last_name[..r.last_name.len().min(2)].to_string())
                    .collect(),
            })
            .collect(),
        records,
        pairs,
        comparisons: 40 + n as u64,
        batches_applied,
        provenance,
    }
}

proptest! {
    #[test]
    fn snapshot_decoders_reject_every_truncation_and_bit_flip(
        n in 0usize..4,
        names in proptest::collection::vec("[A-Z]{0,3}", 1..4),
        raw_pairs in proptest::collection::vec((0u32..4, 0u32..4), 0..4),
        passes in 0usize..3,
        batches_applied in 1u64..4,
    ) {
        let snap = snapshot(n, &names, &raw_pairs, passes, batches_applied);
        let v3 = snap.encode();
        let back = Snapshot::decode(&v3).unwrap();
        prop_assert_eq!(&back.records, &snap.records);
        prop_assert_eq!(&back.passes, &snap.passes);
        prop_assert_eq!(&back.pairs, &snap.pairs);
        prop_assert_eq!(&back.provenance, &snap.provenance);
        prop_assert_eq!(
            (back.comparisons, back.batches_applied),
            (snap.comparisons, snap.batches_applied)
        );
        prop_assert_eq!(back.encode(), v3, "encode . decode is the identity");
        mutations_fail(&v3, Snapshot::decode);

        let v2 = encode_v2(&snap);
        prop_assert_eq!(Snapshot::decode(&v2).unwrap().encode(), v3.clone());
        mutations_fail(&v2, Snapshot::decode);
    }

    #[test]
    fn legacy_decoders_reject_every_truncation_and_bit_flip(
        n in 0usize..4,
        names in proptest::collection::vec("[A-Z]{0,3}", 1..4),
        raw_pairs in proptest::collection::vec((0u32..4, 0u32..4), 0..4),
        shards in 1usize..4,
        epoch in 0u64..1000,
    ) {
        let manifest = encode_manifest(&Manifest { shards: shards as u32, epoch });
        prop_assert_eq!(
            decode_manifest(&manifest).unwrap(),
            Manifest { shards: shards as u32, epoch }
        );
        mutations_fail(&manifest, decode_manifest);

        let snap = snapshot(n, &names, &raw_pairs, 1, 2);
        for part in split(&snap, shards) {
            let bytes = part.encode();
            prop_assert_eq!(ShardSnapshot::decode(&bytes).unwrap(), part);
            mutations_fail(&bytes, ShardSnapshot::decode);
        }
    }
}

#[test]
fn huge_declared_counts_allocate_nothing_like_what_they_claim() {
    // A valid frame whose record count claims 2^32 - 1 records, each of
    // which would need ~256 bytes in memory.
    let mut snap = snapshot(1, &["A".into()], &[], 1, 1).encode();
    let before = ALLOCATED.with(Cell::get);
    Snapshot::decode(&snap).unwrap();
    assert!(
        ALLOCATED.with(Cell::get) > before,
        "the counting allocator is live"
    );
    let tag = snap.windows(4).position(|t| t == b"RECS").unwrap();
    let len = u64::from_le_bytes(snap[tag + 4..tag + 12].try_into().unwrap()) as usize;
    let payload = tag + 16;
    snap[payload..payload + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crate::codec::crc32(&snap[payload..payload + len]);
    snap[tag + 12..tag + 16].copy_from_slice(&crc.to_le_bytes());
    assert!(!decodes(&snap, Snapshot::decode));
}
