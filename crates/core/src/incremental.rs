//! Incremental merge/purge for the paper's monthly business cycle.
//!
//! §1 motivates merge/purge with a recurring workload: "It is not uncommon
//! for large businesses to acquire scores of databases each month ... that
//! need to be analyzed within a few days." Rerunning the full multi-pass
//! process over the ever-growing base each month wastes almost all of its
//! comparisons on old-vs-old pairs that previous cycles already decided.
//!
//! [`IncrementalMergePurge`] keeps, per pass, the sorted key order of the
//! records seen so far. A new batch of B records is key-extracted, sorted,
//! and *spliced* into each pass's order of N records by binary search, and
//! the window scan visits only the positions within a window of a new
//! record. Per pass that costs O(B log B + B log N) key comparisons,
//! O(B·w) window positions, and one O(N) `u32` memmove — instead of a full
//! resort, or a walk of the whole order.
//!
//! **Soundness relative to from-scratch runs**: inserting records can only
//! *increase* the distance between two old records in a pass's sorted
//! order, so any old-old pair within the window of a from-scratch run over
//! the concatenation was within the window of some earlier cycle and has
//! already been found. The accumulated incremental pair set is therefore a
//! superset of the from-scratch pair set for the same keys and window — it
//! never misses anything a full rerun would find (a test enforces this).
//!
//! # Durability
//!
//! The in-memory engine is deliberately a pure deterministic fold over the
//! batch sequence: `state = fold(add_batch, empty, batches)`. That makes
//! crash recovery trivial to reason about — [`DurableIncremental`] pairs
//! the engine with an [`mp_store::MatchStore`] so that every batch is
//! journaled (fsync'd) *before* it is applied, and a checkpoint
//! ([`DurableIncremental::checkpoint`]) converts the engine state into a
//! [`mp_store::Snapshot`] written atomically. On restart the snapshot is
//! restored and the journal's unabsorbed batches are replayed through the
//! exact same [`IncrementalMergePurge::add_batch`] code path, so a
//! kill/restart sequence reaches byte-identical pairs, comparisons, and
//! closure classes as an uninterrupted run (tests enforce this too).

use crate::key::KeySpec;
use crate::radix::chunked_str_cmp;
use mp_closure::{ClusterSizes, MergeEdge, PairSet, ProvenanceLog, UnionFind};
use mp_metrics::{span, span_labeled, Counter, NoopObserver, PipelineObserver};
use mp_record::{Record, RecordId};
use mp_rules::EquationalTheory;
use mp_store::{MatchStore, PassSnapshot, Snapshot, StoreError};
use std::path::Path;

/// State of one pass: the key list, the sorted order over all records
/// seen so far, and cumulative match attribution.
#[derive(Debug)]
struct PassState {
    key: KeySpec,
    window: usize,
    keys: Vec<String>,
    order: Vec<u32>,
    /// Matching comparisons this pass produced (counts re-finds).
    pairs_found: u64,
    /// Matching comparisons that were *new* to the global pair set.
    pairs_first_found: u64,
}

impl PassState {
    /// Extracts keys for the new records `old_len..` and returns their ids
    /// sorted by key (stable, so ties stay in id order).
    fn key_batch(&mut self, records: &[Record], old_len: u32) -> Vec<u32> {
        let mut buf = String::new();
        for r in &records[old_len as usize..] {
            self.key.extract_into(r, &mut buf);
            self.keys.push(buf.clone());
        }
        let keys = &self.keys;
        let mut batch_order: Vec<u32> = (old_len..records.len() as u32).collect();
        batch_order.sort_by(|&a, &b| chunked_str_cmp(&keys[a as usize], &keys[b as usize]));
        batch_order
    }
}

/// Per-pass attribution counters, in pass order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCounters {
    /// The pass's key name (`KeySpec::name`).
    pub key_name: String,
    /// The pass's window size.
    pub window: usize,
    /// Matching comparisons this pass produced (counts re-finds).
    pub pairs_found: u64,
    /// Matching comparisons that were new to the global pair set.
    pub pairs_first_found: u64,
}

/// Accumulating multi-pass merge/purge over arriving batches.
///
/// ```
/// use merge_purge::{incremental::IncrementalMergePurge, KeySpec};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_rules::NativeEmployeeTheory;
///
/// let theory = NativeEmployeeTheory::new();
/// let mut inc = IncrementalMergePurge::new()
///     .pass(KeySpec::last_name_key(), 10)
///     .pass(KeySpec::first_name_key(), 10);
///
/// let month1 = DatabaseGenerator::new(GeneratorConfig::new(500).seed(1)).generate();
/// let month2 = DatabaseGenerator::new(GeneratorConfig::new(500).seed(2)).generate();
/// inc.add_batch(month1.records, &theory);
/// inc.add_batch(month2.records, &theory);
/// let classes = inc.classes();
/// assert!(!classes.is_empty());
/// ```
#[derive(Debug)]
pub struct IncrementalMergePurge {
    passes: Vec<PassState>,
    records: Vec<Record>,
    pairs: PairSet,
    /// Union-find closure maintained eagerly as pairs are found.
    closure: UnionFind,
    /// Spanning-forest merge lineage: one edge per successful union, plus
    /// the batch-trace table and per-rule firing counts. O(N) memory.
    provenance: ProvenanceLog,
    /// Cluster-size accounting (log2 histogram, largest, count), updated
    /// on every union. Not persisted — rebuilt from the closure on restore.
    cluster_sizes: ClusterSizes,
    /// When false, scans skip rule attribution and no edges are recorded
    /// (the overhead-bench baseline). Defaults to true.
    record_provenance: bool,
    /// Largest merged cluster of the most recent batch: `(a, b, combined
    /// size)` of the union that produced it. `None` when the batch merged
    /// nothing (or provenance was never consulted — it is always tracked).
    last_batch_largest_merge: Option<(u32, u32, u32)>,
    /// Comparisons performed across all batches (for cost accounting).
    comparisons: u64,
    /// Number of batches folded in so far.
    batches_applied: u64,
    /// Contiguous key bands every window scan is split across (see
    /// [`IncrementalMergePurge::add_batch_sharded`]); never changes state.
    bands: usize,
}

impl Default for IncrementalMergePurge {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalMergePurge {
    /// An empty incremental pipeline; add passes before the first batch.
    pub fn new() -> Self {
        IncrementalMergePurge {
            passes: Vec::new(),
            records: Vec::new(),
            pairs: PairSet::new(),
            closure: UnionFind::new(0),
            provenance: ProvenanceLog::new(),
            cluster_sizes: ClusterSizes::new(0),
            record_provenance: true,
            last_batch_largest_merge: None,
            comparisons: 0,
            batches_applied: 0,
            bands: 1,
        }
    }

    /// Splits every window scan of [`add_batch`](Self::add_batch) (and so
    /// of durable ingest and journal replay) across `bands` key bands on
    /// scoped threads. The band count is parallelism only: any count
    /// reaches bit-identical state, so it may change between runs.
    ///
    /// # Panics
    ///
    /// Panics when `bands` is 0.
    #[must_use]
    pub fn bands(mut self, bands: usize) -> Self {
        assert!(bands >= 1, "need at least one band");
        self.bands = bands;
        self
    }

    /// Disables merge-lineage recording: scans skip rule attribution and
    /// the edge log stays empty. Only the provenance-overhead bench wants
    /// this; cluster-size accounting stays on either way.
    #[must_use]
    pub fn without_provenance(mut self) -> Self {
        self.record_provenance = false;
        self
    }

    /// Adds a sorted-neighborhood pass.
    ///
    /// # Panics
    ///
    /// Panics when `window < 2` or when records have already been added
    /// (pass configuration is fixed at first use).
    #[must_use]
    pub fn pass(mut self, key: KeySpec, window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two records");
        assert!(
            self.records.is_empty(),
            "passes must be configured before the first batch"
        );
        self.passes.push(PassState {
            key,
            window,
            keys: Vec::new(),
            order: Vec::new(),
            pairs_found: 0,
            pairs_first_found: 0,
        });
        self
    }

    /// Records accumulated so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Match pairs accumulated so far (before closure).
    pub fn pairs(&self) -> &PairSet {
        &self.pairs
    }

    /// Total pair comparisons across all batches.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Number of batches folded in so far.
    pub fn batches_applied(&self) -> u64 {
        self.batches_applied
    }

    /// Per-pass attribution counters, in pass order.
    pub fn pass_counters(&self) -> Vec<PassCounters> {
        self.passes
            .iter()
            .map(|p| PassCounters {
                key_name: p.key.name().to_string(),
                window: p.window,
                pairs_found: p.pairs_found,
                pairs_first_found: p.pairs_first_found,
            })
            .collect()
    }

    /// The merge lineage accumulated so far: spanning-forest edges, the
    /// batch-trace table, and per-rule firing counts.
    pub fn provenance(&self) -> &ProvenanceLog {
        &self.provenance
    }

    /// Cluster-size accounting (log2 histogram, largest cluster, count of
    /// multi-record clusters), current as of the last batch.
    pub fn cluster_sizes(&self) -> &ClusterSizes {
        &self.cluster_sizes
    }

    /// Largest merged cluster of the most recent batch, as `(a, b,
    /// combined size)` of the union that produced it.
    pub fn last_batch_largest_merge(&self) -> Option<(u32, u32, u32)> {
        self.last_batch_largest_merge
    }

    /// Attaches an ingest trace id to the most recently applied batch, so
    /// explain chains can point back at the request that merged a pair.
    /// Call right after [`add_batch`](Self::add_batch); idempotent for the
    /// same batch (first trace wins), no-op before the first batch or with
    /// provenance recording off.
    pub fn note_batch_trace(&mut self, trace: &str) {
        if self.record_provenance && self.batches_applied > 0 {
            self.provenance
                .note_batch_trace(self.batches_applied, trace);
        }
    }

    /// Walks the merge forest and returns the ordered evidence chain
    /// proving `a` and `b` were merged: each hop names the record pair, the
    /// rule (by id into the theory's [`rule_names`] table), the pass, the
    /// batch sequence, and the ingest trace id when one was recorded.
    ///
    /// `Some(vec![])` when `a == b`; `None` when the two records are not
    /// in the same closure class (or an id is out of range).
    ///
    /// [`rule_names`]: mp_rules::EquationalTheory::rule_names
    pub fn explain(&self, a: u32, b: u32) -> Option<Vec<Evidence>> {
        if a as usize >= self.records.len() || b as usize >= self.records.len() {
            return None;
        }
        let chain = self.provenance.explain(a, b)?;
        Some(
            chain
                .into_iter()
                .map(|e| Evidence {
                    a: e.a,
                    b: e.b,
                    pass: e.pass,
                    rule_id: e.rule_id,
                    batch_seq: e.batch_seq,
                    trace_id: self.provenance.trace_for(e.batch_seq).map(String::from),
                })
                .collect(),
        )
    }

    /// Ingests a batch: renumbers its records to follow the base, splices
    /// it into every pass's order, and scans only new-involving pairs, in
    /// the configured number of [`bands`](Self::bands).
    ///
    /// # Panics
    ///
    /// Panics when no passes are configured.
    pub fn add_batch(&mut self, batch: Vec<Record>, theory: &dyn EquationalTheory) {
        self.add_batch_sharded(batch, theory, self.bands, &NoopObserver);
    }

    /// [`add_batch`](Self::add_batch) with an explicit band count and an
    /// observer: splits every pass's window scan across `shards`
    /// contiguous key bands evaluated on scoped threads, then folds the
    /// banded results back in band order — the reconciliation step.
    ///
    /// **Equivalence**: a window pair `(prev, i)` is owned by the band that
    /// contains the *later* position `i`; the scan's backward window
    /// reaches across the left band boundary (band replication, as in
    /// `mp-parallel`), so boundary pairs are evaluated exactly once by
    /// exactly one band. Because the incremental scan never mutates the
    /// merged order while scanning, a band's comparisons are independent of
    /// every other band, and folding results in band order reproduces the
    /// serial scan's discovery sequence bit for bit: same comparisons,
    /// same `pairs_found` attribution, same closure. Tests enforce this
    /// for arbitrary shard counts.
    ///
    /// `shards == 1` degenerates to the serial scan without spawning.
    /// Opens a `shard_scan` span per band and a `closure_reconcile` span
    /// around the fold (worker spans land on their thread's track).
    ///
    /// # Panics
    ///
    /// Panics when no passes are configured or `shards` is 0.
    pub fn add_batch_sharded(
        &mut self,
        batch: Vec<Record>,
        theory: &dyn EquationalTheory,
        shards: usize,
        observer: &dyn PipelineObserver,
    ) {
        assert!(shards >= 1, "need at least one shard");
        let old_len = self.absorb(batch);
        for p in 0..self.passes.len() {
            let fresh = self.merge_pass(p, old_len);
            let pass = &self.passes[p];
            let n = pass.order.len();
            let dirty = dirty_ranges(&fresh, pass.window, n);
            let scan = WindowScan {
                records: &self.records,
                order: &pass.order,
                window: pass.window,
                old_len,
                theory,
                attribute: self.record_provenance,
            };
            let results: Vec<BandScan> = if shards == 1 {
                vec![scan.band(&dirty, 1, n)]
            } else {
                let (scan, dirty) = (&scan, &dirty);
                std::thread::scope(|s| {
                    let handles: Vec<_> = band_ranges(n, shards)
                        .into_iter()
                        .enumerate()
                        .map(|(k, (from, to))| {
                            // Named so repeated batches land on one
                            // flight-recorder lane per band.
                            std::thread::Builder::new()
                                .name(format!("band-{k}"))
                                .spawn_scoped(s, move || {
                                    let _scan = span_labeled(observer, "shard_scan", || {
                                        format!("shard={k}")
                                    });
                                    scan.band(dirty, from, to)
                                })
                                .expect("spawn band scan thread")
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            let _reconcile = span(observer, "closure_reconcile");
            for (comparisons, found) in &results {
                self.fold_scan(p, *comparisons, found);
            }
        }
    }

    /// Appends a batch to the record store, renumbering it to follow the
    /// base, and grows the closure to match. Returns the old record count:
    /// ids at or above it are this batch's.
    fn absorb(&mut self, mut batch: Vec<Record>) -> u32 {
        assert!(
            !self.passes.is_empty(),
            "configure passes before adding batches"
        );
        let old_len = self.records.len() as u32;
        for (i, r) in batch.iter_mut().enumerate() {
            r.id = RecordId(old_len + i as u32);
        }
        self.records.append(&mut batch);
        self.closure.grow(self.records.len());
        self.cluster_sizes.grow(self.records.len());
        self.batches_applied += 1;
        self.last_batch_largest_merge = None;
        old_len
    }

    /// Extracts keys for the new records `old_len..`, sorts them, and
    /// splices them into pass `p`'s order in place. Returns the ascending
    /// positions the new records now occupy.
    fn merge_pass(&mut self, p: usize, old_len: u32) -> Vec<usize> {
        let pass = &mut self.passes[p];
        let batch_order = pass.key_batch(&self.records, old_len);
        splice_sorted(&mut pass.order, &pass.keys, &batch_order)
    }

    /// Folds one band's scan result into pass `p`'s counters, the global
    /// pair set, the closure, and the merge lineage, preserving the band's
    /// discovery order. An edge is recorded only for a *successful* union
    /// (the spanning forest), so the log stays O(N); rule firings count
    /// every match in discovery order so replay regenerates them exactly.
    fn fold_scan(&mut self, p: usize, comparisons: u64, found: &[(u32, u32, u32)]) {
        self.comparisons += comparisons;
        let pass = &mut self.passes[p];
        for &(prev, new_id, rule_id) in found {
            pass.pairs_found += 1;
            if self.record_provenance {
                self.provenance.note_firing(rule_id);
            }
            if self.pairs.insert(prev, new_id) {
                pass.pairs_first_found += 1;
                let ra = self.closure.find(prev);
                let rb = self.closure.find(new_id);
                if self.closure.union(prev, new_id) {
                    if self.record_provenance {
                        // The scan yields window order (prev may carry the
                        // larger id); edges are stored low-high.
                        self.provenance.record_edge(MergeEdge {
                            a: prev.min(new_id),
                            b: prev.max(new_id),
                            pass: p as u32,
                            rule_id,
                            batch_seq: self.batches_applied,
                        });
                    }
                    let root = self.closure.find(prev);
                    let combined = self.cluster_sizes.merge(ra, rb, root);
                    if self
                        .last_batch_largest_merge
                        .is_none_or(|(_, _, s)| combined > s)
                    {
                        self.last_batch_largest_merge = Some((prev, new_id, combined));
                    }
                }
            }
        }
    }

    /// Transitive closure over everything found so far.
    pub fn classes(&self) -> Vec<Vec<u32>> {
        self.closure.clone().classes()
    }

    /// The duplicate class of record `id`, sorted ascending — `[id]` when
    /// nothing matched it. Walks the closure's member ring: O(|class|),
    /// no clone of the forest.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a record id (`id >= records().len()`).
    pub fn class_of(&self, id: u32) -> Vec<u32> {
        self.closure.class_of(id)
    }

    /// Number of disjoint classes in the closure, singletons included, so
    /// `records().len() - set_count()` is the number of records that are
    /// duplicates of an earlier class member. O(1).
    pub fn set_count(&self) -> usize {
        self.closure.set_count()
    }

    /// Converts the full engine state into a storable [`Snapshot`].
    pub fn to_snapshot(&self) -> Snapshot {
        Snapshot {
            records: self.records.clone(),
            passes: self
                .passes
                .iter()
                .map(|p| PassSnapshot {
                    key_name: p.key.name().to_string(),
                    window: p.window as u32,
                    pairs_found: p.pairs_found,
                    pairs_first_found: p.pairs_first_found,
                    keys: p.keys.clone(),
                })
                .collect(),
            pairs: self.pairs.sorted(),
            provenance: self.provenance.clone(),
            comparisons: self.comparisons,
            batches_applied: self.batches_applied,
        }
    }

    /// Restores engine state from a snapshot into a configured-but-empty
    /// pipeline. The configured passes must match the snapshot's passes
    /// (same count, key names, and windows, in order): the snapshot stores
    /// key *names*, not key functions, so the caller supplies the same
    /// [`KeySpec`]s the snapshot was built with.
    ///
    /// Derived state is rebuilt, not read: each pass's order is the stable
    /// `(key, id)` sort of its keys — the order batch splicing maintains,
    /// since ties keep old (smaller) ids first — and the closure is the
    /// union of the pair set. Union-find classes depend only on the pair
    /// partition, never on union order, so every answer derived from them
    /// is unchanged.
    ///
    /// # Errors
    ///
    /// A message naming the first mismatch between the configured passes
    /// and the snapshot, or `"records already added"` when `self` is not
    /// empty.
    pub fn restore(mut self, snap: Snapshot) -> Result<Self, String> {
        if !self.records.is_empty() {
            return Err("restore requires an empty engine (records already added)".into());
        }
        if self.passes.len() != snap.passes.len() {
            return Err(format!(
                "configured {} passes but snapshot has {}",
                self.passes.len(),
                snap.passes.len()
            ));
        }
        for (i, (p, s)) in self.passes.iter_mut().zip(snap.passes).enumerate() {
            if p.key.name() != s.key_name {
                return Err(format!(
                    "pass {i}: configured key {:?} but snapshot has {:?}",
                    p.key.name(),
                    s.key_name
                ));
            }
            if p.window as u32 != s.window {
                return Err(format!(
                    "pass {i}: configured window {} but snapshot has {}",
                    p.window, s.window
                ));
            }
            p.order = (0..s.keys.len() as u32).collect();
            let keys = &s.keys;
            p.order.sort_unstable_by(|&a, &b| {
                chunked_str_cmp(&keys[a as usize], &keys[b as usize]).then(a.cmp(&b))
            });
            p.keys = s.keys;
            p.pairs_found = s.pairs_found;
            p.pairs_first_found = s.pairs_first_found;
        }
        self.records = snap.records;
        let mut pairs = PairSet::with_capacity(snap.pairs.len());
        let mut closure = UnionFind::new(self.records.len());
        for &(a, b) in &snap.pairs {
            pairs.insert(a, b);
            closure.union(a, b);
        }
        self.pairs = pairs;
        self.closure = closure;
        self.provenance = snap.provenance;
        self.cluster_sizes = ClusterSizes::rebuild(&self.closure);
        self.comparisons = snap.comparisons;
        self.batches_applied = snap.batches_applied;
        Ok(self)
    }
}

/// One hop of an explain chain: the record pair a spanning-forest edge
/// merged, with its full attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Lower record id of the merged pair.
    pub a: u32,
    /// Higher record id of the merged pair.
    pub b: u32,
    /// Index of the pass whose window scan found the pair.
    pub pass: u32,
    /// Index into the theory's rule-name table of the rule that fired.
    pub rule_id: u32,
    /// Journal sequence number of the batch whose scan merged the pair.
    pub batch_seq: u64,
    /// Ingest trace id recorded for that batch, when one was.
    pub trace_id: Option<String>,
}

/// One band's scan result: the comparison count and the matching
/// `(prev, new, rule_id)` triples in exact scan order.
type BandScan = (u64, Vec<(u32, u32, u32)>);

/// Merges the key-sorted `batch` into the key-sorted `order` in place and
/// returns the ascending positions the batch's ids now occupy.
///
/// Each batch key's insertion point is found by binary search over the
/// unconsumed suffix of the old order: it goes after every old key `<=`
/// it, so ties keep old records first and batch records in batch order —
/// exactly a stable merge, and a stable from-scratch sort, of the two.
/// Cost: O(B log N) key comparisons and one backward memmove of the `u32`
/// suffix behind the first insertion point.
fn splice_sorted(order: &mut Vec<u32>, keys: &[String], batch: &[u32]) -> Vec<usize> {
    let mut cuts = Vec::with_capacity(batch.len());
    let mut start = 0usize;
    for &b in batch {
        let key = &keys[b as usize];
        start +=
            order[start..].partition_point(|&a| chunked_str_cmp(&keys[a as usize], key).is_le());
        cuts.push(start);
    }
    // Shift from the back: the old run between cuts j and j+1 moves up by
    // j+1 slots, and batch record j lands just below it.
    let mut end = order.len();
    order.resize(end + batch.len(), 0);
    for (j, &cut) in cuts.iter().enumerate().rev() {
        order.copy_within(cut..end, cut + j + 1);
        order[cut + j] = batch[j];
        end = cut;
    }
    for (j, cut) in cuts.iter_mut().enumerate() {
        *cut += j;
    }
    cuts
}

/// The scan positions that can hold a new-involving window pair, as
/// ascending, disjoint, half-open ranges over `1..n`. Position `i` pairs
/// with its `w-1` predecessors, so a pair touches the new record at
/// position `q` only when `i` lies in `q..q+w`; every other position
/// holds old-old pairs alone, which the scan skips uncounted.
fn dirty_ranges(fresh: &[usize], w: usize, n: usize) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(fresh.len());
    for &q in fresh {
        let (from, to) = (q.max(1), (q + w).min(n));
        match out.last_mut() {
            Some(last) if from <= last.1 => last.1 = to,
            _ if from < to => out.push((from, to)),
            _ => {}
        }
    }
    out
}

/// A read-only window scan over one pass's spliced order.
struct WindowScan<'a> {
    records: &'a [Record],
    order: &'a [u32],
    window: usize,
    /// Ids below this were decided in earlier cycles.
    old_len: u32,
    theory: &'a dyn EquationalTheory,
    /// With `attribute` off the rule id is always 0 and the cheaper
    /// boolean theory entry point is used.
    attribute: bool,
}

impl WindowScan<'_> {
    /// Scans the `dirty` positions that fall in band `from..to`: position
    /// `i` compares `records[order[i]]` against its up-to-`w-1`
    /// predecessors, skipping old-old pairs (both ids `< old_len`, decided
    /// in earlier cycles). Returns the comparison count and the matching
    /// `(prev, new, rule_id)` triples in exact scan order, so a
    /// coordinator can fold several bands' results in band order and
    /// reproduce the serial scan's discovery sequence exactly — including
    /// first-found rule attribution, which is therefore identical across
    /// serial, parallel, and sharded engines.
    fn band(&self, dirty: &[(usize, usize)], from: usize, to: usize) -> BandScan {
        let old_len = self.old_len;
        let mut comparisons = 0u64;
        let mut found = Vec::new();
        for &(a, b) in dirty {
            for i in a.max(from)..b.min(to) {
                let lo = i.saturating_sub(self.window - 1);
                let new_id = self.order[i];
                for &prev in &self.order[lo..i] {
                    if new_id < old_len && prev < old_len {
                        continue; // both old: already compared when closer
                    }
                    comparisons += 1;
                    let (r1, r2) = (&self.records[prev as usize], &self.records[new_id as usize]);
                    if self.attribute {
                        if let Some(rule) = self.theory.matching_rule_id(r1, r2) {
                            found.push((prev, new_id, rule as u32));
                        }
                    } else if self.theory.matches(r1, r2) {
                        found.push((prev, new_id, 0));
                    }
                }
            }
        }
        (comparisons, found)
    }
}

/// Splits scan positions `1..n` into `shards` contiguous bands (earlier
/// bands take the remainder). A band owns the window pairs whose *later*
/// element falls inside it; the band scan's backward window reaches across
/// the left boundary — the band-replication seam — so every boundary pair
/// is still evaluated exactly once. Bands may be empty when `shards`
/// exceeds the position count.
///
/// Public because the external sorter reuses the same contiguous
/// partition (shifted to 0-based offsets) to fan run formation out across
/// worker threads.
pub fn band_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let positions = n.saturating_sub(1); // window scan covers 1..n
    let mut out = Vec::with_capacity(shards);
    let mut start = 1usize;
    for k in 0..shards {
        let len = positions / shards + usize::from(k < positions % shards);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// What [`DurableIncremental::open`] recovered from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was found and restored.
    pub snapshot_loaded: bool,
    /// Batches the snapshot had already absorbed.
    pub batches_in_snapshot: u64,
    /// Journaled batches replayed through [`IncrementalMergePurge::add_batch`].
    pub batches_replayed: u64,
    /// Bytes chopped off a torn/corrupt journal tail (0 when clean).
    pub truncated_bytes: u64,
    /// Why the tail was truncated, when it was.
    pub truncation_reason: Option<String>,
}

/// An [`IncrementalMergePurge`] engine wired to a durable
/// [`MatchStore`]: every ingested batch is journaled (fsync'd) before it
/// is applied, and checkpoints write an atomic snapshot.
///
/// The replay contract: reopening a store directory reconstructs *exactly*
/// the state of the process that wrote it, because recovery replays the
/// journal's unabsorbed batches through the same deterministic
/// [`IncrementalMergePurge::add_batch`] fold the original process ran.
///
/// ```
/// use merge_purge::{incremental::DurableIncremental, KeySpec};
/// use mp_datagen::{DatabaseGenerator, GeneratorConfig};
/// use mp_metrics::NoopObserver;
/// use mp_rules::NativeEmployeeTheory;
///
/// let dir = std::env::temp_dir().join(format!("mp-inc-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let theory = NativeEmployeeTheory::new();
/// let obs = NoopObserver;
/// let passes = |e: merge_purge::incremental::IncrementalMergePurge| {
///     e.pass(KeySpec::last_name_key(), 10)
/// };
/// let db = DatabaseGenerator::new(GeneratorConfig::new(200).seed(7)).generate();
/// let mid = db.records.len() / 2;
///
/// // First process: ingest two batches — journaled, but never checkpointed.
/// let (mut d, _) = DurableIncremental::open(&dir, passes, &theory, &obs).unwrap();
/// d.ingest(db.records[..mid].to_vec(), None, &theory, &obs).unwrap();
/// d.ingest(db.records[mid..].to_vec(), None, &theory, &obs).unwrap();
/// let classes = d.engine().classes();
/// let comparisons = d.engine().comparisons();
/// drop(d); // "kill -9": no snapshot was written
///
/// // Restart: the journal replays both batches deterministically.
/// let (d2, report) = DurableIncremental::open(&dir, passes, &theory, &obs).unwrap();
/// assert_eq!(report.batches_replayed, 2);
/// assert!(!report.snapshot_loaded);
/// assert_eq!(d2.engine().classes(), classes);
/// assert_eq!(d2.engine().comparisons(), comparisons);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct DurableIncremental {
    engine: IncrementalMergePurge,
    store: MatchStore,
    batches_since_checkpoint: u64,
}

impl DurableIncremental {
    /// Opens (creating if needed) the store at `dir`, restores the last
    /// snapshot, and replays journaled batches the snapshot missed.
    ///
    /// `configure` adds the pass configuration to an empty engine; it must
    /// configure the same passes every time the same store is opened (the
    /// snapshot records key names and windows and restore validates them).
    ///
    /// Observer wiring: `Counter::JournalReplays` counts replayed batches,
    /// `Counter::CorruptTailTruncations` increments when a torn tail was
    /// chopped (also reported via `eprintln!` — never silent), and the
    /// whole recovery runs under a `load` span.
    ///
    /// # Errors
    ///
    /// I/O failures, corrupt snapshot, or a pass-configuration mismatch
    /// against the stored snapshot (as [`StoreError::Corrupt`]).
    pub fn open(
        dir: impl AsRef<Path>,
        configure: impl FnOnce(IncrementalMergePurge) -> IncrementalMergePurge,
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> Result<(DurableIncremental, RecoveryReport), StoreError> {
        let _load = span(observer, "load");
        let (store, loaded) = MatchStore::open(dir)?;

        if loaded.recovery.truncated() {
            observer.add(Counter::CorruptTailTruncations, 1);
            eprintln!(
                "mp-store: truncated {} corrupt journal byte(s) at {}: {}",
                loaded.recovery.truncated_bytes,
                store.dir().display(),
                loaded
                    .recovery
                    .truncation_reason
                    .as_deref()
                    .unwrap_or("unknown"),
            );
        }

        let mut engine = configure(IncrementalMergePurge::new());
        let mut report = RecoveryReport {
            snapshot_loaded: false,
            batches_in_snapshot: 0,
            batches_replayed: 0,
            truncated_bytes: loaded.recovery.truncated_bytes,
            truncation_reason: loaded.recovery.truncation_reason.clone(),
        };
        if let Some(snap) = loaded.snapshot {
            report.snapshot_loaded = true;
            report.batches_in_snapshot = snap.batches_applied;
            engine = engine.restore(snap).map_err(StoreError::Corrupt)?;
        }
        for b in loaded.replayable {
            apply_observed(&mut engine, b.records, theory, observer);
            // Re-attach the ingest trace the journal frame carried, so
            // explain chains survive replay byte-identically.
            if let Some(t) = &b.trace {
                engine.note_batch_trace(t);
            }
            report.batches_replayed += 1;
        }
        observer.add(Counter::JournalReplays, report.batches_replayed);

        Ok((
            DurableIncremental {
                engine,
                store,
                batches_since_checkpoint: report.batches_replayed,
            },
            report,
        ))
    }

    /// Ingests one batch durably: journal append + fsync first (the frame
    /// carries `trace` so replay keeps lineage attribution), then the
    /// in-memory fold. Returns the batch's journal sequence number.
    ///
    /// Increments `Counter::BatchesIngested` (plus the comparison/match
    /// counters for the scan work) and runs under an `ingest` span.
    ///
    /// # Errors
    ///
    /// I/O failure appending to the journal; the batch is then *not*
    /// applied (it was never acknowledged, so no state diverges).
    pub fn ingest(
        &mut self,
        batch: Vec<Record>,
        trace: Option<&str>,
        theory: &dyn EquationalTheory,
        observer: &dyn PipelineObserver,
    ) -> Result<u64, StoreError> {
        let _ingest = span(observer, "ingest");
        let seq = {
            let _append = span(observer, "journal_append");
            self.store.append_batch(&batch, trace)?
        };
        apply_observed(&mut self.engine, batch, theory, observer);
        if let Some(t) = trace {
            self.engine.note_batch_trace(t);
        }
        observer.add(Counter::BatchesIngested, 1);
        self.batches_since_checkpoint += 1;
        Ok(seq)
    }

    /// Writes an atomic snapshot of the current engine state and resets
    /// the journal. Returns the snapshot size in bytes (also added to
    /// `Counter::SnapshotBytes`); runs under a `snapshot` span.
    ///
    /// # Errors
    ///
    /// I/O failure writing the snapshot; the store still recovers from the
    /// previous snapshot + journal.
    pub fn checkpoint(&mut self, observer: &dyn PipelineObserver) -> Result<u64, StoreError> {
        let _snap = span(observer, "snapshot");
        let bytes = self.store.write_snapshot(&self.engine.to_snapshot())?;
        observer.add(Counter::SnapshotBytes, bytes);
        self.batches_since_checkpoint = 0;
        Ok(bytes)
    }

    /// Installs a bulk-loaded state (see `mp-extsort`'s `BulkLoader`) as
    /// the store's first batch: writes `snap` as the committed snapshot
    /// (resetting the journal to the `batches_applied + 1` watermark,
    /// like any checkpoint) and restores the engine from it. Only legal
    /// on a cold store — the engine must be empty and the journal must
    /// hold no acknowledged batches. Returns the snapshot size in bytes
    /// (added to `Counter::SnapshotBytes`); runs under a `snapshot` span.
    ///
    /// # Errors
    ///
    /// A non-empty engine or journal, a pass-configuration mismatch
    /// between `snap` and the configured engine, or I/O failure writing
    /// the snapshot (the store then still looks empty).
    pub fn bulk_restore(
        &mut self,
        snap: Snapshot,
        observer: &dyn PipelineObserver,
    ) -> Result<u64, StoreError> {
        if self.engine.batches_applied() != 0 || !self.engine.records().is_empty() {
            return Err(StoreError::Corrupt(format!(
                "bulk restore requires an empty engine (found {} records, {} batches)",
                self.engine.records().len(),
                self.engine.batches_applied()
            )));
        }
        if self.store.next_seq() != 1 {
            return Err(StoreError::Corrupt(format!(
                "bulk restore requires an empty journal (next seq is {})",
                self.store.next_seq()
            )));
        }
        let _snap_span = span(observer, "snapshot");
        // Durability first, exactly like ingest: the snapshot commit is
        // the acknowledgment; only then does memory adopt the state.
        let bytes = self.store.write_snapshot(&snap)?;
        observer.add(Counter::SnapshotBytes, bytes);
        let configured = std::mem::take(&mut self.engine);
        self.engine = configured.restore(snap).map_err(StoreError::Corrupt)?;
        self.batches_since_checkpoint = 0;
        Ok(bytes)
    }

    /// The in-memory engine (records, pairs, closure, counters).
    pub fn engine(&self) -> &IncrementalMergePurge {
        &self.engine
    }

    /// The underlying store.
    pub fn store(&self) -> &MatchStore {
        &self.store
    }

    /// Batches applied since the last checkpoint (replayed ones count:
    /// they live only in the journal until the next checkpoint).
    pub fn batches_since_checkpoint(&self) -> u64 {
        self.batches_since_checkpoint
    }
}

/// Applies a batch in the engine's band count and reports the
/// comparison/match deltas to `observer`, so durable ingest and journal
/// replay feed `--stats` (and the per-band `shard_scan` spans) identically.
fn apply_observed(
    engine: &mut IncrementalMergePurge,
    batch: Vec<Record>,
    theory: &dyn EquationalTheory,
    observer: &dyn PipelineObserver,
) {
    let (comparisons0, found0, keyed0) = observed_totals(engine);
    engine.add_batch_sharded(batch, theory, engine.bands, observer);
    report_deltas(engine, observer, comparisons0, found0, keyed0);
}

fn observed_totals(engine: &IncrementalMergePurge) -> (u64, u64, u64) {
    (
        engine.comparisons,
        engine.passes.iter().map(|p| p.pairs_found).sum(),
        engine.passes.iter().map(|p| p.keys.len() as u64).sum(),
    )
}

fn report_deltas(
    engine: &IncrementalMergePurge,
    observer: &dyn PipelineObserver,
    comparisons0: u64,
    found0: u64,
    keyed0: u64,
) {
    let d_cmp = engine.comparisons - comparisons0;
    let (_, found1, keyed1) = observed_totals(engine);
    observer.add(Counter::RecordsKeyed, keyed1 - keyed0);
    observer.add(Counter::Comparisons, d_cmp);
    // Incremental scans invoke the theory on every comparison (no pruning).
    observer.add(Counter::RuleInvocations, d_cmp);
    observer.add(Counter::Matches, found1 - found0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipass::MultiPass;
    use mp_datagen::{DatabaseGenerator, GeneratorConfig};
    use mp_metrics::NoopObserver;
    use mp_rules::NativeEmployeeTheory;
    use mp_store::JOURNAL_FILE;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn batches(seed: u64, n: usize, parts: usize) -> Vec<Vec<Record>> {
        let db = DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate();
        let chunk = db.records.len().div_ceil(parts);
        db.records.chunks(chunk).map(<[Record]>::to_vec).collect()
    }

    fn scratch_pairs(records: &[Record], w: usize) -> Vec<(u32, u32)> {
        let theory = NativeEmployeeTheory::new();
        let result = MultiPass::new()
            .sorted(KeySpec::last_name_key(), w)
            .sorted(KeySpec::first_name_key(), w)
            .run(records, &theory);
        let mut union = PairSet::new();
        for p in &result.passes {
            union.merge(&p.pairs);
        }
        union.sorted()
    }

    #[test]
    fn incremental_is_superset_of_from_scratch() {
        let theory = NativeEmployeeTheory::new();
        let w = 8;
        let mut inc = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), w)
            .pass(KeySpec::first_name_key(), w);
        for batch in batches(9001, 600, 4) {
            inc.add_batch(batch, &theory);
        }
        let scratch = scratch_pairs(inc.records(), w);
        for (a, b) in &scratch {
            assert!(
                inc.pairs().contains(*a, *b),
                "from-scratch pair ({a},{b}) missed by incremental"
            );
        }
        // And the extras are few (pairs that drifted apart as data grew).
        let extra = inc.pairs().len() - scratch.len();
        assert!(
            extra <= scratch.len() / 2,
            "too many extras: {extra} over {}",
            scratch.len()
        );
    }

    #[test]
    fn single_batch_equals_from_scratch_exactly() {
        let theory = NativeEmployeeTheory::new();
        let w = 10;
        let db =
            DatabaseGenerator::new(GeneratorConfig::new(400).duplicate_fraction(0.5).seed(9002))
                .generate();
        let mut inc = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), w)
            .pass(KeySpec::first_name_key(), w);
        inc.add_batch(db.records.clone(), &theory);
        assert_eq!(inc.pairs().sorted(), scratch_pairs(&db.records, w));
    }

    #[test]
    fn incremental_does_far_fewer_comparisons_than_reruns() {
        let theory = NativeEmployeeTheory::new();
        let w = 10;
        // Eight monthly cycles: the rerun cost grows quadratically with the
        // number of cycles while incremental stays linear.
        let parts = batches(9003, 800, 8);
        let mut inc = IncrementalMergePurge::new().pass(KeySpec::last_name_key(), w);
        let mut rerun_comparisons = 0u64;
        let mut all: Vec<Record> = Vec::new();
        for batch in parts {
            inc.add_batch(batch.clone(), &theory);
            // The naive alternative: full rerun over the concatenation.
            all.extend(batch);
            for (i, r) in all.iter_mut().enumerate() {
                r.id = RecordId(i as u32);
            }
            let full =
                crate::snm::SortedNeighborhood::new(KeySpec::last_name_key(), w).run(&all, &theory);
            rerun_comparisons += full.stats.comparisons;
        }
        assert!(
            inc.comparisons() < rerun_comparisons / 2,
            "incremental {} vs rerun {}",
            inc.comparisons(),
            rerun_comparisons
        );
    }

    #[test]
    fn classes_accumulate_across_batches() {
        let theory = NativeEmployeeTheory::new();
        let mut inc = IncrementalMergePurge::new().pass(KeySpec::last_name_key(), 6);
        let parts = batches(9004, 300, 3);
        let mut last = 0usize;
        for batch in parts {
            inc.add_batch(batch, &theory);
            let classes = inc.classes();
            assert!(classes.len() >= last || !classes.is_empty());
            last = classes.len();
        }
        assert!(last > 0);
    }

    #[test]
    fn sharded_scan_is_bit_identical_to_serial() {
        let theory = NativeEmployeeTheory::new();
        let obs = NoopObserver;
        let parts = batches(9009, 600, 4);
        let mut serial = two_pass(IncrementalMergePurge::new());
        for b in &parts {
            serial.add_batch(b.clone(), &theory);
        }
        for shards in [1usize, 2, 3, 5, 8] {
            let mut sharded = two_pass(IncrementalMergePurge::new());
            let mut banded = two_pass(IncrementalMergePurge::new()).bands(shards);
            for b in &parts {
                sharded.add_batch_sharded(b.clone(), &theory, shards, &obs);
                banded.add_batch(b.clone(), &theory);
            }
            assert_eq!(fingerprint(&banded), fingerprint(&serial), "bands={shards}");
            assert_eq!(
                fingerprint(&sharded),
                fingerprint(&serial),
                "shards={shards}"
            );
            assert_eq!(sharded.classes(), serial.classes(), "shards={shards}");
            for (sp, pp) in sharded.passes.iter().zip(serial.passes.iter()) {
                assert_eq!(sp.order, pp.order, "pass order diverged at shards={shards}");
            }
        }
    }

    #[test]
    fn band_ranges_cover_scan_positions_exactly_once() {
        for n in [0usize, 1, 2, 3, 10, 97] {
            for shards in 1..=8usize {
                let ranges = band_ranges(n, shards);
                assert_eq!(ranges.len(), shards);
                let mut next = 1usize;
                for &(from, to) in &ranges {
                    assert_eq!(from, next, "gap/overlap at n={n} shards={shards}");
                    assert!(to >= from);
                    next = to;
                }
                assert_eq!(next, n.max(1), "positions 1..{n} not covered");
            }
        }
    }

    // ---- dense oracle ---------------------------------------------------

    /// The reference merge: a linear merge of the old order and the sorted
    /// batch into a fresh vector (stable, old first on ties).
    fn dense_merge(order: &[u32], keys: &[String], batch: &[u32]) -> Vec<u32> {
        let mut merged = Vec::with_capacity(order.len() + batch.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < order.len() && j < batch.len() {
            let (a, b) = (order[i], batch[j]);
            if chunked_str_cmp(&keys[a as usize], &keys[b as usize]).is_le() {
                merged.push(a);
                i += 1;
            } else {
                merged.push(b);
                j += 1;
            }
        }
        merged.extend_from_slice(&order[i..]);
        merged.extend_from_slice(&batch[j..]);
        merged
    }

    /// The reference scan: every position of `from..to`, old-old pairs
    /// skipped uncounted.
    fn dense_scan(scan: &WindowScan<'_>, from: usize, to: usize) -> BandScan {
        let mut comparisons = 0u64;
        let mut found = Vec::new();
        for i in from.max(1)..to {
            let new_id = scan.order[i];
            for &prev in &scan.order[i.saturating_sub(scan.window - 1)..i] {
                if new_id < scan.old_len && prev < scan.old_len {
                    continue;
                }
                comparisons += 1;
                let (r1, r2) = (&scan.records[prev as usize], &scan.records[new_id as usize]);
                if scan.attribute {
                    if let Some(rule) = scan.theory.matching_rule_id(r1, r2) {
                        found.push((prev, new_id, rule as u32));
                    }
                } else if scan.theory.matches(r1, r2) {
                    found.push((prev, new_id, 0));
                }
            }
        }
        (comparisons, found)
    }

    impl IncrementalMergePurge {
        /// The engine step built from the reference merge and scan: a
        /// fresh merged order per pass and a walk of every position.
        fn add_batch_dense(&mut self, batch: Vec<Record>, theory: &dyn EquationalTheory) {
            let old_len = self.absorb(batch);
            for p in 0..self.passes.len() {
                let pass = &mut self.passes[p];
                let batch_order = pass.key_batch(&self.records, old_len);
                pass.order = dense_merge(&pass.order, &pass.keys, &batch_order);
                let pass = &self.passes[p];
                let scan = WindowScan {
                    records: &self.records,
                    order: &pass.order,
                    window: pass.window,
                    old_len,
                    theory,
                    attribute: self.record_provenance,
                };
                let (comparisons, found) = dense_scan(&scan, 1, pass.order.len());
                self.fold_scan(p, comparisons, &found);
            }
        }
    }

    /// `n` seeded records renumbered `0..n`. With `ties > 0` every last
    /// name is overwritten by one of `ties` names, so keys collide heavily
    /// within and across batches.
    fn tied_records(seed: u64, n: usize, ties: usize) -> Vec<Record> {
        let db = DatabaseGenerator::new(GeneratorConfig::new(n).duplicate_fraction(0.5).seed(seed))
            .generate();
        let mut records: Vec<Record> = db.records.into_iter().take(n).collect();
        for (i, r) in records.iter_mut().enumerate() {
            r.id = RecordId(i as u32);
            if ties > 0 {
                r.last_name = ["SMITH", "SMYTH", "JONES"][i * 7 % ties].to_string();
            }
        }
        records
    }

    proptest! {
        /// The in-place splice equals the linear merge, and the banded
        /// dirty-window scan equals the dense scan: same comparisons, same
        /// `(prev, new, rule)` triples in the same order.
        #[test]
        fn splice_and_dirty_scan_match_dense_oracle(
            seed in 0u64..10_000,
            base in prop_oneof![0usize..1, 1usize..2, 2usize..12, 60usize..150],
            batch in prop_oneof![1usize..2, 2usize..40, 150usize..250],
            ties in 0usize..4,
            w in 2usize..=12,
            shards in 1usize..=8,
        ) {
            let theory = NativeEmployeeTheory::new();
            let records = tied_records(seed, base + batch, ties);
            let key = KeySpec::last_name_key();
            let keys: Vec<String> = records.iter().map(|r| key.extract(r)).collect();
            let sorted = |ids: std::ops::Range<usize>| {
                let mut v: Vec<u32> = ids.map(|i| i as u32).collect();
                v.sort_by(|&a, &b| chunked_str_cmp(&keys[a as usize], &keys[b as usize]));
                v
            };
            let old = sorted(0..base);
            let new_ids = sorted(base..records.len());
            let mut order = old.clone();
            let fresh = splice_sorted(&mut order, &keys, &new_ids);
            prop_assert_eq!(&order, &dense_merge(&old, &keys, &new_ids));
            let want_fresh: Vec<usize> =
                (0..order.len()).filter(|&i| order[i] as usize >= base).collect();
            prop_assert_eq!(&fresh, &want_fresh);

            let scan = WindowScan {
                records: &records,
                order: &order,
                window: w,
                old_len: base as u32,
                theory: &theory,
                attribute: true,
            };
            let dirty = dirty_ranges(&fresh, w, order.len());
            let mut got: BandScan = (0, Vec::new());
            for (from, to) in band_ranges(order.len(), shards) {
                let (c, f) = scan.band(&dirty, from, to);
                got.0 += c;
                got.1.extend(f);
            }
            prop_assert_eq!(got, dense_scan(&scan, 1, order.len()));
        }

        /// A sharded engine fed batch after batch stays bit-identical to
        /// the dense-oracle engine, with lineage recording on or off:
        /// orders, comparisons, pass counters, pairs, provenance edges and
        /// firings, closure.
        #[test]
        fn engine_matches_dense_oracle(
            seed in 0u64..10_000,
            base in prop_oneof![0usize..1, 1usize..2, 2usize..12, 40usize..100],
            batch in prop_oneof![1usize..2, 2usize..30, 100usize..140],
            ties in 0usize..4,
            w in 2usize..=12,
            shards in 1usize..=8,
            lineage in 0u8..2,
        ) {
            let theory = NativeEmployeeTheory::new();
            let records = tied_records(seed, base + 2 * batch, ties);
            let parts = [
                &records[..base],
                &records[base..base + batch],
                &records[base + batch..],
            ];
            let engine = || {
                let e = IncrementalMergePurge::new()
                    .pass(KeySpec::last_name_key(), w)
                    .pass(KeySpec::first_name_key(), w);
                if lineage == 0 { e.without_provenance() } else { e }
            };
            let (mut fast, mut dense) = (engine(), engine());
            for part in parts {
                fast.add_batch_sharded(part.to_vec(), &theory, shards, &NoopObserver);
                dense.add_batch_dense(part.to_vec(), &theory);
                for (f, d) in fast.passes.iter().zip(&dense.passes) {
                    prop_assert_eq!(&f.order, &d.order);
                }
                prop_assert_eq!(fingerprint(&fast), fingerprint(&dense));
                prop_assert_eq!(fast.provenance(), dense.provenance());
                prop_assert_eq!(fast.classes(), dense.classes());
            }
            // Restore rebuilds every order (ties included) and the closure
            // from keys and pairs alone.
            let restored = engine().restore(fast.to_snapshot()).unwrap();
            for (r, f) in restored.passes.iter().zip(&fast.passes) {
                prop_assert_eq!(&r.order, &f.order);
            }
            prop_assert_eq!(fingerprint(&restored), fingerprint(&fast));
            prop_assert_eq!(restored.classes(), fast.classes());
        }

        /// The O(1) class counts and the O(|class|) `class_of` agree with
        /// the materialized `classes()` after every batch, for any shard
        /// count, and still agree on an engine restored from a snapshot.
        #[test]
        fn class_counts_and_class_of_match_materialized_classes(
            seed in 0u64..10_000,
            n in 1usize..400,
            parts in 1usize..5,
            shards in 1usize..=8,
        ) {
            fn check(e: &IncrementalMergePurge) {
                let classes = e.classes();
                prop_assert_eq!(e.cluster_sizes().cluster_count() as usize, classes.len());
                let duplicates: usize = classes.iter().map(|c| c.len() - 1).sum();
                prop_assert_eq!(e.records().len() - e.set_count(), duplicates);
                let mut want: Vec<Vec<u32>> =
                    (0..e.records().len() as u32).map(|x| vec![x]).collect();
                for c in &classes {
                    for &x in c {
                        want[x as usize] = c.clone();
                    }
                }
                for (x, w) in want.iter().enumerate() {
                    prop_assert_eq!(&e.class_of(x as u32), w);
                }
            }
            let theory = NativeEmployeeTheory::new();
            let mut e = two_pass(IncrementalMergePurge::new());
            for part in batches(seed, n, parts) {
                e.add_batch_sharded(part, &theory, shards, &NoopObserver);
                check(&e);
            }
            let restored = two_pass(IncrementalMergePurge::new())
                .restore(e.to_snapshot())
                .unwrap();
            check(&restored);
        }
    }

    /// Records whose last names spread over a wide key range, numbered
    /// from `first`.
    fn spread_records(first: usize, n: usize) -> Vec<Record> {
        (first..first + n)
            .map(|i| {
                let mut r = Record::empty(RecordId(i as u32));
                r.last_name = format!(
                    "N{:08}",
                    (i as u64).wrapping_mul(2_654_435_761) % 100_000_000
                );
                r
            })
            .collect()
    }

    #[test]
    fn batch_work_is_bounded_by_window_times_batch_whatever_the_base() {
        /// Never matches: the bound is on comparisons, not on what they find.
        struct Never;
        impl EquationalTheory for Never {
            fn matches(&self, _: &Record, _: &Record) -> bool {
                false
            }
            fn name(&self) -> &str {
                "never"
            }
        }
        let w = 10;
        let batch = spread_records(1_000_000, 100);
        let b = batch.len();
        for base in [1_000usize, 50_000] {
            let mut inc = IncrementalMergePurge::new().pass(KeySpec::last_name_key(), w);
            inc.add_batch(spread_records(0, base), &Never);
            let before = inc.comparisons();
            inc.add_batch(batch.clone(), &Never);
            let comparisons = inc.comparisons() - before;
            assert!(
                comparisons <= (2 * (w - 1) * b) as u64,
                "base {base}: {comparisons} comparisons for a batch of {b}"
            );
            // The scan visits only the dirty windows: at most w positions
            // per new record, however large the base.
            let order = &inc.passes[0].order;
            let fresh: Vec<usize> = (0..order.len())
                .filter(|&i| order[i] as usize >= base)
                .collect();
            let visited: usize = dirty_ranges(&fresh, w, order.len())
                .iter()
                .map(|(from, to)| to - from)
                .sum();
            assert!(visited <= w * b, "base {base}: {visited} positions visited");
        }
    }

    #[test]
    #[should_panic(expected = "before the first batch")]
    fn pass_after_batch_rejected() {
        let theory = NativeEmployeeTheory::new();
        let mut inc = IncrementalMergePurge::new().pass(KeySpec::last_name_key(), 4);
        inc.add_batch(vec![Record::empty(RecordId(0))], &theory);
        let _ = inc.pass(KeySpec::first_name_key(), 4);
    }

    #[test]
    #[should_panic(expected = "configure passes")]
    fn batch_without_passes_rejected() {
        let theory = NativeEmployeeTheory::new();
        IncrementalMergePurge::new().add_batch(vec![], &theory);
    }

    // ---- persistence ----------------------------------------------------

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mp-inc-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn two_pass(e: IncrementalMergePurge) -> IncrementalMergePurge {
        e.pass(KeySpec::last_name_key(), 8)
            .pass(KeySpec::first_name_key(), 8)
    }

    /// Everything that must be identical across crash/recovery paths.
    fn fingerprint(e: &IncrementalMergePurge) -> (Vec<(u32, u32)>, u64, u64, Vec<PassCounters>) {
        (
            e.pairs().sorted(),
            e.comparisons(),
            e.batches_applied(),
            e.pass_counters(),
        )
    }

    #[test]
    fn snapshot_restore_round_trip_then_diverge_identically() {
        let theory = NativeEmployeeTheory::new();
        let parts = batches(9005, 500, 4);
        let mut a = two_pass(IncrementalMergePurge::new());
        for b in &parts[..3] {
            a.add_batch(b.clone(), &theory);
        }
        let mut b = two_pass(IncrementalMergePurge::new())
            .restore(a.to_snapshot())
            .unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.classes(), b.classes());
        for (pa, pb) in a.passes.iter().zip(&b.passes) {
            assert_eq!(pa.order, pb.order, "restore rebuilds the maintained order");
        }
        // The restored engine folds the next batch exactly like the original.
        a.add_batch(parts[3].clone(), &theory);
        b.add_batch(parts[3].clone(), &theory);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.classes(), b.classes());
    }

    #[test]
    fn restore_rejects_mismatched_passes() {
        let theory = NativeEmployeeTheory::new();
        let mut a = two_pass(IncrementalMergePurge::new());
        a.add_batch(batches(9006, 100, 1).remove(0), &theory);
        let snap = a.to_snapshot();
        // Wrong pass count.
        let err = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), 8)
            .restore(snap.clone())
            .unwrap_err();
        assert!(err.contains("1 passes"), "{err}");
        // Wrong key in slot 1.
        let err = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), 8)
            .pass(KeySpec::address_key(), 8)
            .restore(snap.clone())
            .unwrap_err();
        assert!(err.contains("pass 1"), "{err}");
        // Wrong window.
        let err = IncrementalMergePurge::new()
            .pass(KeySpec::last_name_key(), 8)
            .pass(KeySpec::first_name_key(), 4)
            .restore(snap)
            .unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn kill_restart_between_every_batch_is_deterministic() {
        let theory = NativeEmployeeTheory::new();
        let obs = NoopObserver;
        let parts = batches(9007, 500, 4);

        // Golden: one uninterrupted process, never checkpointing.
        let dir_a = tmp_dir("golden");
        let (mut a, _) = DurableIncremental::open(&dir_a, two_pass, &theory, &obs).unwrap();
        for b in &parts {
            a.ingest(b.clone(), None, &theory, &obs).unwrap();
        }
        let want = fingerprint(a.engine());
        let want_classes = a.engine().classes();

        // Kill -9 (drop without checkpoint) and reopen between every batch.
        let dir_b = tmp_dir("killer");
        for (i, b) in parts.iter().enumerate() {
            let (mut d, report) =
                DurableIncremental::open(&dir_b, two_pass, &theory, &obs).unwrap();
            assert_eq!(report.batches_replayed, i as u64);
            d.ingest(b.clone(), None, &theory, &obs).unwrap();
        }
        let (d, _) = DurableIncremental::open(&dir_b, two_pass, &theory, &obs).unwrap();
        assert_eq!(fingerprint(d.engine()), want);
        assert_eq!(d.engine().classes(), want_classes);

        // Checkpoint mid-way, kill, reopen, finish: same answer again.
        let dir_c = tmp_dir("checkpointed");
        let (mut d, _) = DurableIncremental::open(&dir_c, two_pass, &theory, &obs).unwrap();
        d.ingest(parts[0].clone(), None, &theory, &obs).unwrap();
        d.ingest(parts[1].clone(), None, &theory, &obs).unwrap();
        d.checkpoint(&obs).unwrap();
        assert_eq!(d.batches_since_checkpoint(), 0);
        d.ingest(parts[2].clone(), None, &theory, &obs).unwrap();
        drop(d);
        let (mut d, report) = DurableIncremental::open(&dir_c, two_pass, &theory, &obs).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.batches_in_snapshot, 2);
        assert_eq!(report.batches_replayed, 1);
        d.ingest(parts[3].clone(), None, &theory, &obs).unwrap();
        assert_eq!(fingerprint(d.engine()), want);
        assert_eq!(d.engine().classes(), want_classes);

        for dir in [dir_a, dir_b, dir_c] {
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn mid_journal_truncation_recovers_and_reingest_converges() {
        let theory = NativeEmployeeTheory::new();
        let obs = NoopObserver;
        let parts = batches(9008, 400, 3);

        let dir = tmp_dir("torn");
        let (mut d, _) = DurableIncremental::open(&dir, two_pass, &theory, &obs).unwrap();
        let mut journal_len_after = Vec::new();
        for b in &parts {
            d.ingest(b.clone(), None, &theory, &obs).unwrap();
            journal_len_after.push(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len());
        }
        drop(d);

        // Tear the last frame mid-payload, as a crash during append would.
        let journal = dir.join(JOURNAL_FILE);
        let torn = (journal_len_after[1] + journal_len_after[2]) / 2;
        let data = std::fs::read(&journal).unwrap();
        std::fs::write(&journal, &data[..torn as usize]).unwrap();

        let (mut d, report) = DurableIncremental::open(&dir, two_pass, &theory, &obs).unwrap();
        assert!(report.truncated_bytes > 0, "torn tail must be reported");
        assert!(report.truncation_reason.is_some());
        assert_eq!(report.batches_replayed, 2, "intact prefix replays");

        // The torn batch was never acknowledged; the client re-sends it and
        // the result matches an uninterrupted 3-batch run.
        d.ingest(parts[2].clone(), None, &theory, &obs).unwrap();
        let mut golden = two_pass(IncrementalMergePurge::new());
        for b in &parts {
            golden.add_batch(b.clone(), &theory);
        }
        assert_eq!(fingerprint(d.engine()), fingerprint(&golden));
        assert_eq!(d.engine().classes(), golden.classes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
