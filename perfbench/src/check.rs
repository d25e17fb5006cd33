//! Output checks for the daemon workloads: parsing the wire replies, and
//! the in-process reference they must equal. Acknowledgements must number
//! the batches contiguously, and `query-matches` / `explain` / `stats`
//! replies must equal an `IncrementalMergePurge` fed the same base and the
//! acknowledged batches in sequence order.

use crate::serving::{configure, theory, Data, BATCH};
use merge_purge_repro::closure::ProvenanceLog;
use merge_purge_repro::core::incremental::IncrementalMergePurge;
use merge_purge_repro::record::Record;
use merge_purge_repro::rules::CompiledTheory;
use merge_purge_repro::serve::json::Json;
use std::collections::{BTreeMap, HashMap};

/// An acknowledged batch: its journal sequence number, trace id, which
/// pool batch it carried, and the record id the daemon gave its first
/// record.
#[derive(Debug, Clone)]
pub struct Acked {
    pub seq: u64,
    pub trace: String,
    pub batch: usize,
    pub first_id: u64,
    /// Client round trip of the request, in ms.
    pub rtt_ms: f64,
}

/// One hop of an explain chain, as the daemon replied it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    pub a: u64,
    pub b: u64,
    pub rule_id: u64,
    pub pass: u64,
    pub batch_seq: u64,
    pub trace: Option<String>,
}

/// A reply to check against the reference, with the sequence watermark
/// it was answered at.
#[derive(Debug, Clone)]
pub enum Answer {
    Query {
        id: u32,
        class: Vec<u64>,
        seq: u64,
    },
    Explain {
        a: u32,
        b: u32,
        connected: bool,
        chain: Vec<Hop>,
        seq: u64,
    },
}

impl Answer {
    fn seq(&self) -> u64 {
        match self {
            Answer::Query { seq, .. } | Answer::Explain { seq, .. } => *seq,
        }
    }
}

pub fn ok_reply(reply: &str) -> Result<Json, String> {
    let j = Json::parse(reply).map_err(|e| format!("bad reply ({e})"))?;
    if j.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(j)
    } else {
        Err(format!(
            "daemon refused: {}",
            reply.chars().take(200).collect::<String>()
        ))
    }
}

fn num(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reply lacks numeric {key:?}"))
}

pub fn parse_ack(reply: &str, batch: usize, rtt_ms: f64) -> Result<Acked, String> {
    let j = ok_reply(reply)?;
    let records = num(&j, "records")?;
    if records != BATCH as u64 {
        return Err(format!("ack counts {records} records, sent {BATCH}"));
    }
    Ok(Acked {
        seq: num(&j, "seq")?,
        trace: j
            .get("trace_id")
            .and_then(Json::as_str)
            .ok_or("ack lacks trace_id")?
            .to_string(),
        batch,
        first_id: num(&j, "total_records")? - BATCH as u64,
        rtt_ms,
    })
}

pub fn query(id: u32) -> String {
    format!("{{\"cmd\":\"query-matches\",\"id\":{id}}}")
}

pub fn explain(a: u32, b: u32) -> String {
    format!("{{\"cmd\":\"explain\",\"a\":{a},\"b\":{b}}}")
}

pub fn parse_query(reply: &str, id: u32) -> Result<Answer, String> {
    let j = ok_reply(reply)?;
    let class = j
        .get("class")
        .and_then(Json::as_array)
        .ok_or("reply lacks class")?
        .iter()
        .map(|v| v.as_u64().ok_or("non-numeric class member"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Answer::Query {
        id,
        class,
        seq: num(&j, "seq")?,
    })
}

pub fn parse_explain(reply: &str, a: u32, b: u32) -> Result<Answer, String> {
    let j = ok_reply(reply)?;
    let chain = j
        .get("chain")
        .and_then(Json::as_array)
        .ok_or("reply lacks chain")?
        .iter()
        .map(|h| {
            Ok(Hop {
                a: num(h, "a")?,
                b: num(h, "b")?,
                rule_id: num(h, "rule_id")?,
                pass: num(h, "pass")?,
                batch_seq: num(h, "batch_seq")?,
                trace: h.get("trace_id").and_then(Json::as_str).map(String::from),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Answer::Explain {
        a,
        b,
        connected: j.get("connected").and_then(Json::as_bool) == Some(true),
        chain,
        seq: num(&j, "seq")?,
    })
}

/// The reference: the in-memory engine fed the base as one batch (no
/// extsort, no store, no daemon), with the base's merge lineage dropped
/// as a bulk load drops it, then the acknowledged batches in order.
pub struct Reference {
    engine: IncrementalMergePurge,
    theory: CompiledTheory,
}

impl Reference {
    fn new(base: &[Record]) -> Result<Reference, String> {
        let theory = theory()?;
        let mut engine = configure(IncrementalMergePurge::new());
        engine.add_batch(base.to_vec(), &theory);
        let mut snap = engine.to_snapshot();
        snap.provenance = ProvenanceLog::new();
        let engine = configure(IncrementalMergePurge::new()).restore(snap)?;
        Ok(Reference { engine, theory })
    }

    fn apply(&mut self, batch: &[Record], trace: &str) {
        self.engine.add_batch(batch.to_vec(), &self.theory);
        self.engine.note_batch_trace(trace);
    }

    fn class_of(&self, classes: &HashMap<u32, usize>, all: &[Vec<u32>], id: u32) -> Vec<u64> {
        let mut class: Vec<u64> = match classes.get(&id) {
            Some(&c) => all[c].iter().map(|&x| u64::from(x)).collect(),
            None => vec![u64::from(id)],
        };
        class.sort_unstable();
        class
    }

    fn check(
        &self,
        classes: &HashMap<u32, usize>,
        all: &[Vec<u32>],
        answer: &Answer,
    ) -> Option<String> {
        match answer {
            Answer::Query { id, class, seq } => {
                let mut got = class.clone();
                got.sort_unstable();
                let want = self.class_of(classes, all, *id);
                (got != want).then(|| {
                    format!("query-matches {id} at seq {seq}: daemon {got:?}, reference {want:?}")
                })
            }
            Answer::Explain {
                a,
                b,
                connected,
                chain,
                seq,
            } => {
                let want = self.engine.explain(*a, *b);
                let want_chain: Vec<Hop> = want
                    .iter()
                    .flatten()
                    .map(|e| Hop {
                        a: u64::from(e.a),
                        b: u64::from(e.b),
                        rule_id: u64::from(e.rule_id),
                        pass: u64::from(e.pass),
                        batch_seq: e.batch_seq,
                        trace: e.trace_id.clone(),
                    })
                    .collect();
                (*connected != want.is_some() || *chain != want_chain).then(|| {
                    format!(
                        "explain {a} {b} at seq {seq}: daemon connected={connected} ({} hops), reference connected={} ({} hops)",
                        chain.len(),
                        want.is_some(),
                        want_chain.len()
                    )
                })
            }
        }
    }
}

/// Verdicts on the acknowledgements and on the answers (in their
/// order), and the reference after every acknowledged batch.
pub type Checked = (Vec<Option<String>>, Vec<Option<String>>, Reference);

/// Replays the acknowledged batches into the reference in sequence order
/// and checks every answer at the watermark it was given at. Returns one
/// verdict per answer, in the answers' order, plus the reference.
pub fn check_answers(data: &Data, acked: &[Acked], answers: &[Answer]) -> Result<Checked, String> {
    let mut reference = Reference::new(&data.base)?;
    let mut acked = acked.to_vec();
    acked.sort_by_key(|a| a.seq);
    // Acks must number the batches 2, 3, … (the bulk load is seq 1) and
    // give each batch the ids right after everything before it.
    let mut ack_verdicts = Vec::new();
    let mut next_id = data.base.len() as u64;
    for (i, a) in acked.iter().enumerate() {
        let want_seq = i as u64 + 2;
        ack_verdicts.push(if a.seq != want_seq || a.first_id != next_id {
            Some(format!(
                "ack seq {} first id {} (expected seq {want_seq} first id {next_id})",
                a.seq, a.first_id
            ))
        } else {
            None
        });
        next_id += BATCH as u64;
    }
    let mut by_seq: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, ans) in answers.iter().enumerate() {
        by_seq.entry(ans.seq()).or_default().push(i);
    }
    let mut verdicts = vec![None; answers.len()];
    let mut applied = 1u64;
    let mut pending = acked.iter().peekable();
    for (&seq, idxs) in &by_seq {
        while applied < seq {
            match pending.next() {
                Some(a) if a.seq == applied + 1 => {
                    reference.apply(&data.batches[a.batch], &a.trace);
                    applied += 1;
                }
                _ => break,
            }
        }
        if applied != seq {
            for &i in idxs {
                verdicts[i] = Some(format!(
                    "answer at seq {seq} beyond the acknowledged batches"
                ));
            }
            continue;
        }
        let all = reference.engine.classes();
        let mut member = HashMap::new();
        for (c, class) in all.iter().enumerate() {
            for &id in class {
                member.insert(id, c);
            }
        }
        for &i in idxs {
            verdicts[i] = reference.check(&member, &all, &answers[i]);
        }
    }
    for a in pending {
        if a.seq == applied + 1 {
            reference.apply(&data.batches[a.batch], &a.trace);
            applied += 1;
        }
    }
    Ok((ack_verdicts, verdicts, reference))
}

/// The `stats` reply's deterministic store figures must equal the
/// reference's after every acknowledged batch.
pub fn check_stats(reply: &str, reference: &Reference) -> Option<String> {
    let j = match ok_reply(reply) {
        Ok(j) => j,
        Err(e) => return Some(e),
    };
    let Some(store) = j.get("store") else {
        return Some("stats reply lacks the store section".into());
    };
    let e = &reference.engine;
    let want = [
        ("records", e.records().len() as u64),
        ("comparisons", e.comparisons()),
        ("distinct_pairs", e.pairs().len() as u64),
        ("batches_applied", e.batches_applied()),
    ];
    for (key, value) in want {
        let got = store.get(key).and_then(Json::as_u64);
        if got != Some(value) {
            return Some(format!(
                "stats store.{key}: daemon {got:?}, reference {value}"
            ));
        }
    }
    None
}
