//! The traced run's span model: the benchmark opens spans around each
//! layer call on the program's own span collector (so its spans and the
//! program's share one clock), then flattens every track into spans with
//! explicit parents and operation ids, and derives per-layer self time.

use merge_purge_repro::metrics::{span_labeled, MetricsRecorder, SpanGuard, TrackSpans};
use std::collections::BTreeMap;

/// A recorder whose spans are on only in traced runs, so timed runs
/// measure with tracing off.
pub fn recorder(tracing: bool) -> MetricsRecorder {
    if tracing {
        MetricsRecorder::new().with_tracing()
    } else {
        MetricsRecorder::new()
    }
}

/// Opens a benchmark span tagged with the operation it belongs to. Spans
/// opened inside it (by the benchmark or the program) inherit the id.
pub fn op_span(rec: &MetricsRecorder, name: &'static str, op: u64) -> Option<SpanGuard> {
    span_labeled(rec, name, || format!("op={op}"))
}

/// One span with its parent made explicit.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub label: Option<String>,
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation id of the nearest labelled ancestor (or itself).
    pub op: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn op_of(label: &Option<String>) -> Option<u64> {
    label
        .as_deref()?
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("op="))
        .and_then(|v| v.parse().ok())
}

/// Flattens drained tracks. Within a track the parent is the enclosing
/// span one level up. A track's root span (a worker thread's) gets as
/// parent the innermost span of `main_track` that encloses it in time,
/// which is the call that spawned the worker.
pub fn flatten(tracks: &[TrackSpans], main_track: u32) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    let mut depth_of: Vec<u32> = Vec::new();
    for t in tracks {
        let mut stack: Vec<usize> = Vec::new();
        for s in &t.spans {
            while stack.last().is_some_and(|&p| depth_of[p] >= s.depth) {
                stack.pop();
            }
            out.push(Span {
                name: s.name,
                label: s.label.clone(),
                track: t.track,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent: stack.last().copied(),
                op: None,
            });
            depth_of.push(s.depth);
            stack.push(out.len() - 1);
        }
    }
    let main: Vec<usize> = (0..out.len())
        .filter(|&i| out[i].track == main_track)
        .collect();
    for i in 0..out.len() {
        if out[i].parent.is_some() || out[i].track == main_track {
            continue;
        }
        out[i].parent = main
            .iter()
            .copied()
            .filter(|&m| out[m].start_ns <= out[i].start_ns && out[m].end_ns >= out[i].end_ns)
            .min_by_key(|&m| out[m].dur_ns());
    }
    for i in 0..out.len() {
        let mut at = Some(i);
        while let Some(j) = at {
            if let Some(op) = op_of(&out[j].label) {
                out[i].op = Some(op);
                break;
            }
            at = out[j].parent;
        }
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may overlap each other (worker threads), so
/// the covered part is the union of their intervals, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// The layer (crate or module) a span's self time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "parse" | "write_pairs" | "run" => "record",
        "compile" => "rules",
        "pass" | "key_build" | "sort" | "sort_strategy" | "window_scan" => "core",
        "closure_merge" => "closure",
        "add_batch" | "shard_scan" | "closure_reconcile" | "classes" | "explain" => "incremental",
        "journal_append" | "checkpoint" | "snapshot" | "open" | "load" => "store",
        "bulk_load" | "bulk_pass" | "extsort" | "run_gen" | "spill" | "merge" => "extsort",
        "bulk_load_store" => "bulk",
        "setup" | "request" | "probe" => "serve",
        "open_loop" => "loadgen",
        _ => "harness",
    }
}

/// Per-layer self time plus the share of the run no layer accounts for.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSplit {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub wall_ns: u64,
    /// Self time of the root span: wall time spent outside every layer call.
    pub unaccounted_ns: u64,
}

impl LayerSplit {
    /// Splits the run rooted at the span named `root` (the first one).
    pub fn of(spans: &[Span], root: &str) -> Option<LayerSplit> {
        let root_idx = spans.iter().position(|s| s.name == root)?;
        let selfs = self_times(spans);
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if i != root_idx {
                *self_ns.entry(layer_of(s.name)).or_default() += selfs[i];
            }
        }
        Some(LayerSplit {
            self_ns,
            wall_ns: spans[root_idx].dur_ns(),
            unaccounted_ns: selfs[root_idx],
        })
    }

    pub fn unaccounted_pct(&self) -> f64 {
        100.0 * self.unaccounted_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// Total self time of spans named `name`, in seconds.
pub fn self_s(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Durations of spans named `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use merge_purge_repro::metrics::SpanRecord;

    fn rec(name: &'static str, label: Option<&str>, depth: u32, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            name,
            label: label.map(str::to_string),
            depth,
            start_ns: s,
            end_ns: e,
        }
    }

    fn tracks() -> Vec<TrackSpans> {
        vec![
            TrackSpans {
                track: 0,
                thread_name: "main".into(),
                spans: vec![
                    rec("workload", None, 0, 0, 1000),
                    rec("add_batch", Some("op=7"), 1, 100, 400),
                    rec("closure_reconcile", None, 2, 350, 390),
                    rec("journal_append", Some("op=8"), 1, 500, 600),
                ],
            },
            // Two worker bands, overlapping each other inside add_batch.
            TrackSpans {
                track: 1,
                thread_name: "band-0".into(),
                spans: vec![rec("shard_scan", Some("shard=0"), 0, 150, 300)],
            },
            TrackSpans {
                track: 2,
                thread_name: "band-1".into(),
                spans: vec![rec("shard_scan", Some("shard=1"), 0, 200, 340)],
            },
        ]
    }

    #[test]
    fn parents_cross_tracks_and_ops_inherit() {
        let spans = flatten(&tracks(), 0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        // Worker roots hang off the enclosing main-track call.
        assert_eq!(spans[4].parent, Some(1));
        assert_eq!(spans[5].parent, Some(1));
        assert_eq!(spans[2].op, Some(7));
        assert_eq!(spans[4].op, Some(7));
        assert_eq!(spans[3].op, Some(8));
        assert_eq!(spans[0].op, None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = flatten(&tracks(), 0);
        let selfs = self_times(&spans);
        // add_batch 100..400; children 150..300, 200..340, 350..390:
        // union = 150..340 (190) + 350..390 (40) = 230 -> self 70.
        assert_eq!(selfs[1], 70);
        // workload 0..1000 minus add_batch (300) and journal_append (100).
        assert_eq!(selfs[0], 600);
        assert_eq!(selfs[4], 150);
        let split = LayerSplit::of(&spans, "workload").unwrap();
        assert_eq!(split.wall_ns, 1000);
        assert_eq!(split.unaccounted_ns, 600);
        assert_eq!(split.self_ns["incremental"], 70 + 40 + 150 + 140);
        assert_eq!(split.self_ns["store"], 100);
        assert!((split.unaccounted_pct() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn covered_clips_and_merges() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(covered_ns(vec![(0, 50)], 10, 20), 10);
        assert_eq!(covered_ns(vec![], 0, 10), 0);
        assert_eq!(covered_ns(vec![(20, 30)], 0, 10), 0);
    }
}
