//! The daemon workloads' traced run: serve-layer figures read off the
//! live daemon, and an in-process replay of the same base and batches
//! through the public layer calls, each wrapped in a span.

use crate::check::{ok_reply, Acked};
use crate::daemon;
use crate::loadgen::Rng;
use crate::serving::{
    configure, explain_pair, theory, Data, BASE_RECORDS, BATCH, MEMORY_BUDGET, SNAPSHOT_EVERY,
};
use crate::spans::{durations_ms, flatten, op_span, self_s, self_times, LayerSplit};
use crate::{keys, stats, Ctx, Outcome, WINDOW};
use merge_purge_repro::bulk::{bulk_load_store, BulkStoreConfig};
use merge_purge_repro::core::incremental::{DurableIncremental, IncrementalMergePurge};
use merge_purge_repro::extsort::ExternalConfig;
use merge_purge_repro::metrics::{chrome_trace_json, Counter, MetricsRecorder, Phase, SpanGuard};
use merge_purge_repro::record::io as rio;
use merge_purge_repro::serve::json::Json;
use merge_purge_repro::store::MatchStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Key bands the traced replay splits each scan into, so the program's
/// `shard_scan` spans separate scan time from merge time.
const REPLAY_BANDS: usize = 2;

/// Samples the daemon's queue depth (from `readyz`, answered without
/// the engine worker) every 20 ms on a side thread during traced runs.
pub struct QueueSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl QueueSampler {
    pub fn start(enabled: bool) -> QueueSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = enabled.then(|| {
            std::thread::spawn(move || {
                let mut max = 0;
                while !flag.load(Ordering::SeqCst) {
                    if let Ok(r) = daemon::request("{\"cmd\":\"readyz\"}") {
                        if let Ok(j) = Json::parse(&r) {
                            max = max.max(j.get("queue_depth").and_then(Json::as_u64).unwrap_or(0));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                max
            })
        });
        QueueSampler { stop, handle }
    }

    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .map_or(0, |h| h.join().expect("queue sampler panicked"))
    }
}

/// Serve-layer figures a traced run reads off the live daemon.
pub struct ServeFigures {
    fresh_rtt_ms: f64,
    held_rtt_ms: f64,
    /// Client round trip minus the daemon's own `batch` span, per
    /// acknowledged batch still held by the flight recorder.
    overhead_ms: Vec<f64>,
    backpressure_waits: u64,
}

impl ServeFigures {
    pub fn read(ctx: &Ctx, workload: &str, acked: &[Acked]) -> Result<ServeFigures, String> {
        let fresh_rtt_ms = daemon::healthz_rtt_ms(40, true)?;
        let held_rtt_ms = daemon::healthz_rtt_ms(200, false)?;
        let stats = ok_reply(&daemon::request("{\"cmd\":\"stats\"}")?)?;
        let backpressure_waits = stats
            .get("health")
            .and_then(|h| h.get("backpressure_waits"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let dump = ok_reply(&daemon::request("{\"cmd\":\"trace\"}")?)?;
        let chrome = dump
            .get("trace")
            .and_then(Json::as_str)
            .ok_or("trace reply lacks the dump")?;
        let path = ctx
            .out
            .join(format!("daemon-{workload}-seed{}.json", ctx.seed));
        std::fs::write(&path, chrome).map_err(|e| format!("write {}: {e}", path.display()))?;
        // The daemon's `batch` span per trace id, in ms.
        let events = Json::parse(chrome).map_err(|e| format!("daemon trace: {e}"))?;
        let mut batch_ms: HashMap<&str, f64> = HashMap::new();
        for ev in events
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            if ev.get("name").and_then(Json::as_str) != Some("batch") {
                continue;
            }
            let label = ev
                .get("args")
                .and_then(|a| a.get("label"))
                .and_then(Json::as_str)
                .unwrap_or("");
            let Some(Json::Num(dur_us)) = ev.get("dur") else {
                continue;
            };
            if let Some(id) = label
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("trace="))
            {
                batch_ms.insert(id, dur_us / 1e3);
            }
        }
        let overhead_ms = acked
            .iter()
            .filter_map(|a| batch_ms.get(a.trace.as_str()).map(|d| a.rtt_ms - d))
            .collect();
        Ok(ServeFigures {
            fresh_rtt_ms,
            held_rtt_ms,
            overhead_ms,
            backpressure_waits,
        })
    }
}

/// What the traced in-process replay measured beyond its spans.
struct ReplayFigures {
    batches: usize,
    records: usize,
    journal_bytes: u64,
    snapshot_bytes: u64,
    replay_comparisons: u64,
    closed_pairs: usize,
    data_passes: u32,
    subexpr_hits: u64,
    /// `add_batch` wall times with tracing on, and the same batches on an
    /// untraced twin engine, for the tracing-overhead figure.
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

/// The traced run's second half: replay the daemon's layers in process
/// under the still-open `root` span, close it, and derive every per-layer
/// metric.
#[allow(clippy::too_many_arguments)]
pub fn traced_layers(
    ctx: &Ctx,
    workload: &str,
    data: &Data,
    acked: &[Acked],
    rec: &MetricsRecorder,
    root: Option<SpanGuard>,
    serve: ServeFigures,
    queue_depth_max: u64,
    late_p99_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let replay = traced_replay(ctx, data, acked, rec)?;
    drop(root);
    layer_metrics(
        ctx,
        workload,
        rec,
        replay,
        serve,
        queue_depth_max,
        late_p99_ms,
        out,
    )
}

/// Batches the untraced twin replays for the tracing-overhead figure.
const TWIN_BATCHES: usize = 60;

/// Replays the daemon's work in process through the public calls, each
/// wrapped in a span: bulk-load the same base into a store, open it,
/// then for every acknowledged batch in sequence order decode it, append
/// it to the journal, fold it into the engine (scan split into
/// `REPLAY_BANDS` bands) and checkpoint every `SNAPSHOT_EVERY`; finally
/// time `classes()` (what `query-matches` rebuilds) and `explain`.
fn traced_replay(
    ctx: &Ctx,
    data: &Data,
    acked: &[Acked],
    rec: &MetricsRecorder,
) -> Result<ReplayFigures, String> {
    let mut acked = acked.to_vec();
    acked.sort_by_key(|a| a.seq);
    let dir = ctx.work.join("replay-store");
    let theory = {
        let _s = op_span(rec, "compile", 0);
        theory()?
    };
    let cfg = BulkStoreConfig {
        window: WINDOW,
        keys: keys().to_vec(),
        shards: 1,
        external: ExternalConfig {
            memory_records: MEMORY_BUDGET,
            ..ExternalConfig::default()
        },
    };
    let bulk = {
        let _s = op_span(rec, "bulk_load_store", 0);
        bulk_load_store(
            &dir,
            &data.base_path,
            &ctx.work.join("replay-bulk-tmp"),
            &cfg,
            &theory,
            rec,
        )?
        .ok_or("replay store was not empty")?
    };
    {
        let _s = op_span(rec, "open", 0);
        DurableIncremental::open(&dir, configure, &theory, rec).map_err(|e| e.to_string())?;
    }
    let (mut store, loaded) = MatchStore::open(&dir).map_err(|e| e.to_string())?;
    let snap = loaded.snapshot.ok_or("bulk load left no snapshot")?;
    let mut twin = configure(IncrementalMergePurge::new()).restore(snap.clone())?;
    let mut engine = configure(IncrementalMergePurge::new()).restore(snap)?;
    let comparisons0 = engine.comparisons();
    let journal = dir.join("journal.mpj");
    let journal_len = || std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    let untraced = MetricsRecorder::new();
    let mut figures = ReplayFigures {
        batches: acked.len(),
        records: acked.len() * BATCH,
        journal_bytes: 0,
        snapshot_bytes: 0,
        replay_comparisons: 0,
        closed_pairs: 0,
        data_passes: bulk.io.data_passes(),
        subexpr_hits: 0,
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
    };
    let mut checkpoints = 0;
    for (i, a) in acked.iter().enumerate() {
        let mut text = Vec::new();
        rio::write_records(&mut text, &data.batches[a.batch]).map_err(|e| e.to_string())?;
        let _op = op_span(rec, "batch", a.seq);
        let batch = {
            let _s = op_span(rec, "parse", a.seq);
            rio::read_records(text.as_slice()).map_err(|e| e.to_string())?
        };
        let before = journal_len();
        {
            let _s = op_span(rec, "journal_append", a.seq);
            store
                .append_batch(&batch, Some(&a.trace))
                .map_err(|e| e.to_string())?;
        }
        figures.journal_bytes += journal_len() - before;
        // Alternate which engine goes first so drift cancels.
        let twin_turn = i < TWIN_BATCHES;
        if twin_turn && i % 2 == 0 {
            let t = Instant::now();
            twin.add_batch_sharded(batch.clone(), &theory, REPLAY_BANDS, &untraced);
            figures.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        {
            let _s = op_span(rec, "add_batch", a.seq);
            engine.add_batch_sharded(batch.clone(), &theory, REPLAY_BANDS, rec);
        }
        if twin_turn {
            figures.traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        if twin_turn && i % 2 == 1 {
            let t = Instant::now();
            twin.add_batch_sharded(batch, &theory, REPLAY_BANDS, &untraced);
            figures.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        engine.note_batch_trace(&a.trace);
        if (i as u64 + 1).is_multiple_of(SNAPSHOT_EVERY)
            || (i + 1 == acked.len() && checkpoints == 0)
        {
            let _s = op_span(rec, "checkpoint", a.seq);
            figures.snapshot_bytes = store
                .write_snapshot(&engine.to_snapshot())
                .map_err(|e| e.to_string())?;
            checkpoints += 1;
        }
    }
    drop(twin);
    let mut rng = Rng::new(ctx.seed ^ 0x5EED_0002);
    for k in 0..10 {
        let _s = op_span(rec, "classes", k);
        std::hint::black_box(engine.classes());
    }
    for k in 0..50 {
        let (a, b) = explain_pair(data, &acked, &mut rng);
        let _s = op_span(rec, "explain", k);
        std::hint::black_box(engine.explain(a, b));
    }
    figures.replay_comparisons = engine.comparisons() - comparisons0;
    figures.closed_pairs = engine.pairs().len();
    figures.subexpr_hits = theory.subexpr_hits();
    Ok(figures)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-layer metrics of a daemon workload's traced run, from the spans
/// (client requests, replayed layer calls and the program's own spans
/// inside them), the recorder's counters and the replay's figures.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &Ctx,
    workload: &str,
    rec: &MetricsRecorder,
    replay: ReplayFigures,
    serve: ServeFigures,
    queue_depth_max: u64,
    late_p99_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracks = rec.drain_spans();
    let report = rec.report();
    let path = ctx
        .out
        .join(format!("trace-{workload}-seed{}.json", ctx.seed));
    std::fs::write(&path, chrome_trace_json(&tracks))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let spans = flatten(&tracks, 0);
    let selfs = self_times(&spans);
    let split = LayerSplit::of(&spans, "workload").ok_or("no workload span")?;
    out.note(format!(
        "trace: {} spans written to {}; daemon flight recorder dump beside it",
        spans.len(),
        path.display()
    ));
    for (layer, ns) in &split.self_ns {
        out.note(format!(
            "layer {layer:<12} self {:>10.4} s  ({:>5.1}% of wall)",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / split.wall_ns as f64
        ));
    }
    let n = replay.batches.max(1) as f64;
    let per_batch_ms = |name: &str| self_s(&spans, &selfs, name) * 1e3 / n;
    let get = |c: Counter| rec.get(c) as f64;
    let bulk_comparisons = get(Counter::Comparisons);
    let invocations = get(Counter::RuleInvocations) + replay.replay_comparisons as f64;
    let window_scan_s = self_s(&spans, &selfs, "window_scan");
    let rule_eval = report.latency.iter().find(|h| h.name == "rule_eval");
    let base = BASE_RECORDS as f64;
    let w = WINDOW as f64;
    let model = 3.0 * (w - 1.0) * (base - (WINDOW / 2) as f64);
    let phase_s = |p: Phase| rec.phase_total_ns(p) as f64 / 1e9;
    let overhead_pct = 100.0 * (mean(&replay.traced_ms) / mean(&replay.untraced_ms) - 1.0);
    out.note(format!(
        "tracing overhead: add_batch {:.3} ms traced vs {:.3} ms untraced over {} batches",
        mean(&replay.traced_ms),
        mean(&replay.untraced_ms),
        replay.traced_ms.len()
    ));

    for (name, _) in crate::PER_LAYER {
        out.set(name, 0.0);
    }
    out.set("record.parse_s", self_s(&spans, &selfs, "parse"));
    out.set("rules.compile_s", self_s(&spans, &selfs, "compile"));
    out.set("rules.invocations", invocations);
    out.set(
        "rules.ns_per_invocation",
        rule_eval.map_or(0, |h| h.hist.mean_ns()) as f64,
    );
    out.set("rules.subexpr_hits", replay.subexpr_hits as f64);
    out.set(
        "rules.eval_p99_ns",
        rule_eval.map_or(0, |h| h.hist.p99_ns) as f64,
    );
    out.set("core.window_scan_s", window_scan_s);
    out.set("core.comparisons", bulk_comparisons);
    out.set(
        "core.prune_ratio",
        get(Counter::PairsPruned) / bulk_comparisons.max(1.0),
    );
    out.set(
        "core.match_yield",
        get(Counter::Matches) / get(Counter::RuleInvocations).max(1.0),
    );
    out.set("core.comparisons_vs_model", bulk_comparisons / model);
    out.set(
        "core.us_per_comparison",
        window_scan_s * 1e6 / bulk_comparisons.max(1.0),
    );
    out.set("closure.closed_pairs", replay.closed_pairs as f64);
    out.set(
        "incremental.add_batch_ms",
        mean(&durations_ms(&spans, "add_batch")),
    );
    out.set("incremental.merge_ms", per_batch_ms("add_batch"));
    out.set("incremental.scan_ms", per_batch_ms("shard_scan"));
    out.set(
        "incremental.reconcile_ms",
        per_batch_ms("closure_reconcile"),
    );
    out.set(
        "incremental.classes_ms",
        stats::median(&durations_ms(&spans, "classes")).unwrap_or(0.0),
    );
    out.set(
        "incremental.explain_us",
        stats::median(&durations_ms(&spans, "explain")).unwrap_or(0.0) * 1e3,
    );
    out.set(
        "store.journal_append_ms",
        mean(&durations_ms(&spans, "journal_append")),
    );
    out.set(
        "store.journal_bytes_per_record",
        replay.journal_bytes as f64 / replay.records.max(1) as f64,
    );
    out.set(
        "store.checkpoint_s",
        mean(&durations_ms(&spans, "checkpoint")) / 1e3,
    );
    out.set("store.snapshot_bytes", replay.snapshot_bytes as f64);
    out.set(
        "store.open_s",
        durations_ms(&spans, "open").first().copied().unwrap_or(0.0) / 1e3,
    );
    out.set("extsort.run_formation_s", phase_s(Phase::RunFormation));
    out.set("extsort.run_merge_s", phase_s(Phase::RunMerge));
    out.set("extsort.spill_runs", get(Counter::SpillRuns));
    out.set("extsort.bytes_spilled", get(Counter::BytesSpilled));
    out.set("extsort.data_passes", f64::from(replay.data_passes));
    out.set(
        "bulk.load_s",
        durations_ms(&spans, "bulk_load_store")
            .first()
            .copied()
            .unwrap_or(0.0)
            / 1e3,
    );
    out.set("serve.fresh_rtt_ms", serve.fresh_rtt_ms);
    out.set("serve.held_rtt_ms", serve.held_rtt_ms);
    out.set(
        "serve.overhead_ms",
        stats::median(&serve.overhead_ms).unwrap_or(0.0),
    );
    out.set("serve.backpressure_waits", serve.backpressure_waits as f64);
    out.set("serve.queue_depth_max", queue_depth_max as f64);
    out.set("loadgen.late_p99_ms", late_p99_ms);
    out.set("trace.overhead_pct", overhead_pct);
    out.set("unaccounted_pct", split.unaccounted_pct());
    Ok(())
}
