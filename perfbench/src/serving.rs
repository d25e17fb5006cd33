//! The two daemon workloads: their inputs, daemons and load loops.
//!
//! * `ingest-stream` — a single-worker daemon (`--shards 1`) over a
//!   bulk-loaded base of 100,000 records, spilled by the external sort
//!   (`--memory-budget 25000`). One client on one held connection sends
//!   100-record `ingest-batch` requests in a closed loop; `--snapshot-every
//!   100` makes several checkpoints land in every run. Chosen because it
//!   stresses the O(N)-per-pass incremental merge, the journal fsync and
//!   checkpoints, bypasses the accept poll, and barely touches rule
//!   evaluation.
//! * `lookup-mix` — the same base on `--shards 2`, driven open-loop at a
//!   fixed Poisson rate (a fixed count of arrivals per run): mostly
//!   `query-matches`, some `explain`, a few 100-record `ingest-batch`
//!   writes, each over a fresh connection (as `mergepurge send` does),
//!   latency timed from each request's due time.
//!   Chosen because it stresses the read path, the accept path, reads
//!   queueing behind writes on the single engine worker, and the sharded
//!   store.
//!
//! The replies are checked in [`crate::check`]; a traced run replays the
//! daemon's layers in process in [`crate::replay`].

use crate::check::{
    check_answers, check_stats, explain, parse_ack, parse_explain, parse_query, query, Acked,
    Answer,
};
use crate::daemon::{self, Conn, Daemon, DaemonSpec};
use crate::loadgen::{poisson_schedule, run_open_loop, Rng};
use crate::replay::{traced_layers, QueueSampler, ServeFigures};
use crate::spans::{op_span, recorder};
use crate::{keys, stats, Ctx, Outcome, Phases, WINDOW};
use merge_purge_repro::core::incremental::IncrementalMergePurge;
use merge_purge_repro::datagen::{DatabaseGenerator, GeneratorConfig};
use merge_purge_repro::metrics::{span, MetricsRecorder};
use merge_purge_repro::record::{io as rio, Record};
use merge_purge_repro::rules::{CompiledTheory, Plan, RuleProgram, EMPLOYEE_RULES_SRC};
use merge_purge_repro::serve::ingest_request;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const BASE_RECORDS: usize = 100_000;
/// 126,000 originals generate about 200,000 records: the 100,000-record
/// base and a pool of about 100,000 the runs ingest from.
const ORIGINALS: usize = 126_000;
pub const BATCH: usize = 100;
/// A quarter of the base, so the bulk load's external sort spills.
pub const MEMORY_BUDGET: usize = 25_000;
pub const SNAPSHOT_EVERY: u64 = 100;
/// ingest-stream reads the daemon's peak memory once this many batches
/// (20,000 records) are in, which every run reaches: a faster daemon
/// ingests more in a run, and the figure must not grow with that.
const RSS_AFTER_BATCHES: usize = 200;
/// Daemon starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// lookup-mix offered load (requests per second) and mix weights
/// (query-matches, explain, ingest-batch). Under half of what two
/// fresh-connection senders get through the daemon (about 60/s), so the
/// generator itself rarely runs late.
const LOOKUP_RATE: f64 = 25.0;
const LOOKUP_MIX: [f64; 3] = [0.85, 0.10, 0.05];

pub fn configure(mut e: IncrementalMergePurge) -> IncrementalMergePurge {
    for key in keys() {
        e = e.pass(key, WINDOW);
    }
    e
}

/// The daemon's theory: `dsl-compiled` with the static plan (the daemon
/// has no calibration sample).
pub fn theory() -> Result<CompiledTheory, String> {
    let program = RuleProgram::compile(EMPLOYEE_RULES_SRC).map_err(|e| e.to_string())?;
    let plan = Plan::of(program.ast());
    Ok(CompiledTheory::from_program(&program, Some(&plan)))
}

/// Where a pool record's true duplicate lives, for `explain` requests.
#[derive(Clone, Copy)]
pub enum Partner {
    Base(u32),
    Pool(usize),
}

/// A daemon run's inputs: the base file, the pool of batches it ingests
/// from, and true-duplicate pairs to ask `explain` about.
pub struct Data {
    pub base_path: PathBuf,
    pub base_bytes: u64,
    /// The base as the daemon reads it back from the file.
    pub base: Vec<Record>,
    /// Batches as the daemon parses them off the wire.
    pub batches: Vec<Vec<Record>>,
    /// Request payloads, one per batch.
    pub payloads: Vec<String>,
    pub batch_bytes: Vec<u64>,
    pub base_pairs: Vec<(u32, u32)>,
    pub pool_partner: Vec<Option<Partner>>,
}

fn make_data(ctx: &Ctx) -> Result<Data, String> {
    let db = DatabaseGenerator::new(GeneratorConfig::new(ORIGINALS).seed(ctx.seed)).generate();
    if db.records.len() < BASE_RECORDS + BATCH {
        return Err("generated database smaller than the base".into());
    }
    let (base, pool) = db.records.split_at(BASE_RECORDS);
    let base_path = ctx.work.join("base.mp");
    let file = File::create(&base_path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(file);
    rio::write_records(&mut w, base).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    drop(w);

    // True-duplicate partners by entity, for explain requests.
    let mut first: HashMap<u32, Partner> = HashMap::new();
    let mut base_pairs = Vec::new();
    for (i, r) in base.iter().enumerate() {
        if let Some(e) = r.entity {
            match first.get(&e.0) {
                Some(Partner::Base(j)) => base_pairs.push((*j, i as u32)),
                _ => {
                    first.insert(e.0, Partner::Base(i as u32));
                }
            }
        }
    }
    let mut pool_partner = Vec::with_capacity(pool.len());
    for (k, r) in pool.iter().enumerate() {
        let partner = r.entity.and_then(|e| first.get(&e.0).copied());
        if partner.is_none() {
            if let Some(e) = r.entity {
                first.insert(e.0, Partner::Pool(k));
            }
        }
        pool_partner.push(partner);
    }

    let mut batches = Vec::new();
    let mut payloads = Vec::new();
    let mut batch_bytes = Vec::new();
    for chunk in pool.chunks_exact(BATCH) {
        let mut text = Vec::new();
        rio::write_records(&mut text, chunk).map_err(|e| e.to_string())?;
        batch_bytes.push(text.len() as u64);
        batches.push(rio::read_records(text.as_slice()).map_err(|e| e.to_string())?);
        payloads.push(ingest_request(chunk));
    }
    drop(db);
    let base = rio::read_records(BufReader::new(
        File::open(&base_path).map_err(|e| e.to_string())?,
    ))
    .map_err(|e| e.to_string())?;
    Ok(Data {
        base_bytes: std::fs::metadata(&base_path)
            .map_err(|e| e.to_string())?
            .len(),
        base_path,
        base,
        batches,
        payloads,
        batch_bytes,
        base_pairs,
        pool_partner,
    })
}

/// Starts `SETUP_REPEATS` daemons in turn (each bulk-loading the base into
/// a fresh store), keeps the last one running and returns the setup
/// times.
fn start_daemon(
    ctx: &Ctx,
    data: &Data,
    shards: usize,
    repeats: usize,
    rec: &MetricsRecorder,
) -> Result<(Daemon, PathBuf, Vec<f64>), String> {
    let mut times = Vec::new();
    for r in 0..repeats {
        let spec = DaemonSpec {
            bin: ctx.mergepurge.clone(),
            store: ctx.work.join(format!("store-{r}")),
            bulk_load: data.base_path.clone(),
            shards,
            memory_budget: MEMORY_BUDGET,
            snapshot_every: SNAPSHOT_EVERY,
        };
        let (daemon, secs) = {
            let _s = op_span(rec, "setup", r as u64);
            Daemon::start(&spec)?
        };
        times.push(secs);
        if r + 1 == repeats {
            return Ok((daemon, spec.store, times));
        }
        daemon.stop()?;
        std::fs::remove_dir_all(&spec.store).map_err(|e| e.to_string())?;
    }
    Err("no daemon started".into())
}

/// End-of-run figures read off the live daemon.
struct DaemonFigures {
    peak_rss_mb: f64,
    /// The store's size at rest, after the graceful shutdown's final
    /// checkpoint (so it does not depend on where the run stopped
    /// between two checkpoints).
    store_bytes: u64,
    stats: String,
}

/// Reads the end-of-run figures (and, traced, the serve-layer ones) off
/// the live daemon, then stops it.
fn finish_daemon(
    ctx: &Ctx,
    workload: &str,
    daemon: Daemon,
    store: &Path,
    acked: &[Acked],
    rec: &MetricsRecorder,
) -> Result<(DaemonFigures, Option<ServeFigures>), String> {
    let _s = op_span(rec, "probe", 0);
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let stats = daemon::request("{\"cmd\":\"stats\"}")?;
    let serve = ctx
        .trace
        .then(|| ServeFigures::read(ctx, workload, acked))
        .transpose()?;
    daemon.stop()?;
    let figures = DaemonFigures {
        peak_rss_mb,
        store_bytes: daemon::dir_bytes(store)?,
        stats,
    };
    Ok((figures, serve))
}

fn set_end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    records_per_s: f64,
    op_p50_ms: f64,
    figures: &DaemonFigures,
    input_bytes: u64,
) {
    out.note(format!(
        "setup (spawn + bulk load + open until readyz) x{}: {:.4?} s",
        setups.len(),
        setups
    ));
    out.set("setup_s", stats::median(setups).expect("setups"));
    out.set("records_per_s", records_per_s);
    out.set("op_p50_ms", op_p50_ms);
    out.set("peak_rss_mb", figures.peak_rss_mb);
    out.set(
        "bytes_per_input_byte",
        figures.store_bytes as f64 / input_bytes as f64,
    );
    out.note(format!(
        "store {} bytes on disk for {input_bytes} input bytes; daemon peak RSS {:.1} MiB",
        figures.store_bytes, figures.peak_rss_mb
    ));
}

/// Id the daemon gave pool record `k`, if its batch was acknowledged.
fn pool_id(acked: &[Acked], k: usize) -> Option<u32> {
    let batch = k / BATCH;
    acked
        .iter()
        .find(|a| a.batch == batch)
        .map(|a| (a.first_id + (k % BATCH) as u64) as u32)
}

/// An explain target: a true-duplicate pair involving an ingested record
/// when one is available (its chain runs through merges the batches
/// made), otherwise one inside the bulk-loaded base.
pub fn explain_pair(data: &Data, acked: &[Acked], rng: &mut Rng) -> (u32, u32) {
    if !acked.is_empty() && rng.unit() < 0.5 {
        let a = &acked[rng.below(acked.len() as u64) as usize];
        for _ in 0..BATCH {
            let k = a.batch * BATCH + rng.below(BATCH as u64) as usize;
            let partner = match data.pool_partner[k] {
                Some(Partner::Base(id)) => Some(id),
                Some(Partner::Pool(j)) => pool_id(acked, j),
                None => None,
            };
            if let (Some(id), Some(p)) = (pool_id(acked, k), partner) {
                return (p, id);
            }
        }
    }
    data.base_pairs[rng.below(data.base_pairs.len() as u64) as usize]
}

/// Counts every failure and check verdict as an operation outcome.
fn tally(
    out: &mut Outcome,
    failures: Vec<String>,
    verdicts: impl IntoIterator<Item = Option<String>>,
) {
    for f in failures {
        out.op(Some(f));
    }
    for v in verdicts {
        out.op(v);
    }
}

pub fn run_ingest_stream(ctx: &Ctx) -> Result<Outcome, String> {
    let mut phases = Phases::start();
    let data = make_data(ctx)?;
    phases.mark("inputs");
    let mut out = Outcome::default();
    out.note(format!(
        "ingest-stream: base {} records ({} bytes), pool of {} batches x {BATCH}, --shards 1, --memory-budget {MEMORY_BUDGET}, --snapshot-every {SNAPSHOT_EVERY}; closed loop, 1 client, 1 held connection",
        data.base.len(),
        data.base_bytes,
        data.batches.len()
    ));
    let rec = recorder(ctx.trace);
    let root = span(&rec, "workload");
    let repeats = if ctx.trace { 1 } else { SETUP_REPEATS };
    let (daemon, store, setups) = start_daemon(ctx, &data, 1, repeats, &rec)?;
    phases.mark("set-up");
    let queue_max = QueueSampler::start(ctx.trace);

    // Closed loop over one held connection.
    let mut conn = Conn::open()?;
    let mut acked = Vec::new();
    let mut lat_ms = Vec::new();
    let mut failures = Vec::new();
    let mut rss_mb = None;
    let started = Instant::now();
    let mut next = 0;
    while started.elapsed().as_secs_f64() < ctx.seconds && next < data.payloads.len() {
        let t = Instant::now();
        let reply = {
            let _s = op_span(&rec, "request", next as u64);
            conn.call(&data.payloads[next])
        };
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        lat_ms.push(rtt_ms);
        match reply.and_then(|r| parse_ack(&r, next, rtt_ms)) {
            Ok(a) => acked.push(a),
            Err(e) => failures.push(e),
        }
        next += 1;
        if next == RSS_AFTER_BATCHES {
            rss_mb = Some(daemon.peak_rss_mb()?);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let queue_depth_max = queue_max.stop();
    if next == data.payloads.len() {
        out.note("note: the batch pool ran out before the run's time was up");
    }

    // Sampled reads after the stream, answered at the final watermark.
    let mut rng = Rng::new(ctx.seed ^ 0x5EED_0001);
    let mut answers = Vec::new();
    for i in 0..20u32 {
        let _s = op_span(&rec, "request", (data.payloads.len() + i as usize) as u64);
        let reply = if i % 2 == 0 {
            let id = rng.below(data.base.len() as u64 + (acked.len() * BATCH) as u64) as u32;
            conn.call(&query(id)).and_then(|r| parse_query(&r, id))
        } else {
            let (a, b) = explain_pair(&data, &acked, &mut rng);
            conn.call(&explain(a, b))
                .and_then(|r| parse_explain(&r, a, b))
        };
        match reply {
            Ok(a) => answers.push(a),
            Err(e) => failures.push(e),
        }
    }
    drop(conn);
    phases.mark("measure");
    let (mut figures, serve) = finish_daemon(ctx, "ingest-stream", daemon, &store, &acked, &rec)?;
    match rss_mb {
        Some(mb) => figures.peak_rss_mb = mb,
        None => out.note(format!(
            "note: fewer than {RSS_AFTER_BATCHES} batches ran; peak RSS is the end-of-run reading"
        )),
    }
    phases.mark("stop");

    let (ack_verdicts, verdicts, reference) = {
        let _s = op_span(&rec, "check", 0);
        check_answers(&data, &acked, &answers)?
    };
    phases.mark("check");
    let stats_verdict = check_stats(&figures.stats, &reference);
    drop(reference);
    tally(
        &mut out,
        failures,
        ack_verdicts
            .into_iter()
            .chain(verdicts)
            .chain([stats_verdict]),
    );

    let records = acked.len() * BATCH;
    let summary = stats::Summary::of(&lat_ms).ok_or("no batch was sent")?;
    out.note(format!(
        "ingest_ms (held connection): {}",
        summary.describe("ms")
    ));
    out.note(format!(
        "ingest_p50_ms {:.4}; ingest_records_per_s {:.1}",
        summary.p50,
        records as f64 / elapsed
    ));
    match serve {
        Some(serve) => {
            traced_layers(
                ctx,
                "ingest-stream",
                &data,
                &acked,
                &rec,
                root,
                serve,
                queue_depth_max,
                0.0,
                &mut out,
            )?;
            phases.mark("replay");
        }
        None => {
            let input_bytes =
                data.base_bytes + acked.iter().map(|a| data.batch_bytes[a.batch]).sum::<u64>();
            set_end_to_end(
                &mut out,
                &setups,
                records as f64 / elapsed,
                summary.p50,
                &figures,
                input_bytes,
            );
        }
    }
    out.note(phases.describe());
    Ok(out)
}

/// What one lookup-mix sender got back: an answer to check, or an ack.
enum Reply {
    Answer(Answer),
    Ack,
}

pub fn run_lookup_mix(ctx: &Ctx) -> Result<Outcome, String> {
    let mut phases = Phases::start();
    let data = make_data(ctx)?;
    phases.mark("inputs");
    let mut out = Outcome::default();
    let senders = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    out.note(format!(
        "lookup-mix: base {} records, --shards 2; open loop, Poisson {LOOKUP_RATE}/s, mix query-matches/explain/ingest-batch {LOOKUP_MIX:?}, fresh connection per request, {senders} sender threads",
        data.base.len(),
    ));
    let rec = recorder(ctx.trace);
    let root = span(&rec, "workload");
    let repeats = if ctx.trace { 1 } else { SETUP_REPEATS };
    let (daemon, store, setups) = start_daemon(ctx, &data, 2, repeats, &rec)?;
    phases.mark("set-up");
    let queue_max = QueueSampler::start(ctx.trace);

    let schedule = poisson_schedule(
        LOOKUP_RATE,
        Duration::from_secs_f64(ctx.seconds),
        &LOOKUP_MIX,
        &mut Rng::new(ctx.seed),
    );
    let next_batch = AtomicUsize::new(0);
    let acked_so_far: Mutex<Vec<Acked>> = Mutex::new(Vec::new());
    let open_loop = span(&rec, "open_loop");
    let results = run_open_loop(&schedule, senders, |i, slot| -> Result<Reply, String> {
        let mut rng = Rng::new(ctx.seed.wrapping_mul(1_000_003).wrapping_add(i as u64));
        let _s = op_span(&rec, "request", i as u64);
        match slot.kind {
            0 => {
                let id = rng.below(data.base.len() as u64) as u32;
                daemon::request(&query(id))
                    .and_then(|r| parse_query(&r, id))
                    .map(Reply::Answer)
            }
            1 => {
                let (a, b) = {
                    let acked = acked_so_far.lock().expect("acked lock");
                    explain_pair(&data, &acked, &mut rng)
                };
                daemon::request(&explain(a, b))
                    .and_then(|r| parse_explain(&r, a, b))
                    .map(Reply::Answer)
            }
            _ => {
                let batch = next_batch.fetch_add(1, Ordering::SeqCst);
                let payload = data.payloads.get(batch).ok_or("batch pool exhausted")?;
                let t = Instant::now();
                let reply = daemon::request(payload)?;
                let ack = parse_ack(&reply, batch, t.elapsed().as_secs_f64() * 1e3)?;
                acked_so_far.lock().expect("acked lock").push(ack.clone());
                Ok(Reply::Ack)
            }
        }
    });
    drop(open_loop);
    let queue_depth_max = queue_max.stop();
    let acked = acked_so_far.into_inner().expect("acked lock");
    phases.mark("measure");
    let (figures, serve) = finish_daemon(ctx, "lookup-mix", daemon, &store, &acked, &rec)?;
    phases.mark("stop");

    let mut answers = Vec::new();
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let mut late = Vec::new();
    let mut failures = Vec::new();
    for ((timing, reply), slot) in results.iter().zip(&schedule) {
        by_kind[slot.kind].push(timing.latency_ms());
        late.push(timing.late_ms());
        match reply {
            Ok(Reply::Answer(a)) => answers.push(a.clone()),
            Ok(Reply::Ack) => {}
            Err(e) => failures.push(e.clone()),
        }
    }
    let (ack_verdicts, verdicts, reference) = {
        let _s = op_span(&rec, "check", 0);
        check_answers(&data, &acked, &answers)?
    };
    phases.mark("check");
    let stats_verdict = check_stats(&figures.stats, &reference);
    drop(reference);
    // Every scheduled request is an operation; the checks add theirs.
    tally(
        &mut out,
        failures,
        ack_verdicts
            .into_iter()
            .chain(verdicts)
            .chain([stats_verdict]),
    );

    let names = ["query", "explain", "ingest"];
    let mut p50 = [f64::NAN; 3];
    for (k, samples) in by_kind.iter().enumerate() {
        match stats::Summary::of(samples) {
            Some(s) => {
                p50[k] = s.p50;
                out.note(format!(
                    "{}_ms (from due time): {}",
                    names[k],
                    s.describe("ms")
                ));
            }
            None => out.note(format!("{}_ms: no samples this run", names[k])),
        }
    }
    // Throughput over the measured span: schedule start to last reply.
    let span_s = results
        .iter()
        .map(|(t, _)| t.done.as_secs_f64())
        .fold(0.0, f64::max);
    let late_summary = stats::Summary::of(&late).ok_or("empty schedule")?;
    out.note(format!(
        "generator lateness: {}",
        late_summary.describe("ms")
    ));
    let records = acked.len() * BATCH;
    match serve {
        Some(serve) => {
            let mut sorted_late = late.clone();
            sorted_late.sort_by(f64::total_cmp);
            traced_layers(
                ctx,
                "lookup-mix",
                &data,
                &acked,
                &rec,
                root,
                serve,
                queue_depth_max,
                stats::percentile(&sorted_late, 99.0).unwrap_or(0.0),
                &mut out,
            )?;
            phases.mark("replay");
        }
        None => {
            let input_bytes =
                data.base_bytes + acked.iter().map(|a| data.batch_bytes[a.batch]).sum::<u64>();
            set_end_to_end(
                &mut out,
                &setups,
                records as f64 / span_s,
                p50[0],
                &figures,
                input_bytes,
            );
        }
    }
    out.note(phases.describe());
    Ok(out)
}
