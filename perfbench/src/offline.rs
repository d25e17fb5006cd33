//! `offline-dedupe`: the calls `mergepurge dedupe --theory dsl-compiled
//! --pairs-out FILE` makes, in process — read the record file, compile
//! and calibrate the 26-rule employee theory, run three sorted-
//! neighbourhood passes (w = 10) with closure, write the closed pairs.
//!
//! Chosen because rule evaluation (the planned VM) and the window scan do
//! most of the work here and almost none in the daemon workloads.

use crate::spans::{flatten, op_span, recorder, self_s, self_times, LayerSplit};
use crate::{keys, stats, Ctx, Outcome, Phases, WINDOW};
use merge_purge_repro::core::{MergePurge, MergePurgeResult};
use merge_purge_repro::datagen::{DatabaseGenerator, GeneratorConfig};
use merge_purge_repro::metrics::{chrome_trace_json, span, Counter, MetricsRecorder, Phase};
use merge_purge_repro::record::{io as rio, Record};
use merge_purge_repro::rules::{
    CompiledTheory, NativeEmployeeTheory, Plan, RuleProgram, EMPLOYEE_RULES_SRC,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// 82,000 originals generate about 130,000 records (with the CLI's
/// default 30% duplication, at most 5 duplicates each).
const ORIGINALS: usize = 82_000;
/// Adjacent input pairs the CLI calibrates the compiled plan on.
const CALIBRATION_PAIRS: usize = 2048;
/// Set-ups (compile + calibrate) before each dedupe; `setup_s` is the
/// median of all of them. Spreading them through the run, rather than
/// timing them back to back, keeps one moment's host speed from setting
/// the figure.
const SETUPS_PER_DEDUPE: usize = 3;

fn read(path: &Path) -> Result<Vec<Record>, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    rio::read_records(BufReader::new(file)).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Compile + calibrate, as `Theory::load` does for `dsl-compiled`.
fn compile(raw: &[Record]) -> Result<CompiledTheory, String> {
    let program = RuleProgram::compile(EMPLOYEE_RULES_SRC).map_err(|e| e.to_string())?;
    let n = raw.len().saturating_sub(1).min(CALIBRATION_PAIRS);
    let pairs: Vec<(&Record, &Record)> = (0..n).map(|i| (&raw[i], &raw[i + 1])).collect();
    let plan = Plan::calibrated(&program, &pairs);
    Ok(CompiledTheory::from_program(&program, Some(&plan)))
}

fn dedupe(
    theory: &CompiledTheory,
    records: &mut [Record],
    rec: &MetricsRecorder,
) -> MergePurgeResult {
    let mut pipeline = MergePurge::new(theory);
    for key in keys() {
        pipeline = pipeline.pass(key, WINDOW);
    }
    pipeline.run_observed(records, rec)
}

/// Writes the pairs file the way `--pairs-out` does: one `a<TAB>b` line
/// per closed pair, written straight to the file.
fn write_pairs(path: &Path, pairs: &[(u32, u32)]) -> Result<(), String> {
    let mut f = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    for (a, b) in pairs {
        writeln!(f, "{a}\t{b}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn pairs_text(pairs: &[(u32, u32)]) -> String {
    pairs.iter().map(|(a, b)| format!("{a}\t{b}\n")).collect()
}

struct Input {
    db: std::path::PathBuf,
    pairs_out: std::path::PathBuf,
    records: usize,
    db_bytes: u64,
    calibration: Vec<Record>,
}

fn make_input(ctx: &Ctx) -> Result<Input, String> {
    let db = ctx.work.join("db.mp");
    let generated =
        DatabaseGenerator::new(GeneratorConfig::new(ORIGINALS).seed(ctx.seed)).generate();
    let file = File::create(&db).map_err(|e| format!("create {}: {e}", db.display()))?;
    let mut w = BufWriter::new(file);
    rio::write_records(&mut w, &generated.records).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    let records = generated.records.len();
    drop(generated);
    let calibration = read(&db)?.into_iter().take(CALIBRATION_PAIRS + 1).collect();
    Ok(Input {
        db_bytes: std::fs::metadata(&db).map_err(|e| e.to_string())?.len(),
        pairs_out: ctx.work.join("pairs.tsv"),
        db,
        records,
        calibration,
    })
}

/// The reference closed-pair set for this seed: the same passes under
/// the hand-written native theory with pruning off — a second
/// implementation of the same 26 rules and a second scan path.
fn reference(input: &Input) -> Result<Vec<(u32, u32)>, String> {
    let mut records = read(&input.db)?;
    let native = NativeEmployeeTheory::new();
    let mut pipeline = MergePurge::new(&native).without_pruning();
    for key in keys() {
        pipeline = pipeline.pass(key, WINDOW);
    }
    Ok(pipeline.run(&mut records).closed_pairs.sorted())
}

/// One dedupe and what it left behind.
struct Written {
    ms: f64,
    pairs: Vec<(u32, u32)>,
    /// The pairs file as read back after the timed part.
    text: Option<String>,
}

/// One timed dedupe: read, run, write.
fn one_dedupe(
    input: &Input,
    theory: &CompiledTheory,
    rec: &MetricsRecorder,
    op: u64,
) -> Result<Written, String> {
    let t = Instant::now();
    let pairs = {
        let _op = op_span(rec, "dedupe", op);
        let mut records = {
            let _s = op_span(rec, "parse", op);
            read(&input.db)?
        };
        let result = dedupe(theory, &mut records, rec);
        let pairs = result.closed_pairs.sorted();
        let _s = op_span(rec, "write_pairs", op);
        write_pairs(&input.pairs_out, &pairs)?;
        pairs
    };
    Ok(Written {
        ms: t.elapsed().as_secs_f64() * 1e3,
        pairs,
        text: std::fs::read_to_string(&input.pairs_out).ok(),
    })
}

/// `None` when the in-memory pairs and the written file both equal the
/// reference.
fn verdict(w: &Written, expected: &[(u32, u32)], expected_text: &str) -> Option<String> {
    if w.pairs != expected {
        Some(format!(
            "closed pairs differ from the reference ({} vs {})",
            w.pairs.len(),
            expected.len()
        ))
    } else if w.text.as_deref() != Some(expected_text) {
        Some("pairs file differs from the reference".into())
    } else {
        None
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut phases = Phases::start();
    let input = make_input(ctx)?;
    phases.mark("inputs");
    let mut out = Outcome::default();
    out.note(format!(
        "offline-dedupe: {} records ({} bytes), 3 passes w={WINDOW}, theory dsl-compiled (calibrated)",
        input.records, input.db_bytes
    ));
    if ctx.trace {
        traced(ctx, &input, &mut out)?;
    } else {
        timed(ctx, &input, &mut out)?;
    }
    phases.mark("set-up, measure and check");
    out.note(phases.describe());
    Ok(out)
}

fn timed(ctx: &Ctx, input: &Input, out: &mut Outcome) -> Result<(), String> {
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut written = Vec::new();
    while written.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        let mut theory = None;
        for _ in 0..SETUPS_PER_DEDUPE {
            let t = Instant::now();
            theory = Some(compile(&input.calibration)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let theory = theory.expect("at least one set-up");
        written.push(one_dedupe(
            input,
            &theory,
            &MetricsRecorder::new(),
            written.len() as u64,
        )?);
    }
    // Read before the reference run so the peak is the measured work's.
    let rss = crate::daemon::peak_rss_mb("/proc/self/status")?;
    let out_bytes = std::fs::metadata(&input.pairs_out)
        .map_err(|e| e.to_string())?
        .len();
    let expected = reference(input)?;
    let expected_text = pairs_text(&expected);
    for w in &written {
        out.op(verdict(w, &expected, &expected_text));
    }
    let ops_ms: Vec<f64> = written.iter().map(|w| w.ms).collect();

    let total_s: f64 = ops_ms.iter().sum::<f64>() / 1e3;
    let summary = stats::Summary::of(&ops_ms).expect("at least one op");
    out.note(format!(
        "dedupe runs: {} (each reads, dedupes and writes {} records): {:.1?} ms",
        summary.describe("ms"),
        input.records,
        ops_ms
    ));
    out.note(format!(
        "setup (compile + calibrate) x{}: median {:.4} s of {:.4?}",
        setups.len(),
        stats::median(&setups).expect("setups"),
        setups
    ));
    out.note(format!(
        "reference: {} closed pairs (native theory, no pruning)",
        expected.len()
    ));
    out.set("setup_s", stats::median(&setups).expect("setups"));
    out.set(
        "records_per_s",
        (input.records * ops_ms.len()) as f64 / total_s,
    );
    out.set("op_p50_ms", summary.p50);
    out.set("peak_rss_mb", rss);
    out.set(
        "bytes_per_input_byte",
        out_bytes as f64 / input.db_bytes as f64,
    );
    Ok(())
}

fn traced(ctx: &Ctx, input: &Input, out: &mut Outcome) -> Result<(), String> {
    let rec = MetricsRecorder::new().with_tracing();
    let expected = reference(input)?;
    let expected_text = pairs_text(&expected);
    let (theory, first) = {
        let _root = span(&rec, "workload");
        let theory = {
            let _s = op_span(&rec, "compile", 0);
            compile(&input.calibration)?
        };
        let first = one_dedupe(input, &theory, &rec, 1)?;
        (theory, first)
    };
    out.op(verdict(&first, &expected, &expected_text));
    let subexpr_hits = theory.subexpr_hits();
    let tracks = rec.drain_spans();
    let report = rec.report();

    // Tracing overhead: the same dedupe untraced and traced, alternated
    // U T T U U T so drift cancels.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for (i, on) in [false, true, true, false, false, true]
        .into_iter()
        .enumerate()
    {
        let r = recorder(on);
        let w = one_dedupe(input, &theory, &r, 2 + i as u64)?;
        out.op(verdict(&w, &expected, &expected_text));
        r.drain_spans();
        if on { &mut traced } else { &mut plain }.push(w.ms);
    }
    let overhead_pct = 100.0 * (traced.iter().sum::<f64>() / plain.iter().sum::<f64>() - 1.0);

    let path = ctx
        .out
        .join(format!("trace-offline-dedupe-seed{}.json", ctx.seed));
    std::fs::write(&path, chrome_trace_json(&tracks))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let spans = flatten(&tracks, 0);
    let selfs = self_times(&spans);
    let split = LayerSplit::of(&spans, "workload").ok_or("no workload span")?;
    let get = |c: Counter| report.counter(c.name()).unwrap_or(0) as f64;
    let comparisons = get(Counter::Comparisons);
    let invocations = get(Counter::RuleInvocations);
    let n = input.records as f64;
    let w = WINDOW as f64;
    let model = keys().len() as f64 * (w - 1.0) * (n - (WINDOW / 2) as f64);
    let rule_eval = report.latency.iter().find(|h| h.name == "rule_eval");
    let window_scan_s = self_s(&spans, &selfs, "window_scan");

    out.note(format!(
        "trace: {} spans written to {}",
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
    out.note(format!(
        "paper 3.5 model: (w-1)(N-w/2) = {:.0} per pass, measured {:.0} per pass; {:.4} us per comparison",
        model / 3.0,
        comparisons / 3.0,
        window_scan_s * 1e6 / comparisons.max(1.0)
    ));
    out.note(format!(
        "tracing overhead: untraced {plain:.1?} ms, traced {traced:.1?} ms"
    ));

    for (name, _) in crate::PER_LAYER {
        out.set(name, 0.0);
    }
    out.set("record.parse_s", self_s(&spans, &selfs, "parse"));
    out.set(
        "record.condition_s",
        report
            .phases
            .iter()
            .find(|p| p.name == Phase::Condition.name())
            .map_or(0, |p| p.ns) as f64
            / 1e9,
    );
    out.set("record.write_s", self_s(&spans, &selfs, "write_pairs"));
    out.set("rules.compile_s", self_s(&spans, &selfs, "compile"));
    out.set("rules.invocations", invocations);
    out.set(
        "rules.ns_per_invocation",
        rule_eval.map_or(0, |h| h.hist.mean_ns()) as f64,
    );
    out.set("rules.subexpr_hits", subexpr_hits as f64);
    out.set(
        "rules.eval_p99_ns",
        rule_eval.map_or(0, |h| h.hist.p99_ns) as f64,
    );
    out.set("core.key_build_s", self_s(&spans, &selfs, "key_build"));
    out.set(
        "core.sort_s",
        self_s(&spans, &selfs, "sort") + self_s(&spans, &selfs, "sort_strategy"),
    );
    out.set("core.window_scan_s", window_scan_s);
    out.set("core.comparisons", comparisons);
    out.set(
        "core.prune_ratio",
        get(Counter::PairsPruned) / comparisons.max(1.0),
    );
    out.set(
        "core.match_yield",
        get(Counter::Matches) / invocations.max(1.0),
    );
    out.set("core.comparisons_vs_model", comparisons / model);
    out.set(
        "core.us_per_comparison",
        window_scan_s * 1e6 / comparisons.max(1.0),
    );
    out.set("closure.union_s", self_s(&spans, &selfs, "closure_merge"));
    out.set("closure.closed_pairs", first.pairs.len() as f64);
    out.set("trace.overhead_pct", overhead_pct);
    out.set("unaccounted_pct", split.unaccounted_pct());
    Ok(())
}
