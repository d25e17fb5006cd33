//! perfbench — the repository's benchmark: three seeded workloads run
//! against the code as it ships, each printing its end-to-end metrics
//! (`--trace 0`) or, in a separate traced run, its per-layer split
//! (`--trace 1`).
//!
//! ```text
//! perfbench --workload offline-dedupe|ingest-stream|lookup-mix \
//!           --seed N --seconds S --trace 0|1 --mergepurge PATH
//! ```
//!
//! Run it through `perfbench/run.py`, which builds this package and the
//! `mergepurge` binary from source first. Inputs are generated from the
//! seed; every output is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod daemon;
mod loadgen;
mod offline;
mod replay;
mod serving;
mod spans;
mod stats;

use merge_purge_repro::core::KeySpec;
use std::path::PathBuf;
use std::process::ExitCode;

/// Window of every pass in every workload (the CLI's and daemon's default).
pub const WINDOW: usize = 10;

/// The three passes every workload runs: the paper's last-name,
/// first-name and address keys (the daemon is started with the same
/// `--keys`).
pub fn keys() -> [KeySpec; 3] {
    [
        KeySpec::last_name_key(),
        KeySpec::first_name_key(),
        KeySpec::address_key(),
    ]
}

/// End-to-end metrics, printed by every workload with `--trace 0`. Each
/// workload measures each of them; the per-workload meaning is in
/// BENCHMARK.json and in the report lines.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("bytes_per_input_byte", "B/B"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not reach reads 0 there.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("record.parse_s", "s"),
    ("record.condition_s", "s"),
    ("record.write_s", "s"),
    ("rules.compile_s", "s"),
    ("rules.invocations", "count"),
    ("rules.ns_per_invocation", "ns"),
    ("rules.subexpr_hits", "count"),
    ("rules.eval_p99_ns", "ns"),
    ("core.key_build_s", "s"),
    ("core.sort_s", "s"),
    ("core.window_scan_s", "s"),
    ("core.comparisons", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.match_yield", "ratio"),
    ("core.comparisons_vs_model", "ratio"),
    ("core.us_per_comparison", "us"),
    ("closure.union_s", "s"),
    ("closure.closed_pairs", "count"),
    ("incremental.add_batch_ms", "ms"),
    ("incremental.merge_ms", "ms"),
    ("incremental.scan_ms", "ms"),
    ("incremental.reconcile_ms", "ms"),
    ("incremental.classes_ms", "ms"),
    ("incremental.explain_us", "us"),
    ("store.journal_append_ms", "ms"),
    ("store.journal_bytes_per_record", "B/record"),
    ("store.checkpoint_s", "s"),
    ("store.snapshot_bytes", "B"),
    ("store.open_s", "s"),
    ("extsort.run_formation_s", "s"),
    ("extsort.run_merge_s", "s"),
    ("extsort.spill_runs", "count"),
    ("extsort.bytes_spilled", "B"),
    ("extsort.data_passes", "count"),
    ("bulk.load_s", "s"),
    ("serve.fresh_rtt_ms", "ms"),
    ("serve.held_rtt_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.backpressure_waits", "count"),
    ("serve.queue_depth_max", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("unaccounted_pct", "%"),
];

/// Wall-clock marks through a run, reported so the cost of each phase
/// (inputs, set-up, measurement, checks) is visible.
pub struct Phases {
    start: std::time::Instant,
    last: f64,
    marks: Vec<String>,
}

impl Phases {
    pub fn start() -> Phases {
        Phases {
            start: std::time::Instant::now(),
            last: 0.0,
            marks: Vec::new(),
        }
    }

    /// Ends the phase called `name`.
    pub fn mark(&mut self, name: &str) {
        let now = self.start.elapsed().as_secs_f64();
        self.marks.push(format!("{name} {:.2} s", now - self.last));
        self.last = now;
    }

    pub fn describe(&self) -> String {
        format!("run phases: {}", self.marks.join(", "))
    }
}

/// What one run needs to know.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub mergepurge: PathBuf,
    /// Scratch directory for inputs, stores and the socket (removed at exit).
    pub work: PathBuf,
    /// Where traced runs leave their Chrome trace files.
    pub out: PathBuf,
}

/// A run's result: operation counts, metric values and report lines.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    pub report: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    /// Records one operation; a failure message counts it as failed.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(msg) = failure {
            self.failed += 1;
            if self.failed <= 5 {
                self.note(format!("FAILED: {msg}"));
            }
        }
    }

    /// The result line: exactly the catalogue's metrics, in its order.
    fn result_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            let value = self
                .values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("workload did not measure {name}"))?;
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn arg<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let workload = arg(args, "--workload")?;
    let seed: u64 = arg(args, "--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = arg(args, "--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match arg(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let mergepurge = std::fs::canonicalize(arg(args, "--mergepurge")?)
        .map_err(|e| format!("--mergepurge: {e}"))?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root
        .join(".bench_work")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let out = root.join(".bench_out");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    // The daemon's socket is a short relative name inside `work`.
    std::env::set_current_dir(&work).map_err(|e| e.to_string())?;
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        mergepurge,
        work: work.clone(),
        out,
    };
    let outcome = match workload {
        "offline-dedupe" => offline::run(&ctx),
        "ingest-stream" => serving::run_ingest_stream(&ctx),
        "lookup-mix" => serving::run_lookup_mix(&ctx),
        other => Err(format!(
            "unknown workload {other:?} (expected offline-dedupe, ingest-stream or lookup-mix)"
        )),
    };
    let _ = std::env::set_current_dir(&root);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    for line in &outcome.report {
        println!("{line}");
    }
    let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalogue {
        if let Some((_, v)) = outcome.values.iter().find(|(n, _)| n == name) {
            println!("metric {name:<34} {v:>16.6} {unit}");
        }
    }
    println!(
        "failed_op_ratio {:.6} ({} of {} operations failed or failed a check)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    outcome.result_json(catalogue)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_catalogue() {
        let mut o = Outcome::default();
        o.op(None);
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.set("extra", 2.0);
        let line = o.result_json(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(!line.contains("extra"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        let mut missing = Outcome::default();
        missing.op(Some("boom".into()));
        assert!(missing.result_json(&END_TO_END).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_catalogues() {
        use merge_purge_repro::serve::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = json
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, catalogue, "{key}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
