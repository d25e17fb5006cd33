//! Compatibility with stores older binaries wrote. `tests/fixtures/`
//! holds two stores a pre-v3 `mergepurge serve` produced (see its
//! README): a single-layout store with a version 2 snapshot, and a
//! 2-shard store in the retired sharded layout with one committed epoch,
//! two complete scatters after it, and the orphan frame of a crash
//! mid-scatter. Beside each sit the `stats` store section, the duplicate
//! classes, and sample `explain` replies that binary answered.
//!
//! This binary must open both to exactly those answers under any band
//! count, and every step of the one-time legacy conversion, interrupted,
//! must be finished or redone by the next open without losing an
//! acknowledged batch.

#![cfg(unix)]

use merge_purge::incremental::DurableIncremental;
use merge_purge::{IncrementalMergePurge, KeySpec};
use merge_purge_repro::serve::{json::Json, request};
use mp_metrics::NoopObserver;
use mp_rules::NativeEmployeeTheory;
use mp_store::{MatchStore, JOURNAL_FILE, MANIFEST_FILE, SNAPSHOT_FILE};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-legacy-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

/// A private copy of fixture `name`'s store.
fn store_copy(name: &str, dir: &Path) -> PathBuf {
    let store = dir.join("store");
    copy_dir(&fixture(name).join("store"), &store);
    store
}

/// A running daemon, killed on drop so a failed assertion does not leave
/// it behind.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn(socket: &Path, store: &Path, shards: usize) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_mergepurge"))
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .args(["--store", store.to_str().unwrap()])
        .args(["--window", "8", "--keys", "last_name,first_name", "--quiet"])
        .args(["--shards", &shards.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mergepurge serve");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    Daemon(child)
}

fn ask(socket: &Path, payload: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match request(socket, payload) {
            Ok(reply) => return Json::parse(&reply).expect("daemon speaks json"),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => panic!("request failed: {e}"),
        }
    }
}

fn shutdown(socket: &Path, mut daemon: Daemon) {
    ask(socket, r#"{"cmd":"shutdown"}"#);
    assert!(
        daemon.0.wait().unwrap().success(),
        "graceful shutdown exits 0"
    );
}

fn read_json(path: &Path) -> Json {
    Json::parse(std::fs::read_to_string(path).unwrap().trim()).unwrap()
}

/// Everything the fixture recorded, asked of a live daemon: the store
/// section, the duplicate classes (from `query-matches` on every id),
/// and the sampled `explain` replies — each as its JSON text.
fn answers(socket: &Path) -> (String, String, Vec<String>) {
    let stats = ask(socket, r#"{"cmd":"stats"}"#);
    let store = stats.get("store").expect("store section").clone();
    let n = store.get("records").and_then(Json::as_u64).unwrap();
    let mut classes: Vec<Json> = Vec::new();
    for id in 0..n {
        let reply = ask(socket, &format!(r#"{{"cmd":"query-matches","id":{id}}}"#));
        let class = reply.get("class").and_then(Json::as_array).unwrap();
        // Listed once, at its smallest member, like `classes()`.
        if class.len() > 1 && class[0].as_u64() == Some(id) {
            classes.push(Json::Arr(class.to_vec()));
        }
    }
    (
        store.to_string(),
        Json::Arr(classes).to_string(),
        explain_requests()
            .iter()
            .map(|req| ask(socket, req).to_string())
            .collect(),
    )
}

/// The `explain` requests behind the recorded replies (the same pairs
/// in both fixtures).
fn explain_requests() -> Vec<String> {
    std::fs::read_to_string(fixture("v2-single").join("explain.jsonl"))
        .unwrap()
        .lines()
        .map(|l| {
            let r = Json::parse(l).unwrap();
            let (a, b) = (r.get("a").unwrap(), r.get("b").unwrap());
            format!(r#"{{"cmd":"explain","a":{a},"b":{b}}}"#)
        })
        .collect()
}

/// What fixture `name` recorded, in the shape [`answers`] returns.
fn recorded(name: &str) -> (String, String, Vec<String>) {
    let dir = fixture(name);
    (
        read_json(&dir.join("store_section.json")).to_string(),
        read_json(&dir.join("classes.json")).to_string(),
        std::fs::read_to_string(dir.join("explain.jsonl"))
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap().to_string())
            .collect(),
    )
}

fn snapshot_version(store: &Path) -> u32 {
    let bytes = std::fs::read(store.join(SNAPSHOT_FILE)).unwrap();
    u32::from_le_bytes(bytes[8..12].try_into().unwrap())
}

fn assert_single_layout(store: &Path) {
    assert!(!store.join(MANIFEST_FILE).exists(), "manifest unlinked");
    for k in 0..2 {
        assert!(
            !store.join(format!("shard-{k}")).exists(),
            "shard-{k} removed"
        );
    }
}

#[test]
fn fixtures_open_to_the_answers_the_older_binary_recorded() {
    for (name, shards) in [("v2-single", 1), ("legacy-2shard", 2)] {
        let dir = tmp_dir(name);
        let socket = dir.join("mp.sock");
        let store = store_copy(name, &dir);
        let want = recorded(name);

        let child = spawn(&socket, &store, shards);
        assert_eq!(answers(&socket), want, "{name}: first open");
        shutdown(&socket, child);
        // The final checkpoint rewrote the store as one v3 snapshot (and
        // converted the legacy layout); it answers the same.
        assert_single_layout(&store);
        assert_eq!(snapshot_version(&store), 3, "{name}");
        let child = spawn(&socket, &store, shards);
        assert_eq!(answers(&socket), want, "{name}: reopened as v3");
        shutdown(&socket, child);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn band_count_changes_between_restarts_keep_the_store_section() {
    let dir = tmp_dir("bands");
    let socket = dir.join("mp.sock");
    let store = store_copy("legacy-2shard", &dir);
    let want = recorded("legacy-2shard").0;
    for shards in [1, 4, 1] {
        let child = spawn(&socket, &store, shards);
        let stats = ask(&socket, r#"{"cmd":"stats"}"#);
        assert_eq!(
            stats.get("store").unwrap().to_string(),
            want,
            "--shards {shards}"
        );
        shutdown(&socket, child);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn configure(e: IncrementalMergePurge) -> IncrementalMergePurge {
    e.pass(KeySpec::last_name_key(), 8)
        .pass(KeySpec::first_name_key(), 8)
}

/// The engine state a store opens to, in a comparable form.
fn open_state(store: &Path) -> String {
    let theory = NativeEmployeeTheory::new();
    let (d, _) = DurableIncremental::open(store, configure, &theory, &NoopObserver).unwrap();
    let e = d.engine();
    assert_eq!(e.batches_applied(), 4, "no acknowledged batch lost");
    format!(
        "{:?}",
        (
            e.records(),
            e.comparisons(),
            e.pairs().sorted(),
            e.classes(),
            e.pass_counters(),
            e.provenance(),
            d.store().next_seq(),
        )
    )
}

#[test]
fn every_interrupted_conversion_step_is_finished_or_redone() {
    let dir = tmp_dir("crash-steps");
    // The files a completed conversion writes.
    let done = store_copy("legacy-2shard", &dir.join("done"));
    MatchStore::open(&done).unwrap();
    let journal = std::fs::read(done.join(JOURNAL_FILE)).unwrap();
    let snapshot = std::fs::read(done.join(SNAPSHOT_FILE)).unwrap();
    let want = open_state(&done);
    let classes = recorded("legacy-2shard").1;
    let half = |b: &[u8]| b[..b.len() / 2].to_vec();

    type Crash = Box<dyn Fn(&Path)>;
    let write = |name: &'static str, bytes: Vec<u8>| -> Crash {
        Box::new(move |s: &Path| std::fs::write(s.join(name), &bytes).unwrap())
    };
    let steps: Vec<(&str, Vec<Crash>)> = vec![
        (
            "mid journal write",
            vec![write("journal.mpj.tmp", half(&journal))],
        ),
        (
            "journal renamed",
            vec![write(JOURNAL_FILE, journal.clone())],
        ),
        (
            "mid snapshot write",
            vec![
                write(JOURNAL_FILE, journal.clone()),
                write("snapshot.mps.tmp", half(&snapshot)),
            ],
        ),
        (
            "before the manifest unlink",
            vec![
                write(JOURNAL_FILE, journal.clone()),
                write(SNAPSHOT_FILE, snapshot.clone()),
            ],
        ),
        (
            "after the manifest unlink",
            vec![
                write(JOURNAL_FILE, journal.clone()),
                write(SNAPSHOT_FILE, snapshot.clone()),
                Box::new(|s: &Path| std::fs::remove_file(s.join(MANIFEST_FILE)).unwrap()),
            ],
        ),
        (
            "mid shard removal",
            vec![
                write(JOURNAL_FILE, journal.clone()),
                write(SNAPSHOT_FILE, snapshot.clone()),
                Box::new(|s: &Path| {
                    std::fs::remove_file(s.join(MANIFEST_FILE)).unwrap();
                    std::fs::remove_dir_all(s.join("shard-0")).unwrap();
                    std::fs::remove_file(s.join("shard-1/snapshot-1.mps")).unwrap();
                }),
            ],
        ),
    ];
    for (i, (step, crash)) in steps.iter().enumerate() {
        let store = store_copy("legacy-2shard", &dir.join(format!("step-{i}")));
        for c in crash {
            c(&store);
        }
        assert_eq!(open_state(&store), want, "crash {step}");
        assert_single_layout(&store);
        let (_, loaded) = MatchStore::open(&store).unwrap();
        assert!(
            !loaded.recovery.truncated(),
            "crash {step}: reopen is clean"
        );
        let theory = NativeEmployeeTheory::new();
        let (d, _) = DurableIncremental::open(&store, configure, &theory, &NoopObserver).unwrap();
        let got = Json::Arr(
            d.engine()
                .classes()
                .into_iter()
                .map(|c| Json::Arr(c.into_iter().map(|x| Json::Num(x as f64)).collect()))
                .collect(),
        );
        assert_eq!(got.to_string(), classes, "crash {step}: recorded classes");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
