//! Driving a `mergepurge serve` process: spawn it over a bulk-loaded
//! store, wait for readiness, talk the wire protocol, read its peak
//! memory, and stop it.

use merge_purge_repro::serve::{self, json::Json};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Socket name, relative to the working directory the benchmark and the
/// daemon share (a relative path keeps it under the 108-byte limit
/// however deep the checkout is).
pub const SOCKET: &str = "mp.sock";

/// How the daemon is started; the flags are the ones a user would pass.
#[derive(Debug, Clone)]
pub struct DaemonSpec {
    pub bin: PathBuf,
    pub store: PathBuf,
    pub bulk_load: PathBuf,
    pub shards: usize,
    pub memory_budget: usize,
    pub snapshot_every: u64,
}

/// A running daemon. Dropping it kills the process if `stop` was not
/// called, so an error path never leaves one behind.
pub struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    /// Spawns the daemon and returns once `readyz` answers ready, with
    /// the time from spawn to ready (spawn + bulk load + open).
    pub fn start(spec: &DaemonSpec) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_file(SOCKET);
        let started = Instant::now();
        let child = Command::new(&spec.bin)
            .args(["serve", "--socket", SOCKET, "--store"])
            .arg(&spec.store)
            .arg("--bulk-load")
            .arg(&spec.bulk_load)
            .args(["--theory", "dsl-compiled", "--quiet"])
            .args(["--keys", "last_name,first_name,address"])
            .args(["--window", &crate::WINDOW.to_string()])
            .args(["--shards", &spec.shards.to_string()])
            .args(["--memory-budget", &spec.memory_budget.to_string()])
            .args(["--snapshot-every", &spec.snapshot_every.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.bin.display()))?;
        let mut daemon = Daemon { child: Some(child) };
        let deadline = started + Duration::from_secs(120);
        loop {
            if let Ok(reply) = serve::request(Path::new(SOCKET), "{\"cmd\":\"readyz\"}") {
                let ready = Json::parse(&reply)
                    .ok()
                    .and_then(|j| j.get("ready").and_then(Json::as_bool));
                if ready == Some(true) {
                    return Ok((daemon, started.elapsed().as_secs_f64()));
                }
            }
            if let Some(status) = daemon.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited before ready: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon not ready within 120 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("daemon already stopped")
    }

    /// Peak resident set of the daemon so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("daemon already stopped").id();
        peak_rss_mb(&format!("/proc/{pid}/status"))
    }

    /// Graceful shutdown; waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let reply = request("{\"cmd\":\"shutdown\"}");
        let mut child = self.child.take().expect("daemon already stopped");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not stop within 60 s".into());
                }
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        reply.map(|_| ())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(status_path).map_err(|e| format!("read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// One request over a fresh connection, like `mergepurge send`.
pub fn request(payload: &str) -> Result<String, String> {
    serve::request(Path::new(SOCKET), payload).map_err(|e| format!("request: {e}"))
}

/// A held connection for a closed-loop client.
pub struct Conn(UnixStream);

impl Conn {
    pub fn open() -> Result<Conn, String> {
        UnixStream::connect(SOCKET)
            .map(Conn)
            .map_err(|e| format!("connect {SOCKET}: {e}"))
    }

    pub fn call(&mut self, payload: &str) -> Result<String, String> {
        serve::write_frame(&mut self.0, payload).map_err(|e| format!("send: {e}"))?;
        serve::read_frame(&mut self.0)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "daemon closed the connection".to_string())
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Median round trip of `n` `healthz` probes, in ms: over fresh
/// connections (paying the daemon's accept poll) or over one held one.
pub fn healthz_rtt_ms(n: usize, fresh: bool) -> Result<f64, String> {
    let mut held = if fresh { None } else { Some(Conn::open()?) };
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let reply = match held.as_mut() {
            Some(c) => c.call("{\"cmd\":\"healthz\"}")?,
            None => request("{\"cmd\":\"healthz\"}")?,
        };
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if !reply.contains("\"ok\":true") {
            return Err(format!("healthz failed: {reply}"));
        }
    }
    crate::stats::median(&samples).ok_or_else(|| "no healthz samples".into())
}
