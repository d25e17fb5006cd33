#!/usr/bin/env python3
"""Build the benchmark and the `mergepurge` binary from source, then run one
workload and print its result.

    python3 perfbench/run.py --workload offline-dedupe|ingest-stream|lookup-mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build` under the root). The output is the benchmark's
report; the first line is the host and provenance block, the last line the
JSON result. Exits non-zero without a result when anything fails.
"""
import hashlib
import json
import os
import platform
import subprocess
import sys

FLUSH_POLICY = "fsync per acknowledged batch (journal append), unchanged on both sides"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root):
    """sha256 over the program's sources, so a result names the code it ran
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not d.startswith(os.path.join(root, "perfbench", "results")))
        for p in files:
            if os.path.isfile(p):
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def arg(args, name):
    return args[args.index(name) + 1] if name in args and args.index(name) + 1 < len(args) else None


def main():
    args = sys.argv[1:]
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
            os.path.join(root, "src")):
        print("perfbench: run from the repository root (no Cargo.toml/src here)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(root, "Cargo.toml"), "--bin", "mergepurge"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(bench, "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's output goes to stderr so stdout stays the report.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    host = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": rustc,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "workload": arg(args, "--workload"),
        "seed": arg(args, "--seed"),
        "seconds": arg(args, "--seconds"),
        "tracing": arg(args, "--trace") == "1",
        "flush_policy": FLUSH_POLICY,
    }
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    binary = os.path.join(target, "release", "perfbench")
    mergepurge = os.path.join(target, "release", "mergepurge")
    return subprocess.run([binary] + args + ["--mergepurge", mergepurge]).returncode


if __name__ == "__main__":
    sys.exit(main())
