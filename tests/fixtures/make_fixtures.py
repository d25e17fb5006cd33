"""Regenerates the store fixtures in this directory.

Run it with a `mergepurge` binary from before snapshot version 3 (one
that still writes version 2 snapshots and the sharded store layout):

    python3 tests/fixtures/make_fixtures.py /path/to/old/mergepurge OUT_DIR

It writes OUT_DIR/v2-single and OUT_DIR/legacy-2shard, each holding the
`store/` the old daemon left behind plus what that daemon answered when
reopened over a copy of it: `store_section.json` (the `stats` store
section), `classes.json` (every duplicate class, from `query-matches`)
and `explain.jsonl` (four `explain` replies).
"""

import json, os, shutil, signal, struct, subprocess, sys, time

B = os.path.abspath(sys.argv[1])
FX = os.path.abspath(sys.argv[2])
os.makedirs(FX, exist_ok=True)
os.chdir(FX)
subprocess.run([B, "generate", "--out", "db.mp", "--records", "150",
                "--duplicates", "0.4", "--seed", "14"], check=True)
COMMON = ["--window", "8", "--keys", "last_name,first_name", "--quiet"]

lines = open("db.mp").read().splitlines(True)
cuts = [0, 60, 120, 170, 220, len(lines)]
for i in range(5):
    with open(f"b{i+1}.mp", "w") as f:
        f.writelines(lines[cuts[i]:cuts[i + 1]])


def start(store, shards, sock="mp.sock"):
    if os.path.exists(sock):
        os.remove(sock)
    p = subprocess.Popen([B, "serve", "--socket", sock, "--store", store, "--shards", str(shards)] + COMMON)
    for _ in range(400):
        if os.path.exists(sock):
            r = send(sock, "readyz", check=False)
            if r and json.loads(r).get("ready"):
                return p
        time.sleep(0.05)
    raise SystemExit("daemon not ready")


def send(sock, cmd, inp=None, check=True, raw=None):
    args = [B, "send", "--socket", sock]
    if raw is not None:
        args += ["--json", raw]
    else:
        args += ["--cmd", cmd]
    if inp:
        args += ["--input", inp]
    r = subprocess.run(args, capture_output=True, text=True)
    if check and r.returncode != 0:
        raise SystemExit(f"send {cmd} failed: {r.stdout} {r.stderr}")
    return r.stdout.strip()


def kill9(p):
    p.send_signal(signal.SIGKILL)
    p.wait()


def frames(path):
    data = open(path, "rb").read()
    off = 8
    out = []
    while off < len(data):
        seq, ln = struct.unpack_from("<QQ", data, off + 4)
        end = off + 24 + ln
        out.append((seq, off, end))
        off = end
    return data, out


def build(name, shards):
    store = os.path.join(FX, name, "store")
    shutil.rmtree(os.path.join(FX, name), ignore_errors=True)
    os.makedirs(os.path.dirname(store))
    p = start(store, shards)
    send("mp.sock", "ingest-batch", "b1.mp")
    send("mp.sock", "ingest-batch", "b2.mp")
    send("mp.sock", "snapshot")
    send("mp.sock", "ingest-batch", "b3.mp")
    send("mp.sock", "ingest-batch", "b4.mp")
    if shards > 1:
        send("mp.sock", "ingest-batch", "b5.mp")
    kill9(p)
    if shards > 1:
        # Crash mid-scatter of batch 5: shard 0's frame landed, shard 1's
        # did not. Chop shard 1's last frame at its exact boundary.
        j1 = os.path.join(store, "shard-1", "journal.mpj")
        data, fr = frames(j1)
        assert fr[-1][0] == 5, fr
        open(j1, "wb").write(data[: fr[-1][1]])
        _, fr0 = frames(os.path.join(store, "shard-0", "journal.mpj"))
        assert [f[0] for f in fr0] == [3, 4, 5], fr0
    return store


def record(name, shards):
    store = os.path.join(FX, name, "store")
    work = os.path.join(FX, "work-" + name)
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(store, work)
    p = start(work, shards)
    stats = json.loads(send("mp.sock", "stats"))
    n = stats["store"]["records"]
    classes = {}
    for i in range(n):
        r = json.loads(send("mp.sock", None, raw=json.dumps({"cmd": "query-matches", "id": i})))
        c = r["class"]
        if len(c) > 1:
            classes[c[0]] = c
    cls = [classes[k] for k in sorted(classes)]
    big = sorted(cls, key=lambda c: (-len(c), c[0]))
    pairs = [(c[0], c[-1]) for c in big[:3]]
    pairs.append((cls[0][0], cls[1][0]))
    explains = [send("mp.sock", None, raw=json.dumps({"cmd": "explain", "a": a, "b": b})) for a, b in pairs]
    send("mp.sock", "shutdown")
    p.wait()
    shutil.rmtree(work)
    out = os.path.join(FX, name)
    open(os.path.join(out, "store_section.json"), "w").write(json.dumps(stats["store"], separators=(",", ":")) + "\n")
    open(os.path.join(out, "classes.json"), "w").write(json.dumps(cls, separators=(",", ":")) + "\n")
    open(os.path.join(out, "explain.jsonl"), "w").write("\n".join(explains) + "\n")
    print(name, stats["store"], len(cls), "classes")


build("v2-single", 1)
build("legacy-2shard", 2)
record("v2-single", 1)
record("legacy-2shard", 2)
for f in ["db.mp", "mp.sock"] + [f"b{i}.mp" for i in range(1, 6)]:
    if os.path.exists(f):
        os.remove(f)
