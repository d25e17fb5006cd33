#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
median and spread (distance between the first and third quartile as a share
of the median), against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload lookup-mix --seeds 1-10 [--seconds 10]
        [--json perfbench/results/NAME.json]

Run it from the repository root. A spread should stay under a third of the
metric's bound; `setup_s` is reported but is held only to the median rule.
"""
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    args = sys.argv[1:]
    opt = lambda name, default=None: args[args.index(name) + 1] if name in args else default
    bench = json.load(open("BENCHMARK.json"))
    workload = opt("--workload")
    seconds = opt("--seconds", str(bench["run_seconds"]))
    runs = []
    for seed in seeds_of(opt("--seeds", "1-10")):
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
        runs.append({"seed": seed, "host": host, "result": result})
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {vals}", flush=True)
    summary = {}
    ok = True
    for m in bench["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        held = m["name"] == "setup_s" or spread < m["bound"] / 3
        ok &= held
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "unit": m["unit"]}
        print(f"{m['name']:<22} median {med:12.6g} {m['unit']:<10} spread {spread:7.2%}"
              f"  bound {m['bound']:.2f}  {'ok' if held else 'TOO WIDE'}")
    all_correct = all(r["result"]["correct"] for r in runs)
    print("all runs correct" if all_correct else "SOME RUNS FAILED A CHECK")
    if opt("--json"):
        with open(opt("--json"), "w") as f:
            json.dump({"workload": workload, "seconds": float(seconds), "runs": runs,
                       "summary": summary}, f, indent=1, sort_keys=True)
    return 0 if ok and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
