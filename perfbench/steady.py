"""Steadiness self-check: run workloads repeatedly and compare each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads crowd,live --runs 10 [--seconds 20]
    python3 perfbench/steady.py --compare first.json second.json

Run from the repository root.  Run i uses seed first_seed + i.  The spread
is the distance between the first and third quartile of the runs' values
(statistics.quantiles, n=4) divided by their median; it must stay within
the bound, and below a third of it to leave room for a noisier machine.
setup_s is listed but exempt.  --save writes the values so two sets can be
compared with --compare: the second median may not be worse than the first
by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench():
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(bench, table):
    ok = True
    for workload, runs in table.items():
        print(f"{workload} ({len(runs)} runs)")
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            s = spread(vals)
            verdict = ("exempt" if m["name"] == "setup_s" else
                       "steady" if s < m["bound"] / 3 else
                       "within bound" if s <= m["bound"] else "TOO NOISY")
            ok &= verdict != "TOO NOISY"
            print(f"  {m['name']:<16} median {statistics.median(vals):12.4f} {m['unit']:<4} "
                  f"spread {s:6.3f}  bound {m['bound']:.2f}  {verdict}")
    return ok


def compare(bench, first, second):
    ok = True
    for workload in first:
        for m in bench["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in first[workload])
            b = statistics.median(r[m["name"]] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= verdict == "ok"
            print(f"{workload:<10} {m['name']:<16} {a:12.4f} -> {b:12.4f} "
                  f"({worse:+.3f} worse, bound {m['bound']:.2f}) {verdict}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description="spread of end-to-end metrics over repeated runs")
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--save", default=None, help="write the collected values here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = load_bench()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        return 0 if compare(bench, *sets) else 1

    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    table = {}
    for workload in names:
        table[workload] = []
        for i in range(args.runs):
            values = run_once(bench, workload, args.first_seed + i, seconds)
            table[workload].append(values)
            print(f"{workload} seed {args.first_seed + i}: " +
                  "  ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
    return 0 if report(bench, table) else 1


if __name__ == "__main__":
    sys.exit(main())
