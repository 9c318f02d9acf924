"""Record the reference fingerprints the benchmark compares outputs against.

    python3 perfbench/record.py --seeds 0-49 [--workloads crowd,perimeter,live,curate]

Run from the repository root, on the commit whose outputs define "correct".
For each seed it generates the workload's inputs exactly as run.py does,
runs the commands once (closed loop; for live, the closed-loop twin of the
streamed config) and stores the fingerprint in reference/<workload>.json.  Existing entries
for other seeds are kept.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


def fingerprint(vigil_main, name, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.build(name, seed, workdir, vigil_main)
    commands = plan["commands"]
    out = plan["out"]
    if name == "live":
        out = os.path.join(workdir, "closed-out")
        commands = [["run", "--config", plan["closed_config"], "--out", out, "--quiet"]]
    for argv in commands:
        code = vigil_main(argv)
        if code != 0:
            raise SystemExit(f"{name} seed {seed}: `vigil {argv[0]}` exited {code}")
    if plan["kind"] == "curate":
        fp, failures = checks.curate_outputs(out, workloads.SUMMARIZE_BUDGET)
    else:
        fp, failures, _ = checks.stream_outputs(out, checks.dump_frames(plan["dump"]))
    if failures:
        raise SystemExit(f"{name} seed {seed}: invariants failed: {failures}")
    return fp


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range such as 0-49")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import vigil.cli

    workdir = os.path.join(HERE, "work", "record")
    for name in args.workloads.split(","):
        table = checks.load_reference(name)
        for seed in seed_range(args.seeds):
            table[str(seed)] = fingerprint(vigil.cli.main, name, seed, workdir)
            checks.save_reference(name, table)
            print(f"{name} seed {seed} recorded", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
