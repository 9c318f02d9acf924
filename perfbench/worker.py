"""Child process that runs vigil commands in passes and times them.

    python3 perfbench/worker.py SPEC.json

SPEC names the ``src`` directory to import vigil from, the passes (each a
list of argument lists for ``vigil.cli.main`` and the output directory to
fingerprint afterwards; pass k uses entry min(k, last)), and the budget:
run passes until ``seconds`` have passed and ``min_passes`` are done, at
most ``max_passes``, after ``warmup`` untimed ones.  Before every pass and
after the last, ``calib_rounds`` rounds of ``calibration.calibrate`` time
the host's current speed; each pass records the medians just before and
just after it.  With ``trace`` set, the
worker alternates untraced and traced passes and installs the span tracer
from ``tracing.py`` around the traced ones.  The last line on stdout is a
JSON report: per-pass wall and CPU seconds per command, exit codes, output
digests and calibration medians, the peak RSS of this process, and the
tracer's per-layer numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time


def _digest(out_dir: str) -> tuple[str, int]:
    """sha256 over (name, bytes) of every file under *out_dir*, and total bytes."""
    h = hashlib.sha256()
    size = 0
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


def _run_pass(cli, template) -> dict:
    walls, cpus, codes = [], [], []
    for argv in template["commands"]:
        c0, t0 = time.process_time(), time.perf_counter()
        code = cli.main(list(argv))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        codes.append(code)
    digest, size = _digest(template["out"])
    return {"wall": walls, "cpu": cpus, "codes": codes, "digest": digest, "bytes": size}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import vigil.cli as cli

    from calibration import calibrate
    from tracing import Tracer

    templates = spec["passes"]
    for _ in range(spec.get("warmup", 0)):
        _run_pass(cli, templates[0])

    def speed():
        return statistics.median(calibrate() for _ in range(spec["calib_rounds"]))

    tracer = Tracer() if spec.get("trace") else None
    plain, traced = [], []
    deadline = time.perf_counter() + spec["seconds"]
    before = speed()
    while len(plain) + len(traced) < spec["max_passes"]:
        template = templates[min(len(plain) + len(traced), len(templates) - 1)]
        if tracer is not None and len(traced) < len(plain):
            tracer.keep_spans = not traced
            tracer.install()
            try:
                result = _run_pass(cli, template)
            finally:
                tracer.uninstall()
                tracer.end_pass()
            traced.append(result)
        else:
            result = _run_pass(cli, template)
            plain.append(result)
        after = speed()
        result["calib"] = [before, after]
        before = after
        done = len(plain) + len(traced)
        if done >= spec["min_passes"] and time.perf_counter() >= deadline:
            break

    report = {"passes": plain, "traced": traced,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(len(traced))
        tracer.write_spans(spec["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
