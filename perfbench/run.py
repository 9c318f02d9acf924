"""vigil benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0

Run it from the repository root; vigil is imported from ./src, never from an
installed copy.  Workloads: crowd, perimeter, live, curate (README.md says
why each exists).  Inputs are generated from --seed (workloads.py); the
commands run in a child process (worker.py) so its peak RSS is vigil's own.
Outputs are checked (checks.py) and every failed command, check or alert
counts in `failed`.

--trace 0 measures with tracing off and reports the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced passes and reports
the per-layer metrics, plus the tracing overhead.  Human-readable lines
start with '#'; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from calibration import calibrate, speed_factor  # noqa: E402

SETUP_MIN_REPS = 3        # set-ups per run: at least this many, and more
SETUP_MIN_S = 2.0         # until this long has passed; setup_s is their median
SETUP_MAX_REPS = 15
LIVE_CALIB_ROUNDS = 3     # calibration rounds between live sessions
WORKER_GRACE_S = 100      # a worker still running this long past --seconds is killed
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0, 70.0, 65.0, 60.0, 55.0, 50.0)


def log(line: str = "") -> None:
    print(f"# {line}", flush=True)


def tail(samples):
    """(label, value): the highest ladder percentile with >= 10 samples beyond it.

    Nearest-rank percentiles; with fewer than 20 samples no percentile
    qualifies and the slowest sample is returned as "max".
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return f"p{p:g}", xs[rank - 1]
    return "max", xs[-1]


def percentile(samples, p):
    xs = sorted(samples)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def describe(name, unit, samples, scale=1.0, count_label="samples"):
    """Print a timing as median plus tail, with the sample count."""
    vals = [v * scale for v in samples]
    label, worst = tail(vals)
    log(f"{name:<24} {statistics.median(vals):12.4f} {unit:<9} "
        f"({label} {worst:.4f}, {len(vals)} {count_label})")


# ---------------------------------------------------------------------------
# live workload: FIFO writer and TCP alert receiver


class AlertReceiver(threading.Thread):
    """Accepts vigil's alert-sink connections and stamps every line on arrival."""

    def __init__(self):
        super().__init__(daemon=True)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.lines = []           # (arrival perf_counter, decoded line)
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(0.1)
                pending = b""
                while True:
                    try:
                        data = conn.recv(65536)
                    except socket.timeout:
                        if self._halt.is_set():
                            break
                        continue
                    if not data:
                        break
                    now = time.perf_counter()
                    pending += data
                    *done, pending = pending.split(b"\n")
                    self.lines.extend((now, line.decode()) for line in done if line)

    def stop(self):
        self._halt.set()
        self.join(timeout=5)
        self.sock.close()


def frame_chunks(dump_path):
    """[(frame_id, bytes)] in dump order; one write per frame."""
    chunks = []
    with open(dump_path, "rb") as fh:
        for line in fh:
            fid = json.loads(line)["frame"]
            if chunks and chunks[-1][0] == fid:
                chunks[-1][1].append(line)
            else:
                chunks.append((fid, [line]))
    return [(fid, b"".join(lines)) for fid, lines in chunks]


def open_fifo_writer(path, proc, timeout):
    """Open the FIFO for writing once the worker has opened it for reading."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
            os.set_blocking(fd, True)
            return fd
        except OSError:
            if proc.poll() is not None or time.perf_counter() > deadline:
                return None
            time.sleep(0.005)


def stream(path, chunks, rate, proc, timeout):
    """Open loop: frame i is due at t0 + i / rate, whether or not vigil keeps up.

    Returns (t0, due times by frame id, lateness per frame, ok).
    """
    fd = open_fifo_writer(path, proc, timeout)
    if fd is None:
        return None, {}, [], False
    t0 = time.perf_counter() + 0.05
    due, late, ok = {}, [], True
    try:
        for i, (fid, data) in enumerate(chunks):
            when = t0 + i / rate
            wait = when - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late.append(time.perf_counter() - when)
            due[fid] = when
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
    except BrokenPipeError:
        ok = False
    finally:
        os.close(fd)
    return t0, due, late, ok


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.work = os.path.join(HERE, "work", args.workload)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, failures, what, weight=1):
        """Count *weight* operations, failing those listed in *failures*."""
        self.attempted += weight
        self.failed += min(len(failures), weight)
        self.problems += [f"{what}: {msg}" for msg in failures]

    # -- set-up -------------------------------------------------------------

    def setup(self, vigil_main, sink_port=0):
        """Generate the inputs repeatedly into fresh directories; keep the last.

        Returns the plan, the set-up times and the calibration times taken
        before each set-up and after the last.
        """
        times, calib = [], []
        wd = None
        while (len(times) < SETUP_MIN_REPS
               or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPS)):
            if wd is not None:
                shutil.rmtree(wd)
            wd = os.path.join(self.work, f"in{len(times)}")
            calib.append(calibrate())
            t0 = time.perf_counter()
            plan = workloads.build(self.args.workload, self.args.seed, wd,
                                   vigil_main, sink_port)
            times.append(time.perf_counter() - t0)
        calib.append(calibrate())
        if "dump" in plan:
            plan["dump_frames"] = checks.dump_frames(plan["dump"])
        return plan, times, calib

    # -- worker -------------------------------------------------------------

    def start_worker(self, passes, warmup, min_passes, max_passes, calib_rounds):
        spec = {"src": os.path.join(self.root, "src"), "passes": passes,
                "warmup": warmup, "min_passes": min_passes, "max_passes": max_passes,
                "calib_rounds": calib_rounds,
                "seconds": self.args.seconds, "trace": self.args.trace,
                "spans": os.path.join(self.work, "spans.jsonl")}
        spec_path = os.path.join(self.work, "worker-spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                stdout=subprocess.PIPE, text=True)

    def finish_worker(self, proc):
        try:
            out, _ = proc.communicate(timeout=self.args.seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.check(["worker timed out"], "worker")
            return None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.check([f"worker exited {proc.returncode}"], "worker")
            return None
        report = json.loads(lines[-1])
        for p in report["passes"] + report["traced"]:
            bad = [f"exit code {c}" for c in p["codes"] if c != 0]
            self.check(bad, "vigil command", weight=len(p["codes"]))
        digests = {p["digest"] for p in report["passes"] + report["traced"]}
        return report, digests


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "vigil", "cli.py")):
        print(f"error: no vigil sources at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy
    import vigil.cli

    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)
    os.makedirs(run.work)
    log(f"vigil benchmark workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    log(f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} loadavg={','.join(f'{x:.2f}' for x in os.getloadavg())}")

    if args.workload == "live":
        metrics = run_live(run, vigil.cli.main)
    else:
        metrics = run_closed(run, vigil.cli.main)

    for msg in run.problems[:20]:
        log(f"FAILED {msg}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    log(f"{'failed_ratio':<24} {ratio:12.4f} fraction  "
        f"({run.failed} of {run.attempted} operations)")
    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# closed-loop workloads: crowd, perimeter, curate


def run_closed(run, vigil_main):
    args = run.args
    plan, setup_times, setup_calib = run.setup(vigil_main)
    proc = run.start_worker([{"commands": plan["commands"], "out": plan["out"]}],
                            warmup=1, min_passes=4 if args.trace else 3, max_passes=10_000,
                            calib_rounds=1)
    got = run.finish_worker(proc)
    setup_s = report_setup(setup_times, setup_calib)
    if got is None:
        return {}
    report, digests = got
    run.check([] if len(digests) == 1 else ["outputs differ between passes"], "determinism")
    check_outputs(run, plan, plan["out"], str(args.seed))

    passes = report["passes"]
    walls = [sum(p["wall"]) for p in passes]
    cpus = [sum(p["cpu"]) for p in passes]
    factors = [speed_factor(*p["calib"]) for p in passes]
    rss = report["maxrss_kb"] / 1024.0
    if plan["kind"] == "stream":
        describe("frames_per_s", "frames/s", [plan["frames"] / w for w in walls],
                 count_label="passes")
    else:
        for i, job in enumerate(plan["jobs"]):
            describe(job.replace("-", "_") + "_s", "s", [p["wall"][i] for p in passes],
                     count_label="passes")
    describe("pass_wall_ms", "ms", walls, 1000.0, "passes")
    describe("pass_cpu_s", "s", cpus, count_label="passes")
    describe("speed_factor", "x", factors, count_label="passes")
    latency = statistics.median(w / f for w, f in zip(walls, factors)) * 1000.0
    cpu = statistics.median(c / f for c, f in zip(cpus, factors))
    log(f"{'latency_p50_ms':<24} {latency:12.4f} ms        (median of pass_wall_ms / speed factor)")
    log(f"{'cpu_s':<24} {cpu:12.4f} s         (median of pass_cpu_s / speed factor)")
    log(f"{'peak_rss_mb':<24} {rss:12.4f} MiB")
    if args.trace:
        stream_bytes = report["passes"][0]["bytes"] if plan["kind"] == "stream" else 0
        return layer_metrics(report, bytes_out=stream_bytes)
    return {
        "latency_p50_ms": {"value": latency, "unit": "ms"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def report_setup(times, calib):
    """Print the set-up times; return their median on the reference machine."""
    describe("setup_wall_s", "s", times, count_label="set-ups")
    setup_s = statistics.median(t / speed_factor(calib[i], calib[i + 1])
                                for i, t in enumerate(times))
    log(f"{'setup_s':<24} {setup_s:12.4f} s         (median of setup_wall_s / speed factor)")
    return setup_s


def check_outputs(run, plan, out_dir, key):
    """Invariants of a closed-loop run's outputs, plus the stored reference."""
    if plan["kind"] == "curate":
        fp, failures = checks.curate_outputs(out_dir, workloads.SUMMARIZE_BUDGET)
        run.check(failures, "curate outputs", weight=5)
    else:
        fp, failures, _ = checks.stream_outputs(out_dir, plan["dump_frames"])
        run.check(failures, "stream outputs", weight=4)
    ref = checks.load_reference(run.args.workload).get(key)
    if ref is None:
        log(f"no stored reference for {run.args.workload} {key}; "
            f"checked invariants and determinism only")
    else:
        run.check(checks.compare(fp, ref), "reference")


def layer_metrics(report, bytes_out, bytes_in=None):
    """Per-layer metrics of a traced run, with the tracing overhead in CPU time.

    Layer times are as measured; the overhead compares medians of untraced
    and traced passes rescaled by their speed factors.
    """
    layers = dict(report["layers"])
    layers["pipeline.bytes_out"] = float(bytes_out)
    if bytes_in is not None:  # a FIFO has no size; count what the generator wrote
        layers["sources.bytes_in"] = float(bytes_in)
    plain, traced = (statistics.median(sum(p["cpu"]) / speed_factor(*p["calib"]) for p in ps)
                     for ps in (report["passes"], report["traced"]))
    layers["trace.overhead_s"] = traced - plain
    layers["trace.overhead_ratio"] = (traced - plain) / plain if plain else 0.0
    log(f"tracing overhead: traced pass {traced:.4f} s CPU vs untraced {plain:.4f} s "
        f"(each divided by its speed factor) "
        f"({layers['trace.overhead_ratio'] * 100:.1f}%, "
        f"{len(report['traced'])} traced / {len(report['passes'])} untraced passes)")
    for name in sorted(layers):
        log(f"{name:<36} {layers[name]:16.6f}")
    return {name: {"value": layers[name], "unit": layer_unit(name)} for name in sorted(layers)}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if "bytes" in name else "count"


# ---------------------------------------------------------------------------
# live workload


def run_live(run, vigil_main):
    """Stream the dump in sessions of LIVE_SESSION_S; traced runs alternate."""
    args = run.args
    sessions = max(2, int(args.seconds // workloads.LIVE_SESSION_S))
    receiver = AlertReceiver()
    receiver.start()
    proc = None
    try:
        plan, setup_times, setup_calib = run.setup(vigil_main, receiver.port)
        chunks = frame_chunks(plan["dump"])
        passes = []
        with open(plan["config"], encoding="utf-8") as fh:
            doc = json.load(fh)
        for k in range(sessions):
            doc["source"]["path"] = os.path.join(run.work, f"stream-{k}.jsonl")
            os.mkfifo(doc["source"]["path"])
            cfg = os.path.join(run.work, f"live-{k}.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(run.work, f"out-{k}")
            passes.append({"commands": [["run", "--config", cfg, "--out", out, "--quiet"]],
                           "out": out, "fifo": doc["source"]["path"]})
        proc = run.start_worker(passes, warmup=0, min_passes=sessions, max_passes=sessions,
                                calib_rounds=LIVE_CALIB_ROUNDS)
        schedules = []
        for p in passes:
            t0, due, late, ok = stream(p["fifo"], chunks, plan["rate"], proc, timeout=60)
            run.check([] if ok else ["stream could not be delivered"], "load generator")
            schedules.append((t0, due, late))
        got = run.finish_worker(proc)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        receiver.stop()

    setup_s = report_setup(setup_times, setup_calib)
    if got is None:
        return {}
    report, _ = got

    ref = checks.load_reference("live").get(str(args.seed))
    if ref is None:  # closed-loop twin: same config, reading the dump file
        twin = os.path.join(run.work, "closed-out")
        code = vigil_main(["run", "--config", plan["closed_config"], "--out", twin, "--quiet"])
        run.check([] if code == 0 else [f"exit code {code}"], "closed-loop twin")
        ref, failures, _ = checks.stream_outputs(twin, plan["dump_frames"])
        run.check(failures, "closed-loop twin outputs", weight=4)
        log(f"no stored reference for live {args.seed}; compared with a closed-loop twin run")

    latencies, lateness = [], []
    for k, (t0, due, late) in enumerate(schedules):
        fp, failures, alerts = checks.stream_outputs(passes[k]["out"], plan["dump_frames"])
        run.check(failures, f"session {k} outputs", weight=4)
        run.check(checks.compare(fp, ref), f"session {k} reference")
        start = t0 if t0 is not None else math.inf
        end = schedules[k + 1][0] if k + 1 < sessions else math.inf
        received = [(t, json.loads(line)) for t, line in receiver.lines if start <= t < end]
        written = checks.alert_triples(alerts)
        missing, extra = multiset_diff(written, checks.alert_triples(r for _, r in received))
        run.attempted += len(written)
        run.failed += min(len(written), len(missing) + len(extra))
        if missing or extra:
            run.problems.append(f"session {k} receiver: {len(missing)} alerts missing, "
                                f"{len(extra)} duplicated or unexpected")
        if not args.trace or k % 2 == 0:  # untraced sessions only
            latencies += [t - due[r["frame_id"]] for t, r in received if r["frame_id"] in due]
            lateness += late

    plain = report["passes"]
    cpus = [p["cpu"][0] for p in plain]
    factors = [speed_factor(*p["calib"]) for p in plain]
    cpu = statistics.median(c / f for c, f in zip(cpus, factors))
    rss = report["maxrss_kb"] / 1024.0
    if latencies:
        describe("alert_latency_p50_ms", "ms", latencies, 1000.0, "alerts")
        log(f"{'alert_latency_p99_ms':<24} {percentile(latencies, 99) * 1000:12.4f} ms"
            f"        (nearest rank over {len(latencies)} alerts)")
    describe("generator_late_ms", "ms", lateness, 1000.0, "frames")
    log(f"{'frames':<24} {len(chunks):12d} frames    per session at {plan['rate']:g} frames/s, "
        f"{sessions} sessions")
    describe("session_cpu_s", "s", cpus, count_label="sessions")
    describe("speed_factor", "x", factors, count_label="sessions")
    log(f"{'cpu_s':<24} {cpu:12.4f} s         (median of session_cpu_s / speed factor)")
    log(f"{'peak_rss_mb':<24} {rss:12.4f} MiB")
    if args.trace:
        return layer_metrics(report, plain[0]["bytes"], bytes_in=os.path.getsize(plan["dump"]))
    if not latencies:
        run.check(["no alert reached the receiver"], "live latency")
        return {}
    return {
        "latency_p50_ms": {"value": statistics.median(latencies) * 1000.0, "unit": "ms"},
        "cpu_s": {"value": cpu, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def multiset_diff(want, got):
    """(items of *want* missing from *got*, items of *got* not in *want*)."""
    pool = {}
    for item in got:
        pool[item] = pool.get(item, 0) + 1
    missing = []
    for item in want:
        if pool.get(item, 0):
            pool[item] -= 1
        else:
            missing.append(item)
    extra = [item for item, n in pool.items() for _ in range(n)]
    return missing, extra


if __name__ == "__main__":
    sys.exit(main())
