"""Every artifact stays byte-identical to the recorded outputs.

For each benchmark workload at seeds 0 and 1, the benchmark's own
generator and checker (``perfbench/record.py``, ``perfbench/checks.py``)
run the workload (live as its closed-loop twin); its fingerprint must
match ``perfbench/reference/``, and the sha256 of every file vigil wrote
must match ``artifact_digests.json`` beside this file.  Those files are
the synthesized dumps and the outputs of every command, all but
``run-manifest.json``, which echoes absolute paths.  Curate's
``balanced-manifest.csv`` names its images by absolute path, so the work
directory is replaced by ``$WORK`` before hashing.

The fingerprint tolerates float noise; the digests do not, so a refactor
that moves one float by one ulp fails here.  The digests were recorded
with numpy 2.4.6 on scipy-openblas (OpenBLAS 0.3.31, DYNAMIC_ARCH,
x86_64) on an AVX-512 host.  With another OpenBLAS core type
(``OPENBLAS_CORETYPE=Haswell`` or ``Prescott``) or with numpy's AVX-512
loops off (``NPY_DISABLE_CPU_FEATURES``), only curate's ``model.json``
and ``predictions.csv`` moved: ``softmax.loss_and_grad`` computes its
matrix products through BLAS and ``np.exp``/``np.log`` through numpy's
SIMD loops.  Crowd, perimeter and live held at seeds 0-9 under both, and
``test_stream_artifacts_hold_on_the_lowest_kernels`` keeps them so: it
runs their cases again in a child process on OpenBLAS's lowest core type
and with every numpy loop dispatched above the build's baseline turned
off.  ``test_curate_holds_on_the_lowest_kernels_within_tolerance`` bounds
how far curate moves there: its fingerprint and every other file must
hold, and those two files and ``train-report.json`` must keep their
labels, with their numbers within ``HOST_REL_TOL`` of this host's.  On
another build or host, or when a change is meant to alter outputs,
re-record on the commit whose outputs are correct with

    PYTHONPATH=src python tests/test_byte_identity.py

and say in CHANGES.md why the outputs changed.
"""

import csv
import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys

import pytest

import vigil.cli
from budget import hang_budget

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "artifact_digests.json"
# the directories vigil writes into: the synthesized dumps, then the outputs
WRITTEN = {"crowd": ("scene", "out"), "perimeter": ("scene", "out"),
           "live": ("scene", "closed-out"), "curate": ("eval", "out")}
CASES = [(name, seed) for name in WRITTEN for seed in (0, 1)]
# OpenBLAS's lowest kernel for each architecture whose DYNAMIC_ARCH build has
# a choice (OPENBLAS_CORETYPE); on any other architecture the host guard
# still runs every stream case, with numpy's dispatched loops off alone
LOWEST_CORETYPE = {"x86_64": "Prescott", "aarch64": "ARMV8"}
# curate's files whose numbers follow the host's BLAS kernel and SIMD loops,
# and how far they may move: on the lowest x86-64 kernels, 643 of the 4,524
# numbers in them at seeds 0 and 1 moved, by at most 2.6e-14 relative
HOST_NUMBERS = ("out/model.json", "out/predictions.csv", "out/train-report.json")
HOST_REL_TOL = 1e-9


def _digests(name, workdir) -> dict:
    """sha256 of each file vigil wrote under *workdir*, by relative path."""
    prefix = os.fsencode(workdir)
    out = {}
    for sub in WRITTEN[name]:
        for path in sorted((pathlib.Path(workdir) / sub).iterdir()):
            if path.name != "run-manifest.json":
                data = path.read_bytes().replace(prefix, b"$WORK")
                out[f"{sub}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return out


def _run(name, seed, workdir):
    """(fingerprint failures, artifact digests) of one workload run."""
    import checks
    import record

    fp = record.fingerprint(vigil.cli.main, name, seed, str(workdir))
    return (checks.compare(fp, checks.load_reference(name)[str(seed)]),
            _digests(name, str(workdir)))


@pytest.mark.parametrize("name,seed", CASES)
def test_artifacts_match_recorded_bytes(name, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    failures, got = _run(name, seed, tmp_path / "work")
    assert failures == []
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[name][str(seed)]
    assert got == want


def _lowest_kernel_env() -> dict:
    """The environment of a process on the lowest kernels this host offers.

    NPY_DISABLE_CPU_FEATURES names every feature numpy dispatches to above
    its build's baseline, read from ``__cpu_dispatch__``: naming one that is
    not dispatched makes numpy warn at import, an error under this suite's
    warnings-as-errors.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__

    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    core = LOWEST_CORETYPE.get(platform.machine())
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    # the cases need no plugin, and loading them all would double the child's start-up
    env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
    return env


@hang_budget(60, "the stream cases on the lowest kernels")
def test_stream_artifacts_hold_on_the_lowest_kernels():
    # a camera's tracks and alerts must not depend on the host's SIMD level
    # or BLAS kernel; curate's model.json and predictions.csv do (see above),
    # so its cases are not run here
    here = pathlib.Path(__file__).resolve().relative_to(ROOT)
    ids = [f"{here}::test_artifacts_match_recorded_bytes[{name}-{seed}]"
           for name, seed in CASES if name != "curate"]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, env=_lowest_kernel_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert f"{len(ids)} passed" in proc.stdout


def _numbers(path):
    """A JSON file's document, or a CSV file's rows with each cell that
    reads as a float turned into one."""
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            cells = []
            for cell in row:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
            rows.append(cells)
    return rows


def _assert_close(got, want, where):
    """*got* has *want*'s shape, keys, strings and flags, and each number
    within HOST_REL_TOL relative of *want*'s."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) is type(want), where
        assert math.isclose(got, want, rel_tol=HOST_REL_TOL), (where, got, want)
    else:
        assert got == want, where


# the curate case's child: runs each seed on its command line into
# <dir>/<seed> on the kernels it was started on, and writes what _run
# returned for each to <dir>/runs.json
_CURATE_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import test_byte_identity as t
out, seeds = sys.argv[3], [int(s) for s in sys.argv[4:]]
runs = {s: t._run("curate", s, f"{out}/{s}") for s in seeds}
with open(f"{out}/runs.json", "w", encoding="utf-8") as fh:
    json.dump(runs, fh)
"""


@hang_budget(60, "the curate cases on the lowest kernels")
def test_curate_holds_on_the_lowest_kernels_within_tolerance(tmp_path, monkeypatch):
    # curate's model, predictions and train report follow the host's kernels
    # (see above); on the lowest ones its fingerprint and every other file
    # must hold, and those three must give this host's labels and classes
    # with every number within HOST_REL_TOL.  The child runs while this
    # process runs the same cases on this host's kernels.
    seeds = (0, 1)
    lowest, host = tmp_path / "lowest", tmp_path / "host"
    lowest.mkdir()
    with subprocess.Popen([sys.executable, "-c", _CURATE_CHILD, str(DIGESTS.parent),
                           str(ROOT / "perfbench"), str(lowest), *map(str, seeds)],
                          cwd=ROOT, env=_lowest_kernel_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
            for seed in seeds:
                assert _run("curate", seed, host / str(seed))[0] == []
            out, err = child.communicate()
        except BaseException:  # a failure or the hang budget: leave no child behind
            child.kill()
            raise
    assert child.returncode == 0, out[-2000:] + err[-2000:]
    runs = json.loads((lowest / "runs.json").read_text(encoding="utf-8"))
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["curate"]
    for seed in seeds:
        failures, digests = runs[str(seed)]
        assert failures == [], seed
        want = recorded[str(seed)]
        assert set(HOST_NUMBERS) <= want.keys()
        assert ({k: v for k, v in digests.items() if k not in HOST_NUMBERS}
                == {k: v for k, v in want.items() if k not in HOST_NUMBERS}), seed
        for name in HOST_NUMBERS:
            _assert_close(_numbers(lowest / str(seed) / name),
                          _numbers(host / str(seed) / name), f"{seed}/{name}")


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "perfbench"))
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in CASES:
            failures, digests = _run(name, seed, os.path.join(tmp, f"{name}-{seed}"))
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures}")
            table.setdefault(name, {})[str(seed)] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
