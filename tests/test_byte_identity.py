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
SIMD loops.  Crowd, perimeter and live held at seeds 0-9 under both.
On another build or host, or when a change is meant to alter outputs,
re-record on the commit whose outputs are correct with

    PYTHONPATH=src python tests/test_byte_identity.py

and say in CHANGES.md why the outputs changed.
"""

import hashlib
import json
import os
import pathlib
import sys

import pytest

import vigil.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).resolve().parent / "artifact_digests.json"
# the directories vigil writes into: the synthesized dumps, then the outputs
WRITTEN = {"crowd": ("scene", "out"), "perimeter": ("scene", "out"),
           "live": ("scene", "closed-out"), "curate": ("eval", "out")}
CASES = [(name, seed) for name in WRITTEN for seed in (0, 1)]


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
