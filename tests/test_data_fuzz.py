"""Seeded data fuzz: no input file makes vigil exit 4.

One small valid input of each kind is written once: a signatures CSV, a
features CSV, a dump for ``run``, a predictions dump for ``eval``, an
augment manifest, a PPM and a ``model.json``.  Each is then mutated by
every token of ``TOKENS``, at a few seeded offsets, inserted there or
written over the bytes there, and ``vigil.cli.main`` runs the command that
reads it in-process.  Every run must exit 0, 2 or 3 within ``BUDGET_S``
and raise no warning, and a data error (exit 3) that cites a line or row
must name the mutated file.
"""

import contextlib
import io
import json
import random
import re
import warnings

import pytest

import vigil.cli
from budget import hang_budget

TOKENS = [b"-0", b"1e400", b"nan", b"1_0", "١".encode(), b"\x00", b"\x1c", b'"',
          b"\r", b"9" * 5000, b"\xff", b"[" * 100_000]
OFFSETS = 6  # seeded offsets per (input, token, insert or overwrite)
BUDGET_S = 5.0  # per fuzz run, which takes milliseconds


def _line(frame, cls, box, conf):
    return json.dumps({"frame": frame, "ts_ms": 100 * frame, "class": cls, "x1": box[0],
                       "y1": box[1], "x2": box[2], "y2": box[3], "conf": conf}) + "\n"


def _ppm(seed):
    rnd = random.Random(seed)
    return b"P6\n3 2\n255\n" + bytes(rnd.randrange(256) for _ in range(18))


def _inputs(root):
    """kind -> (command, config, the file that is mutated, its bytes)."""
    walk = "".join(_line(f, "person", (10.0 + 4 * f, 20.0, 30.0 + 4 * f, 60.0), 0.9)
                   + _line(f, "car", (200.0 - 3 * f, 80.0, 240.0 - 3 * f, 110.0), 0.8)
                   for f in range(8))
    gt = "".join(_line(f, "person", (10.0 + 4 * f, 20.0, 30.0 + 4 * f, 60.0), 1.0)
                 for f in range(4))
    (root / "gt.jsonl").write_text(gt, encoding="utf-8")
    (root / "images").mkdir()
    (root / "images" / "b.ppm").write_bytes(_ppm(2))
    for i in range(3):
        (root / f"m{i}.ppm").write_bytes(_ppm(10 + i))
    features = "".join(f"r{i},c{i % 2},{i % 2 + 0.1 * i:.2f},{0.5 - 0.05 * i:.2f},1\n"
                       for i in range(10))
    (root / "features.csv").write_text(features, encoding="utf-8")
    return {
        "signatures": ("summarize", {"signatures_csv": "sig.csv", "budget": 3}, "sig.csv",
                       b"".join(b"f%d,%d,0.25,0.5,%d\n" % (i, i, i % 3) for i in range(6))),
        "features": ("train-head", {"features_csv": "features.csv", "max_epochs": 20},
                     "features.csv", features.encode()),
        "run-dump": ("run", {"source": {"kind": "dump", "path": "run.jsonl",
                                        "width": 320, "height": 240}},
                     "run.jsonl", walk.encode()),
        "eval-dump": ("eval", {"predictions": "pred.jsonl", "ground_truth": "gt.jsonl",
                               "width": 320, "height": 240},
                      "pred.jsonl", walk.encode()),
        "manifest": ("augment", {"manifest_csv": "manifest.csv"}, "manifest.csv",
                     ("path,class\n" + "".join(f"{root / f'm{i}.ppm'},{'car' if i else 'bike'}\n"
                                               for i in range(3))).encode()),
        "ppm": ("summarize", {"images_dir": "images", "budget": 1}, "images/a.ppm", _ppm(1)),
        "model": ("predict", {"model_json": "model.json", "features_csv": "features.csv"},
                  "model.json", None),  # written by train-head in the fixture
    }


def _main(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = vigil.cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data-fuzz")
    inputs = _inputs(root)
    assert _main(["train-head", "--config", str(_config(root, "features", inputs)),
                  "--out", str(root), "--quiet"]) == (0, "", [])
    model = (root / "model.json").read_bytes()
    inputs["model"] = inputs["model"][:3] + (model,)
    return root, inputs


def _config(root, kind, inputs):
    command, doc, name, data = inputs[kind]
    if data is not None:
        (root / name).write_bytes(data)
    path = root / f"{kind}-job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _mutations(data, rnd):
    """(token, offset, mode, mutated bytes) for every token of TOKENS."""
    for token in TOKENS:
        for mode in ("insert", "overwrite"):
            for _ in range(OFFSETS):
                at = rnd.randrange(len(data) + 1)
                rest = data[at:] if mode == "insert" else data[at + len(token):]
                yield token, at, mode, data[:at] + token + rest


@pytest.mark.parametrize("kind", ["signatures", "features", "run-dump", "eval-dump",
                                  "manifest", "ppm", "model"])
def test_no_input_exits_4(workdir, kind):
    root, inputs = workdir
    command, _, name, data = inputs[kind]
    argv = [command, "--config", str(_config(root, kind, inputs)),
            "--out", str(root / "out"), "--quiet"]
    assert _main(argv) == (0, "", [])  # the unmutated input runs
    faults, codes = [], set()
    try:
        for token, at, mode, mutated in _mutations(data, random.Random(kind)):
            (root / name).write_bytes(mutated)
            with hang_budget(BUDGET_S, (kind, token[:8], len(token), at, mode)):
                code, err, caught = _main(argv)
            codes.add(code)
            unnamed = (code == 3 and re.search(r"\b(?:line|row) \d", err)
                       and str(root / name) not in err)
            if code not in (0, 2, 3) or caught or unnamed:
                faults.append((token[:8], len(token), at, mode, code, err.strip(), caught))
    finally:
        (root / name).write_bytes(data)
    assert faults == [], f"{len(faults)} of {len(TOKENS) * 2 * OFFSETS} runs: {faults[:3]}"
    assert 3 in codes  # the mutations reach the readers' checks
