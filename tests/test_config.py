"""Config checking: the field kinds, and bad config exits 2, never 4.

The fuzz: small valid configs of every kind (run from a dump and from a synthetic
scene, rules, scene, summarize, augment, train-head, predict and eval) are
written once.  Then every field, down to two levels of object fields, is
replaced in turn by each value of ``VALUES``: every item of a list of
objects (a list counts as no level), the first item of any other list,
and ``vigil.cli.main`` runs the command in-process.  No run may exit 4,
no exception may escape ``main`` and no run may outlast ``BUDGET_S``.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import vigil.cli
from budget import hang_budget
from vigil.config import (
    REQUIRED,
    boolean,
    classes,
    fields_of,
    integer,
    list_of,
    number,
    pair,
    parse,
    pathname,
    record,
    string,
)
from vigil.errors import ConfigError
from vigil.tracker import TrackerConfig

VALUES = [None, True, 0, -1, 2.5, 1e-306, 1e300, -1e300, "x", "", [], {}, [[1, 2]], {"a": 1}]
BUDGET_S = 5.0  # per fuzz run, which takes milliseconds

SCENE = {
    "width": 320, "height": 240, "fps": 10.0, "duration_frames": 20,
    "objects": [
        {"class_label": "person", "center": [60.0, 120.0], "velocity": [3.0, 0.5],
         "size": [18.0, 36.0]},
        {"class_label": "car", "center": [250.0, 80.0], "velocity": [-2.0, 1.0],
         "size": [40.0, 24.0], "entry_frame": 2, "exit_frame": 18},
    ],
    "jitter_sigma": 1.0, "miss_probability": 0.05, "false_positives_per_frame": 0.3,
    "seed": 5, "source_id": "cam",
}

RULES = [
    {"id": "door", "kind": "Intrusion", "debounce_ms": 1000,
     "zone": {"id": "east", "polygon": [[160, 0], [320, 0], [320, 240]],
              "classes": ["person"]}},
    {"id": "linger", "kind": "Loiter", "threshold_ms": 500, "classes": ["person", "car"],
     "zone": [[0, 0], [160, 0], [160, 240]]},
    {"id": "crowd", "kind": "Occupancy", "min_count": 2, "comparator": ">=",
     "zone": [[0, 0], [320, 0], [320, 240], [0, 240]]},
    {"id": "gate", "kind": "LineCross",
     "line": {"id": "g", "p": [160, 0], "q": [160, 240], "direction": "any"}},
    {"id": "exit", "kind": "LineCross", "line": [[80, 0], [80, 240]]},
    # q's x set to 1e-306 makes a line whose squared length underflows to 0,
    # which the car's anchors (y 94 to 110) cross
    {"id": "band", "kind": "LineCross", "line": {"p": [0, 100], "q": [320, 100]}},
]

CONFIGS = {
    "scene.json": SCENE,
    "rules.json": RULES,
    "run-dump.json": {
        "source": {"kind": "dump", "path": "data/detections.jsonl",
                   "width": 320, "height": 240},
        "tracker": {"iou_min": 0.3, "max_age": 2, "min_hits": 2, "per_class": True},
        "grid": {"cell_size": 16}, "rules_file": "rules.json",
        "stages": {"stats": True, "rules": True}, "seed": 3, "out_dir": "o"},
    "run-scene.json": {"source": {"kind": "synthetic", "scene_file": "scene.json"}},
    "run-inline.json": {"source": {"kind": "synthetic", "scene": SCENE}},
    "summarize.json": {"signatures_csv": "sig.csv", "model": "saturated-coverage",
                       "alpha": 0.5, "budget": 4, "algorithm": "lazy",
                       "write_signatures": True},
    "summarize-images.json": {"images_dir": "images", "budget": 2},
    "augment.json": {"manifest_csv": "manifest.csv", "seed": 4, "materialize": True,
                     "bounds": {"max_rotation_deg": 5.0, "flip_probability": 0.5,
                                "max_shear": 0.1, "color_scale": [0.9, 1.1],
                                "color_offset": [-5.0, 5.0]}},
    "train-head.json": {"features_csv": "features.csv", "learning_rate": 0.5,
                        "l2_lambda": 1e-4, "max_epochs": 20, "convergence_tol": 1e-6},
    "predict.json": {"model_json": "model/model.json", "features_csv": "features.csv"},
    "eval.json": {"predictions": "data/detections.jsonl",
                  "ground_truth": "data/ground-truth.jsonl", "iou_threshold": 0.5,
                  "width": 320, "height": 240},
}

# fuzz runs whose exit the fuzz checks: a line whose squared length
# overflows (each coordinate below moves an endpoint 1e300 away) once ran
# and never fired
FUZZ_EXITS = {("rules.json", path, value): 2
              for path in ((3, "line", "p", 0), (4, "line", 0, 0), (5, "line", "p", 0))
              for value in (1e300, -1e300)}

# (command, its --config, the file whose fields are replaced, object levels)
CASES = [
    ("synth", "scene.json", "scene.json", 2),
    ("run", "run-dump.json", "run-dump.json", 2),
    ("run", "run-dump.json", "rules.json", 2),
    ("run", "run-scene.json", "run-scene.json", 2),
    ("run", "run-inline.json", "run-inline.json", 2),
    ("summarize", "summarize.json", "summarize.json", 2),
    ("summarize", "summarize-images.json", "summarize-images.json", 2),
    ("augment", "augment.json", "augment.json", 2),
    ("train-head", "train-head.json", "train-head.json", 2),
    ("predict", "predict.json", "predict.json", 2),
    ("eval", "eval.json", "eval.json", 2),
]


def _paths(node, levels):
    """Paths to the fields and list items of *node* that are replaced,
    entering *levels* levels of objects."""
    if isinstance(node, dict):
        if levels == 0:
            return
        items, below = node.items(), levels - 1
    elif isinstance(node, list):
        objects = all(isinstance(item, dict) for item in node)
        items, below = list(enumerate(node))[slice(None if objects else 1)], levels
    else:
        return
    for key, child in items:
        yield (key,)
        for sub in _paths(child, below):
            yield (key,) + sub


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def _csv(path, rows):
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")


def _main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = vigil.cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    gen = np.random.default_rng(11)
    _csv(root / "sig.csv", [[f"f{i:02d}"] + [f"{v:.4f}" for v in gen.random(8)]
                            for i in range(30)])
    _csv(root / "features.csv", [[f"r{i:02d}", f"c{i % 2}"]
                                 + [f"{v + i % 2:.4f}" for v in gen.normal(size=4)]
                                 for i in range(40)])
    (root / "images").mkdir()
    manifest = ["path,class"]
    for i in range(5):
        name = f"images/im{i}.ppm"
        pixels = gen.integers(0, 256, (16, 16, 3), dtype=np.uint8).tobytes()
        (root / name).write_bytes(b"P6\n16 16\n255\n" + pixels)
        manifest.append(f"{root / name},{'car' if i < 3 else 'bike'}")
    (root / "manifest.csv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    for name, doc in CONFIGS.items():
        _write(root / name, doc)
    for command, config, out in [("synth", "scene.json", "data"),
                                 ("train-head", "train-head.json", "model")]:
        assert _main([command, "--config", str(root / config),
                      "--out", str(root / out), "--quiet"]) == (0, "")
    return root


def test_no_config_exits_4(workdir):
    for command, config, _, _ in CASES:  # the unmutated configs run
        code, err = _main([command, "--config", str(workdir / config),
                           "--out", str(workdir / "out"), "--quiet"])
        assert code == 0, (command, config, err)
    runs, exits_4, checked = 0, [], {}
    for command, config, target, levels in CASES:
        original = CONFIGS[target]
        try:
            for path in _paths(original, levels):
                for value in VALUES:
                    _write(workdir / target, _replaced(original, path, value))
                    with hang_budget(BUDGET_S, (command, target, path, value)):
                        code, err = _main([command, "--config", str(workdir / config),
                                           "--out", str(workdir / "out"), "--quiet"])
                    runs += 1
                    if code == 4:
                        exits_4.append((command, target, path, value, err.strip()))
                    if isinstance(value, float) and (target, path, value) in FUZZ_EXITS:
                        checked[target, path, value] = code
        finally:
            _write(workdir / target, original)
    assert runs > 1000
    assert exits_4 == [], f"{len(exits_4)} of {runs} runs exited 4"
    assert checked == FUZZ_EXITS


# each (config file, field path, value) once exited 0; the message names the field
WRONG_KINDS = [
    ("run-dump.json", ("tracker", "max_age"), True, "run config.tracker.max_age"),
    ("run-dump.json", ("tracker", "min_hits"), 2.5, "run config.tracker.min_hits"),
    ("run-dump.json", ("tracker", "per_class"), "x", "run config.tracker.per_class"),
    ("run-dump.json", ("out_dir",), None, "run config.out_dir"),
    ("run-dump.json", ("alert_sink",), None, "run config.alert_sink"),
    ("rules.json", (0, "debounce_ms"), True, "rules[0].debounce_ms"),
    ("rules.json", (0, "debounce_ms"), 2.5, "rules[0].debounce_ms"),
    ("rules.json", (1, "threshold_ms"), 500.5, "rules[1].threshold_ms"),
    ("rules.json", (2, "min_count"), 2.0, "rules[2].min_count"),
    ("rules.json", (1, "classes"), None, "rules[1].classes"),
    ("scene.json", ("fps",), True, "scene.fps"),
    ("scene.json", ("source_id",), 0, "scene.source_id"),
    ("scene.json", ("objects", 0, "size", 0), True, "scene.objects[0].size[0]"),
    ("scene.json", ("objects", 1, "entry_frame"), 2.5, "scene.objects[1].entry_frame"),
    ("scene.json", ("objects", 1, "exit_frame"), None, "scene.objects[1].exit_frame"),
    ("summarize.json", ("alpha",), True, "summarize.alpha"),
    ("summarize.json", ("write_signatures",), "x", "summarize.write_signatures"),
    ("augment.json", ("materialize",), {"a": 1}, "augment.materialize"),
    ("train-head.json", ("learning_rate",), True, "train-head.learning_rate"),
]
COMMANDS = {"run-dump.json": "run", "rules.json": "run", "scene.json": "synth",
            "summarize.json": "summarize", "augment.json": "augment",
            "train-head.json": "train-head"}


@pytest.mark.parametrize("target,path,value,name", WRONG_KINDS)
def test_wrong_kind_is_a_config_error(workdir, target, path, value, name):
    config = "run-dump.json" if target == "rules.json" else target
    _write(workdir / target, _replaced(CONFIGS[target], path, value))
    try:
        code, err = _main([COMMANDS[target], "--config", str(workdir / config),
                           "--out", str(workdir / "out"), "--quiet"])
    finally:
        _write(workdir / target, CONFIGS[target])
    assert code == 2 and err.startswith(f"config error: {name} "), err


# settings that once changed no output: each is now an error (exit 2) that
# names it.  (command, base config, fields added to it, extra flags, name)
REMOVED = [
    ("summarize", "summarize.json", {"sampling_fps": 7.0}, [], "sampling_fps"),
    ("train-head", "train-head.json", {"seed": 123}, [], "seed"),
    ("summarize", "summarize.json", {"model": "facility-location"}, [], "alpha"),
    ("summarize", "summarize.json", {}, ["--seed", "3"], "--seed"),
    ("train-head", "train-head.json", {}, ["--seed", "3"], "--seed"),
    ("predict", "predict.json", {}, ["--seed", "3"], "--seed"),
    ("eval", "eval.json", {}, ["--seed", "3"], "--seed"),
]


@pytest.mark.parametrize("command,config,fields,flags,name", REMOVED,
                         ids=[f"{case[0]}-{case[4]}" for case in REMOVED])
def test_removed_settings_are_errors(workdir, command, config, fields, flags, name):
    _write(workdir / "removed.json", {**CONFIGS[config], **fields})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = vigil.cli.main([command, "--config", str(workdir / "removed.json"),
                                   "--out", str(workdir / "out"), "--quiet", *flags])
        except SystemExit as exc:  # argparse rejects a flag the command lacks
            code = exc.code
    assert code == 2 and name in err.getvalue(), err.getvalue()


def test_alpha_defaults_for_saturated_coverage(workdir):
    doc = CONFIGS["summarize.json"]
    assert doc["model"] == "saturated-coverage" and doc["alpha"] == 0.5
    selections = []
    for given in (doc, {k: v for k, v in doc.items() if k != "alpha"}):
        _write(workdir / "alpha.json", given)
        assert _main(["summarize", "--config", str(workdir / "alpha.json"),
                      "--out", str(workdir / "alpha"), "--quiet"]) == (0, "")
        selections.append((workdir / "alpha" / "selection.csv").read_bytes())
    assert selections[0] == selections[1]
    _write(workdir / "alpha.json", {**doc, "alpha": 0})  # a range error, not the default
    assert _main(["summarize", "--config", str(workdir / "alpha.json"),
                  "--out", str(workdir / "alpha"), "--quiet"]) == (
        2, "config error: alpha must lie in (0, 1]\n")


def test_lazy_is_the_one_algorithm(workdir):
    # "naive" once ran a slower selector that picked the same frames for
    # facility location, and could break ties otherwise for saturated coverage
    doc = CONFIGS["summarize.json"]
    assert doc["algorithm"] == "lazy"
    selections = []
    for given in (doc, {k: v for k, v in doc.items() if k != "algorithm"}):
        _write(workdir / "algorithm.json", given)
        assert _main(["summarize", "--config", str(workdir / "algorithm.json"),
                      "--out", str(workdir / "algorithm"), "--quiet"]) == (0, "")
        selections.append((workdir / "algorithm" / "selection.csv").read_bytes())
    assert selections[0] == selections[1]
    for value in ("naive", "Lazy", ""):
        _write(workdir / "algorithm.json", {**doc, "algorithm": value})
        assert _main(["summarize", "--config", str(workdir / "algorithm.json"),
                      "--out", str(workdir / "algorithm"), "--quiet"]) == (
            2, "config error: summarize.algorithm must be 'lazy', the one selector\n"), value


def test_non_finite_numbers_are_config_errors(workdir):
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        (workdir / "bad-scene.json").write_text(
            json.dumps(SCENE).replace('"fps": 10.0', f'"fps": {literal}'), encoding="utf-8")
        assert _main(["synth", "--config", str(workdir / "bad-scene.json"), "--out",
                      str(workdir / "out"), "--quiet"]) == (
            2, "config error: scene.fps must be a finite number\n"), literal


# one path into each number field of every config kind (integer fields
# take 10**400 by kind: where they count work a large value is work, and
# those that size a frame or grid are range-checked, in SIZE_FIELDS below)
NUMBER_FIELDS = [
    ("scene.json", ("fps",)), ("scene.json", ("jitter_sigma",)),
    ("scene.json", ("miss_probability",)), ("scene.json", ("false_positives_per_frame",)),
    ("scene.json", ("objects", 0, "center", 0)), ("scene.json", ("objects", 0, "velocity", 1)),
    ("scene.json", ("objects", 1, "size", 0)),
    ("rules.json", (0, "zone", "polygon", 1, 0)), ("rules.json", (1, "zone", 2, 1)),
    ("rules.json", (3, "line", "p", 0)), ("rules.json", (4, "line", 1, 1)),
    ("run-dump.json", ("tracker", "iou_min")),
    ("summarize.json", ("alpha",)),
    ("augment.json", ("bounds", "max_rotation_deg")),
    ("augment.json", ("bounds", "flip_probability")), ("augment.json", ("bounds", "max_shear")),
    ("augment.json", ("bounds", "color_scale", 1)), ("augment.json", ("bounds", "color_offset", 0)),
    ("train-head.json", ("learning_rate",)), ("train-head.json", ("l2_lambda",)),
    ("train-head.json", ("convergence_tol",)),
    ("eval.json", ("iou_threshold",)),
]


@pytest.mark.parametrize("target,path", NUMBER_FIELDS,
                         ids=[f"{t}-{'.'.join(map(str, p))}" for t, p in NUMBER_FIELDS])
def test_an_integer_too_large_for_a_float_is_a_config_error(workdir, target, path):
    # a 400-digit integer passed the finite check; in 14 of these fields it
    # then overflowed (OverflowError, exit 4), in the rest a range check caught it
    config = "run-dump.json" if target == "rules.json" else target
    command = {"scene.json": "synth", "eval.json": "eval"}.get(target) or COMMANDS[target]
    _write(workdir / target, _replaced(CONFIGS[target], path, 10 ** 400))
    try:
        code, err = _main([command, "--config", str(workdir / config),
                           "--out", str(workdir / "out"), "--quiet"])
    finally:
        _write(workdir / target, CONFIGS[target])
    assert code == 2 and err.startswith("config error: ") and err.endswith(
        " must be a finite number\n"), err


# the integer fields that size a frame or its grid count no work; 10**400
# there once overflowed a float conversion or numpy's grid allocation (exit
# 4).  (command, its --config, the file changed, field path, name in message)
SIZE_FIELDS = [
    ("synth", "scene.json", "scene.json", ("width",), "width"),
    ("synth", "scene.json", "scene.json", ("height",), "height"),
    ("run", "run-scene.json", "scene.json", ("width",), "width"),
    ("run", "run-scene.json", "scene.json", ("height",), "height"),
    ("run", "run-inline.json", "run-inline.json", ("source", "scene", "width"), "width"),
    ("run", "run-dump.json", "run-dump.json", ("source", "width"), "run config.source.width"),
    ("run", "run-dump.json", "run-dump.json", ("source", "height"), "run config.source.height"),
    # its tracks confirm, so stats place anchors in cells
    ("run", "run-dump.json", "run-dump.json", ("grid", "cell_size"), "cell_size"),
]


@pytest.mark.parametrize("command,config,target,path,name", SIZE_FIELDS,
                         ids=[f"{c[0]}-{c[1]}-{'.'.join(c[3])}" for c in SIZE_FIELDS])
def test_a_frame_or_grid_size_too_large_for_a_float_is_a_config_error(
        workdir, command, config, target, path, name):
    _write(workdir / target, _replaced(CONFIGS[target], path, 10 ** 400))
    try:
        code, err = _main([command, "--config", str(workdir / config),
                           "--out", str(workdir / "out"), "--quiet"])
    finally:
        _write(workdir / target, CONFIGS[target])
    assert (code, err) == (2, f"config error: {name} is too large for a float\n")


def test_a_grid_numpy_refuses_is_a_config_error(workdir):
    # 2**40 x 2**40 one-pixel cells: numpy refuses the shape itself, on any
    # host and before allocating, where the run once exited 4
    side = 2 ** 40
    doc = copy.deepcopy(CONFIGS["run-dump.json"])
    doc["source"].update(width=side, height=side)
    doc["grid"] = {"cell_size": 1}
    _write(workdir / "big-grid.json", doc)
    code, err = _main(["run", "--config", str(workdir / "big-grid.json"),
                       "--out", str(workdir / "out"), "--quiet"])
    assert code == 2 and err.startswith(
        f"config error: cell_size 1 gives a {side} x {side} cell grid, "
        "which cannot be allocated: "), err


def test_config_the_decoder_refuses_is_a_config_error(workdir):
    # arrays nested past the recursion limit once exited 4 (RecursionError)
    (workdir / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    for command in sorted({case[0] for case in CASES}):
        code, err = _main([command, "--config", str(workdir / "deep.json"),
                           "--out", str(workdir / "out"), "--quiet"])
        assert code == 2 and err.startswith("config error: ") and (
            f" file {workdir / 'deep.json'} is not valid JSON: maximum recursion depth exceeded"
            in err), (command, err)


def test_a_nul_in_a_config_path_is_a_config_error(workdir):
    # the path once reached open(), which raised ValueError (exit 4)
    doc = _replaced(CONFIGS["run-dump.json"], ("source", "path"), "a\x00b")
    _write(workdir / "nul.json", doc)
    assert _main(["run", "--config", str(workdir / "nul.json"), "--out", str(workdir / "out"),
                  "--quiet"]) == (
        2, "config error: run config.source.path must be a non-empty path string without NUL\n")


def test_an_out_that_cannot_be_a_directory_is_a_config_error(workdir):
    # synth and run once exited 4 (FileExistsError) on a file named by --out
    (workdir / "a-file").write_text("", encoding="utf-8")
    commands = {}
    for command, config, _, _ in CASES:
        commands.setdefault(command, config)
    assert len(commands) == 7
    for out, reason in [(workdir / "a-file", "File exists"),
                        (workdir / "a-file" / "sub", "Not a directory")]:
        for command, config in commands.items():
            assert _main([command, "--config", str(workdir / config), "--out", str(out),
                          "--quiet"]) == (
                2, f"config error: output directory {out}: {reason}\n"), command
    assert (workdir / "a-file").read_text(encoding="utf-8") == ""


def test_parse_checks_fields_against_the_table():
    table = {"n": (integer, REQUIRED), "x": (number, 0.5), "tag": (string, None),
             "p": (pair, (1, 2)), "f": (pathname, None)}
    assert parse({"n": 3}, table, "cfg") == {"n": 3, "x": 0.5, "tag": None,
                                             "p": (1, 2), "f": None}
    got = parse({"n": 3, "x": 2, "p": [0, 1.5], "f": "a/b.csv"}, table, "cfg", "/base")
    assert got == {"n": 3, "x": 2, "tag": None, "p": (0, 1.5), "f": "/base/a/b.csv"}
    assert type(got["x"]) is int  # numbers reach the caller unconverted
    assert parse({"n": 1, "f": "/abs.csv"}, table, "cfg", "/base")["f"] == "/abs.csv"
    for doc, message in [
            ([], "cfg must be a JSON object"),
            ({"n": 1, "m": 2, "a": 3}, "cfg: unknown field(s) ['a', 'm']"),
            ({}, "cfg.n is required"),
            ({"n": None}, "cfg.n must be an integer"),      # null is no value
            ({"n": True}, "cfg.n must be an integer"),
            ({"n": 1.0}, "cfg.n must be an integer"),
            ({"n": 1, "x": False}, "cfg.x must be a finite number"),
            ({"n": 1, "x": "1"}, "cfg.x must be a finite number"),
            ({"n": 1, "tag": 5}, "cfg.tag must be a string"),
            ({"n": 1, "p": [1, 2, 3]}, "cfg.p must be a pair [x, y] of numbers"),
            ({"n": 1, "p": [1, None]}, "cfg.p[1] must be a finite number"),
            ({"n": 1, "f": ""}, "cfg.f must be a non-empty path string without NUL"),
            ({"n": 1, "f": "a\x00b"}, "cfg.f must be a non-empty path string without NUL")]:
        with pytest.raises(ConfigError) as err:
            parse(doc, table, "cfg")
        assert str(err.value) == message


def test_kinds_of_lists_and_records():
    assert classes(["car", "person", "car"], "c") == frozenset({"car", "person"})
    assert classes([], "c") is None
    for bad, message in (("car", "c must be a list"),
                         (["car", ""], r"c\[1\] must be a non-empty string"),
                         ([1], r"c\[0\] must be a non-empty string")):
        with pytest.raises(ConfigError, match=message):
            classes(bad, "c")
    points = list_of(pair)
    assert points([[0, 1], [2.5, 3]], "poly") == [(0, 1), (2.5, 3)]
    with pytest.raises(ConfigError, match=r"poly\[1\]\[0\] must be a finite number"):
        points([[0, 1], ["2", 3]], "poly")
    tracker = record(TrackerConfig)
    assert tracker({}, "tracker") == TrackerConfig()
    assert tracker({"max_age": 4, "per_class": False}, "tracker") == TrackerConfig(
        max_age=4, per_class=False)
    with pytest.raises(ConfigError, match="tracker: unknown field"):
        tracker({"warp": 1}, "tracker")
    assert fields_of(TrackerConfig) == {"iou_min": (number, 0.3), "max_age": (integer, 1),
                                        "min_hits": (integer, 3), "per_class": (boolean, True)}


def test_a_line_too_short_or_a_host_the_resolver_refuses_is_a_config_error(workdir):
    # each once exited 4 at the first crossing or alert of a run: a line
    # whose squared length underflows to 0 (ZeroDivisionError in
    # rules.crossing), and a host whose IDNA encoding fails (UnicodeError);
    # a line whose squared length overflows once ran and never fired
    run_doc = {k: v for k, v in CONFIGS["run-dump.json"].items() if k != "rules_file"}
    tiny = {"id": "tiny", "kind": "LineCross", "line": [[100, 0], [100, 1e-200]]}
    _write(workdir / "tiny.json", {**run_doc, "rules": [tiny]})
    assert _main(["run", "--config", str(workdir / "tiny.json"), "--out",
                  str(workdir / "out"), "--quiet"]) == (
        2, "config error: line 'tiny.line': endpoints coincide or are too close\n")
    for far in (1e160, 1e200, 1.7976931348623157e308):  # squared lengths overflow
        long = {"id": "long", "kind": "LineCross", "line": [[-far, 100], [far, 100]]}
        _write(workdir / "long.json", {**run_doc, "rules": [long]})
        assert _main(["run", "--config", str(workdir / "long.json"), "--out",
                      str(workdir / "out"), "--quiet"]) == (
            2, "config error: line 'long.line': endpoints are too far apart\n"), far
    for host in ("x" * 70, "a..b", "."):
        _write(workdir / "host.json", {**run_doc, "rules": RULES,
                                       "alert_sink": {"host": host, "port": 9}})
        code, err = _main(["run", "--config", str(workdir / "host.json"), "--out",
                           str(workdir / "out"), "--quiet"])
        assert code == 2 and err.startswith(
            f"config error: alert_sink.host {host!r} is not a valid host name: "), err


def test_summarize_takes_exactly_one_input(workdir):
    both = {**CONFIGS["summarize.json"], "images_dir": "images"}
    for doc in (both, {"budget": 2}):
        _write(workdir / "inputs.json", doc)
        assert _main(["summarize", "--config", str(workdir / "inputs.json"), "--out",
                      str(workdir / "out"), "--quiet"]) == (
            2, "config error: give exactly one of 'signatures_csv' or 'images_dir'\n"), doc
