"""End-to-end tests: run configs, artifact output, determinism, CLI."""

import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from vigil._version import __version__
from vigil.cli import main
from vigil.errors import ConfigError
from vigil.pipeline import (
    ALERTS_FILE,
    COUNTS_JSON,
    DWELL_JSON,
    FLOWMAP_CSV,
    HEATMAP_CSV,
    HEATMAP_PGM,
    MANIFEST_JSON,
    SCENE_SEED_LABEL,
    TRACKS_FILE,
    load_pipeline_config,
    pipeline_config_from_dict,
    run,
)
from vigil.rng import derive_seed
from vigil.sources import read_dump, scene_config_from_dict, simulate, write_dump

SCENE = {
    "width": 320,
    "height": 240,
    "fps": 10.0,
    "duration_frames": 40,
    "jitter_sigma": 1.0,
    "miss_probability": 0.05,
    "false_positives_per_frame": 0.3,
    "objects": [
        {"class_label": "person", "center": [60.0, 120.0],
         "velocity": [3.0, 0.5], "size": [18.0, 36.0]},
        {"class_label": "car", "center": [250.0, 80.0],
         "velocity": [-2.0, 1.0], "size": [40.0, 24.0]},
    ],
}

RULES = [
    {"id": "east-side", "kind": "Intrusion",
     "zone": {"id": "east",
              "polygon": [[160, 0], [320, 0], [320, 240], [160, 240]]},
     "debounce_ms": 1000},
    {"id": "crowded", "kind": "Occupancy",
     "zone": [[0, 0], [320, 0], [320, 240], [0, 240]],
     "min_count": 2, "debounce_ms": 0},
]

ALL_ARTIFACTS = [TRACKS_FILE, ALERTS_FILE, HEATMAP_CSV, HEATMAP_PGM,
                 FLOWMAP_CSV, DWELL_JSON, COUNTS_JSON, MANIFEST_JSON]


def _run_doc(**overrides):
    doc = {
        "source": {"kind": "synthetic", "scene": copy.deepcopy(SCENE)},
        "tracker": {"min_hits": 2},
        "grid": {"cell_size": 16},
        "rules": copy.deepcopy(RULES),
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- config parsing ----------------------------------------------------------


def test_minimal_config_defaults():
    cfg = pipeline_config_from_dict(
        {"source": {"kind": "synthetic", "scene": copy.deepcopy(SCENE)}})
    assert cfg.source_kind == "synthetic"
    assert (cfg.frame_width, cfg.frame_height) == (320, 240)
    assert cfg.tracker.min_hits == 3
    assert cfg.grid.cell_size == 10
    assert cfg.rules == ()
    assert cfg.run_stats and cfg.run_rules
    assert cfg.seed == 0
    assert cfg.alert_sink is None and cfg.out_dir is None


def test_config_validation_errors():
    bad_docs = [
        "not a dict",
        {},                                            # no source
        {"source": {"kind": "synthetic", "scene": SCENE}, "extra": 1},
        {"source": "synthetic"},
        {"source": {"kind": "webcam"}},
        {"source": {"kind": "dump"}},                  # no path
        {"source": {"kind": "dump", "path": "d.jsonl", "fps": 30}},
        {"source": {"kind": "dump", "path": "d.jsonl", "width": 0}},
        {"source": {"kind": "synthetic"}},             # no scene
        {"source": {"kind": "synthetic", "scene": SCENE,
                    "scene_file": "s.json"}},
        {"source": {"kind": "synthetic", "scene": SCENE}, "tracker": [1]},
        {"source": {"kind": "synthetic", "scene": SCENE},
         "tracker": {"warp": 9}},
        {"source": {"kind": "synthetic", "scene": SCENE},
         "grid": {"cells": 4}},
        {"source": {"kind": "synthetic", "scene": SCENE},
         "rules": RULES, "rules_file": "r.json"},
        {"source": {"kind": "synthetic", "scene": SCENE},
         "stages": {"stats": "yes"}},
        {"source": {"kind": "synthetic", "scene": SCENE},
         "stages": {"tracking": False}},
        {"source": {"kind": "synthetic", "scene": SCENE}, "seed": 1.5},
        {"source": {"kind": "synthetic", "scene": SCENE}, "seed": True},
        {"source": {"kind": "synthetic", "scene": SCENE},
         "alert_sink": {"host": "x"}},
        {"source": {"kind": "synthetic", "scene": SCENE},
         "alert_sink": {"host": "x", "port": 1, "tls": True}},
        {"source": {"kind": "synthetic", "scene": SCENE}, "out_dir": ""},
    ]
    for doc in bad_docs:
        with pytest.raises(ConfigError):
            pipeline_config_from_dict(doc)


def test_config_file_resolves_relative_paths(tmp_path):
    (tmp_path / "scene.json").write_text(json.dumps(SCENE), encoding="utf-8")
    (tmp_path / "rules.json").write_text(json.dumps(RULES), encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps({
        "source": {"kind": "synthetic", "scene_file": "scene.json"},
        "rules_file": "rules.json",
        "out_dir": "artifacts",
    }), encoding="utf-8")
    cfg = load_pipeline_config(tmp_path / "run.json")
    assert cfg.scene is not None and cfg.scene.width == 320
    assert [r.id for r in cfg.rules] == ["east-side", "crowded"]
    assert cfg.out_dir == str(tmp_path / "artifacts")

    with pytest.raises(ConfigError):
        load_pipeline_config(tmp_path / "nope.json")
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_pipeline_config(tmp_path / "broken.json")
    (tmp_path / "orphan.json").write_text(json.dumps({
        "source": {"kind": "synthetic", "scene": SCENE},
        "rules_file": "missing-rules.json",
    }), encoding="utf-8")
    with pytest.raises(ConfigError):
        load_pipeline_config(tmp_path / "orphan.json")


# -- run() -------------------------------------------------------------------


def test_run_writes_all_artifacts(tmp_path):
    doc = _run_doc()
    out = tmp_path / "out"
    manifest = run(pipeline_config_from_dict(doc), str(out))
    for name in ALL_ARTIFACTS:
        assert (out / name).is_file(), name

    on_disk = json.loads((out / MANIFEST_JSON).read_text(encoding="utf-8"))
    assert on_disk == manifest
    assert manifest["version"] == __version__
    assert manifest["seed"] == 7
    assert manifest["frames"] == 40
    assert manifest["artifacts"] == ALL_ARTIFACTS
    assert manifest["config"] == doc
    assert manifest["scene_seed"] == derive_seed(7, SCENE_SEED_LABEL)

    rows = [json.loads(line)
            for line in (out / TRACKS_FILE).read_text().splitlines()]
    assert len(rows) == manifest["track_rows"] > 0
    assert list(rows[0]) == ["frame", "track_id", "class",
                             "x1", "y1", "x2", "y2", "status"]
    alerts = [json.loads(line)
              for line in (out / ALERTS_FILE).read_text().splitlines()]
    assert len(alerts) == manifest["alerts"]
    # the whole-frame occupancy rule must fire once both tracks confirm
    assert any(a["rule_id"] == "crowded" for a in alerts)


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = pipeline_config_from_dict(_run_doc())
    cfg_b = pipeline_config_from_dict(_run_doc())
    run(cfg_a, str(tmp_path / "a"))
    run(cfg_b, str(tmp_path / "b"))
    for name in ALL_ARTIFACTS:
        assert _digest(tmp_path / "a" / name) == _digest(tmp_path / "b" / name), name


def test_seed_changes_the_stream(tmp_path):
    run(pipeline_config_from_dict(_run_doc(seed=7)), str(tmp_path / "a"))
    run(pipeline_config_from_dict(_run_doc(seed=8)), str(tmp_path / "b"))
    assert _digest(tmp_path / "a" / TRACKS_FILE) != \
        _digest(tmp_path / "b" / TRACKS_FILE)


def test_stage_toggles_drop_artifacts(tmp_path):
    out = tmp_path / "lean"
    manifest = run(pipeline_config_from_dict(
        _run_doc(stages={"stats": False, "rules": False})), str(out))
    assert manifest["artifacts"] == [TRACKS_FILE, MANIFEST_JSON]
    assert sorted(os.listdir(out)) == sorted([TRACKS_FILE, MANIFEST_JSON])
    assert manifest["alerts"] == 0

    out2 = tmp_path / "norules"
    manifest2 = run(pipeline_config_from_dict(
        _run_doc(stages={"rules": False})), str(out2))
    assert ALERTS_FILE not in manifest2["artifacts"]
    assert HEATMAP_CSV in manifest2["artifacts"]
    assert not (out2 / ALERTS_FILE).exists()


def test_run_without_rules_still_writes_empty_alerts(tmp_path):
    doc = _run_doc()
    del doc["rules"]
    out = tmp_path / "out"
    manifest = run(pipeline_config_from_dict(doc), str(out))
    assert manifest["alerts"] == 0
    assert (out / ALERTS_FILE).read_text() == ""


def test_dump_source_run(tmp_path):
    scene = simulate(scene_config_from_dict(copy.deepcopy(SCENE)))
    dump_path = tmp_path / "detections.jsonl"
    write_dump(dump_path, zip(scene.frames, scene.noisy))
    doc = {
        "source": {"kind": "dump", "path": "detections.jsonl",
                   "width": 320, "height": 240},
        "tracker": {"min_hits": 2},
        "seed": 3,
    }
    cfg = pipeline_config_from_dict(doc, base_dir=str(tmp_path))
    out = tmp_path / "out"
    manifest = run(cfg, str(out))
    # dumps only list frames that produced detections
    expected_frames = sum(1 for _ in read_dump(dump_path, width=320, height=240))
    assert manifest["frames"] == expected_frames
    assert "scene_seed" not in manifest
    assert (out / TRACKS_FILE).stat().st_size > 0


# -- CLI ---------------------------------------------------------------------


def _write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_run(tmp_path, capsys):
    config = _write_config(tmp_path, "run.json", _run_doc())
    out = tmp_path / "artifacts"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "processed 40 frames" in captured.out
    for name in ALL_ARTIFACTS:
        assert (out / name).is_file()

    quiet_out = tmp_path / "quiet"
    assert main(["run", "--config", config, "--out", str(quiet_out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_seed_override(tmp_path):
    config = _write_config(tmp_path, "run.json", _run_doc())
    out = tmp_path / "o"
    assert main(["run", "--config", config, "--out", str(out),
                 "--seed", "11", "--quiet"]) == 0
    manifest = json.loads((out / MANIFEST_JSON).read_text())
    assert manifest["seed"] == 11
    assert manifest["scene_seed"] == derive_seed(11, SCENE_SEED_LABEL)


def test_cli_out_dir_from_config(tmp_path, monkeypatch):
    doc = _run_doc(out_dir=str(tmp_path / "from-config"))
    config = _write_config(tmp_path, "run.json", doc)
    assert main(["run", "--config", config, "--quiet"]) == 0
    assert (tmp_path / "from-config" / MANIFEST_JSON).is_file()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json"),
                 "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="utf-8")
    assert main(["run", "--config", str(bad), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error:")

    missing_dump = _write_config(tmp_path, "md.json", {
        "source": {"kind": "dump", "path": "no-such.jsonl",
                   "width": 320, "height": 240}})
    assert main(["run", "--config", missing_dump, "--out",
                 str(tmp_path / "x"), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("data error:")

    # unreadable config files: a directory, or bytes that are not UTF-8
    (tmp_path / "rules-dir").mkdir()
    (tmp_path / "latin1.json").write_bytes(b'{"note": "caf\xe9"}')
    configs = [
        str(tmp_path),
        str(tmp_path / "latin1.json"),
        _write_config(tmp_path, "rd.json", {
            "source": {"kind": "synthetic", "scene": SCENE}, "rules_file": "rules-dir"}),
        _write_config(tmp_path, "sl.json", {
            "source": {"kind": "synthetic", "scene_file": "latin1.json"}}),
    ]
    for config in configs:
        assert main(["run", "--config", config, "--out", str(tmp_path / "x"),
                     "--quiet"]) == 2, config
        assert capsys.readouterr().err.startswith("config error:"), config


def test_cli_non_string_paths_are_config_errors(tmp_path):
    # the ints once reached open() (0 is stdin) or os.path.isabs (a TypeError)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / "sub").mkdir()
    cases = [
        ("run", "run.json", {"source": {"kind": "synthetic", "scene_file": 0}},
         json.dumps(SCENE)),
        ("summarize", "sum.json", {"signatures_csv": 0, "budget": 1},
         "a,1.0,0.0\nb,0.0,1.0\n"),
        ("summarize", os.path.join("sub", "sum.json"), {"images_dir": 7}, ""),
    ]
    for command, name, doc, stdin in cases:
        _write_config(tmp_path, name, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "vigil.cli", command, "--config", name,
             "--out", "out", "--quiet"],
            input=stdin, cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 2, (doc, proc.stderr)
        assert proc.stderr.startswith("config error:"), proc.stderr


def test_cli_rejects_timestamps_going_backwards(tmp_path, capsys):
    # accepted, this dump gave the track a negative dwell ("total_ms": -40)
    lines = [json.dumps({"frame": f, "ts_ms": ts, "class": "person",
                         "x1": 100, "y1": 100, "x2": 120, "y2": 140, "conf": 0.9})
             for f, ts in enumerate([0, 100, 200, 300, 400, 50, 60])]
    (tmp_path / "back.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = _write_config(tmp_path, "run.json", {
        "source": {"kind": "dump", "path": "back.jsonl", "width": 320, "height": 240},
        "tracker": {"min_hits": 1},
        "rules": [{"id": "linger", "kind": "Loiter", "threshold_ms": 100,
                   "zone": {"id": "all", "polygon": [[0, 0], [320, 0], [320, 240],
                                                     [0, 240]]}}]})
    assert main(["run", "--config", config, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "line 6" in err and "ts_ms" in err


def test_cli_rule_config_exit_codes(tmp_path, capsys):
    # the README's list form of a trip line runs
    line_rule = {"id": "gate", "kind": "LineCross", "line": [[160, 0], [160, 240]]}
    config = _write_config(tmp_path, "line.json", _run_doc(rules=[line_rule]))
    assert main(["run", "--config", config, "--out", str(tmp_path / "ok"),
                 "--quiet"]) == 0

    tri = [[0, 0], [10, 0], [10, 10]]
    for i, rule in enumerate([
            {"id": "gate", "kind": "LineCross", "line": [[160, 0]]},
            {"id": "gate", "kind": "LineCross", "line": {"p": ["a", 0], "q": [1, 1]}},
            {"id": "door", "kind": "Intrusion", "zone": tri, "class_filter": ["car"]},
            {"id": "door", "kind": "Intrusion", "zone": [[0, 0], [1, 0], ["x", 1]]}]):
        config = _write_config(tmp_path, f"bad{i}.json", _run_doc(rules=[rule]))
        assert main(["run", "--config", config, "--out", str(tmp_path / "bad"),
                     "--quiet"]) == 2, rule
        assert capsys.readouterr().err.startswith("config error:")


def test_cli_synth_then_eval(tmp_path, capsys):
    clean = copy.deepcopy(SCENE)
    clean.update(jitter_sigma=0.0, miss_probability=0.0,
                 false_positives_per_frame=0.0, seed=5)
    synth_cfg = _write_config(tmp_path, "scene.json", clean)
    data = tmp_path / "data"
    assert main(["synth", "--config", synth_cfg, "--out", str(data),
                 "--quiet"]) == 0
    assert (data / "ground-truth.jsonl").is_file()
    assert (data / "detections.jsonl").is_file()

    eval_cfg = _write_config(tmp_path, "eval.json", {
        "predictions": str(data / "detections.jsonl"),
        "ground_truth": str(data / "ground-truth.jsonl"),
        "iou_threshold": 0.5,
        "width": 320, "height": 240,
    })
    out = tmp_path / "scores"
    assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == 0
    assert "mAP@0.5 = 1.0" in capsys.readouterr().out
    report = json.loads((out / "eval-report.json").read_text())
    assert report["map"] == 1.0 and report["recall"] == 1.0
