"""End-to-end tests: run configs, artifact output, determinism, CLI."""

import copy
import hashlib
import json
import math
import os
import pathlib
import random
import socket
import struct
import subprocess
import sys
import threading

import pytest

import vigil.pipeline
from budget import hang_budget
from vigil._version import __version__
from vigil.cli import main
from vigil.errors import ConfigError
from vigil.geometry import FrameMeta
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
    track_lines,
)
from vigil.rng import derive_seed
from vigil.rules import TcpAlertSink
from vigil.sources import read_dump, scene_config_from_dict, simulate, write_dump
from vigil.tracker import Track, TrackStatus, track_record

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
        {"source": {"kind": "synthetic", "scene": SCENE},
         "alert_sink": {"host": "x", "port": 70000}},     # once sent to port 4464
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
    expected_frames = sum(1 for _ in read_dump(dump_path))
    assert manifest["frames"] == expected_frames
    assert "scene_seed" not in manifest
    assert (out / TRACKS_FILE).stat().st_size > 0


@hang_budget(10.0, "test_run_mirrors_alerts_to_the_sink")  # it takes well under a second
def test_run_mirrors_alerts_to_the_sink(tmp_path, monkeypatch):
    # alert_sink streams every alert line to a TCP listener, which reads
    # until the run's sink.close() hangs up
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    server.settimeout(5.0)
    received = []

    def serve():
        conn, _ = server.accept()
        with conn:
            conn.settimeout(5.0)
            data = b""
            while chunk := conn.recv(4096):
                data += chunk
        received.append(data)

    sinks = []
    monkeypatch.setattr(vigil.pipeline, "TcpAlertSink",
                        lambda *address: sinks.append(TcpAlertSink(*address)) or sinks[-1])
    thread = threading.Thread(target=serve)
    thread.start()
    try:
        doc = _run_doc(alert_sink={"host": "127.0.0.1", "port": server.getsockname()[1]})
        manifest = run(pipeline_config_from_dict(doc), str(tmp_path))
        thread.join(timeout=5.0)
    finally:
        server.close()
    assert manifest["alerts"] > 0
    assert received == [(tmp_path / ALERTS_FILE).read_bytes()]
    assert len(sinks) == 1 and sinks[0].dropped == 0


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
    # synth's --seed stands for the scene's "seed" (SCENE gives none: 0)
    for name, doc, flags in [("by-flag", SCENE, ["--seed", "9"]),
                             ("by-field", {**SCENE, "seed": 9}, [])]:
        assert main(["synth", "--config", _write_config(tmp_path, f"{name}.json", doc),
                     "--out", str(tmp_path / name), "--quiet", *flags]) == 0
    for dump in ("detections.jsonl", "ground-truth.jsonl"):
        assert (tmp_path / "by-flag" / dump).read_bytes() == \
            (tmp_path / "by-field" / dump).read_bytes()


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

    # fields of the wrong type: a scene whose objects are not a list (5 once
    # raised a TypeError, "" read as no objects), a summarize model that is
    # not a string ([] once raised "unhashable type")
    (tmp_path / "sig.csv").write_text("a,1.0,0.0\nb,0.0,1.0\n", encoding="utf-8")
    commands = []
    for i, objects in enumerate((5, "")):
        scene = dict(SCENE, objects=objects)
        commands.append(["run", "--config", _write_config(tmp_path, f"ob{i}.json", {
            "source": {"kind": "synthetic", "scene": scene}})])
        commands.append(["synth", "--config", _write_config(tmp_path, f"os{i}.json", scene)])
    for i, model in enumerate(([], {})):
        commands.append(["summarize", "--config", _write_config(tmp_path, f"sm{i}.json", {
            "signatures_csv": "sig.csv", "model": model, "budget": 1})])
    for argv in commands:
        assert main(argv + ["--out", str(tmp_path / "x"), "--quiet"]) == 2, argv
        assert capsys.readouterr().err.startswith("config error:"), argv


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


def test_cli_rejects_a_number_too_big_for_a_float(tmp_path, capsys):
    # an int coordinate beyond the float range once ended the run with
    # "internal error: OverflowError" and exit code 4
    line = json.dumps({"frame": 0, "ts_ms": 0, "class": "person", "x1": 10 ** 400,
                       "y1": 100, "x2": 120, "y2": 140, "conf": 0.9})
    (tmp_path / "big.jsonl").write_text(line + "\n", encoding="utf-8")
    config = _write_config(tmp_path, "run.json", {
        "source": {"kind": "dump", "path": "big.jsonl", "width": 320, "height": 240}})
    assert main(["run", "--config", config, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 3
    assert capsys.readouterr().err == (f'data error: {tmp_path / "big.jsonl"} line 1: '
                                       '"x1" must be finite\n')


def test_cli_rejects_lines_past_the_json_decoders_limits(tmp_path, capsys):
    # json.loads raises ValueError, not JSONDecodeError, past int()'s digit
    # limit, and RecursionError past the nesting limit: both once ended the
    # run with exit code 4
    good = json.dumps({"frame": 0, "ts_ms": 0, "class": "person", "x1": 100,
                       "y1": 100, "x2": 120, "y2": 140, "conf": 0.9})
    config = _write_config(tmp_path, "run.json", {
        "source": {"kind": "dump", "path": "bad.jsonl", "width": 320, "height": 240}})
    for bad in (good.replace('"x1": 100', '"x1": 1' + "0" * 5000), "[" * 100_000):
        (tmp_path / "bad.jsonl").write_text(good + "\n" + bad + "\n", encoding="utf-8")
        assert main(["run", "--config", config, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: {tmp_path / 'bad.jsonl'} line 2: invalid JSON: ")


def test_a_dump_format_error_names_its_file(tmp_path, capsys):
    # with two dumps in one eval, a message naming only the line cannot say
    # which dump is at fault; a line lacking "conf" takes json.loads's path,
    # a confidence of 1.5 in write_dump's layout takes the pattern's
    good = json.dumps({"frame": 0, "ts_ms": 0, "class": "person", "x1": 100.0,
                       "y1": 100.0, "x2": 120.0, "y2": 140.0, "conf": 0.9})
    (tmp_path / "good.jsonl").write_text(good + "\n", encoding="utf-8")
    bad_path = str(tmp_path / "bad.jsonl")
    for bad, why in ((good.replace(', "conf": 0.9', ""), "missing fields: conf"),
                     (good.replace('"conf": 0.9', '"conf": 1.5'), "confidence 1.5")):
        (tmp_path / "bad.jsonl").write_text(good + "\n" + bad + "\n", encoding="utf-8")
        for command, doc in [
                ("eval", {"predictions": "bad.jsonl", "ground_truth": "good.jsonl"}),
                ("eval", {"predictions": "good.jsonl", "ground_truth": "bad.jsonl"}),
                ("run", {"source": {"kind": "dump", "path": "bad.jsonl",
                                    "width": 320, "height": 240}})]:
            config = _write_config(tmp_path, "job.json", doc)
            assert main([command, "--config", config, "--out", str(tmp_path / "out"),
                         "--quiet"]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {bad_path} line 2: "), (command, doc, err)
            assert why in err


def test_run_on_a_box_wider_than_the_float_range(tmp_path):
    # its width overflows to inf in iou_matrix, which once warned "overflow
    # encountered in subtract"; its IoU with any box is 0, so it never matches
    line = {"class": "person", "x1": -1.7e308, "y1": 10, "x2": 1.7e308, "y2": 50,
            "conf": 0.9}
    (tmp_path / "wide.jsonl").write_text(
        "".join(json.dumps({"frame": f, "ts_ms": 100 * f, **line}) + "\n" for f in range(3)),
        encoding="utf-8")
    cfg = pipeline_config_from_dict({
        "source": {"kind": "dump", "path": "wide.jsonl", "width": 320, "height": 240},
        "tracker": {"min_hits": 1}}, base_dir=str(tmp_path))
    manifest = run(cfg, str(tmp_path / "out"))
    assert manifest["frames"] == 3 and manifest["track_rows"] == 0


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
    # a repeated vertex makes a zero-length edge, which no simple polygon has
    dup = {"id": "dup", "kind": "Intrusion", "zone": [[0, 0], [10, 0], [10, 0], [0, 10]]}
    config = _write_config(tmp_path, "dup.json", _run_doc(rules=[dup]))
    assert main(["run", "--config", config, "--out", str(tmp_path / "bad"), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: zone 'dup.zone': polygon self-intersects\n"


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


def _odd_float(rnd):
    kind = rnd.randrange(6)
    if kind == 0:
        return rnd.choice((0.0, -0.0, 1.0, -3.0, 1e16, 2.0 ** 53, 5e-324, -2.2250738585072014e-308,
                           1.7976931348623157e308, 1e22, 123456789.0))
    if kind == 1:
        return float(rnd.randint(-10 ** 6, 10 ** 6))           # integral
    if kind == 2:                                                # any finite bit pattern
        while True:
            x = struct.unpack("<d", rnd.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                return x
    if kind == 3:
        return rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-320, 308)
    return rnd.uniform(-50.0, 2000.0)


def _odd_label(rnd):
    pieces = ["person", "car", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "日本",
              "\u2028", "😀", "\ud800", "/", "'", " ", "{}", "Infinity"]
    return "".join(rnd.choice(pieces) for _ in range(rnd.randint(1, 4)))


def test_track_lines_equal_json_dumps_of_track_records():
    # frames of finite and non-finite rows, odd labels and 70-bit frame ids;
    # repr writes inf / nan where json.dumps writes Infinity / NaN
    non_finite = [(-math.inf, 0.0, 1.0, 2.0), (0.0, 0.0, math.inf, 2.0),
                  (0.0, -math.inf, 1.0, math.inf), (math.nan, 0.0, 1.0, 2.0),
                  (0.0, 0.0, 1.0, math.nan), (1.7976931348623157e308,) * 4]
    rnd = random.Random(77)
    labels = {}
    for i in range(800):
        meta = FrameMeta(rnd.choice((0, 7, rnd.getrandbits(70))), 0)
        tracks = []
        for _ in range(rnd.randint(0, 10)):
            if rnd.random() < 0.2:
                box = rnd.choice(non_finite)
            else:
                x1, x2 = sorted((_odd_float(rnd), _odd_float(rnd)))
                y1, y2 = sorted((_odd_float(rnd), _odd_float(rnd)))
                box = (x1, y1, x2, y2)
            track = Track(rnd.randint(1, 10 ** 9), _odd_label(rnd), list(box))
            track.status = rnd.choice(list(TrackStatus))
            tracks.append(track)
        want = "".join(json.dumps(track_record(meta, t)) + "\n" for t in tracks)
        assert track_lines(meta, tracks, labels) == want, (i, [t.corners for t in tracks])
    meta = FrameMeta(3, 0)
    tracks = [Track(5, "car", list(box)) for box in non_finite]
    lines = track_lines(meta, tracks, labels)
    assert lines == "".join(json.dumps(track_record(meta, t)) + "\n" for t in tracks)
    assert "inf" not in lines and "nan" not in lines


def test_track_lines_hash_no_status_member(monkeypatch):
    # each row's status is looked up by its plain str value: hashing the
    # member would run Enum.__hash__, a Python-level call per row
    hashed = []
    enum_hash = TrackStatus.__hash__

    def counted(member):
        hashed.append(member)
        return enum_hash(member)

    monkeypatch.setattr(TrackStatus, "__hash__", counted)
    tracks = []
    for i, status in enumerate(list(TrackStatus) * 3):
        track = Track(i + 1, "car", [1.0, 2.0, 3.5 + i, 4.0])
        track.status = status
        tracks.append(track)
    meta = FrameMeta(5, 0)
    lines = track_lines(meta, tracks, {})
    assert hashed == []
    assert lines == "".join(json.dumps(track_record(meta, t)) + "\n" for t in tracks)
