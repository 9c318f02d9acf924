"""Tracker lifecycle, association gating, and identity stability."""

import json
import pathlib

import pytest

import vigil.cli

from vigil.errors import ConfigError, DataError
from vigil.geometry import BoundingBox, Detection, FrameMeta, iou
from vigil.sources import ObjectSpec, SyntheticSceneConfig, simulate
from vigil.tracker import SortTracker, TrackStatus, TrackerConfig, track_record


def frame(fid: int, fps: float = 10.0) -> FrameMeta:
    return FrameMeta("cam", fid, int(round(fid * 1000.0 / fps)), 640, 480)


def det(meta, x1, y1, x2, y2, label="person", conf=0.9) -> Detection:
    return Detection(meta, BoundingBox(x1, y1, x2, y2), label, conf)


def feed(tracker, fid, boxes):
    meta = frame(fid)
    return meta, tracker.step(meta, [det(meta, *b) for b in boxes])


BOX = (80.0, 60.0, 120.0, 140.0)        # the stationary test object


def test_confirmation_after_min_hits():
    tracker = SortTracker(TrackerConfig(min_hits=3, max_age=1))
    seen = []
    for f in range(10):
        _, out = feed(tracker, f, [BOX])
        seen.append([(t.track_id, t.status.value) for t in out])
    assert seen[:3] == [[], [], []]
    for f in range(3, 10):
        assert seen[f] == [(1, "Confirmed")]


def test_track_survives_one_miss_with_max_age_two():
    tracker = SortTracker(TrackerConfig(min_hits=3, max_age=2))
    ids_per_frame = []
    for f in range(10):
        boxes = [] if f == 4 else [BOX]
        _, out = feed(tracker, f, boxes)
        ids_per_frame.append([t.track_id for t in out])
    # the coasting frame still reports the Confirmed track on its prediction
    for f in range(3, 10):
        assert ids_per_frame[f] == [1]


def test_miss_kills_track_with_max_age_one():
    tracker = SortTracker(TrackerConfig(min_hits=3, max_age=1))
    ids_per_frame = []
    for f in range(10):
        boxes = [] if f == 4 else [BOX]
        _, out = feed(tracker, f, boxes)
        ids_per_frame.append([t.track_id for t in out])
    assert ids_per_frame[3] == [1]
    assert ids_per_frame[4] == []          # deleted on the miss
    assert ids_per_frame[5:8] == [[], [], []]     # replacement warms up
    assert ids_per_frame[8] == [2]
    assert ids_per_frame[9] == [2]


def test_hits_reset_on_miss():
    # two matches, one miss, then matches: confirmation needs min_hits
    # consecutive matches after the miss
    tracker = SortTracker(TrackerConfig(min_hits=3, max_age=3))
    statuses = []
    plan = [True, True, False, True, True, True, True]
    for f, present in enumerate(plan):
        meta = frame(f)
        out = tracker.step(meta, [det(meta, *BOX)] if present else [])
        statuses.append([t.status for t in out])
    track = tracker.tracks[0]
    assert track.status is TrackStatus.CONFIRMED
    # the miss at frame 2 resets the streak, so confirmation waits for the
    # third post-miss match at frame 5
    assert statuses[:5] == [[], [], [], [], []]
    assert statuses[5] == [TrackStatus.CONFIRMED]
    assert [t.track_id for t in tracker.tracks] == [1]


def test_per_class_association():
    tracker = SortTracker(TrackerConfig(min_hits=1, max_age=2))
    meta = frame(0)
    tracker.step(meta, [det(meta, *BOX, label="person"),
                        det(meta, *BOX, label="car")])
    meta = frame(1)
    out = tracker.step(meta, [det(meta, *BOX, label="person"),
                              det(meta, *BOX, label="car")])
    by_class = {t.class_label: t.track_id for t in out}
    assert set(by_class) == {"person", "car"}
    # same ids again next frame: no cross-class swapping
    meta = frame(2)
    out = tracker.step(meta, [det(meta, *BOX, label="car"),
                              det(meta, *BOX, label="person")])
    assert {t.class_label: t.track_id for t in out} == by_class


def test_iou_gate_spawns_instead_of_teleporting():
    tracker = SortTracker(TrackerConfig(iou_min=0.3, min_hits=1, max_age=1))
    feed(tracker, 0, [BOX])
    feed(tracker, 1, [BOX])
    # jump far away: no association allowed
    _, out = feed(tracker, 2, [(400.0, 300.0, 440.0, 380.0)])
    assert [t.track_id for t in out] == []      # old deleted, new tentative
    _, out = feed(tracker, 3, [(400.0, 300.0, 440.0, 380.0)])
    assert [t.track_id for t in out] == [2]


def test_track_ids_increase_in_spawn_order():
    tracker = SortTracker(TrackerConfig(min_hits=1, max_age=1))
    meta = frame(0)
    tracker.step(meta, [det(meta, 0, 0, 10, 10),
                        det(meta, 100, 0, 110, 10),
                        det(meta, 200, 0, 210, 10)])
    assert [t.track_id for t in tracker.tracks] == [1, 2, 3]


def test_degenerate_detection_does_not_spawn():
    tracker = SortTracker(TrackerConfig(min_hits=1, max_age=1))
    meta = frame(0)
    out = tracker.step(meta, [det(meta, 5, 5, 5, 9)])
    assert out == [] and tracker.tracks == []


def test_out_of_order_frames_rejected():
    tracker = SortTracker()
    feed(tracker, 0, [BOX])
    feed(tracker, 1, [BOX])
    with pytest.raises(DataError):
        feed(tracker, 1, [BOX])
    with pytest.raises(DataError):
        feed(tracker, 0, [BOX])


def test_config_validation():
    with pytest.raises(ConfigError):
        TrackerConfig(iou_min=0.0)
    with pytest.raises(ConfigError):
        TrackerConfig(max_age=0)
    with pytest.raises(ConfigError):
        TrackerConfig(min_hits=0)


def test_track_record_key_order():
    tracker = SortTracker(TrackerConfig(min_hits=1, max_age=1))
    feed(tracker, 0, [BOX])                # spawn frame; first match confirms
    meta, out = feed(tracker, 1, [BOX])
    rec = track_record(meta, out[0])
    assert list(rec) == ["frame", "track_id", "class",
                         "x1", "y1", "x2", "y2", "status"]
    assert rec["frame"] == 1 and rec["track_id"] == 1
    assert rec["class"] == "person" and rec["status"] == "Confirmed"


def test_noiseless_multi_object_scene_keeps_identities():
    # velocities chosen so nothing reaches a wall within 80 frames: the
    # constant-velocity model lags briefly after a bounce, which is a model
    # property, not an identity failure
    cfg = SyntheticSceneConfig(
        width=640, height=480, fps=10, duration_frames=80,
        objects=(
            ObjectSpec("person", (100.0, 100.0), (4.0, 2.0), (30.0, 60.0)),
            ObjectSpec("person", (500.0, 380.0), (-4.0, -2.0), (30.0, 60.0)),
            ObjectSpec("car", (320.0, 240.0), (3.0, -2.0), (60.0, 40.0)),
        ),
        seed=8)
    scene = simulate(cfg)
    tracker = SortTracker(TrackerConfig(min_hits=3, max_age=2))
    identities = {}                      # object index -> track id
    for meta, gt, dets in zip(scene.frames, scene.ground_truth, scene.noisy):
        out = tracker.step(meta, dets)
        if meta.frame_id < 3:
            continue
        assert len(out) == 3
        for obj_idx, g in enumerate(gt):
            best = max(out, key=lambda t: iou(t.bbox, g.bbox))
            overlap = iou(best.bbox, g.bbox)
            assert overlap >= 0.9, (meta.frame_id, obj_idx, overlap)
            if obj_idx in identities:
                assert identities[obj_idx] == best.track_id   # no switches
            identities[obj_idx] = best.track_id
    assert len(set(identities.values())) == 3


def test_trace_seam_times_hungarian_assign(tmp_path, monkeypatch):
    # perfbench/tracing.py times the solver by rebinding
    # vigil.tracker.hungarian_assign; if the tracker reached it through
    # another name, assignment.* would silently read 0
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    lines = []
    for f in range(20):  # two people walking into each other and past
        for x in (20 + 10 * f, 220 - 10 * f):
            lines.append(json.dumps({"frame": f, "ts_ms": 100 * f, "class": "person",
                                     "x1": x, "y1": 100, "x2": x + 30, "y2": 160,
                                     "conf": 0.9}))
    (tmp_path / "cross.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "source": {"kind": "dump", "path": "cross.jsonl", "width": 320, "height": 240},
        "tracker": {"min_hits": 2}}), encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        code = vigil.cli.main(["run", "--config", str(config),
                               "--out", str(tmp_path / "out"), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["assignment.hungarian"] > 0
    assert tracer.counters["assignment.cells"] >= 4 * tracer.calls["assignment.hungarian"]
    # where the two cross, their cheapest columns collide and the full solver runs
    assert tracer.counters["assignment.strict_minima"] < tracer.calls["assignment.hungarian"]
