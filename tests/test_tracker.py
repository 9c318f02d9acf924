"""Tracker lifecycle, association gating, and identity stability."""

import json
import pathlib
import random

import numpy as np
import pytest

import vigil.cli

from vigil.errors import ConfigError, DataError
from vigil.geometry import BoundingBox, Detection, FrameMeta, iou
from vigil.sources import ObjectSpec, SyntheticSceneConfig, simulate
from vigil.tracker import SortTracker, TrackStatus, TrackerConfig, track_record

from oracles import ReferenceSortTracker


def frame(fid: int, fps: float = 10.0) -> FrameMeta:
    return FrameMeta(fid, int(round(fid * 1000.0 / fps)))


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


THIN = (0.0, 10.0, 1e-170, 50.0)    # s * r = w ** 2 underflows to 0


def test_seed_must_give_its_box_back():
    # a seed's state must invert to a box: zero width or height, or a width
    # whose square underflows to 0, cannot seed a track, and the other
    # detections of the frame still do
    tracker = SortTracker(TrackerConfig(min_hits=1, max_age=1))
    for f in range(3):
        feed(tracker, f, [(5, 5, 5, 9), (1, 2, 8, 2), THIN, BOX])
        assert [t.bbox.as_tuple() for t in tracker.tracks] == [pytest.approx(BOX)]
    assert [t.track_id for t in tracker.tracks] == [1]
    # a width just above the underflow still seeds
    _, out = feed(tracker, 3, [(0.0, 10.0, 1e-150, 50.0)])
    assert [t.track_id for t in tracker.tracks] == [2]


def test_cli_run_on_a_box_too_thin_for_its_state(tmp_path, capsys):
    # this dump once ended the run with "internal error: ValueError:
    # non-positive size in state" and exit code 4
    x1, y1, x2, y2 = THIN
    lines = [json.dumps({"frame": f, "ts_ms": 100 * f, "class": "person", "x1": x1,
                         "y1": y1, "x2": x2, "y2": y2, "conf": 0.9}) for f in range(3)]
    (tmp_path / "thin.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "source": {"kind": "dump", "path": "thin.jsonl", "width": 320, "height": 240},
        "tracker": {"min_hits": 1}}), encoding="utf-8")
    out = tmp_path / "out"
    assert vigil.cli.main(["run", "--config", str(config), "--out", str(out),
                           "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((out / "run-manifest.json").read_text(encoding="utf-8"))
    assert manifest["frames"] == 3 and manifest["track_rows"] == 0
    assert (out / "tracks.jsonl").read_text(encoding="utf-8") == ""


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


def test_a_confirmed_track_is_returned_on_every_step_until_it_is_deleted():
    # the frame loop hands the rules and statistics only the previous
    # frame's placement as each track's last; that holds because a confirmed
    # track is returned on every step from its confirmation to its deletion
    # (coasting through misses below max_age) and no id ever comes back
    rnd = random.Random(32)
    coasted = deleted = 0
    for seed in range(24):
        objects = []
        for _ in range(rnd.randint(4, 14)):
            entry = rnd.randrange(50)
            objects.append(ObjectSpec(
                rnd.choice(("person", "car")), (rnd.uniform(30, 290), rnd.uniform(30, 210)),
                (rnd.uniform(-6, 6), rnd.uniform(-6, 6)),
                (rnd.uniform(12, 40), rnd.uniform(12, 40)),
                entry_frame=entry, exit_frame=entry + rnd.randint(3, 40)))
        scene = simulate(SyntheticSceneConfig(
            width=320, height=240, fps=10, duration_frames=60, objects=tuple(objects),
            jitter_sigma=1.5, miss_probability=0.2, false_positives_per_frame=0.5,
            seed=seed))
        tracker = SortTracker(TrackerConfig(max_age=seed % 3 + 1,
                                            min_hits=rnd.randint(1, 3)))
        returned: dict = {}  # confirmed id -> the steps that returned it
        alive: dict = {}     # id -> the steps after which the tracker held it
        for step, (meta, dets) in enumerate(zip(scene.frames, scene.noisy)):
            for t in tracker.step(meta, dets):
                returned.setdefault(t.track_id, []).append(step)
                coasted += t.misses > 0
            for t in tracker.tracks:
                alive.setdefault(t.track_id, []).append(step)
        for steps in (*returned.values(), *alive.values()):
            assert steps == list(range(steps[0], steps[-1] + 1)), (seed, steps)
        deleted += sum(steps[-1] < len(scene.frames) - 1 for steps in returned.values())
    assert coasted > 50 and deleted > 100, (coasted, deleted)


def _random_scene(rnd, frames):
    """Per-frame (box, label) lists: objects that enter, leave, are missed,
    and some that shrink fast before vanishing, plus clutter and
    zero-width boxes."""
    objects = []
    for _ in range(rnd.randint(2, 12)):
        start = rnd.randrange(frames)
        objects.append({
            "label": rnd.choice(("person", "car", "bike")),
            "c": [rnd.uniform(20, 600), rnd.uniform(20, 440)],
            "v": (rnd.uniform(-12, 12), rnd.uniform(-12, 12)),
            "size": [rnd.uniform(8, 90), rnd.uniform(8, 90)],
            "shrink": rnd.choice((1.0, 1.0, 0.55)),   # shrinking tracks coast into a pin
            "frames": range(start, start + rnd.randint(2, frames))})
    scene = []
    for f in range(frames):
        dets = []
        for ob in objects:
            if f not in ob["frames"]:
                continue
            ob["c"] = [ob["c"][0] + ob["v"][0], ob["c"][1] + ob["v"][1]]
            ob["size"] = [max(ob["size"][0] * ob["shrink"], 0.5),
                          max(ob["size"][1] * ob["shrink"], 0.5)]
            if rnd.random() < 0.15:
                continue                                  # missed
            (cx, cy), (w, h) = ob["c"], ob["size"]
            x1, x2 = sorted(cx + d * w / 2 + rnd.gauss(0.0, 1.5) for d in (-1, 1))
            y1, y2 = sorted(cy + d * h / 2 + rnd.gauss(0.0, 1.5) for d in (-1, 1))
            dets.append(((x1, y1, x2, y2), ob["label"]))
        if rnd.random() < 0.4:                            # clutter
            x, y = rnd.uniform(0, 600), rnd.uniform(0, 440)
            dets.append(((x, y, x + rnd.uniform(5, 60), y + rnd.uniform(5, 60)),
                         rnd.choice(("person", "car"))))
        if rnd.random() < 0.1:                            # zero width: never spawns
            x, y = rnd.uniform(0, 600), rnd.uniform(0, 440)
            dets.append(((x, y, x, y + 20.0), "person"))
        rnd.shuffle(dets)
        scene.append(dets)
    return scene


def test_stacked_tracker_matches_frozen_per_filter_tracker():
    # the stacked state must give the per-filter tracker's ids, statuses
    # and boxes bit for bit, through spawns, deletions and pinned areas
    rnd = random.Random(2024)
    pins = deletions = 0
    for _ in range(40):
        cfg = TrackerConfig(iou_min=rnd.choice((0.1, 0.3, 0.5)),
                            max_age=rnd.randint(1, 4), min_hits=rnd.randint(1, 3),
                            per_class=rnd.random() < 0.6)
        tracker = SortTracker(cfg)
        oracle = ReferenceSortTracker(cfg.iou_min, cfg.max_age, cfg.min_hits,
                                      cfg.per_class)
        for f, dets in enumerate(_random_scene(rnd, 50)):
            meta = frame(f)
            out = tracker.step(meta, [Detection(meta, BoundingBox(*box), label, 0.9)
                                      for box, label in dets])
            want_out = oracle.step(dets)
            assert [t.track_id for t in out] == [t.track_id for t in want_out]
            got = [(t.track_id, t.class_label, t.status.value) for t in tracker.tracks]
            want = [(t.track_id, t.class_label, t.status) for t in oracle.tracks]
            assert got == want, f
            got_boxes = np.array([t.bbox.as_tuple() for t in tracker.tracks]).reshape(-1, 4)
            want_boxes = np.array([t.bbox for t in oracle.tracks]).reshape(-1, 4)
            assert np.array_equal(got_boxes.view(np.uint64), want_boxes.view(np.uint64)), f
        pins += oracle.pins
        deletions += oracle._next_id - 1 - len(oracle.tracks)
    assert pins > 0 and deletions > 0


def test_every_live_track_keeps_a_box_after_each_step():
    # step builds no BoundingBox; each track's corners row must still keep
    # its corner rule, so the box built on demand equals the row
    rnd = random.Random(31)
    checked = 0
    for _ in range(10):
        tracker = SortTracker(TrackerConfig(max_age=rnd.randint(1, 3),
                                            min_hits=rnd.randint(1, 3)))
        for f, dets in enumerate(_random_scene(rnd, 40)):
            meta = frame(f)
            tracker.step(meta, [Detection(meta, BoundingBox(*box), label, 0.9)
                                for box, label in dets])
            for t in tracker.tracks:
                assert type(t.corners) is list and len(t.corners) == 4
                assert all(type(c) is float for c in t.corners)
                assert t.bbox == BoundingBox(*t.corners), (f, t.track_id)
                checked += 1
    assert checked > 1000


CROSSING_FRAMES = 20


def _traced_crossing_run(tmp_path, monkeypatch):
    """Run `vigil run` on a 20-frame dump of two people walking into each
    other and past, under perfbench's tracer; returns the tracer."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    lines = []
    for f in range(CROSSING_FRAMES):
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
    return tracer


def test_trace_seam_times_hungarian_assign(tmp_path, monkeypatch):
    # perfbench/tracing.py times the solver by rebinding
    # vigil.tracker.hungarian_assign; if the tracker reached it through
    # another name, assignment.* would silently read 0
    tracer = _traced_crossing_run(tmp_path, monkeypatch)
    assert tracer.calls["assignment.hungarian"] > 0
    assert tracer.counters["assignment.cells"] >= 4 * tracer.calls["assignment.hungarian"]
    # where the two cross, their cheapest columns collide and the full solver runs
    assert tracer.counters["assignment.strict_minima"] < tracer.calls["assignment.hungarian"]


def test_trace_seam_reads_tracker_state(tmp_path, monkeypatch):
    # the tracer wraps SortTracker.step and reads tracker.tracks, a list of
    # objects with a track_id, after each step
    tracer = _traced_crossing_run(tmp_path, monkeypatch)
    tracer.end_pass()
    layers = tracer.layer_metrics(1)
    assert layers["tracker.step_calls"] == CROSSING_FRAMES
    assert layers["tracker.live_tracks_mean"] > 0
    assert layers["tracker.spawned"] > 0


def test_trace_seam_times_the_kalman_steps(tmp_path, monkeypatch):
    # the tracer wraps KalmanBoxFilter.predict and .update: the tracker
    # predicts every step and updates on every step with a match, which is
    # each one after the first
    tracer = _traced_crossing_run(tmp_path, monkeypatch)
    assert tracer.calls["kalman.predict"] == CROSSING_FRAMES
    assert tracer.calls["kalman.update"] == CROSSING_FRAMES - 1


def test_trace_seam_counts_dump_frames_and_lines(tmp_path, monkeypatch):
    # the tracer rebinds vigil.pipeline.read_dump and times each next() on
    # the frames it yields, the last one ending the stream, and counts
    # sources.lines as len() of each frame's batch
    tracer = _traced_crossing_run(tmp_path, monkeypatch)
    lines = (tmp_path / "cross.jsonl").read_text(encoding="utf-8").splitlines()
    assert tracer.calls["sources.read_dump"] == CROSSING_FRAMES + 1
    assert tracer.counters["sources.lines"] == len(lines) == 2 * CROSSING_FRAMES
    assert tracer.counters["sources.bytes_in"] == (tmp_path / "cross.jsonl").stat().st_size
    layers = tracer.layer_metrics(1)
    assert layers["sources.lines"] == 2 * CROSSING_FRAMES
    assert layers["sources.read_dump_s"] > 0
