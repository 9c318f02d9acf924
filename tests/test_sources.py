"""Detection dump I/O and the synthetic scene simulator."""

import itertools
import json
import math

import pytest

from vigil.errors import ConfigError, DataError, DumpFormatError
from vigil.geometry import BoundingBox, Detection, FrameMeta
from vigil.sources import (
    DUMP_FIELDS,
    ObjectSpec,
    SyntheticSceneConfig,
    read_dump,
    scene_config_from_dict,
    simulate,
    write_dump,
)


def small_scene(**overrides) -> SyntheticSceneConfig:
    base = dict(
        width=200, height=150, fps=10, duration_frames=30,
        objects=(
            ObjectSpec("person", (40.0, 75.0), (3.0, 0.0), (20.0, 40.0)),
            ObjectSpec("car", (150.0, 60.0), (-2.0, 1.5), (36.0, 24.0)),
        ),
        seed=12,
    )
    base.update(overrides)
    return SyntheticSceneConfig(**base)


# ---------------------------------------------------------------------------
# dump format


def test_dump_round_trip(tmp_path):
    scene = simulate(small_scene(jitter_sigma=1.0, false_positives_per_frame=0.3))
    path = tmp_path / "cam7.jsonl"
    n = write_dump(path, zip(scene.frames, scene.noisy))
    assert n == sum(len(dets) for dets in scene.noisy)

    got = list(read_dump(path, width=200, height=150))
    want = [(m, d) for m, d in zip(scene.frames, scene.noisy) if d]
    assert len(got) == len(want)
    for (gm, gd), (wm, wd) in zip(got, want):
        assert gm.frame_id == wm.frame_id
        assert gm.timestamp_ms == wm.timestamp_ms
        assert gm.width == 200 and gm.height == 150
        assert gm.source_id == "cam7"          # file stem by default
        assert len(gd) == len(wd)
        for g, w in zip(gd, wd):
            assert g.class_label == w.class_label
            assert g.confidence == pytest.approx(w.confidence, abs=1e-12)
            assert g.bbox.as_tuple() == pytest.approx(w.bbox.as_tuple(), abs=1e-9)


def test_dump_line_key_order(tmp_path):
    meta = FrameMeta("s", 0, 0, 100, 100)
    det = Detection(meta, BoundingBox(1, 2, 3, 4), "person", 0.9)
    path = tmp_path / "one.jsonl"
    write_dump(path, [(meta, [det])])
    raw = path.read_text().strip()
    assert list(json.loads(raw)) == list(DUMP_FIELDS)
    assert list(DUMP_FIELDS) == ["frame", "ts_ms", "class",
                                 "x1", "y1", "x2", "y2", "conf"]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


GOOD = '{"frame": 0, "ts_ms": 0, "class": "person", "x1": 1, "y1": 2, "x2": 3, "y2": 4, "conf": 0.5}'


def test_malformed_lines_carry_line_numbers(tmp_path):
    cases = [
        ("not json at all", "json"),
        ('{"frame": 0, "ts_ms": 0, "class": "p", "x1": 1, "y1": 2, "x2": 3, "y2": 4}', "conf"),
        (GOOD.replace('"conf": 0.5', '"conf": 0.5, "extra": 1'), "extra"),
        (GOOD.replace('"frame": 0', '"frame": "zero"'), "frame"),
        (GOOD.replace('"conf": 0.5', '"conf": NaN'), "conf"),
        (GOOD.replace('"x2": 3', '"x2": 0.5'), "x"),   # x2 < x1
        (GOOD.replace('"frame": 0', '"frame": -1'), "frame"),
    ]
    for i, (bad, hint) in enumerate(cases):
        path = tmp_path / f"bad{i}.jsonl"
        write_lines(path, [GOOD, bad.replace('"frame": 0', '"frame": 1')
                           if "frame" not in hint else bad])
        with pytest.raises(DumpFormatError) as err:
            list(read_dump(path))
        assert err.value.line_no in (1, 2)
        assert "line" in str(err.value)


def test_decreasing_frame_rejected(tmp_path):
    path = tmp_path / "dec.jsonl"
    write_lines(path, [
        GOOD.replace('"frame": 0, "ts_ms": 0', '"frame": 5, "ts_ms": 500'),
        GOOD.replace('"frame": 0, "ts_ms": 0', '"frame": 4, "ts_ms": 400'),
    ])
    with pytest.raises(DumpFormatError) as err:
        list(read_dump(path))
    assert err.value.line_no == 2


def test_frame_groups_and_gaps(tmp_path):
    path = tmp_path / "gaps.jsonl"
    write_lines(path, [
        GOOD,
        GOOD.replace('"x1": 1', '"x1": 11').replace('"x2": 3', '"x2": 13'),
        GOOD.replace('"frame": 0, "ts_ms": 0', '"frame": 7, "ts_ms": 700'),
    ])
    groups = list(read_dump(path))
    assert [m.frame_id for m, _ in groups] == [0, 7]
    assert len(groups[0][1]) == 2
    assert groups[1][0].timestamp_ms == 700


def test_first_timestamp_of_group_wins(tmp_path):
    path = tmp_path / "ts.jsonl"
    write_lines(path, [GOOD, GOOD.replace('"ts_ms": 0', '"ts_ms": 99')])
    (meta, dets), = read_dump(path)
    assert meta.timestamp_ms == 0
    assert len(dets) == 2


def test_decreasing_timestamp_rejected(tmp_path):
    def frame(fid, ts):
        return GOOD.replace('"frame": 0, "ts_ms": 0', f'"frame": {fid}, "ts_ms": {ts}')

    path = tmp_path / "ts.jsonl"
    write_lines(path, [frame(0, 0), frame(1, 100), frame(1, 20), frame(2, 100),
                       frame(3, 50)])
    groups = read_dump(path)
    # only a frame's first line sets its timestamp, and frame 2 may repeat it
    assert [m.timestamp_ms for m, _ in itertools.islice(groups, 2)] == [0, 100]
    with pytest.raises(DumpFormatError) as err:
        next(groups)
    assert err.value.line_no == 5
    assert '"ts_ms" 50 decreases' in str(err.value)


def test_missing_dump_is_data_error(tmp_path):
    with pytest.raises(DataError):
        list(read_dump(tmp_path / "absent.jsonl"))


# ---------------------------------------------------------------------------
# scene config validation


def test_scene_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        small_scene(width=0)
    with pytest.raises(ConfigError):
        small_scene(fps=0)
    with pytest.raises(ConfigError):
        small_scene(miss_probability=1.5)
    with pytest.raises(ConfigError):
        small_scene(jitter_sigma=-1)
    with pytest.raises(ConfigError):
        small_scene(false_positives_per_frame=-0.1)
    # object starting outside the frame
    with pytest.raises(ConfigError):
        small_scene(objects=(ObjectSpec("p", (5.0, 75.0), (0, 0), (20.0, 40.0)),))
    # object larger than the frame
    with pytest.raises(ConfigError):
        small_scene(objects=(ObjectSpec("p", (100.0, 75.0), (0, 0), (300.0, 40.0)),))


def test_object_spec_validation():
    with pytest.raises(ConfigError):
        ObjectSpec("", (10, 10), (0, 0), (5, 5))
    with pytest.raises(ConfigError):
        ObjectSpec("p", (10, 10), (0, 0), (0, 5))
    with pytest.raises(ConfigError):
        ObjectSpec("p", (10, 10), (0, 0), (5, 5), entry_frame=4, exit_frame=4)


def test_scene_config_from_dict_round_trip():
    doc = {"width": 100, "height": 90, "fps": 5, "duration_frames": 10,
           "objects": [{"class_label": "bike", "center": [50, 45],
                        "velocity": [1, 0], "size": [10, 10],
                        "entry_frame": 2, "exit_frame": 8}],
           "jitter_sigma": 0.5, "seed": 3}
    cfg = scene_config_from_dict(doc)
    assert cfg.objects[0].class_label == "bike"
    assert cfg.objects[0].entry_frame == 2
    assert cfg.seed == 3
    with pytest.raises(ConfigError):
        scene_config_from_dict({**doc, "surprise": 1})
    with pytest.raises(ConfigError):
        scene_config_from_dict({**doc, "objects": [{"class_label": "x"}]})


# ---------------------------------------------------------------------------
# simulator behavior


def test_simulate_deterministic():
    a = simulate(small_scene(jitter_sigma=2.0, miss_probability=0.2,
                             false_positives_per_frame=0.5))
    b = simulate(small_scene(jitter_sigma=2.0, miss_probability=0.2,
                             false_positives_per_frame=0.5))
    assert len(a.noisy) == len(b.noisy)
    for da, db in zip(a.noisy, b.noisy):
        assert [d.bbox.as_tuple() for d in da] == [d.bbox.as_tuple() for d in db]
        assert [d.confidence for d in da] == [d.confidence for d in db]


def test_clean_scene_equals_ground_truth():
    scene = simulate(small_scene())        # no jitter, no misses, no FPs
    for gt, noisy in zip(scene.ground_truth, scene.noisy):
        assert len(gt) == len(noisy)
        for g, n in zip(gt, noisy):
            assert n.bbox.as_tuple() == pytest.approx(g.bbox.as_tuple(), abs=1e-12)
            assert n.confidence == 1.0     # zero jitter distance
            assert g.confidence == 1.0


def test_timestamps_follow_fps():
    scene = simulate(small_scene(fps=30, duration_frames=61))
    ts = [m.timestamp_ms for m in scene.frames]
    assert ts[0] == 0
    assert ts[30] == 1000
    assert ts == sorted(ts)
    for f, t in enumerate(ts):
        assert t == int(round(f * 1000.0 / 30))


def test_entry_and_exit_frames():
    obj = ObjectSpec("p", (100.0, 75.0), (0.0, 0.0), (20.0, 20.0),
                     entry_frame=5, exit_frame=12)
    scene = simulate(small_scene(objects=(obj,)))
    for f, gt in enumerate(scene.ground_truth):
        assert len(gt) == (1 if 5 <= f < 12 else 0)


def test_objects_bounce_and_stay_inside():
    cfg = small_scene(duration_frames=400,
                      objects=(ObjectSpec("p", (30.0, 30.0), (7.0, 5.0),
                                          (20.0, 20.0)),))
    scene = simulate(cfg)
    for gt in scene.ground_truth:
        (det,) = gt
        b = det.bbox
        assert -1e-9 <= b.x1 and b.x2 <= cfg.width + 1e-9
        assert -1e-9 <= b.y1 and b.y2 <= cfg.height + 1e-9


def test_all_missed_leaves_only_false_positives():
    scene = simulate(small_scene(miss_probability=1.0,
                                 false_positives_per_frame=0.8))
    labels = {s.class_label for s in scene.config.objects}
    total = 0
    for dets, ids in zip(scene.noisy, scene.noisy_object_ids):
        assert all(i is None for i in ids)
        for det in dets:
            total += 1
            assert det.class_label in labels
            assert 0.3 <= det.confidence <= 0.9
            assert 0 <= det.bbox.x1 <= det.bbox.x2 <= scene.config.width
            assert 0 <= det.bbox.y1 <= det.bbox.y2 <= scene.config.height
    assert total > 0


def test_true_confidence_tracks_jitter_distance():
    # both objects are active every frame, so ground-truth index == spec index
    scene = simulate(small_scene(jitter_sigma=3.0))
    for gt, dets, ids in zip(scene.ground_truth, scene.noisy,
                             scene.noisy_object_ids):
        for det, obj_id in zip(dets, ids):
            if obj_id is None:
                continue
            g = gt[obj_id]
            # recover the jitter from the box shift
            dx = det.bbox.x1 - g.bbox.x1
            dy = det.bbox.y1 - g.bbox.y1
            want = max(0.5, 1.0 - math.hypot(dx, dy) / 20.0)
            assert det.confidence == pytest.approx(want, abs=1e-9)


def test_jitter_is_rigid_shift():
    scene = simulate(small_scene(jitter_sigma=2.5))
    for gt, dets, ids in zip(scene.ground_truth, scene.noisy,
                             scene.noisy_object_ids):
        for det, obj_id in zip(dets, ids):
            if obj_id is None:
                continue
            g = gt[obj_id]
            assert det.bbox.width == pytest.approx(g.bbox.width, abs=1e-9)
            assert det.bbox.height == pytest.approx(g.bbox.height, abs=1e-9)

