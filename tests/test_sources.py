"""Detection dump I/O and the synthetic scene simulator."""

import itertools
import json
import math

import numpy as np
import pytest

from vigil.cli import main
from vigil.errors import ConfigError, DataError, DumpFormatError
from vigil.geometry import BoundingBox, Detection, FrameMeta
from vigil.sources import (
    _DUMP_LINE,
    DUMP_FIELDS,
    ObjectSpec,
    SyntheticSceneConfig,
    _dump_line,
    read_dump,
    scene_config_from_dict,
    simulate,
    write_dump,
)

from oracles import read_dump_reference


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

    got = list(read_dump(path))
    want = [(m, d) for m, d in zip(scene.frames, scene.noisy) if d]
    assert len(got) == len(want)
    for (gm, gd), (wm, wd) in zip(got, want):
        assert gm.frame_id == wm.frame_id
        assert gm.timestamp_ms == wm.timestamp_ms
        assert len(gd) == len(wd)
        for box, label, conf, w in zip(gd.boxes.tolist(), gd.labels,
                                       gd.confidences.tolist(), wd):
            assert label == w.class_label
            assert conf == pytest.approx(w.confidence, abs=1e-12)
            assert box == pytest.approx(w.bbox.as_tuple(), abs=1e-9)


def test_dump_line_key_order(tmp_path):
    meta = FrameMeta(0, 0)
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
    later = GOOD.replace('"frame": 0', '"frame": 1')
    cases = [
        ("not json at all", "invalid JSON"),
        ('{"frame": 1, "ts_ms": 0, "class": "p", "x1": 1, "y1": 2, "x2": 3, "y2": 4}',
         "missing fields: conf"),
        (later.replace('"conf": 0.5', '"conf": 0.5, "extra": 1'), "unknown fields: extra"),
        (GOOD.replace('"frame": 0', '"frame": "zero"'), '"frame" must be an integer'),
        (later.replace('"conf": 0.5', '"conf": NaN'), '"conf" must be finite'),
        (later.replace('"x2": 3', '"x2": 0.5'), "invalid box corners"),   # x2 < x1
        (GOOD.replace('"frame": 0', '"frame": -1'), '"frame" -1 decreases (previous 0)'),
    ]
    for i, (bad, hint) in enumerate(cases):
        path = tmp_path / f"bad{i}.jsonl"
        write_lines(path, [GOOD, bad])
        with pytest.raises(DumpFormatError) as err:
            list(read_dump(path))
        assert err.value.line_no == 2, hint
        assert str(err.value).startswith(f"{path} line 2: {hint}"), (hint, str(err.value))


def test_decreasing_frame_rejected(tmp_path):
    path = tmp_path / "dec.jsonl"
    write_lines(path, [
        GOOD.replace('"frame": 0, "ts_ms": 0', '"frame": 5, "ts_ms": 500'),
        GOOD.replace('"frame": 0, "ts_ms": 0', '"frame": 4, "ts_ms": 400'),
    ])
    with pytest.raises(DumpFormatError) as err:
        list(read_dump(path))
    assert err.value.line_no == 2


def test_a_negative_frame_exits_3_naming_the_file_and_line(tmp_path, capsys):
    # only a first line can hold a negative frame: on a later one, the
    # frame decreases first
    dump = tmp_path / "neg.jsonl"
    write_lines(dump, [GOOD.replace('"frame": 0', '"frame": -1')])
    (tmp_path / "run.json").write_text(json.dumps(
        {"source": {"kind": "dump", "path": "neg.jsonl", "width": 200, "height": 150}}))
    assert main(["run", "--config", str(tmp_path / "run.json"), "--out",
                 str(tmp_path / "out"), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        f'data error: {dump} line 1: "frame" must be >= 0, got -1\n')


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


def test_dump_line_is_json_dumps_of_the_record():
    meta = FrameMeta(12, 3400)
    labels: dict = {}
    values = [0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 1.0 / 3.0, 123456789.0, 7, -3]
    for label in ("person", 'a"b', "back\\slash", "é", "日本", "tab\tx", "\u2028"):
        for x1, y1 in itertools.product(values, values[:4]):
            det = Detection(meta, BoundingBox(x1, y1, x1 + 2.5, y1 + 1e16), label, 0.75)
            rec = {"frame": 12, "ts_ms": 3400, "class": label, "x1": x1, "y1": y1,
                   "x2": x1 + 2.5, "y2": y1 + 1e16, "conf": 0.75}
            assert _dump_line(meta, det, labels) == json.dumps(rec) + "\n"
    assert set(labels) == {"person", 'a"b', "back\\slash", "é", "日本", "tab\tx", "\u2028"}
    # repr writes inf and nan; json.dumps writes Infinity and NaN
    for box in [(-math.inf, 0.0, 1.0, 1.0), (0.0, 0.0, math.inf, 1.0),
                (math.nan, 0.0, 1.0, 1.0)]:
        det = Detection(meta, BoundingBox(*box), "person", 1.0)
        rec = {"frame": 12, "ts_ms": 3400, "class": "person", "x1": box[0], "y1": box[1],
               "x2": box[2], "y2": box[3], "conf": 1.0}
        line = _dump_line(meta, det, labels)
        assert line == json.dumps(rec) + "\n"
        assert "Infinity" in line or "NaN" in line
    # numpy scalars, whose repr is not json.dumps's: a float64 (a float
    # subclass) is written as its value, a str_ label as a string
    det = Detection(meta, BoundingBox(*np.array([1.5, 2.0, 3.25, 1e16])), np.str_("car"),
                    np.float64(0.5))
    rec = {"frame": 12, "ts_ms": 3400, "class": "car", "x1": 1.5, "y1": 2.0, "x2": 3.25,
           "y2": 1e16, "conf": 0.5}
    assert _dump_line(meta, det, labels) == json.dumps(rec) + "\n"
    # ... and an int64 frame id or a float32 confidence is json.dumps's TypeError
    for bad_meta, bad_conf in [(FrameMeta(np.int64(3), 0), 0.5),
                               (meta, np.float32(0.5))]:
        with pytest.raises(TypeError):
            _dump_line(bad_meta, Detection(bad_meta, BoundingBox(1.0, 2.0, 3.0, 4.0), "car",
                                           bad_conf), labels)


def test_dump_copies_through_read_and_write(tmp_path):
    # write_dump takes each frame's detections as any iterable of Detections
    scene = simulate(small_scene(jitter_sigma=1.0, false_positives_per_frame=0.3))
    src, out = tmp_path / "src.jsonl", tmp_path / "out.jsonl"
    n = write_dump(src, zip(scene.frames, scene.noisy))
    assert write_dump(out, ((m, (d for d in dets)) for m, dets in
                            zip(scene.frames, scene.noisy))) == n
    assert out.read_bytes() == src.read_bytes()


def test_written_lines_take_the_fast_path():
    # a finite record with an escape-free label is read back from the
    # pattern's groups, not through json.loads
    meta = FrameMeta(3, 300)
    for box, conf in [((1.0, 2.0, 3.0, 4.0), 0.9), ((-0.0, 5e-324, 1e16, 1e17), 1.0),
                      ((0.1, 0.2, 0.30000000000000004, 1.5), 0.0)]:
        line = _dump_line(meta, Detection(meta, BoundingBox(*box), "car", conf), {})
        m = _DUMP_LINE.fullmatch(line)
        assert m is not None
        assert [float(g) for g in m.groups()[3:]] == [*box, conf]
    escaped = _dump_line(meta, Detection(meta, BoundingBox(1, 2, 3, 4), "é", 0.5), {})
    assert _DUMP_LINE.fullmatch(escaped) is None


def _raw_line(frame="0", ts="0", cls='"person"', x1="1.5", y1="2", x2="3.5", y2="4",
               conf="0.5"):
    """A line in write_dump's shape from raw JSON tokens."""
    return (f'{{"frame": {frame}, "ts_ms": {ts}, "class": {cls}, "x1": {x1}, '
            f'"y1": {y1}, "x2": {x2}, "y2": {y2}, "conf": {conf}}}')


BIG = "1" + "0" * 400
EDGE_LINES = [
    _raw_line(x1="-0"), _raw_line(y1="-0", y2="-0"), _raw_line(x1="-0.0"),
    _raw_line(x1="-0e3", y1="0e0", x2="0.0", y2="0"),
    _raw_line(x2="1e400"), _raw_line(y2="1E400"), _raw_line(x1="-1e400"),
    _raw_line(x1="5e-324", y1="-5e-324"), _raw_line(x2="1e+16", y2="1E16"),
    _raw_line(conf="NaN"), _raw_line(x2="Infinity"), _raw_line(x1="-Infinity"),
    _raw_line(y1="true"), _raw_line(conf="false"), _raw_line(x1="null"),
    _raw_line(x1="01"), _raw_line(x1="-01.5"), _raw_line(x1="1."), _raw_line(x1=".5"),
    _raw_line(x1="+1"), _raw_line(conf="1e0"), _raw_line(conf="1"), _raw_line(conf="0"),
    _raw_line(cls='"\\u00e9"'), _raw_line(cls='"é"'), _raw_line(cls='"日本 車"'),
    _raw_line(cls='"a\\"b"'), _raw_line(cls='"a\\\\b"'), _raw_line(cls='""'),
    _raw_line(cls='"\x7f"'), _raw_line(cls='"a\x01b"'), _raw_line(cls='"a\tb"'),
    _raw_line(cls='"\u2028"'), _raw_line(cls="7"),
    _raw_line().replace(", ", ",\t", 1), _raw_line().replace(", ", ",  ", 1),
    _raw_line().replace(": ", ":", 1), "  " + _raw_line() + "\t",
    json.dumps({"ts_ms": 0, "frame": 0, "class": "person", "x1": 1.5, "y1": 2,
                "x2": 3.5, "y2": 4, "conf": 0.5}),
    _raw_line()[:-1] + ', "conf": 0.7}', '{"frame": 5, ' + _raw_line()[1:],
    _raw_line()[:-1] + ', "extra": 1}', _raw_line().replace(', "conf": 0.5', ""),
    _raw_line(x1=BIG), _raw_line(y2="-" + BIG), _raw_line(conf=BIG),
    _raw_line(x1=BIG + ".5"), _raw_line(frame=BIG), _raw_line(ts=BIG),
    _raw_line(frame="1" + "0" * 17), _raw_line(frame="1" + "0" * 18),
    _raw_line(frame="-0"), _raw_line(frame="-1"), _raw_line(ts="-7"), _raw_line(ts="-0"),
    _raw_line(frame="1.0"), _raw_line(ts="1e2"),
    _raw_line(x1="1" + "0" * 308, x2="1" + "0" * 308),
    _raw_line(x1="1e308", y1="1e308", x2="1.7e308", y2="1.7e308"),
    _raw_line(x1="179769313486231580793728971405303415079934132710037826936173778980444"
                  "968292764750946649017977587207096330286416692887910946555547851940402"
                  "630657488671505820681908902000708383676273854845817711531764475730270"
                  "069855571366959622842914819860834936475292719074168444365510704342711"
                  "559699508093042880177904174497791.5",
               x2="1.7976931348623157e308"),
    _raw_line(x2="0.5"), _raw_line(y2="1.9999999999999998"),
    _raw_line(conf="1.0000000000000002"), _raw_line(conf="1.00000000000000001"),
    _raw_line(conf="-0.0"), _raw_line(conf="-1e-320"),
    "", "   ", "[1, 2]", "not json", _raw_line() + " x",
]


def _frames_until_error(reader):
    """The frames a reader yields, as comparable values, and its error."""
    frames = []
    try:
        for meta, dets in reader:
            if not isinstance(dets, list):
                boxes, labels, confs = dets.boxes, dets.labels, dets.confidences
            else:
                boxes = np.array([d.bbox.as_tuple() for d in dets], dtype=float)
                labels = [d.class_label for d in dets]
                confs = np.array([d.confidence for d in dets], dtype=float)
            assert boxes.dtype == confs.dtype == np.float64
            assert boxes.shape == (len(labels), 4) and confs.shape == (len(labels),)
            frames.append((meta, boxes.view(np.uint64).tolist(), labels,
                           confs.view(np.uint64).tolist()))
    except DumpFormatError as err:
        return frames, (err.line_no, str(err))
    return frames, None


def test_fast_path_reads_as_the_frozen_slow_path(tmp_path):
    # each edge line between two plain ones, as frame 1 and as frame 0's
    # second detection: frames, boxes and confidences bit for bit, labels,
    # and the error message and line number
    plain = _raw_line(x1="0.25", x2="9.75", conf="0.125")
    path = tmp_path / "edge.jsonl"
    for edge in EDGE_LINES:
        for lines in ([plain, edge.replace('"frame": 0,', '"frame": 1,', 1),
                       _raw_line(frame="2", ts="10")],
                      [plain, edge, _raw_line(frame="1", ts="5")]):
            write_lines(path, lines)
            got = _frames_until_error(read_dump(path))
            want = _frames_until_error(read_dump_reference(path))
            assert got == want, lines


def test_number_too_big_for_a_float_is_not_finite(tmp_path):
    path = tmp_path / "big.jsonl"
    write_lines(path, [GOOD.replace('"x1": 1', '"x1": 1' + "0" * 400)])
    with pytest.raises(DumpFormatError) as err:
        list(read_dump(path))
    assert err.value.line_no == 1
    assert str(err.value) == f'{path} line 1: "x1" must be finite'
    # a frame id is an int, however long
    write_lines(path, [GOOD.replace('"frame": 0', '"frame": 1' + "0" * 399)])
    (meta, batch), = read_dump(path)
    assert meta.frame_id == 10 ** 399 and len(batch) == 1


def test_batch_detections_are_the_rows(tmp_path):
    path = tmp_path / "cam.jsonl"
    write_lines(path, [GOOD, GOOD.replace('"class": "person"', '"class": "car"')
                       .replace('"conf": 0.5', '"conf": 1.0').replace('"x2": 3', '"x2": 7.5')])
    (meta, batch), = read_dump(path)
    assert len(batch) == 2
    assert batch.labels == ["person", "car"]
    assert batch.boxes.tolist() == [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 7.5, 4.0]]
    assert batch.confidences.tolist() == [0.5, 1.0]
    assert meta.frame_id == 0


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


def test_scene_config_rejects_what_the_simulator_cannot_run():
    # fps 1e-306 once overflowed the frame timestamps (exit 4)
    with pytest.raises(ConfigError, match="fps is too small"):
        small_scene(fps=1e-306)
    assert simulate(small_scene(fps=1e-306, duration_frames=1)).frames[0].timestamp_ms == 0
    # a speed of 1e300 px per frame once made _reflect loop forever; the free
    # span is the frame less the object's size on that axis
    spec = ObjectSpec("p", (40.0, 75.0), (0.0, 0.0), (20.0, 40.0))
    for velocity, axis in [((1e300, 0.0), "x"), ((0.0, -1e300), "y"),
                           ((180.5, 0.0), "x"), ((0.0, 110.5), "y")]:
        with pytest.raises(ConfigError, match=f"object 0 velocity on {axis} must not exceed"):
            small_scene(objects=(ObjectSpec("p", spec.center, velocity, spec.size),))
    at_span = small_scene(duration_frames=50,
                          objects=(ObjectSpec("p", spec.center, (-180.0, 110.0), spec.size),))
    for (det,) in simulate(at_span).ground_truth:
        b = det.bbox
        assert 0.0 <= b.x1 and b.x2 <= 200.0 and 0.0 <= b.y1 and b.y2 <= 150.0
    # an object as wide as the frame never moves on that axis, whatever its speed
    simulate(small_scene(objects=(ObjectSpec("p", (100.0, 75.0), (1e300, 0.0), (200.0, 40.0)),)))


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

