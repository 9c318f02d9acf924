"""Tests for detection evaluation (matching, AP, mAP) and for the ID-switch
reference the tracking acceptance test counts with."""

import itertools
import json
import math
import pathlib
import random

import pytest

import vigil.cli
import vigil.evaluation

from vigil.errors import ConfigError, DataError
from vigil.evaluation import (
    EvalConfig,
    EvalDetections,
    average_precision,
    evaluate_detections,
    match,
)
from vigil.geometry import BoundingBox, Detection, FrameMeta
from vigil.sources import ObjectSpec, SyntheticSceneConfig, read_dump, simulate, write_dump

from oracles import (
    average_precision_numpy_scalars,
    average_precision_reference,
    id_switches,
    iou_scalar_reference,
    match_reference,
)


def _frame(i):
    return FrameMeta(i, i * 100)


def _det(frame_id, box, label="person", conf=0.9):
    return Detection(_frame(frame_id), BoundingBox(*box), label, conf)


def test_perfect_predictions_score_one_at_every_threshold():
    rng = random.Random(2024)
    gts, preds = [], []
    for f in range(6):
        for _ in range(rng.randint(1, 4)):
            x = rng.uniform(0, 500)
            y = rng.uniform(0, 350)
            w = rng.uniform(20, 80)
            h = rng.uniform(20, 80)
            label = rng.choice(["person", "car"])
            gts.append(_det(f, (x, y, x + w, y + h), label, 1.0))
            preds.append(_det(f, (x, y, x + w, y + h), label,
                              rng.uniform(0.5, 1.0)))
    for thr in (0.3, 0.5, 0.7):
        report = evaluate_detections(preds, gts, EvalConfig(thr))
        assert report["map"] == 1.0
        assert report["precision"] == 1.0
        assert report["recall"] == 1.0


def test_ap_exactly_half_for_high_confidence_fp():
    gt = [_det(0, (100, 100, 150, 150), conf=1.0)]
    preds = [
        _det(0, (300, 300, 340, 340), conf=0.95),   # FP, processed first
        _det(0, (100, 100, 150, 150), conf=0.60),   # TP at recall 1
    ]
    report = evaluate_detections(preds, gt)
    assert report["per_class"]["person"]["ap"] == 0.5
    assert report["map"] == 0.5


def test_ap_is_one_when_tp_outranks_fp():
    gt = [_det(0, (100, 100, 150, 150), conf=1.0)]
    preds = [
        _det(0, (100, 100, 150, 150), conf=0.95),   # TP first
        _det(0, (300, 300, 340, 340), conf=0.60),   # trailing FP
    ]
    report = evaluate_detections(preds, gt)
    # the precision envelope at recall 1 is unaffected by the later FP
    assert report["per_class"]["person"]["ap"] == 1.0


def test_confidence_ties_break_by_frame_then_input_order():
    # equal confidence: the frame-1 TP must be processed before the
    # frame-2 FP, putting the TP first in the flag sequence
    gt = [_det(1, (10, 10, 50, 50), conf=1.0)]
    preds = [
        _det(2, (10, 10, 50, 50), conf=0.8),
        _det(1, (10, 10, 50, 50), conf=0.8),
    ]
    result = match(preds, gt)
    assert result.order == [1, 0]
    assert result.tp == [True, False]
    assert average_precision([tp for pi, tp in zip(result.order, result.tp)
                              if preds[pi].class_label == "person"], 1) == 1.0

    # same frame and confidence: input order decides
    gt2 = [_det(0, (10, 10, 50, 50), conf=1.0)]
    preds2 = [
        _det(0, (40, 40, 80, 80), conf=0.8),   # weak overlap -> FP
        _det(0, (10, 10, 50, 50), conf=0.8),   # exact -> TP
    ]
    result2 = match(preds2, gt2)
    assert result2.order == [0, 1]
    assert result2.tp == [False, True]


def test_ground_truth_is_single_use():
    gt = [_det(0, (100, 100, 160, 160), conf=1.0)]
    preds = [
        _det(0, (100, 100, 160, 160), conf=0.9),
        _det(0, (102, 102, 162, 162), conf=0.8),  # same object, re-detected
    ]
    result = match(preds, gt)
    assert result.tp == [True, False]
    assert result.gt_index == [0, -1]
    assert result.gt_matched == [True]
    report = evaluate_detections(preds, gt)
    assert report["precision"] == 0.5 and report["recall"] == 1.0


def test_prediction_claims_best_iou_ground_truth():
    gt = [
        _det(0, (0, 0, 40, 40), conf=1.0),
        _det(0, (30, 0, 70, 40), conf=1.0),
    ]
    preds = [_det(0, (28, 0, 68, 40), conf=0.9)]  # overlaps both, closer to #1
    result = match(preds, gt, EvalConfig(0.3))
    assert result.tp == [True]
    assert result.gt_index == [1]
    assert result.gt_matched == [False, True]


def test_frame_and_class_must_match():
    gt = [_det(3, (10, 10, 50, 50), "car", 1.0)]
    # perfect box, wrong frame
    r1 = match([_det(4, (10, 10, 50, 50), "car", 0.9)], gt)
    assert r1.tp == [False]
    # perfect box, wrong class
    r2 = match([_det(3, (10, 10, 50, 50), "person", 0.9)], gt)
    assert r2.tp == [False]


# -- the array matcher against the scalar matcher ---------------------------


def _random_box(rng, pool):
    """A box on a small canvas, so that boxes overlap often; some are
    repeats, zero-area, touching a pooled box (also at signed zeros), or so
    large that their widths and areas overflow."""
    kind = rng.random()
    if pool and kind < 0.15:
        return rng.choice(pool)
    if pool and kind < 0.25:
        b = rng.choice(pool)
        w = rng.uniform(0.0, 30.0)
        return BoundingBox(b.x2, b.y1, b.x2 + w, b.y2)  # touches b's right edge
    if kind < 0.3:
        return BoundingBox(-rng.uniform(1.0, 20.0), 0.0, -0.0, rng.uniform(1.0, 20.0))
    if kind < 0.35:
        return BoundingBox(0.0, 0.0, rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0))
    if kind < 0.4:
        x = rng.uniform(0.0, 60.0)
        return BoundingBox(x, x, x, x + rng.uniform(0.0, 20.0))  # zero width
    if kind < 0.45:
        big = rng.choice([1e308, 1.7e308, 9e307])
        return BoundingBox(-big, -rng.choice([big, 1.0]), big, rng.choice([big, 50.0]))
    x, y = rng.uniform(-10.0, 60.0), rng.uniform(-10.0, 60.0)
    return BoundingBox(x, y, x + rng.uniform(0.0, 40.0), y + rng.uniform(0.0, 40.0))


def _jittered(rng, box):
    d = [rng.choice([0.0, rng.uniform(-4.0, 4.0)]) for _ in range(4)]
    x1, x2 = sorted((box.x1 + d[0], box.x2 + d[2]))
    y1, y2 = sorted((box.y1 + d[1], box.y2 + d[3]))
    return BoundingBox(x1, y1, x2, y2)


def _random_frames(rng, frame_ids):
    confs = [0.0, -0.0, 0.25, 0.5, 0.5, 0.9, 1.0]
    gts, preds, pool = [], [], []
    for fid in frame_ids:
        meta = FrameMeta(fid, 0)
        for _ in range(rng.randint(0, 7)):
            box = _random_box(rng, pool)
            pool.append(box)
            gts.append(Detection(meta, box, rng.choice("ab"), 1.0))
        for _ in range(rng.randint(0, 9)):
            box = _random_box(rng, pool)
            if pool and rng.random() < 0.5:
                box = _jittered(rng, rng.choice(pool))
            conf = rng.choice(confs) if rng.random() < 0.6 else rng.random()
            preds.append(Detection(meta, box, rng.choice("ab"), conf))
    order = list(range(len(preds)))
    rng.shuffle(order)  # predictions of a frame need not be adjacent
    return [preds[i] for i in order], gts


def _outcome_tuples(result, preds):
    """match_reference's outcome tuples, from match's lists and the
    prediction table: (input index, frame id, class, confidence, tp, gt index
    or None)."""
    table = EvalDetections.of(preds)
    frame_ids, confidences = table.frame_ids.tolist(), table.confidences.tolist()
    assert len(result.order) == len(result.tp) == len(result.gt_index) == len(table)
    return [(pi, frame_ids[pi], table.labels[pi], confidences[pi], tp,
             None if gi == -1 else gi)
            for pi, tp, gi in zip(result.order, result.tp, result.gt_index)]


def _lists(result):
    return result.order, result.tp, result.gt_index, result.gt_matched, result.n_gt


def _at_threshold_pair(rng, frame_id, label):
    """A prediction and a ground truth whose IoU is 0.5 exactly: a box twice
    as wide as the other on the same corner, at a power-of-two scale."""
    s = 2.0 ** rng.randint(-3, 4)
    x, y = s * rng.randint(0, 40), s * rng.randint(0, 40)
    meta = FrameMeta(frame_id, 0)
    return (Detection(meta, BoundingBox(x, y, x + 2 * s, y + s), label, rng.random()),
            Detection(meta, BoundingBox(x, y, x + s, y + s), label, 1.0))


def test_array_matcher_equals_scalar_matcher_on_random_frames():
    rng = random.Random(1507)
    tps = negative_zeros = nan_pairs = at_threshold = unmatched_class = 0
    for case in range(300):
        frame_ids = rng.sample(range(50), rng.randint(1, 6))
        preds, gts = _random_frames(rng, frame_ids)
        for _ in range(rng.randint(0, 2)):  # pairs whose IoU is 0.5 exactly
            pred, gt = _at_threshold_pair(rng, rng.choice(frame_ids), rng.choice("ab"))
            preds.insert(rng.randint(0, len(preds)), pred)
            gts.insert(rng.randint(0, len(gts)), gt)
        for _ in range(rng.randint(0, 2)):  # a class no ground truth has
            box = _random_box(rng, [g.bbox for g in gts])
            preds.insert(rng.randint(0, len(preds)),
                         Detection(FrameMeta(rng.choice(frame_ids), 0), box, "c", rng.random()))
        for threshold in (0.05, 0.3, 0.5, 0.9):
            got = match(preds, gts, EvalConfig(threshold))
            outcomes, matched, n_gt = match_reference(preds, gts, threshold)
            assert _outcome_tuples(got, preds) == outcomes, (case, threshold)
            assert got.gt_matched == matched and got.n_gt == n_gt
            assert _lists(match(EvalDetections.of(preds), EvalDetections.of(gts),
                                EvalConfig(threshold))) == _lists(got)
            tps += sum(got.tp)
            at_threshold += sum(
                tp and iou_scalar_reference(preds[pi].bbox, gts[gi].bbox) == threshold
                for pi, tp, gi in zip(got.order, got.tp, got.gt_index))
        unmatched_class += sum(p.class_label == "c" for p in preds)
        for p, g in itertools.product(preds, gts):
            if (p.frame.frame_id, p.class_label) == (g.frame.frame_id, g.class_label):
                overlap = min(p.bbox.x2, g.bbox.x2) - max(p.bbox.x1, g.bbox.x1)
                negative_zeros += overlap == 0.0 and math.copysign(1.0, overlap) < 0.0
                nan_pairs += math.isnan(iou_scalar_reference(p.bbox, g.bbox))
    # the cases reach what they are for: matches, touching boxes whose
    # overlap is -0.0, pairs the scalar iou scores nan and the kernel 0,
    # matches whose IoU equals the threshold, and predictions of a class
    # that no ground truth has
    assert tps > 1000 and negative_zeros > 0 and nan_pairs > 0
    assert at_threshold > 0 and unmatched_class > 0


def test_array_matcher_takes_frame_ids_past_int64():
    big = 10 ** 30
    preds, gts = _random_frames(random.Random(7), [big + 1, 3, big, 2 ** 63])
    for threshold in (0.1, 0.5):
        outcomes, matched, n_gt = match_reference(preds, gts, threshold)
        got = match(preds, gts, EvalConfig(threshold))
        assert _outcome_tuples(got, preds) == outcomes and got.gt_matched == matched
        assert got.n_gt == n_gt
    assert match([], gts).order == [] and match(preds, []).gt_matched == []


def test_vigil_eval_calls_the_iou_kernel_once_per_run(tmp_path, monkeypatch):
    scene = simulate(SyntheticSceneConfig(
        width=320, height=240, fps=10, duration_frames=6, seed=5,
        objects=(ObjectSpec("car", (60.0, 60.0), (4.0, 1.0), (30.0, 20.0)),
                 ObjectSpec("person", (200.0, 150.0), (-2.0, 1.0), (12.0, 30.0))),
        jitter_sigma=2.0, false_positives_per_frame=1.0))
    write_dump(tmp_path / "det.jsonl", zip(scene.frames, scene.noisy))
    write_dump(tmp_path / "gt.jsonl", zip(scene.frames, scene.ground_truth))
    assert sum(1 for dets in scene.ground_truth if dets) >= 3
    (tmp_path / "eval.json").write_text(json.dumps(
        {"predictions": "det.jsonl", "ground_truth": "gt.jsonl", "width": 320, "height": 240}))
    calls = []
    kernel = vigil.evaluation.iou_elementwise

    def counted(a, b):
        calls.append(len(a))
        return kernel(a, b)

    monkeypatch.setattr(vigil.evaluation, "iou_elementwise", counted)
    assert vigil.cli.main(["eval", "--config", str(tmp_path / "eval.json"),
                           "--out", str(tmp_path / "out"), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "eval-report.json").read_text())
    assert len(calls) == 1 and calls[0] > 0 and report["recall"] > 0.0


def test_eval_detections_of_frames_equals_the_detection_list(tmp_path):
    scene = simulate(SyntheticSceneConfig(
        width=320, height=240, fps=10, duration_frames=12, seed=4,
        objects=(ObjectSpec("car", (60.0, 60.0), (4.0, 1.0), (30.0, 20.0)),),
        jitter_sigma=2.0, false_positives_per_frame=1.5))
    path = tmp_path / "det.jsonl"
    write_dump(path, zip(scene.frames, scene.noisy))
    table = EvalDetections.of_frames(read_dump(path))
    flat = EvalDetections.of([d for dets in scene.noisy for d in dets])
    assert len(table) == len(flat) == sum(map(len, scene.noisy))
    assert table.frame_ids.tolist() == flat.frame_ids.tolist()
    assert table.boxes.tobytes() == flat.boxes.tobytes() and table.boxes.shape == (len(flat), 4)
    assert table.labels == flat.labels
    assert table.confidences.tobytes() == flat.confidences.tobytes()
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert len(EvalDetections.of_frames(read_dump(empty))) == 0


def test_ap_matches_reference_on_random_flag_sequences():
    rng = random.Random(555)
    for _ in range(200):
        n_gt = rng.randint(1, 10)
        n_pred = rng.randint(0, 15)
        tp_budget = n_gt
        flags = []
        for _ in range(n_pred):
            if tp_budget > 0 and rng.random() < 0.5:
                flags.append(True)
                tp_budget -= 1
            else:
                flags.append(False)
        got = average_precision(flags, n_gt)
        want = average_precision_reference(flags, n_gt)
        assert abs(got - want) < 1e-12
        # eval-report.json's bytes: the numpy-scalar loop's value exactly
        frozen = average_precision_numpy_scalars(flags, n_gt)
        assert type(got) is float and got.hex() == frozen.hex()


def test_ap_edge_cases():
    assert average_precision([], 0) is None
    assert average_precision([True, False], 0) is None
    assert average_precision([], 5) == 0.0
    assert average_precision([True, True, True], 3) == 1.0
    assert average_precision([False, False], 4) == 0.0


def test_zero_gt_class_excluded_from_map_but_not_precision():
    gts = [_det(0, (10, 10, 50, 50), "person", 1.0)]
    preds = [
        _det(0, (10, 10, 50, 50), "person", 0.9),
        _det(0, (200, 200, 260, 260), "ghost", 0.8),
    ]
    report = evaluate_detections(preds, gts)
    assert report["per_class"]["ghost"]["ap"] is None
    assert report["per_class"]["ghost"]["n_gt"] == 0
    assert report["per_class"]["ghost"]["fp"] == 1
    assert report["map"] == 1.0            # mean over defined classes only
    assert report["precision"] == 0.5      # the ghost FP still costs here
    assert report["recall"] == 1.0


def test_no_ground_truth_at_all_raises():
    preds = [_det(0, (10, 10, 50, 50), conf=0.9)]
    with pytest.raises(DataError):
        evaluate_detections(preds, [])


def test_report_shape_and_config_echo():
    gts = [_det(0, (10, 10, 50, 50), "car", 1.0),
           _det(0, (100, 100, 150, 150), "person", 1.0)]
    preds = [_det(0, (10, 10, 50, 50), "car", 0.9)]
    report = evaluate_detections(preds, gts, EvalConfig(0.7))
    assert sorted(report["per_class"]) == ["car", "person"]
    assert report["config"] == {
        "iou_threshold": 0.7,
        "interpolation": "all-point",
        "zero_gt_classes": "excluded from mAP",
    }
    missed = report["per_class"]["person"]
    assert missed == {"ap": 0.0, "tp": 0, "fp": 0, "n_gt": 1}


def test_eval_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(0.0)
    with pytest.raises(ConfigError):
        EvalConfig(1.0)
    EvalConfig(0.5)


# -- identity switches (the reference in oracles.py) -------------------------


def _box(x, y=0.0, size=20.0):
    return BoundingBox(x, y, x + size, y + size)


def test_id_switches_zero_for_stable_tracking():
    tracks = {f: [(1, _box(10 * f)), (2, _box(10 * f, 100))] for f in range(5)}
    gt = {f: [("a", _box(10 * f)), ("b", _box(10 * f, 100))] for f in range(5)}
    assert id_switches(tracks, gt) == 0


def test_id_switch_counted_once_per_change():
    gt = {f: [("a", _box(10 * f))] for f in range(4)}
    tracks = {0: [(1, _box(0))], 1: [(1, _box(10))],
              2: [(7, _box(20))], 3: [(7, _box(30))]}
    assert id_switches(tracks, gt) == 1


def test_mutual_swap_counts_two_switches():
    gt = {0: [("a", _box(0)), ("b", _box(100))],
          1: [("a", _box(0)), ("b", _box(100))]}
    tracks = {0: [(1, _box(0)), (2, _box(100))],
              1: [(2, _box(0)), (1, _box(100))]}
    assert id_switches(tracks, gt) == 2


def test_association_gap_neither_counts_nor_resets():
    gt = {f: [("a", _box(0))] for f in range(5)}
    tracks = {0: [(1, _box(0))], 1: [(1, _box(0))],
              2: [],                       # dropout
              3: [(1, _box(0))], 4: [(1, _box(0))]}
    assert id_switches(tracks, gt) == 0
    # same track id resuming after the gap is not a switch; a new id is
    tracks[3] = [(9, _box(0))]
    tracks[4] = [(9, _box(0))]
    assert id_switches(tracks, gt) == 1


def test_low_iou_associations_are_ignored():
    gt = {0: [("a", _box(0))], 1: [("a", _box(0))], 2: [("a", _box(0))]}
    tracks = {0: [(1, _box(0))],
              1: [(5, _box(300))],         # far away: below iou_min
              2: [(1, _box(2))]}
    assert id_switches(tracks, gt, iou_min=0.3) == 0


# -- the tracer's seams in the curate jobs -------------------------------------


def test_trace_seams_time_the_curate_jobs(tmp_path, monkeypatch):
    # perfbench/tracing.py times curate's layers by rebinding names in
    # vigil.cli; if one moved, its layer metric would silently read 0
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    scene = simulate(SyntheticSceneConfig(
        width=320, height=240, fps=10, duration_frames=20, seed=9,
        objects=(ObjectSpec("car", (60.0, 60.0), (4.0, 1.0), (30.0, 20.0)),
                 ObjectSpec("person", (200.0, 150.0), (-2.0, 1.0), (12.0, 30.0))),
        jitter_sigma=2.0, false_positives_per_frame=1.0))
    n_preds = write_dump(tmp_path / "det.jsonl", zip(scene.frames, scene.noisy))
    write_dump(tmp_path / "gt.jsonl", zip(scene.frames, scene.ground_truth))
    rng = random.Random(3)
    (tmp_path / "sig.csv").write_text("".join(
        f"f{i},{rng.random()},{rng.random()},{rng.random()}\n" for i in range(12)))
    (tmp_path / "features.csv").write_text("".join(
        f"r{i},{'ab'[i % 2]},{i % 2 + rng.random()},{rng.random()}\n" for i in range(20)))
    jobs = {
        "summarize": {"signatures_csv": "sig.csv", "budget": 3},
        "train-head": {"features_csv": "features.csv", "max_epochs": 5},
        "predict": {"model_json": "out/model.json", "features_csv": "features.csv"},
        "eval": {"predictions": "det.jsonl", "ground_truth": "gt.jsonl",
                 "width": 320, "height": 240},
    }
    tracer = Tracer()
    tracer.install()
    try:
        for job, doc in jobs.items():
            (tmp_path / f"{job}.json").write_text(json.dumps(doc))
            assert vigil.cli.main([job, "--config", str(tmp_path / f"{job}.json"),
                                   "--out", str(tmp_path / "out"), "--quiet"]) == 0, job
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(1)
    with open(tmp_path / "det.jsonl", encoding="utf-8") as fh:
        assert layers["evaluation.predictions"] == sum(1 for _ in fh) == n_preds
    for name in ("sources.read_dump_s", "evaluation.evaluate_s", "summarize.ground_set_s",
                 "softmax.train_s"):
        assert layers[name] > 0.0, name
