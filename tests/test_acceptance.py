"""Release acceptance checks.

Ten numbered gates, each validated against an independent oracle or a
hand-derived value and printed as a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to watch them).  Unit tests cover
the same code paths at finer grain; this file is the release bar.
"""

import copy
import hashlib
import math
import random
import time

import numpy as np

from vigil.assignment import hungarian_assign
from vigil.augment import (
    AugmentationBounds,
    DatasetManifest,
    ManifestRecord,
    TransformParams,
    apply_params,
    balance,
    sample_transform,
)
from vigil.errors import DataError
from vigil.evaluation import EvalConfig, evaluate_detections
from vigil.geometry import BoundingBox, Detection, FrameMeta, iou, point_in_polygon
from vigil.pipeline import FrameLoop, PipelineConfig, pipeline_config_from_dict, run
from vigil.rng import Rng, derive_seed
from vigil.rules import Rule, RuleEngine, TripLine, Zone, ZoneSet, place
from vigil.softmax import SoftmaxModel, TrainConfig, loss_and_grad, predict_batch, train
from vigil.sources import ObjectSpec, SyntheticSceneConfig, simulate
from vigil.stats import GridSpec, SceneStats
from vigil.summarize import FacilityLocation, SaturatedCoverage, lazy_greedy_trace
from vigil.tracker import SortTracker, TrackerConfig

from oracles import (
    assignment_bruteforce,
    assignment_cost,
    best_subset,
    dwell_recount,
    facility_location_value,
    finite_difference_gradient,
    greedy_trace,
    heat_recount,
    id_switches,
    point_in_polygon_winding,
    unique_count_recount,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. assignment optimality


def test_criterion_01_assignment_matches_enumeration():
    # Costs are drawn from the 1/1024 lattice of [0, 10]: every entry and
    # every partial sum of up to six entries is exactly representable in
    # float64, so "equals the enumerated minimum exactly" is well defined.
    rng = random.Random(0xA55)
    t0 = time.perf_counter()
    exact = 0
    trials = 1000
    for _ in range(trials):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        cost = [[rng.randrange(10241) / 1024.0 for _ in range(n)]
                for _ in range(m)]
        pairs = hungarian_assign(cost)
        want_total, want_pairs = assignment_bruteforce(cost)
        if assignment_cost(cost, pairs) == want_total and pairs == want_pairs:
            exact += 1
    elapsed = time.perf_counter() - t0
    ok = exact == trials and elapsed < 10.0
    _verdict(1, ok, f"{exact}/{trials} matchings equal the enumerated "
                    f"optimum exactly in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2-3. submodular selection


def _random_similarity(rng, n: int) -> np.ndarray:
    S = np.empty((n, n))
    for i in range(n):
        S[i, i] = 1.0
        for j in range(i + 1, n):
            S[i, j] = S[j, i] = rng.random()
    return S


def _selection_instances():
    rng = random.Random(0xFAC)
    out = []
    for _ in range(200):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(4, n))
        out.append((_random_similarity(rng, n), k))
    return out


def test_criterion_02_greedy_near_optimal_and_submodular():
    t0 = time.perf_counter()
    ratio_bound = 1.0 - 1.0 / math.e
    bound_ok = 0
    instances = _selection_instances()
    for S, k in instances:
        picks = [s.item for s in lazy_greedy_trace(FacilityLocation(S), k)]
        f_greedy = facility_location_value(S, picks)
        opt, _ = best_subset(lambda sub: facility_location_value(S, sub),
                             S.shape[0], k)
        if (f_greedy >= ratio_bound * opt - 1e-12
                and f_greedy <= opt + 1e-12):
            bound_ok += 1

    # 500 randomized structure checks on each model's own gain and add:
    # monotone growth and diminishing returns along random chains X ⊆ Y.
    rng = random.Random(0xBEE5)
    prop_ok = 0
    for _ in range(500):
        n = rng.randint(3, 12)
        S = _random_similarity(rng, n)
        items = list(range(n))
        rng.shuffle(items)
        v, rest = items[0], items[1:]
        cut_hi = rng.randint(0, len(rest))
        cut_lo = rng.randint(0, cut_hi)
        ok_here = True
        for model in (FacilityLocation(S), SaturatedCoverage(S)):
            state = model.new_state()
            for j in rest[:cut_lo]:
                model.add(state, j)
            gain_small = model.gain(state, v)
            for j in rest[cut_lo:cut_hi]:
                model.add(state, j)
            gain_large = model.gain(state, v)
            ok_here &= gain_large >= -1e-12 and gain_small >= gain_large - 1e-12
        if ok_here:
            prop_ok += 1
    elapsed = time.perf_counter() - t0
    ok = bound_ok == len(instances) and prop_ok == 500 and elapsed < 30.0
    _verdict(2, ok, f"{bound_ok}/200 selections within (1-1/e) of the "
                    f"enumerated optimum; {prop_ok}/500 structure checks "
                    f"in {elapsed:.2f}s")


def test_criterion_03_lazy_greedy_equals_naive():
    agree = 0
    instances = _selection_instances()
    for S, k in instances:
        naive = greedy_trace(FacilityLocation(S), k)
        lazy = lazy_greedy_trace(FacilityLocation(S), k)
        if ([s.item for s in naive] == [s.item for s in lazy]
                and [s.gain for s in naive] == [s.gain for s in lazy]):
            agree += 1
    ok = agree == len(instances)
    _verdict(3, ok, f"{agree}/200 lazy selections identical to naive greedy "
                    f"(items and gains)")


# ---------------------------------------------------------------------------
# 4. classification head


def test_criterion_04_softmax_head_correctness():
    rng = np.random.default_rng(41)
    worst = 0.0
    for trial in range(50):
        K = int(rng.integers(2, 6))
        d = int(rng.integers(1, 6))
        n = int(rng.integers(K, 12))
        lam = 0.0 if trial % 2 == 0 else float(rng.choice([0.01, 0.1]))
        classes = [f"c{i}" for i in range(K)]
        X = rng.normal(size=(n, d))
        y = rng.integers(0, K, size=n)
        model = SoftmaxModel(classes, rng.normal(size=(K, d)),
                             rng.normal(size=K))
        _, dW, db = loss_and_grad(model, X, y, lam)
        analytic = np.concatenate([dW.reshape(-1), db])

        def flat_loss(vec, classes=classes, K=K, d=d, X=X, y=y, lam=lam):
            m = SoftmaxModel(classes, vec[: K * d].reshape(K, d), vec[K * d:])
            return loss_and_grad(m, X, y, lam)[0]

        numeric = finite_difference_gradient(
            flat_loss, np.concatenate([model.W.reshape(-1), model.b]))
        err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
        worst = max(worst, err)
    grad_ok = worst < 1e-4

    X_toy = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
    labels = ["neg"] * 3 + ["pos"] * 3
    result = train(X_toy, labels, TrainConfig(learning_rate=0.5,
                                              l2_lambda=0.0, max_epochs=500))
    predicted, _ = predict_batch(result.model, X_toy)
    toy_ok = predicted == labels

    lnk_ok = True
    rng2 = np.random.default_rng(42)
    for K in range(2, 9):
        X = rng2.normal(size=(9, 3)) * 40.0
        y = rng2.integers(0, K, size=9)
        zero = SoftmaxModel([f"c{i}" for i in range(K)],
                            np.zeros((K, 3)), np.zeros(K))
        loss, _, _ = loss_and_grad(zero, X, y)
        lnk_ok = lnk_ok and abs(loss - math.log(K)) <= 1e-9

    ok = grad_ok and toy_ok and lnk_ok
    _verdict(4, ok, f"max gradient error {worst:.2e} over 50 instances; "
                    f"toy accuracy {'100%' if toy_ok else 'below 100%'}; "
                    f"zero-weight loss within 1e-9 of ln K: {lnk_ok}")


# ---------------------------------------------------------------------------
# 5. evaluator self-consistency


def _random_scene_config(rng, *, clean: bool) -> SyntheticSceneConfig:
    width = rng.randint(400, 800)
    height = rng.randint(300, 600)
    frames = 40
    labels = ["person", "car", "bike"]
    objects = []
    for i in range(rng.randint(2, 4)):
        w = rng.uniform(20, 50)
        h = rng.uniform(20, 50)
        margin = 60.0
        cx = rng.uniform(margin, width - margin)
        cy = rng.uniform(margin, height - margin)
        objects.append(ObjectSpec(
            class_label=labels[i % len(labels)],
            center=(cx, cy),
            velocity=(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
            size=(w, h)))
    return SyntheticSceneConfig(
        width=width, height=height, fps=10.0, duration_frames=frames,
        objects=tuple(objects),
        jitter_sigma=0.0 if clean else rng.uniform(1.5, 3.0),
        miss_probability=0.0 if clean else 0.1,
        false_positives_per_frame=0.0 if clean else 0.4,
        seed=rng.randrange(2 ** 32))


def _flatten(per_frame) -> list:
    return [det for dets in per_frame for det in dets]


def test_criterion_05_evaluator_self_consistency():
    rng = random.Random(0x5E1F)
    thresholds = (0.3, 0.5, 0.7)

    perfect = 0
    for _ in range(6):
        scene = simulate(_random_scene_config(rng, clean=True))
        gts = _flatten(scene.ground_truth)
        if all(evaluate_detections(gts, gts, EvalConfig(t))["map"] == 1.0
               for t in thresholds):
            perfect += 1

    hand = evaluate_detections(
        [  # confident miss first, then the hit: AP must be exactly 1/2
            # (precision 1/2 over the full recall step)
            _mk_det(0, (300, 300, 340, 340), 0.95),
            _mk_det(0, (100, 100, 150, 150), 0.60),
        ],
        [_mk_det(0, (100, 100, 150, 150), 1.0)])
    hand_ok = hand["per_class"]["person"]["ap"] == 0.5

    monotone = 0
    for _ in range(20):
        scene = simulate(_random_scene_config(rng, clean=False))
        preds = _flatten(scene.noisy)
        gts = _flatten(scene.ground_truth)
        maps = [evaluate_detections(preds, gts, EvalConfig(t))["map"]
                for t in thresholds]
        if all(b <= a + 1e-12 for a, b in zip(maps, maps[1:])):
            monotone += 1

    ok = perfect == 6 and hand_ok and monotone == 20
    _verdict(5, ok, f"{perfect}/6 clean scenes give mAP 1.0 at "
                    f"{thresholds}; two-prediction case AP = 0.5: {hand_ok}; "
                    f"{monotone}/20 noisy scenes monotone in the threshold")


def _mk_det(frame_id, box, conf, label="person"):
    return Detection(FrameMeta(frame_id, frame_id * 100),
                     BoundingBox(*box), label, conf)


# ---------------------------------------------------------------------------
# 6. tracking integrity


_TRACK_OBJECTS = (
    ObjectSpec("person", (200.0, 200.0), (4.0, 2.0), (30.0, 60.0)),
    ObjectSpec("car", (1700.0, 900.0), (-5.0, -3.0), (60.0, 40.0)),
    ObjectSpec("bike", (960.0, 540.0), (2.0, -1.0), (40.0, 80.0)),
)
# velocities are chosen so nothing reaches a wall in 200 frames; a wall
# bounce would break the constant-velocity model and is a scene property,
# not a tracker defect


def _track_scene(**noise) -> SyntheticSceneConfig:
    return SyntheticSceneConfig(
        width=1920, height=1080, fps=30.0, duration_frames=200,
        objects=_TRACK_OBJECTS, seed=606, **noise)


def _run_tracker(scene, config) -> dict:
    """frame -> [(track_id, box, class_label)] for confirmed tracks."""
    tracker = SortTracker(config)
    out = {}
    for meta, dets in zip(scene.frames, scene.noisy):
        confirmed = tracker.step(meta, dets)
        out[meta.frame_id] = [(t.track_id, t.bbox, t.class_label)
                              for t in confirmed]
    return out


def test_criterion_06_tracking_integrity():
    warm_up = 3  # min_hits=3: spawned at frame 0, confirmable at frame 3
    clean_scene = simulate(_track_scene())
    by_frame = _run_tracker(clean_scene, TrackerConfig())

    ids_per_class: dict = {}
    min_iou = 1.0
    clean_ok = True
    for f in range(warm_up, 200):
        rows = by_frame[f]
        if len(rows) != 3 or len({lab for _, _, lab in rows}) != 3:
            clean_ok = False
            break
        gt_by_class = {d.class_label: d.bbox for d in clean_scene.ground_truth[f]}
        for tid, box, lab in rows:
            ids_per_class.setdefault(lab, set()).add(tid)
            min_iou = min(min_iou, iou(box, gt_by_class[lab]))
    one_track_each = clean_ok and all(len(v) == 1 for v in ids_per_class.values())

    gt_frames = {f: [(i, det.bbox)
                     for i, det in enumerate(clean_scene.ground_truth[f])]
                 for f in range(warm_up, 200)}
    track_frames = {f: [(tid, box) for tid, box, _ in by_frame[f]]
                    for f in range(warm_up, 200)}
    clean_switches = id_switches(track_frames, gt_frames)

    noisy_scene = simulate(_track_scene(jitter_sigma=2.0, miss_probability=0.1))
    noisy_frames = _run_tracker(noisy_scene, TrackerConfig(max_age=3))
    noisy_switches = id_switches(
        {f: [(tid, box) for tid, box, _ in rows]
         for f, rows in noisy_frames.items()},
        {f: [(i, det.bbox) for i, det in enumerate(noisy_scene.ground_truth[f])]
         for f in range(200)})

    ok = (one_track_each and clean_switches == 0 and min_iou >= 0.9
          and noisy_switches <= 3)
    _verdict(6, ok, f"clean: one track per object, {clean_switches} switches, "
                    f"min IoU {min_iou:.3f}; noisy: {noisy_switches} "
                    f"switches (limit 3)")


# ---------------------------------------------------------------------------
# 7. augmentation contract


def test_criterion_07_augmentation_contract():
    rng = random.Random(0x46A)
    balanced_ok = 0
    manifests = 0
    while manifests < 50:
        k = rng.randint(2, 6)
        counts = [rng.randint(1, 40) for _ in range(k)]
        total = sum(counts)
        # a mean landing exactly on .5 has no unambiguous round(); redraw
        if total % k != 0 and (2 * total) % k == 0:
            continue
        manifests += 1
        records = [ManifestRecord(f"img_{c}_{i}.png", f"class{c}")
                   for c, count in enumerate(counts) for i in range(count)]
        target = round(total / k)
        balanced = balance(DatasetManifest(records), AugmentationBounds(),
                           Rng(derive_seed(7000 + manifests, "augment")))
        if all(n == target for n in balanced.class_counts().values()):
            balanced_ok += 1

    draw_rng = Rng(derive_seed(77, "augment"))
    bounds = AugmentationBounds()
    rotations_ok = sum(
        1 for _ in range(10_000)
        if abs(sample_transform(draw_rng, bounds).angle_deg) <= 10.0)

    img = np.random.default_rng(11).integers(0, 256, size=(48, 64, 3),
                                             dtype=np.uint8)
    flip = TransformParams(angle_deg=0.0, shear=0.0, flip=True)
    flip_ok = np.array_equal(apply_params(apply_params(img, flip), flip), img)

    ok = balanced_ok == 50 and rotations_ok == 10_000 and flip_ok
    _verdict(7, ok, f"{balanced_ok}/50 manifests balanced to round(mean); "
                    f"{rotations_ok}/10000 rotations within 10 degrees; "
                    f"double flip bit-exact: {flip_ok}")


# ---------------------------------------------------------------------------
# 8. rules determinism


def _walking_track(tid, ax, ay):
    from types import SimpleNamespace
    from vigil.tracker import TrackStatus
    return SimpleNamespace(track_id=tid, class_label="person",
                           corners=[ax - 5, ay - 10, ax + 5, ay],
                           status=TrackStatus.CONFIRMED)


def test_criterion_08_rules_determinism():
    square = ((0.0, 0.0), (50.0, 0.0), (50.0, 50.0), (0.0, 50.0))

    engine = RuleEngine([Rule(id="door", kind="Intrusion",
                              zone=Zone("z", square))])
    entry_alerts = []
    xs = [90.0, 75.0, 60.0, 45.0, 30.0, 20.0, 10.0]  # inside from frame 3
    before = {}
    for f, x in enumerate(xs):
        placed = place(engine.prepared_zones, [_walking_track(1, x, 25.0)])
        for ev in engine.evaluate(FrameMeta(f, f * 100), placed, before):
            entry_alerts.append(ev.frame_id)
        before.update(placed)
    intrusion_ok = entry_alerts == [3]

    engine = RuleEngine([Rule(id="door", kind="Intrusion",
                              zone=Zone("z", square), debounce_ms=1000)])
    stamps = []
    before = {}
    for f in range(40):  # in the zone on odd frames only: entry every 500 ms
        x = 25.0 if f % 2 == 1 else 90.0
        placed = place(engine.prepared_zones, [_walking_track(1, x, 25.0)])
        for ev in engine.evaluate(FrameMeta(f, f * 250), placed, before):
            stamps.append(ev.timestamp_ms)
        before.update(placed)
    gaps = [b - a for a, b in zip(stamps, stamps[1:])]
    oscillation_ok = len(stamps) == 10 and all(g == 1000 for g in gaps)

    polygons = [
        [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)],
        [(0.0, 0.0), (12.0, 2.0), (5.0, 11.0)],
        [(0.0, 0.0), (10.0, 0.0), (10.0, 4.0), (4.0, 4.0),
         (4.0, 10.0), (0.0, 10.0)],
        [(0.0, 0.0), (6.0, 2.0), (12.0, 0.0), (9.0, 6.0), (12.0, 12.0),
         (6.0, 9.0), (0.0, 12.0), (2.0, 6.0)],
    ]
    rng = random.Random(0x919)
    pip_ok = 0
    for i in range(1000):
        poly = polygons[i % len(polygons)]
        if i % 3 == 0:  # lattice points land on edges and vertices too
            p = (rng.randrange(-2, 15) * 0.5, rng.randrange(-2, 15) * 0.5)
        else:
            p = (rng.uniform(-2.0, 14.0), rng.uniform(-2.0, 14.0))
        if point_in_polygon(p, poly) == point_in_polygon_winding(p, poly):
            pip_ok += 1

    ok = intrusion_ok and oscillation_ok and pip_ok == 1000
    _verdict(8, ok, f"intrusion fires once at the entry frame: {intrusion_ok}; "
                    f"{len(stamps)} oscillation alerts exactly one debounce "
                    f"apart; {pip_ok}/1000 containment checks agree with the "
                    f"winding oracle")


# ---------------------------------------------------------------------------
# 9. statistics conservation


def test_criterion_09_statistics_conservation():
    rng = random.Random(0x57A7)
    scenes_ok = 0
    for _ in range(20):
        cfg = _random_scene_config(rng, clean=False)
        scene = simulate(cfg)
        zones = [("west", [(0.0, 0.0), (cfg.width / 2, 0.0),
                           (cfg.width / 2, float(cfg.height)),
                           (0.0, float(cfg.height))]),
                 ("band", [(0.0, cfg.height / 3), (float(cfg.width), cfg.height / 3),
                           (float(cfg.width), 2 * cfg.height / 3),
                           (0.0, 2 * cfg.height / 3)])]
        cell = rng.choice([8, 10, 16])
        stats = SceneStats(cfg.width, cfg.height, GridSpec(cell),
                           zones=ZoneSet(Zone(zid, poly) for zid, poly in zones))
        tracker = SortTracker(TrackerConfig(min_hits=2, max_age=2))
        log, anchors, class_of, before = [], [], {}, {}
        for meta, dets in zip(scene.frames, scene.noisy):
            confirmed = tracker.step(meta, dets)
            placed = place(stats.zones, confirmed)
            stats.ingest(meta, placed, before)
            before.update(placed)
            for t in confirmed:
                anchors.append(t.bbox.anchor)
                log.append((t.track_id, meta.timestamp_ms, t.bbox.anchor))
                class_of[t.track_id] = t.class_label

        heat_want = heat_recount(anchors, cfg.width, cfg.height, cell)
        mass_ok = (int(stats.heat.sum()) == stats.observations
                   == sum(heat_want.values()))
        grid_ok = all(stats.heat[cy, cx] == n
                      for (cx, cy), n in heat_want.items())

        dwell_want = dwell_recount(
            log, [(zid, lambda p, poly=poly: point_in_polygon(p, poly))
                  for zid, poly in zones])
        report = {rec["track_id"]: rec for rec in stats.dwell_report_doc()["tracks"]}
        dwell_ok = set(report) == set(dwell_want) and all(
            report[tid]["first_seen_ms"] == w["first"]
            and report[tid]["last_seen_ms"] == w["last"]
            and report[tid]["total_ms"] == w["total"]
            and report[tid]["zone_ms"] == w["zones"]
            for tid, w in dwell_want.items())

        last_ts = scene.frames[-1].timestamp_ms
        labels = sorted(set(class_of.values()))
        counts_ok = stats.counts_doc()["per_class"] == {
            lab: unique_count_recount(log, class_of, lab, 0, last_ts)
            for lab in labels
            if unique_count_recount(log, class_of, lab, 0, last_ts)}
        for _ in range(3):
            t0 = rng.randrange(0, last_ts)
            t1 = t0 + rng.randrange(0, last_ts - t0 + 1)
            lab = rng.choice(["person", "car", "bike"])
            counts_ok = counts_ok and stats.unique_count(lab, t0, t1) == \
                unique_count_recount(log, class_of, lab, t0, t1)

        if mass_ok and grid_ok and dwell_ok and counts_ok:
            scenes_ok += 1
    ok = scenes_ok == 20
    _verdict(9, ok, f"{scenes_ok}/20 scenes: heat mass equals in-bounds "
                    f"observations and dwell/count reports match brute-force "
                    f"recomputation")


# ---------------------------------------------------------------------------
# 10. determinism and throughput


_RUN_DOC = {
    "source": {"kind": "synthetic", "scene": {
        "width": 640, "height": 480, "fps": 20.0, "duration_frames": 80,
        "jitter_sigma": 1.5, "miss_probability": 0.08,
        "false_positives_per_frame": 0.4,
        "objects": [
            {"class_label": "person", "center": [100.0, 240.0],
             "velocity": [3.0, 0.2], "size": [24.0, 48.0]},
            {"class_label": "car", "center": [520.0, 150.0],
             "velocity": [-2.5, 1.0], "size": [60.0, 30.0]},
            {"class_label": "bike", "center": [320.0, 400.0],
             "velocity": [1.0, -1.5], "size": [30.0, 50.0]},
        ],
    }},
    "tracker": {"min_hits": 2, "max_age": 2},
    "grid": {"cell_size": 16},
    "rules": [
        {"id": "east", "kind": "Intrusion",
         "zone": [[320, 0], [640, 0], [640, 480], [320, 480]],
         "debounce_ms": 2000},
        {"id": "busy", "kind": "Occupancy",
         "zone": [[0, 0], [640, 0], [640, 480], [0, 480]],
         "min_count": 2, "debounce_ms": 0},
    ],
    "seed": 1234,
}


def _ten_object_scene() -> SyntheticSceneConfig:
    labels = ["person", "car", "bike"]
    objects = tuple(
        ObjectSpec(class_label=labels[i % 3],
                   center=(200.0 + 150.0 * i, 150.0 + 70.0 * i),
                   velocity=(1.5 - 0.3 * (i % 5), 1.0 - 0.25 * (i % 4)),
                   size=(30.0 + 2.0 * i, 50.0 + 3.0 * i))
        for i in range(10))
    return SyntheticSceneConfig(
        width=1920, height=1080, fps=30.0, duration_frames=1000,
        objects=objects, jitter_sigma=1.0, miss_probability=0.05,
        false_positives_per_frame=0.5, seed=99)


def test_criterion_10_determinism_and_throughput(tmp_path):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        manifest = run(pipeline_config_from_dict(copy.deepcopy(_RUN_DOC)),
                       str(out))
        digests.append([hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in manifest["artifacts"]])
    identical = digests[0] == digests[1]

    scene = simulate(_ten_object_scene())
    rules = [
        Rule(id="door", kind="Intrusion",
             zone=Zone("east", ((960.0, 0.0), (1920.0, 0.0),
                                (1920.0, 1080.0), (960.0, 1080.0)))),
        Rule(id="gate", kind="LineCross",
             line=TripLine("g", (600.0, 0.0), (600.0, 1080.0))),
        Rule(id="linger", kind="Loiter",
             zone=Zone("mid", ((400.0, 300.0), (1400.0, 300.0),
                               (1400.0, 800.0), (400.0, 800.0))),
             threshold_ms=2000),
        Rule(id="crowd", kind="Occupancy",
             zone=Zone("all", ((0.0, 0.0), (1920.0, 0.0),
                               (1920.0, 1080.0), (0.0, 1080.0))),
             min_count=5),
    ]
    # time only the consumer side, the frame loop vigil runs (tracking, one
    # placement, rules and stats); the simulator is the producer under test
    # elsewhere.  best of two passes damps scheduler noise without hiding a miss
    cfg = PipelineConfig(frame_width=1920, frame_height=1080,
                         tracker=TrackerConfig(max_age=3), grid=GridSpec(24),
                         rules=tuple(rules))
    fps_best = 0.0
    for _ in range(2):
        loop = FrameLoop(cfg)
        t0 = time.perf_counter()
        for meta, dets in zip(scene.frames, scene.noisy):
            loop.step(meta, dets)
        fps_best = max(fps_best, len(scene.frames) / (time.perf_counter() - t0))

    ok = identical and fps_best >= 1000.0
    _verdict(10, ok, f"reruns byte-identical: {identical}; "
                     f"{fps_best:.0f} frames/s on the 10-object scene "
                     f"(floor 1000)")
