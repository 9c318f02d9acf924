"""Zone containment prepared once per zone and shared by rules and stats.

rules.place tests each anchor against each zone's widened reach box and
ray casts only inside it; the answer must equal point_in_polygon's for
every point, including points that only its on-edge tolerance accepts,
and equal the frozen placement in oracles.py.  The pipeline places each confirmed track in the zones once
per frame and hands that one result to both the rules and the statistics,
with the previous frame's result as where each track was; neither stage,
and nothing else the frame loop owns, keeps the result of a track that has
gone.
"""

import dataclasses
import gc
import json
import math
import pathlib
import random
from collections import Counter, deque
from types import SimpleNamespace

import numpy as np

import vigil.cli
import vigil.pipeline
import vigil.rules
from budget import hang_budget
from oracles import reference_place
from vigil.geometry import EDGE_TOL, BoundingBox, Detection, FrameMeta, point_in_polygon
from vigil.pipeline import (
    SCENE_SEED_LABEL,
    FrameLoop,
    PipelineConfig,
    pipeline_config_from_dict,
    run,
)
from vigil.rng import derive_seed
from vigil.rules import RuleEngine, Zone, ZoneSet, alert_record, place, rules_from_doc
from vigil.sources import ObjectSpec, SyntheticSceneConfig, simulate
from vigil.stats import GridSpec, SceneStats
from vigil.tracker import Track, TrackerConfig, TrackStatus


def _star(rng, cx, cy, r0, vertices=12):
    step = 2.0 * math.pi / vertices
    pts = []
    for k in range(vertices):
        ang = k * step + rng.uniform(0.1, 0.9) * step
        rad = r0 * rng.uniform(0.6, 1.0)
        pts.append((cx + rad * math.cos(ang), cy + rad * math.sin(ang)))
    return pts


POLYGONS = {
    "square": [(0.0, 0.0), (50.0, 0.0), (50.0, 50.0), (0.0, 50.0)],
    "concave": [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (5.0, 3.0), (0.0, 10.0)],
    "star": _star(random.Random(7), 300.0, 200.0, 120.0),
    "far": [(1e6, 1e6), (1e6 + 40.0, 1e6 + 3.0), (1e6 + 20.0, 1e6 + 30.0)],
    # sub-pixel edges, where the on-edge tolerance reaches furthest
    "short-edge": [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (10.0 - 3e-7, 10.0),
                   (0.0, 10.0)],
    "tiny-edge": [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (10.0 - 2e-9, 10.0 + 1e-9),
                  (0.0, 10.0)],
    "sliver": [(0.0, 0.0), (100.0, 0.0), (100.0, 1e-7)],
}


def _points(rng, poly):
    """Random, vertex, on-edge, 1e-10-off-edge, near-short-edge and far points."""
    xs = [x for x, _ in poly]
    ys = [y for _, y in poly]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    pad = 0.2 * max(x1 - x0, y1 - y0)
    pts = [(rng.uniform(x0 - pad, x1 + pad), rng.uniform(y0 - pad, y1 + pad))
           for _ in range(300)]
    pts += list(poly)
    n = len(poly)
    for i in range(n):
        (ax, ay), (bx, by) = poly[i], poly[(i + 1) % n]
        length = math.hypot(bx - ax, by - ay)
        nx, ny = (ay - by) / length, (bx - ax) / length  # unit normal
        for t in (0.0, 0.25, rng.random(), 0.5, 1.0):
            px, py = ax + t * (bx - ax), ay + t * (by - ay)
            pts.append((px, py))
            for off in (1e-10, -1e-10, 1e-9, 2e-9, 1e-6):
                pts.append((px + off * nx, py + off * ny))
        for d in (1e-4, 1e-3, 5e-3, 1e-2, 0.5, 1.5, 3.0):  # reach of short edges
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                pts.append((ax + sx * d, ay + sy * d))
    for d in (1e3, 1e9):
        pts += [(x0 - d, y0), (x1 + d, y1), (x0, y0 - d), (x1, y1 + d)]
    return pts


def _track(track_id, anchor, label="person", status=TrackStatus.CONFIRMED):
    """A track whose anchor is *anchor* exactly (for |x| up to half the
    largest float): a box of zero width, whose 0.5 * (x + x) is x."""
    x, y = anchor
    return SimpleNamespace(track_id=track_id, class_label=label, status=status,
                           corners=[x, y, x, y])


def test_prepared_containment_matches_point_in_polygon():
    rng = random.Random(2024)
    outside_raw_box = 0
    for name, poly in POLYGONS.items():
        zone = Zone(name, poly)
        xs = [x for x, _ in zone.polygon]
        ys = [y for _, y in zone.polygon]
        points = _points(rng, zone.polygon)
        zones = ZoneSet([zone])
        stats = SceneStats(100, 100, zones=zones)
        tracks = [_track(i, p) for i, p in enumerate(points)]
        placed = place(zones, tracks)
        stats.ingest(FrameMeta(0, 0), placed, {})
        stats.ingest(FrameMeta(1, 1000), placed, placed)
        dwell = {rec["track_id"]: rec["zone_ms"][name]
                 for rec in stats.dwell_report_doc()["tracks"]}
        for i, p in enumerate(points):
            want = point_in_polygon(p, zone.polygon)
            assert (name in placed[i][2]) == want, (name, p)
            assert dwell[i] == (1000 if want else 0), (name, p)
            if want and not (min(xs) <= p[0] <= max(xs) and min(ys) <= p[1] <= max(ys)):
                outside_raw_box += 1
    # the on-edge tolerance does accept points beyond the vertices' box,
    # so an unwidened box reject would have changed answers
    assert outside_raw_box > 0


def test_short_edge_reach_exceeds_tolerance():
    zone = Zone("z", POLYGONS["short-edge"])
    corner = (10.0 + 1e-3, 10.0 + 1e-3)  # 1.4e-3 px beyond the corner
    assert point_in_polygon(corner, zone.polygon)
    assert place(ZoneSet([zone]), [_track(0, corner)])[0][2] == {"z"}
    assert zone.reach.x2 - 10.0 > 1e3 * EDGE_TOL


def _rows(placed):
    """A placement's records in dict order, each anchor by its repr, so a
    nan anchor equals nan and -0.0 differs from 0.0."""
    return [(tid, label, repr(anchor), ids) for tid, (label, anchor, ids) in placed.items()]


def _same_placement(zones, tracks):
    got = place(ZoneSet(zones), tracks)
    want = reference_place(zones, tracks)
    assert _rows(got) == _rows(want)  # dict order included
    return got


def test_place_matches_reference_placement():
    # place's record equals the frozen one, built from BoundingBox anchors
    # and a zone list: one reach test and ray cast per (track, zone)
    rng = random.Random(11)
    zones = [Zone(name, poly) for name, poly in POLYGONS.items()]
    zones.append(Zone("square-cars", POLYGONS["square"], frozenset({"car"})))
    zones.append(Zone("star-people", POLYGONS["star"], frozenset({"person"})))
    points = [p for poly in POLYGONS.values() for p in _points(rng, poly)]
    inf, nan = math.inf, math.nan
    points += [(nan, 5.0), (5.0, nan), (nan, nan), (inf, 5.0), (5.0, -inf),
               (inf, inf), (-inf, -inf), (inf, nan), (8e307, -1e308),
               (1e308, -1e308)]  # the last box's anchor overflows to (inf, -1e308)
    ids = rng.sample(range(10 * len(points)), len(points))  # not in track order
    tracks = [_track(tid, p, rng.choice(["person", "car", "bike"]))
              for tid, p in zip(ids, points)]
    placed = _same_placement(zones, tracks)
    assert {z for rec in placed.values() for z in rec[2]} == {z.id for z in zones}
    assert any(len(rec[2]) > 1 for rec in placed.values())

    # tentative tracks mixed in, in frames of a few tracks each
    for _ in range(200):
        frame = [_track(tid, p, rng.choice(["person", "car"]),
                        rng.choice([TrackStatus.CONFIRMED, TrackStatus.TENTATIVE]))
                 for tid, p in zip(ids, rng.sample(points, rng.randint(0, 12)))]
        _same_placement(rng.sample(zones, rng.randint(0, len(zones))), frame)
    # no zones; no track; no confirmed track
    unplaced = _same_placement([], tracks[:20])
    assert unplaced == {t.track_id: (t.class_label, BoundingBox(*t.corners).anchor, frozenset())
                        for t in tracks[:20]}
    assert _same_placement(zones, []) == {}
    tentative = [_track(i, p, status=TrackStatus.TENTATIVE) for i, p in enumerate(points[:50])]
    assert _same_placement(zones, tentative) == {}


# -- rules and stats driven by FrameLoop vs the pipeline ----------------------

SCENE = {
    "width": 320, "height": 240, "fps": 10.0, "duration_frames": 90,
    "jitter_sigma": 1.0, "miss_probability": 0.05,
    "false_positives_per_frame": 0.3,
    "objects": [
        {"class_label": "person", "center": [20.0, 120.0],
         "velocity": [3.0, 0.2], "size": [16.0, 34.0]},
        {"class_label": "car", "center": [300.0, 60.0],
         "velocity": [-2.5, 1.2], "size": [40.0, 24.0]},
        {"class_label": "bike", "center": [160.0, 220.0],
         "velocity": [0.4, -2.0], "size": [20.0, 30.0]},
        {"class_label": "person", "center": [150.0, 20.0],
         "velocity": [0.3, 2.2], "size": [14.0, 30.0]},
    ],
}

EAST = [[150, 0], [320, 0], [320, 240], [150, 240]]
MIDDLE = [[80, 60], [240, 60], [260, 180], [160, 220], [70, 170]]
RULES = [
    {"id": "east-people", "kind": "Intrusion", "debounce_ms": 500,
     "zone": {"id": "east", "polygon": EAST, "classes": ["person"]}},
    {"id": "east-crowd", "kind": "Occupancy", "min_count": 2, "debounce_ms": 0,
     "zone": {"id": "east", "polygon": EAST, "classes": ["person"]}},
    {"id": "middle-any", "kind": "Intrusion", "debounce_ms": 0,
     "zone": {"id": "middle", "polygon": MIDDLE}},
    {"id": "middle-linger", "kind": "Loiter", "threshold_ms": 800,
     "debounce_ms": 1000, "classes": ["car", "bike"],
     "zone": {"id": "middle", "polygon": MIDDLE}},
    {"id": "west", "kind": "Occupancy", "min_count": 1, "debounce_ms": 0,
     "zone": [[0, 0], [170, 0], [170, 240], [0, 240]]},
    {"id": "gate", "kind": "LineCross", "line": [[200, 0], [200, 240]]},
]

PIPELINE_DOC = {"source": {"kind": "synthetic", "scene": SCENE},
                "tracker": {"min_hits": 2, "max_age": 2}, "grid": {"cell_size": 16},
                "rules": RULES, "seed": 12}


def test_frame_loop_stream_matches_pipeline_with_one_corners_read_per_track(tmp_path,
                                                                          monkeypatch):
    # FrameLoop stepped over the run's scene gives pipeline.run's alerts and
    # dwell report, and each step reads corners once per confirmed track
    cfg = pipeline_config_from_dict(PIPELINE_DOC)
    run(cfg, str(tmp_path))
    piped_alerts = [json.loads(line) for line in
                    (tmp_path / "alerts.jsonl").read_text().splitlines()]
    piped_dwell = json.loads((tmp_path / "dwell.json").read_text())

    corners_reads = Counter()
    slot = Track.corners  # the slot's member descriptor

    def counted_corners(track):
        corners_reads[track.track_id] += 1
        return slot.__get__(track, Track)

    monkeypatch.setattr(Track, "corners", property(counted_corners, slot.__set__))

    scene = simulate(dataclasses.replace(
        cfg.scene, seed=derive_seed(cfg.seed, SCENE_SEED_LABEL)))
    loop = FrameLoop(cfg)
    assert loop.stats.zones is loop.engine.prepared_zones  # kept as given, not prepared again
    alerts = []
    for meta, dets in zip(scene.frames, scene.noisy):
        corners_reads.clear()
        confirmed, events = loop.step(meta, dets)
        alerts += [alert_record(ev) for ev in events]
        # the tracker writes corners and never reads them; the one place() reads each once
        assert corners_reads == Counter(t.track_id for t in confirmed), corners_reads

    assert alerts == piped_alerts
    assert loop.stats.dwell_report_doc() == piped_dwell
    # the scene exercises every rule kind and both overlapping zones
    assert {a["kind"] for a in alerts} == {"Intrusion", "Occupancy", "Loiter",
                                           "LineCross"}
    in_both = [rec for rec in piped_dwell["tracks"]
               if rec["zone_ms"]["east"] and rec["zone_ms"]["middle"]]
    assert in_both


_FOLLOWED = (dict, list, tuple, set, frozenset, deque)


def _owned(root) -> list:
    """Every object reachable from *root* through containers and vigil's
    own objects: not through classes, functions, modules or arrays."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        stack.extend(ref for ref in gc.get_referents(obj)
                     if type(ref) in _FOLLOWED or type(ref).__module__.startswith("vigil."))
    return out


def _recorded_place(monkeypatch) -> list:
    """FrameLoop.step's place() record of each frame, in frame order."""
    records = []

    def recorded_place(zones, tracks):
        records.append(place(zones, tracks))
        return records[-1]

    monkeypatch.setattr(vigil.pipeline, "place", recorded_place)
    return records


def test_the_loop_hands_both_stages_one_record_and_neither_keeps_one(monkeypatch):
    # FrameLoop places each frame once and hands that record to the rules
    # and the statistics, with the previous frame's record as *before*;
    # neither stage holds a place() record, or a frame's record map, after
    # the step
    cfg = pipeline_config_from_dict(PIPELINE_DOC)
    scene = simulate(dataclasses.replace(
        cfg.scene, seed=derive_seed(cfg.seed, SCENE_SEED_LABEL)))
    loop = FrameLoop(cfg)
    engine, stats = loop.engine, loop.stats
    records = _recorded_place(monkeypatch)
    handed = []  # (stage, placed, before) of each stage call
    for stage, name in ((engine, "evaluate"), (stats, "ingest")):
        def seen(meta, placed, before, name=name, real=getattr(stage, name)):
            handed.append((name, placed, before))
            return real(meta, placed, before)

        monkeypatch.setattr(stage, name, seen)
    previous = None  # the record of the frame before
    tracks = 0
    for f, (meta, dets) in enumerate(zip(scene.frames, scene.noisy)):
        loop.step(meta, dets)
        assert len(records) == f + 1  # placed once per frame
        placed = records[-1]
        assert [(name, p is placed, b is previous if f else b == {})
                for name, p, b in handed] == [("evaluate", True, True), ("ingest", True, True)]
        handed.clear()
        made = {id(rec) for frame in records for rec in frame.values()}
        made |= {id(frame) for frame in records}
        for stage in (engine, stats):
            assert not [obj for obj in _owned(stage) if id(obj) in made], (f, stage)
        previous = placed
        tracks += len(placed)
    assert tracks > 100


def _born_and_dying(frames, lifetime=10, slots=12):
    """Per-frame Detection lists: object k is seen on frames [k, k + lifetime)
    in slot k % slots, a 4 x 3 grid on a 320 x 240 frame, walking 2 px a
    frame; a slot is free for two frames before its next object comes."""
    out = []
    for f in range(frames):
        meta = FrameMeta(f, 100 * f)
        dets = []
        for k in range(max(0, f - lifetime + 1), f + 1):
            x = (k % slots) % 4 * 80 + 20 + 2 * (f - k)
            y = (k % slots) // 4 * 80 + 25
            label = ("person", "car", "bike")[k % 3]
            dets.append(Detection(meta, BoundingBox(x, y, x + 16, y + 30), label, 0.9))
        out.append((meta, dets))
    return out


@hang_budget(20, "test_the_loop_holds_no_record_of_a_track_gone_from_the_last_frame")
def test_the_loop_holds_no_record_of_a_track_gone_from_the_last_frame(monkeypatch):
    # a camera that runs for days must hold per-track placement only for
    # the tracks that are alive: after hundreds of tracks are born and die,
    # nothing the loop owns holds the place() record of a track that the
    # last frame did not place
    cfg = PipelineConfig(frame_width=320, frame_height=240,
                         rules=tuple(rules_from_doc(RULES)), grid=GridSpec(16))
    loop = FrameLoop(cfg)
    records = _recorded_place(monkeypatch)
    for meta, dets in _born_and_dying(400):
        loop.step(meta, dets)
    owner = {id(rec): tid for frame in records for tid, rec in frame.items()}
    gone = owner.keys() - {id(rec) for rec in records[-1].values()}
    assert len(set(owner.values()) - records[-1].keys()) >= 300
    held = [owner[id(obj)] for obj in _owned(loop) if id(obj) in gone]
    assert held == []


def test_the_previous_frames_record_gives_what_every_frames_records_give():
    # FrameLoop hands the stages only the previous frame's record as
    # *before*; the same engine and stats fed a map that keeps every frame's
    # records, as a caller whose tracks skip frames keeps it, give the same
    # alerts, grids (bit for bit), dwell and counts
    rnd = random.Random(31)
    kinds, dwelt = Counter(), 0
    for seed in range(12):
        objects = []
        for _ in range(rnd.randint(4, 10)):
            entry = rnd.randrange(40)
            objects.append(ObjectSpec(
                rnd.choice(("person", "car", "bike")),
                (rnd.uniform(30, 290), rnd.uniform(30, 210)),
                (rnd.uniform(-6, 6), rnd.uniform(-6, 6)),
                (rnd.uniform(12, 40), rnd.uniform(20, 40)),
                entry_frame=entry, exit_frame=entry + rnd.randint(5, 60)))
        scene = simulate(SyntheticSceneConfig(
            width=320, height=240, fps=10.0, duration_frames=80, objects=tuple(objects),
            jitter_sigma=1.5, miss_probability=0.15, false_positives_per_frame=0.5,
            seed=seed))
        cfg = PipelineConfig(frame_width=320, frame_height=240,
                             tracker=TrackerConfig(max_age=seed % 3 + 1,
                                                   min_hits=rnd.randint(1, 3)),
                             grid=GridSpec(rnd.choice((7, 16))),
                             rules=tuple(rules_from_doc(RULES)))
        loop = FrameLoop(cfg)
        engine = RuleEngine(list(cfg.rules))
        stats = SceneStats(320, 240, cfg.grid, zones=engine.prepared_zones)
        every: dict = {}
        for meta, dets in zip(scene.frames, scene.noisy):
            confirmed, events = loop.step(meta, dets)
            placed = place(engine.prepared_zones, confirmed)
            want = engine.evaluate(meta, placed, every)
            stats.ingest(meta, placed, every)
            every.update(placed)
            assert [alert_record(ev) for ev in events] == [alert_record(ev) for ev in want]
            kinds.update(ev.kind for ev in events)
        for name in ("heat", "flow_dx", "flow_dy", "flow_n"):
            got, want = getattr(loop.stats, name), getattr(stats, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, name)
        assert loop.stats.dwell_report_doc() == stats.dwell_report_doc(), seed
        assert loop.stats.counts_doc() == stats.counts_doc(), seed
        dwelt += sum(any(rec["zone_ms"].values())
                     for rec in stats.dwell_report_doc()["tracks"])
    assert set(kinds) == {"Intrusion", "Occupancy", "Loiter", "LineCross"}, kinds
    assert dwelt > 20, dwelt


def _reach_pairs(tracks_jsonl, zones) -> Counter:
    """zone id -> rows of confirmed tracks in *tracks_jsonl* whose anchor lies
    in the zone's reach box: the (track, zone) pairs of the run to ray cast."""
    pairs = Counter()
    for line in tracks_jsonl.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        if row["status"] != "Confirmed":
            continue
        x, y = 0.5 * (row["x1"] + row["x2"]), row["y2"]
        for zone in zones:
            box = zone.reach
            if box.x1 <= x <= box.x2 and box.y1 <= y <= box.y2:
                pairs[zone.id] += 1
    return pairs


def test_pipeline_places_each_track_once_per_frame(tmp_path, monkeypatch):
    # with rules and stats both on, each (confirmed track, zone) pair whose
    # anchor lies in the zone's reach box is ray cast once per frame; a stage
    # that placed the tracks again would double the count
    cfg = pipeline_config_from_dict(PIPELINE_DOC)
    assert cfg.run_rules and cfg.run_stats
    zones = RuleEngine(list(cfg.rules)).prepared_zones.zones
    zone_of = {zone.polygon: zone.id for zone in zones}
    calls = Counter()
    real_point_in_polygon = vigil.rules.point_in_polygon

    def counted(point, polygon, edges=None):
        calls[zone_of[polygon]] += 1
        return real_point_in_polygon(point, polygon, edges)

    monkeypatch.setattr(vigil.rules, "point_in_polygon", counted)
    manifest = run(cfg, str(tmp_path))
    # track_rows is the sum over frames of the confirmed tracks
    assert manifest["track_rows"] > 0
    want = _reach_pairs(tmp_path / "tracks.jsonl", zones)
    assert set(want) == {"east", "middle", "west.zone"}
    assert calls == want
    # the reach boxes do reject pairs before the ray cast
    assert sum(want.values()) < len(zones) * manifest["track_rows"]


def test_trace_seam_times_zone_layer(tmp_path, monkeypatch):
    # perfbench/tracing.py times the zone layer by rebinding
    # vigil.rules.point_in_polygon, RuleEngine.evaluate and SceneStats.ingest;
    # if the pipeline reached them through other names, the metrics would read 0
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    config = tmp_path / "run.json"
    config.write_text(json.dumps(PIPELINE_DOC), encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    try:
        code = vigil.cli.main(["run", "--config", str(config),
                               "--out", str(tmp_path / "out"), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    frames = SCENE["duration_frames"]
    zones = RuleEngine(pipeline_config_from_dict(PIPELINE_DOC).rules).prepared_zones
    assert tracer.calls["geometry.point_in_polygon"] == sum(
        _reach_pairs(tmp_path / "out" / "tracks.jsonl", zones.zones).values())
    assert tracer.calls["rules.evaluate"] == frames
    assert tracer.calls["stats.ingest"] == frames
