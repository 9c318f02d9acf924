"""Zone containment prepared once per zone and shared by rules and stats.

Prepared zones reject points outside a widened box before the ray cast;
the answer must still equal point_in_polygon's for every point, including
points that only its on-edge tolerance accepts.  The pipeline places
each confirmed track in the zones once per frame (rules.place) and hands
that one result to both the rules and the statistics.
"""

import dataclasses
import json
import math
import pathlib
import random
from collections import Counter
from types import SimpleNamespace

import vigil.cli
from vigil.geometry import EDGE_TOL, FrameMeta, point_in_polygon
from vigil.pipeline import SCENE_SEED_LABEL, pipeline_config_from_dict, run
from vigil.rng import derive_seed
from vigil.rules import RuleEngine, Zone, alert_record
from vigil.sources import simulate
from vigil.stats import SceneStats
from vigil.tracker import SortTracker, Track, TrackStatus


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


def test_prepared_containment_matches_point_in_polygon():
    rng = random.Random(2024)
    outside_raw_box = 0
    for name, poly in POLYGONS.items():
        zone = Zone(name, poly)
        xs = [x for x, _ in zone.polygon]
        ys = [y for _, y in zone.polygon]
        points = _points(rng, zone.polygon)
        stats = SceneStats(100, 100, zones=[(name, poly)])
        tracks = [SimpleNamespace(track_id=i, class_label="person",
                                  status=TrackStatus.CONFIRMED,
                                  bbox=SimpleNamespace(anchor=p))
                  for i, p in enumerate(points)]
        stats.ingest(FrameMeta("cam", 0, 0, 100, 100), tracks)
        stats.ingest(FrameMeta("cam", 1, 1000, 100, 100), tracks)
        dwell = {rec.track_id: rec.zone_ms[name] for rec in stats.dwell_report()}
        for i, p in enumerate(points):
            want = point_in_polygon(p, zone.polygon)
            assert zone.contains(p) == want, (name, p)
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
    assert zone.contains(corner)
    assert zone.reach.x2 - 10.0 > 1e3 * EDGE_TOL


# -- rules and stats driven directly vs the pipeline ---------------------------

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


def test_engine_and_stats_standalone_match_pipeline(tmp_path, monkeypatch):
    cfg = pipeline_config_from_dict(PIPELINE_DOC)
    run(cfg, str(tmp_path))
    piped_alerts = [json.loads(line) for line in
                    (tmp_path / "alerts.jsonl").read_text().splitlines()]
    piped_dwell = json.loads((tmp_path / "dwell.json").read_text())

    bbox_reads = Counter()
    real_bbox = Track.bbox

    def counted_bbox(track):
        bbox_reads[track.track_id] += 1
        return real_bbox.fget(track)

    monkeypatch.setattr(Track, "bbox", property(counted_bbox))

    scene = simulate(dataclasses.replace(
        cfg.scene, seed=derive_seed(cfg.seed, SCENE_SEED_LABEL)))
    tracker = SortTracker(cfg.tracker)
    engine = RuleEngine(list(cfg.rules))
    stats = SceneStats(cfg.frame_width, cfg.frame_height, cfg.grid,
                       zones=engine.zones())
    alerts = []
    for meta, dets in zip(scene.frames, scene.noisy):
        confirmed = tracker.step(meta, dets)
        stats.ingest(meta, confirmed)
        bbox_reads.clear()
        alerts += [alert_record(ev) for ev in engine.evaluate(meta, confirmed)]
        assert set(bbox_reads) <= {t.track_id for t in confirmed}
        assert all(n == 1 for n in bbox_reads.values()), bbox_reads

    assert alerts == piped_alerts
    assert stats.dwell_report_doc() == piped_dwell
    # the scene exercises every rule kind and both overlapping zones
    assert {a["kind"] for a in alerts} == {"Intrusion", "Occupancy", "Loiter",
                                           "LineCross"}
    in_both = [rec for rec in piped_dwell["tracks"]
               if rec["zone_ms"]["east"] and rec["zone_ms"]["middle"]]
    assert in_both


def test_pipeline_places_each_track_once_per_frame(tmp_path, monkeypatch):
    # with rules and stats both on, each confirmed track meets each distinct
    # zone once per frame; a stage that placed the tracks again would double it
    calls = Counter()
    real_contains = Zone.contains

    def counted_contains(zone, point):
        calls[zone.id] += 1
        return real_contains(zone, point)

    monkeypatch.setattr(Zone, "contains", counted_contains)
    cfg = pipeline_config_from_dict(PIPELINE_DOC)
    assert cfg.run_rules and cfg.run_stats
    manifest = run(cfg, str(tmp_path))
    # track_rows is the sum over frames of the confirmed tracks
    assert manifest["track_rows"] > 0
    assert calls == {zid: manifest["track_rows"]
                     for zid in ("east", "middle", "west.zone")}


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
    assert tracer.calls["geometry.point_in_polygon"] > 0
    assert tracer.calls["rules.evaluate"] == frames
    assert tracer.calls["stats.ingest"] == frames
