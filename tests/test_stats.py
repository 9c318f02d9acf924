"""Tests for scene statistics: heat grids, flow, dwell, unique counts."""

import csv
import random
from types import SimpleNamespace

import numpy as np
import pytest

from vigil.errors import ConfigError, DataError
from vigil.geometry import BoundingBox, FrameMeta, point_in_polygon
from vigil.images import read_image
from vigil.stats import GridSpec, SceneStats
from vigil.tracker import TrackStatus

from oracles import dwell_recount, heat_recount, unique_count_recount

ZONE_SQUARE = [(0.0, 0.0), (50.0, 0.0), (50.0, 50.0), (0.0, 50.0)]


def _frame(i, ts, w=200, h=100):
    return FrameMeta("cam", i, ts, w, h)


def _at(tid, ax, ay, label="person", status=TrackStatus.CONFIRMED):
    """A minimal track-like object whose anchor sits at (ax, ay)."""
    return SimpleNamespace(track_id=tid, class_label=label,
                           bbox=BoundingBox(ax - 5, ay - 10, ax + 5, ay),
                           status=status)


def test_grid_spec():
    assert GridSpec(10).dims(200, 100) == (20, 10)
    assert GridSpec(10).dims(95, 101) == (10, 11)   # partial cells round up
    assert GridSpec(1).dims(7, 3) == (7, 3)
    with pytest.raises(ConfigError):
        GridSpec(0)
    with pytest.raises(ConfigError):
        SceneStats(0, 100)


def test_heat_counts_match_recount():
    rng = random.Random(404)
    stats = SceneStats(173, 97, GridSpec(10))
    anchors = []
    for f in range(60):
        tracks = []
        for tid in range(5):
            ax = rng.uniform(-20.0, 193.0)
            ay = rng.uniform(-20.0, 117.0)
            anchors.append((ax, ay))
            tracks.append(_at(tid + 1, ax, ay))
        stats.ingest(_frame(f, f * 100, 173, 97), tracks)
    expected = heat_recount(anchors, 173, 97, 10)
    assert stats.observations == sum(expected.values())
    assert int(stats.heat.sum()) == stats.observations
    for (cx, cy), n in expected.items():
        assert stats.heat[cy, cx] == n
    assert stats.heat.shape == (10, 18)


def test_far_edge_anchors_land_in_last_cell():
    stats = SceneStats(200, 100, GridSpec(10))
    stats.ingest(_frame(0, 0), [_at(1, 200.0, 100.0)])
    assert stats.observations == 1
    assert stats.heat[9, 19] == 1
    # a hair past the edge no longer counts
    stats.ingest(_frame(1, 100), [_at(1, 200.0001, 50.0)])
    assert stats.observations == 1


def test_out_of_bounds_anchors_still_feed_dwell():
    stats = SceneStats(200, 100)
    stats.ingest(_frame(0, 0), [_at(4, -50.0, -50.0)])
    stats.ingest(_frame(1, 700), [_at(4, 300.0, 40.0)])
    assert stats.observations == 0
    assert int(stats.heat.sum()) == 0
    report = stats.dwell_report()
    assert len(report) == 1
    assert report[0].track_id == 4
    assert report[0].total_ms == 700


def test_flow_accrues_to_previous_cell():
    stats = SceneStats(200, 100, GridSpec(10))
    stats.ingest(_frame(0, 0), [_at(1, 15.0, 25.0)])
    stats.ingest(_frame(1, 100), [_at(1, 38.0, 47.0)])
    # the (15, 25) -> (38, 47) displacement belongs to cell (1, 2)
    assert stats.flow_n[2, 1] == 1
    assert stats.flow_dx[2, 1] == pytest.approx(23.0)
    assert stats.flow_dy[2, 1] == pytest.approx(22.0)
    assert int(stats.flow_n.sum()) == 1
    stats.ingest(_frame(2, 200), [_at(1, 40.0, 48.0)])
    assert stats.flow_n[4, 3] == 1
    avg_dx, avg_dy = stats.average_flow()
    assert avg_dx[2, 1] == pytest.approx(23.0)
    assert avg_dx[4, 3] == pytest.approx(2.0)
    # unsampled cells read zero, not NaN
    assert avg_dx[0, 0] == 0.0 and not np.any(np.isnan(avg_dx))
    assert avg_dy[0, 0] == 0.0 and not np.any(np.isnan(avg_dy))


def test_flow_skips_out_of_bounds_origin():
    stats = SceneStats(200, 100)
    stats.ingest(_frame(0, 0), [_at(1, -30.0, 50.0)])
    stats.ingest(_frame(1, 100), [_at(1, 20.0, 50.0)])
    assert int(stats.flow_n.sum()) == 0
    # ...but a displacement leaving the frame does count at its origin
    stats.ingest(_frame(2, 200), [_at(1, 260.0, 50.0)])
    assert int(stats.flow_n.sum()) == 1
    assert stats.flow_dx[5, 2] == pytest.approx(240.0)


def test_dwell_hand_case():
    stats = SceneStats(200, 100)
    for f, ts in enumerate([0, 500, 1000, 1500, 2000]):
        stats.ingest(_frame(f, ts), [_at(9, 10.0, 10.0, label="car")])
    rec = stats.dwell_report()[0]
    assert rec.track_id == 9
    assert rec.class_label == "car"
    assert rec.first_seen_ms == 0
    assert rec.last_seen_ms == 2000
    assert rec.total_ms == 2000
    assert rec.zone_ms == {}


def test_zone_dwell_requires_both_endpoints_inside():
    stats = SceneStats(200, 100, zones=[("lobby", ZONE_SQUARE)])
    path = [(10.0, 10.0), (20.0, 20.0), (80.0, 20.0), (30.0, 30.0),
            (40.0, 40.0)]
    for f, (ax, ay) in enumerate(path):
        stats.ingest(_frame(f, f * 1000), [_at(2, ax, ay)])
    rec = stats.dwell_report()[0]
    # inside->inside, inside->out, out->inside, inside->inside
    assert rec.zone_ms == {"lobby": 2000}
    assert rec.total_ms == 4000


def test_zone_boundary_counts_as_inside():
    stats = SceneStats(200, 100, zones=[("lobby", ZONE_SQUARE)])
    stats.ingest(_frame(0, 0), [_at(3, 50.0, 25.0)])    # on the edge
    stats.ingest(_frame(1, 800), [_at(3, 50.0, 30.0)])  # still on it
    assert stats.dwell_report()[0].zone_ms == {"lobby": 800}


def test_bad_zone_polygons_rejected():
    # zones are rules.Zone, so stats reject what rule zones reject
    for poly in ([(0, 0), (10, 0)],                      # under 3 vertices
                 [(0, 0), (10, 10), (10, 0), (0, 10)]):  # a bow tie
        with pytest.raises(ConfigError):
            SceneStats(200, 100, zones=[("bad", poly)])


def test_dwell_matches_recount_on_random_paths():
    rng = random.Random(911)
    zones = [("a", ZONE_SQUARE),
             ("b", [(40.0, 20.0), (120.0, 20.0), (120.0, 90.0), (40.0, 90.0)])]
    stats = SceneStats(160, 100, zones=zones)
    log = []
    for f in range(40):
        tracks = []
        for tid in range(1, 7):
            if rng.random() < 0.3 and f > 0:
                continue  # simulate a coasting gap in observation times
            ax = rng.uniform(0.0, 160.0)
            ay = rng.uniform(0.0, 100.0)
            tracks.append(_at(tid, ax, ay))
            log.append((tid, f * 250, (ax, ay)))
        stats.ingest(_frame(f, f * 250, 160, 100), tracks)
    oracle = dwell_recount(
        log, [(zid, lambda p, poly=poly: point_in_polygon(p, poly))
              for zid, poly in zones])
    report = {rec.track_id: rec for rec in stats.dwell_report()}
    assert set(report) == set(oracle)
    for tid, want in oracle.items():
        rec = report[tid]
        assert rec.first_seen_ms == want["first"]
        assert rec.last_seen_ms == want["last"]
        assert rec.total_ms == want["total"]
        assert rec.zone_ms == want["zones"]


def test_unique_count_window():
    stats = SceneStats(200, 100)
    rows = [
        (0, 0, [(1, "person"), (3, "car")]),
        (1, 1000, [(1, "person")]),
        (2, 1500, [(3, "car")]),
        (3, 2000, [(1, "person")]),
        (4, 5000, [(2, "person")]),
    ]
    for f, ts, present in rows:
        stats.ingest(_frame(f, ts),
                     [_at(tid, 10.0 * tid, 20.0, label=lab)
                      for tid, lab in present])
    assert stats.unique_count("person", 0, 999) == 1
    assert stats.unique_count("person", 900, 5000) == 2
    assert stats.unique_count("person", 2500, 4999) == 0
    assert stats.unique_count("person", 2000, 2000) == 1  # inclusive ends
    assert stats.unique_count("car", 0, 10000) == 1
    assert stats.unique_count("bike", 0, 10000) == 0
    with pytest.raises(ValueError):
        stats.unique_count("person", 10, 9)


def test_unique_count_matches_recount():
    rng = random.Random(77)
    labels = {tid: rng.choice(["person", "car", "bike"])
              for tid in range(1, 9)}
    stats = SceneStats(400, 400)
    log = []
    for f in range(50):
        tracks = []
        for tid, lab in labels.items():
            if rng.random() < 0.5:
                continue
            tracks.append(_at(tid, 50.0 + tid, 60.0, label=lab))
            log.append((tid, f * 40, None))
        stats.ingest(_frame(f, f * 40, 400, 400), tracks)
    for _ in range(30):
        t0 = rng.randrange(0, 2000)
        t1 = t0 + rng.randrange(0, 1200)
        lab = rng.choice(["person", "car", "bike"])
        assert stats.unique_count(lab, t0, t1) == \
            unique_count_recount(log, labels, lab, t0, t1)


def test_counts_doc():
    stats = SceneStats(200, 100)
    stats.ingest(_frame(0, 0), [_at(1, 10, 10, label="person"),
                                _at(2, 20, 20, label="car")])
    stats.ingest(_frame(1, 100), [_at(1, 11, 11, label="person"),
                                  _at(3, 30, 30, label="person")])
    doc = stats.counts_doc()
    assert doc == {"per_class": {"car": 1, "person": 2},
                   "total_tracks": 3, "observations": 4}
    assert list(doc["per_class"]) == ["car", "person"]


def test_dwell_report_sorted_and_doc_shape():
    stats = SceneStats(200, 100, zones=[("z2", ZONE_SQUARE),
                                        ("z1", ZONE_SQUARE)])
    for f, tid in enumerate((7, 3, 5)):
        stats.ingest(_frame(f, f * 100), [_at(tid, 10.0, 10.0)])
    assert [rec.track_id for rec in stats.dwell_report()] == [3, 5, 7]
    doc = stats.dwell_report_doc()
    assert list(doc) == ["tracks"]
    first = doc["tracks"][0]
    assert list(first) == ["track_id", "class", "first_seen_ms",
                           "last_seen_ms", "total_ms", "zone_ms"]
    assert list(first["zone_ms"]) == ["z1", "z2"]


def test_only_confirmed_tracks_are_ingested():
    stats = SceneStats(200, 100)
    stats.ingest(_frame(0, 0), [
        _at(1, 10.0, 10.0, status=TrackStatus.TENTATIVE),
        _at(2, 20.0, 20.0, status=TrackStatus.DELETED),
    ])
    assert stats.observations == 0
    assert stats.dwell_report() == []
    assert stats.counts_doc()["total_tracks"] == 0


def test_out_of_order_frames_rejected():
    stats = SceneStats(200, 100)
    stats.ingest(_frame(5, 500), [])
    with pytest.raises(DataError):
        stats.ingest(_frame(5, 600), [])
    with pytest.raises(DataError):
        stats.ingest(_frame(4, 700), [])
    stats.ingest(_frame(6, 600), [])  # strictly increasing is fine


def test_heatmap_csv_round_trip(tmp_path):
    stats = SceneStats(30, 20, GridSpec(10))
    for f, (ax, ay) in enumerate([(5, 5), (5, 6), (25, 15)]):
        stats.ingest(_frame(f, f * 100, 30, 20), [_at(1, ax, ay)])
    path = tmp_path / "heatmap.csv"
    stats.write_heatmap_csv(path)
    with open(path, newline="") as fh:
        rows = [[int(v) for v in row] for row in csv.reader(fh)]
    assert rows == [[2, 0, 0], [0, 0, 1]]


def test_heatmap_pgm_normalizes_peak_to_255(tmp_path):
    stats = SceneStats(30, 20, GridSpec(10))
    hits = [(5, 5), (6, 5), (7, 5), (8, 5), (25, 15)]
    for f, (ax, ay) in enumerate(hits):
        stats.ingest(_frame(f, f * 100, 30, 20), [_at(1, float(ax), float(ay))])
    path = tmp_path / "heatmap.pgm"
    stats.write_heatmap_pgm(path)
    img = read_image(path)
    assert img.shape == (2, 3)
    assert img[0, 0] == 255                      # 4 hits -> peak
    assert img[1, 2] == round(255 / 4)           # 1 hit, max-normalized
    assert img[0, 1] == 0


def test_heatmap_pgm_empty_scene(tmp_path):
    stats = SceneStats(30, 20, GridSpec(10))
    path = tmp_path / "flat.pgm"
    stats.write_heatmap_pgm(path)
    assert np.array_equal(read_image(path), np.zeros((2, 3), dtype=np.uint8))


def test_flowmap_csv_lists_only_sampled_cells(tmp_path):
    stats = SceneStats(200, 100, GridSpec(10))
    stats.ingest(_frame(0, 0), [_at(1, 15.0, 25.0)])
    stats.ingest(_frame(1, 100), [_at(1, 18.0, 29.0)])
    stats.ingest(_frame(2, 200), [_at(1, 21.0, 33.0)])
    path = tmp_path / "flowmap.csv"
    stats.write_flowmap_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cell_x", "cell_y", "avg_dx", "avg_dy", "samples"]
    # both displacements start in cell (1, 2), so they share one row
    assert rows[1:] == [["1", "2", "3.0", "4.0", "2"]]


def test_dwell_and_counts_json(tmp_path):
    import json
    stats = SceneStats(200, 100)
    stats.ingest(_frame(0, 0), [_at(1, 10.0, 10.0)])
    stats.ingest(_frame(1, 400), [_at(1, 12.0, 10.0)])
    stats.write_dwell_json(tmp_path / "dwell.json")
    stats.write_counts_json(tmp_path / "counts.json")
    dwell = json.loads((tmp_path / "dwell.json").read_text())
    counts = json.loads((tmp_path / "counts.json").read_text())
    assert dwell["tracks"][0]["total_ms"] == 400
    assert counts == {"per_class": {"person": 1}, "total_tracks": 1,
                      "observations": 2}
