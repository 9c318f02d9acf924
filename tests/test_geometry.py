"""Boxes, IoU, polygons: checked against rasterization and winding oracles."""

import random

import numpy as np
import pytest

from vigil.geometry import (
    BoundingBox,
    iou,
    iou_matrix,
    point_in_polygon,
    polygon_is_simple,
    segment_side,
)

from oracles import iou_rasterized, point_in_polygon_winding


def random_box(rnd, lo=0.0, hi=40.0, step=0.25):
    """Box with coordinates on a step lattice (keeps the raster oracle exact)."""
    def coord():
        return lo + step * rnd.randrange(int((hi - lo) / step))
    x1, x2 = sorted((coord(), coord()))
    y1, y2 = sorted((coord(), coord()))
    return BoundingBox(x1, y1, x2 + step, y2 + step)


def test_box_basics():
    b = BoundingBox(10, 20, 30, 60)
    assert b.width == 20 and b.height == 40
    assert b.area == 800
    assert b.center == (20, 40)
    assert b.anchor == (20, 60)          # bottom-center ground point
    assert b.as_tuple() == (10, 20, 30, 60)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        BoundingBox(5, 5, 4, 9)
    with pytest.raises(ValueError):
        BoundingBox(0, 3, 4, 2)


def test_iou_identical_and_disjoint():
    a = BoundingBox(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, BoundingBox(20, 20, 30, 30)) == 0.0
    # edge-touching boxes share zero area
    assert iou(a, BoundingBox(10, 0, 20, 10)) == 0.0


def test_iou_hand_value():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(5, 5, 15, 15)
    assert iou(a, b) == pytest.approx(25.0 / 175.0)


def test_iou_matches_raster_oracle():
    rnd = random.Random(1234)
    for _ in range(400):
        a = random_box(rnd)
        b = random_box(rnd)
        got = iou(a, b)
        want = iou_rasterized(a.as_tuple(), b.as_tuple(), scale=4)
        assert got == pytest.approx(want, abs=1e-9)
        assert iou(b, a) == pytest.approx(got, abs=1e-12)


def test_iou_matrix_matches_pairwise():
    rnd = random.Random(77)
    a = np.array([random_box(rnd).as_tuple() for _ in range(7)])
    b = np.array([random_box(rnd).as_tuple() for _ in range(5)])
    mat = iou_matrix(a, b)
    assert mat.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert mat[i, j] == pytest.approx(
                iou(BoundingBox(*a[i]), BoundingBox(*b[j])), abs=1e-12)


def test_iou_matrix_empty_sides():
    a = np.zeros((0, 4))
    b = np.array([[0.0, 0.0, 5.0, 5.0]])
    assert iou_matrix(a, b).shape == (0, 1)
    assert iou_matrix(b, a).shape == (1, 0)


SQUARE = [(0, 0), (10, 0), (10, 10), (0, 10)]
CONCAVE = [(0, 0), (10, 0), (10, 10), (5, 3), (0, 10)]


def test_point_in_polygon_basics():
    assert point_in_polygon((5, 5), SQUARE)
    assert not point_in_polygon((15, 5), SQUARE)
    # boundary points are inside
    assert point_in_polygon((0, 5), SQUARE)
    assert point_in_polygon((10, 10), SQUARE)
    assert point_in_polygon((5, 0), SQUARE)
    # concave notch
    assert not point_in_polygon((5, 6), CONCAVE)
    assert point_in_polygon((1, 5), CONCAVE)


def test_point_in_polygon_vs_winding_oracle():
    rnd = random.Random(4321)
    polys = [SQUARE, CONCAVE,
             [(2, 1), (9, 2), (7, 9), (4, 7), (1, 8)],
             [(0, 0), (12, 0), (6, 4), (12, 8), (0, 8)]]
    for _ in range(1000):
        poly = polys[rnd.randrange(len(polys))]
        # mix of lattice points (exercise the boundary) and generic floats
        if rnd.random() < 0.5:
            pt = (rnd.randrange(-2, 14), rnd.randrange(-2, 12))
        else:
            pt = (rnd.uniform(-2, 14), rnd.uniform(-2, 12))
        assert point_in_polygon(pt, poly) == point_in_polygon_winding(pt, poly), \
            (pt, poly)


def test_polygon_is_simple():
    assert polygon_is_simple(SQUARE)
    assert polygon_is_simple(CONCAVE)
    bowtie = [(0, 0), (10, 10), (10, 0), (0, 10)]
    assert not polygon_is_simple(bowtie)


def test_segment_side_sign():
    p, q = (0, 0), (10, 0)
    assert segment_side(p, q, (5, 3)) > 0
    assert segment_side(p, q, (5, -3)) < 0
    assert segment_side(p, q, (20, 0)) == 0.0
    # the vertical-line case used by direction-aware trip lines
    assert segment_side((5, 0), (5, 10), (0, 5)) > 0
    assert segment_side((5, 0), (5, 10), (9, 5)) < 0
