"""Unit tests for rectilinear polygons (merge, boundary, containment)."""

import pytest

from repro.geom.polygon import (
    RectilinearPolygon,
    boundary_edges,
    merge_rects,
)
from repro.geom.point import Point
from repro.geom.rect import Rect


class TestMergeRects:
    def test_empty(self):
        assert merge_rects([]) == []

    def test_single(self):
        assert merge_rects([Rect(0, 0, 10, 10)]) == [Rect(0, 0, 10, 10)]

    def test_identical_duplicates_collapse(self):
        out = merge_rects([Rect(0, 0, 10, 10), Rect(0, 0, 10, 10)])
        assert out == [Rect(0, 0, 10, 10)]

    def test_overlapping_union_area(self):
        out = merge_rects([Rect(0, 0, 10, 10), Rect(5, 0, 15, 10)])
        assert sum(r.area for r in out) == 150

    def test_disjoint_preserved(self):
        out = merge_rects([Rect(0, 0, 5, 5), Rect(10, 10, 15, 15)])
        assert len(out) == 2

    def test_output_disjoint(self):
        rects = [Rect(0, 0, 100, 40), Rect(40, 20, 60, 100), Rect(0, 30, 80, 50)]
        out = merge_rects(rects)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert not out[i].overlaps(out[j])

    def test_vertical_coalescing(self):
        out = merge_rects([Rect(0, 0, 10, 5), Rect(0, 5, 10, 10)])
        assert out == [Rect(0, 0, 10, 10)]


class TestBoundaryEdges:
    def test_single_rect_loop(self):
        loops = boundary_edges([Rect(0, 0, 10, 20)])
        assert len(loops) == 1
        assert len(loops[0]) == 4
        assert set(loops[0]) == {(0, 0), (10, 0), (10, 20), (0, 20)}

    def test_l_shape_six_vertices(self):
        loops = boundary_edges([Rect(0, 0, 100, 40), Rect(0, 0, 40, 100)])
        assert len(loops) == 1
        assert len(loops[0]) == 6

    def test_outer_loop_is_ccw(self):
        loops = boundary_edges([Rect(0, 0, 10, 10)])
        # Shoelace: positive signed area means counterclockwise.
        pts = loops[0]
        area2 = sum(
            pts[i][0] * pts[(i + 1) % len(pts)][1]
            - pts[(i + 1) % len(pts)][0] * pts[i][1]
            for i in range(len(pts))
        )
        assert area2 > 0

    def test_hole_produces_two_loops(self):
        # A ring: outer 0..30, hole 10..20.
        ring = [
            Rect(0, 0, 30, 10),
            Rect(0, 20, 30, 30),
            Rect(0, 10, 10, 20),
            Rect(20, 10, 30, 20),
        ]
        loops = boundary_edges(ring)
        assert len(loops) == 2

    def test_disjoint_components(self):
        loops = boundary_edges([Rect(0, 0, 5, 5), Rect(10, 10, 15, 15)])
        assert len(loops) == 2

    def test_plus_shape_has_twelve_vertices(self):
        plus = [Rect(10, 0, 20, 30), Rect(0, 10, 30, 20)]
        loops = boundary_edges(plus)
        assert len(loops) == 1
        assert len(loops[0]) == 12


class TestRectilinearPolygon:
    def test_requires_rect(self):
        with pytest.raises(ValueError):
            RectilinearPolygon([])

    def test_bbox(self):
        poly = RectilinearPolygon([Rect(0, 0, 5, 5), Rect(10, 10, 20, 12)])
        assert poly.bbox == Rect(0, 0, 20, 12)

    def test_area_deduplicates_overlap(self):
        poly = RectilinearPolygon([Rect(0, 0, 10, 10), Rect(5, 0, 15, 10)])
        assert poly.area == 150

    def test_contains_point(self):
        poly = RectilinearPolygon([Rect(0, 0, 10, 10)])
        assert poly.contains_point(Point(10, 10))
        assert not poly.contains_point(Point(11, 10))

    def test_contains_rect_across_slabs(self):
        # An L-shape: a rect spanning both legs near the corner.
        poly = RectilinearPolygon([Rect(0, 0, 100, 40), Rect(0, 0, 40, 100)])
        assert poly.contains_rect(Rect(0, 0, 40, 100))
        assert poly.contains_rect(Rect(10, 10, 30, 90))
        assert not poly.contains_rect(Rect(10, 10, 50, 90))

    def test_is_single_rect(self):
        assert RectilinearPolygon([Rect(0, 0, 10, 10)]).is_single_rect()
        assert RectilinearPolygon(
            [Rect(0, 0, 10, 10), Rect(0, 5, 10, 20)]
        ).is_single_rect()
        assert not RectilinearPolygon(
            [Rect(0, 0, 10, 10), Rect(20, 0, 30, 10)]
        ).is_single_rect()
