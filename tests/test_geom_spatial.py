"""Unit tests for the grid spatial index."""

import pytest

from repro.geom.rect import Rect
from repro.geom.spatial import GridIndex


def payloads(index, window):
    """The payloads of ``index.query_pairs(window)``, in its order."""
    return [payload for _, payload in index.query_pairs(window)]


class TestGridIndex:
    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            GridIndex(bucket=0)

    def test_empty_query(self):
        index = GridIndex(bucket=100)
        assert payloads(index, Rect(0, 0, 1000, 1000)) == []

    def test_basic_hit_and_miss(self):
        index = GridIndex(bucket=100)
        index.insert(Rect(10, 10, 20, 20), "a")
        assert payloads(index, Rect(0, 0, 15, 15)) == ["a"]
        assert payloads(index, Rect(500, 500, 600, 600)) == []

    def test_closed_touch_counts(self):
        index = GridIndex(bucket=100)
        index.insert(Rect(0, 0, 10, 10), "a")
        assert payloads(index, Rect(10, 10, 20, 20)) == ["a"]

    def test_no_duplicates_for_multibucket_shape(self):
        index = GridIndex(bucket=10)
        index.insert(Rect(0, 0, 100, 100), "big")
        hits = payloads(index, Rect(0, 0, 100, 100))
        assert hits == ["big"]

    def test_negative_coordinates(self):
        index = GridIndex(bucket=100)
        index.insert(Rect(-250, -250, -150, -150), "neg")
        assert payloads(index, Rect(-200, -200, -100, -100)) == ["neg"]
        assert payloads(index, Rect(0, 0, 100, 100)) == []

    def test_query_pairs_returns_rects(self):
        index = GridIndex(bucket=100)
        r = Rect(0, 0, 10, 10)
        index.insert(r, "a")
        assert index.query_pairs(Rect(0, 0, 5, 5)) == [(r, "a")]

    def test_deterministic_order(self):
        index = GridIndex(bucket=50)
        rects = [Rect(i * 10, 0, i * 10 + 5, 5) for i in range(20)]
        for k, r in enumerate(rects):
            index.insert(r, k)
        hits = payloads(index, Rect(0, 0, 200, 10))
        assert hits == sorted(hits)

    def test_len_and_all_items(self):
        index = GridIndex(bucket=100)
        index.insert(Rect(0, 0, 1, 1), "x")
        index.insert(Rect(5, 5, 6, 6), "y")
        assert len(index) == 2
        assert [p for _, p in index.all_items()] == ["x", "y"]

    def test_many_shapes_window_query(self):
        index = GridIndex(bucket=100)
        for i in range(100):
            index.insert(Rect(i * 100, 0, i * 100 + 50, 50), i)
        hits = payloads(index, Rect(1000, 0, 1500, 50))
        assert hits == [10, 11, 12, 13, 14, 15]
