"""Bucketed spatial index for region queries.

The DRC engine and the router both need "give me every shape whose
bounding box intersects this window" queries over tens of thousands of
rectangles.  A uniform grid of buckets is simple, deterministic and
fast for the IC layout case where shapes are small relative to the die.
"""

from __future__ import annotations

from repro.geom.rect import Rect
from repro.obs.metrics import tick


class GridIndex:
    """A uniform-grid spatial index mapping rects to arbitrary payloads.

    ``bucket`` is the grid pitch in DBU.  Queries return hits sorted
    by rectangle (ties broken by insertion order), which keeps every
    query deterministic.

    The sort order is precomputed: inserts mark the index dirty and
    the first query after a batch of inserts ranks all items once by
    rectangle.  Queries then dedup + order by plain integer rank --
    the per-query ``O(h log h)`` comparison sort over ``Rect``
    dataclasses (field-by-field tuple comparisons, the old hot spot)
    becomes an integer sort.  The build-then-query-heavily usage
    pattern of DRC contexts amortizes the ranking to nothing.
    """

    def __init__(self, bucket: int = 10000):
        if bucket <= 0:
            raise ValueError("bucket size must be positive")
        self._bucket = bucket
        self._cells = {}
        self._items = []  # (rect, payload) in insertion order
        self._order = None  # item indices sorted by (rect, insertion)
        self._rank = None   # inverse permutation of _order

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, rect: Rect, payload) -> None:
        """Index ``payload`` under ``rect``."""
        idx = len(self._items)
        self._items.append((rect, payload))
        self._order = None
        for key in self._keys(rect):
            self._cells.setdefault(key, []).append(idx)

    def query(self, window: Rect) -> list:
        """Return payloads whose rect intersects ``window`` (closed)."""
        return [payload for _, payload in self.query_pairs(window)]

    def query_pairs(self, window: Rect) -> list:
        """Return ``(rect, payload)`` pairs intersecting ``window``."""
        tick("grid.query")
        if self._order is None:
            self._build_order()
        items = self._items
        rank = self._rank
        seen = set()
        ranks = []
        for key in self._keys(window):
            for idx in self._cells.get(key, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                if items[idx][0].intersects(window):
                    ranks.append(rank[idx])
        ranks.sort()
        order = self._order
        return [items[order[r]] for r in ranks]

    def _build_order(self) -> None:
        items = self._items
        # sorted() is stable, so equal rects keep insertion order --
        # exactly the tie-break the old per-query pair sort produced.
        self._order = sorted(
            range(len(items)), key=lambda i: items[i][0]
        )
        rank = [0] * len(items)
        for position, idx in enumerate(self._order):
            rank[idx] = position
        self._rank = rank

    def all_items(self) -> list:
        """Return every ``(rect, payload)`` pair in insertion order."""
        return list(self._items)

    def _keys(self, rect: Rect):
        b = self._bucket
        for ix in range(rect.xlo // b, rect.xhi // b + 1):
            for iy in range(rect.ylo // b, rect.yhi // b + 1):
                yield (ix, iy)
