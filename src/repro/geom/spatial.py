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

    Inserts only append.  The first query after any inserts indexes
    everything at once: it sorts the items by rectangle (a stable sort,
    so equal rects keep insertion order) and fills each bucket with the
    item ranks in that order.  A window inside one bucket then scans
    one presorted list; a window over several buckets dedups its ranks
    and sorts them.  An index that is never queried is never bucketed.
    """

    def __init__(self, bucket: int = 10000):
        if bucket <= 0:
            raise ValueError("bucket size must be positive")
        self._bucket = bucket
        self._items = []  # (rect, payload) in insertion order
        self._sorted = None  # (rect, payload) by (rect, insertion)
        self._cells = None  # bucket -> ascending ranks into _sorted

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, rect: Rect, payload) -> None:
        """Index ``payload`` under ``rect``."""
        self._items.append((rect, payload))
        self._sorted = None

    def query_pairs(self, window: Rect) -> list:
        """Return ``(rect, payload)`` pairs intersecting ``window`` (closed).

        The list is new on every call; its pairs are the index's own.
        """
        tick("grid.query")
        if self._sorted is None:
            self._build()
        items = self._sorted
        cells = self._cells
        b = self._bucket
        wxlo, wylo, wxhi, wyhi = window.xlo, window.ylo, window.xhi, window.yhi
        ix0, ix1 = wxlo // b, wxhi // b
        iy0, iy1 = wylo // b, wyhi // b
        if ix0 == ix1 and iy0 == iy1:
            ranks = cells.get((ix0, iy0), ())
        else:
            hits = set()
            for ix in range(ix0, ix1 + 1):
                for iy in range(iy0, iy1 + 1):
                    hits.update(cells.get((ix, iy), ()))
            ranks = sorted(hits)
        out = []
        for r in ranks:
            pair = items[r]
            rect = pair[0]
            if (
                rect.xlo <= wxhi
                and wxlo <= rect.xhi
                and rect.ylo <= wyhi
                and wylo <= rect.yhi
            ):
                out.append(pair)
        return out

    def _build(self) -> None:
        # sorted() is stable, so equal rects keep insertion order.
        self._sorted = items = sorted(self._items, key=_rect_order)
        b = self._bucket
        cells = {}
        for rank, (rect, _) in enumerate(items):
            for ix in range(rect.xlo // b, rect.xhi // b + 1):
                for iy in range(rect.ylo // b, rect.yhi // b + 1):
                    cells.setdefault((ix, iy), []).append(rank)
        self._cells = cells

    def all_items(self) -> list:
        """Return every ``(rect, payload)`` pair in insertion order."""
        return list(self._items)


def _rect_order(item) -> tuple:
    """Sort key of an item: its rect's fields, the order ``Rect`` sorts by."""
    rect = item[0]
    return rect.xlo, rect.ylo, rect.xhi, rect.yhi
