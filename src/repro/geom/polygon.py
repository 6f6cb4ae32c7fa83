"""Rectilinear polygons as unions of rectangles.

Pin shapes in LEF are given as one or more (possibly overlapping)
rectangles per layer.  The DRC engine needs two derived views:

* a *disjoint decomposition* (:func:`merge_rects`) for area and coverage
  computations, and
* the *outer boundary* (:func:`boundary_edges`) as ordered edge loops,
  which is what min-step checking walks (paper Figure 3: a via
  enclosure that partially overhangs a pin shape creates short boundary
  edges, i.e. min-step violations).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress

from repro.geom.interval import Interval, union_intervals
from repro.geom.point import Point
from repro.geom.rect import Rect


def merge_rects(rects: list) -> list:
    """Decompose the union of ``rects`` into disjoint horizontal slabs.

    Returns a list of non-overlapping :class:`Rect` whose union equals
    the union of the inputs.  Slabs are maximal in x and split at every
    distinct y coordinate of the input, sorted bottom-to-top then
    left-to-right, so the output is deterministic.
    """
    if not rects:
        return []
    ys = sorted({r.ylo for r in rects} | {r.yhi for r in rects})
    slabs = []
    for ylo, yhi in zip(ys, ys[1:]):
        ymid = (ylo + yhi) / 2.0
        xivs = [
            Interval(r.xlo, r.xhi)
            for r in rects
            if r.ylo < ymid < r.yhi
        ]
        for iv in union_intervals(xivs):
            slabs.append(Rect(iv.lo, ylo, iv.hi, yhi))
    return _coalesce_slabs(slabs)


def _coalesce_slabs(slabs: list) -> list:
    """Vertically merge slabs that share identical x spans and abut in y."""
    by_xspan = {}
    for slab in slabs:
        by_xspan.setdefault((slab.xlo, slab.xhi), []).append(slab)
    merged = []
    for (xlo, xhi), group in by_xspan.items():
        group.sort(key=lambda r: r.ylo)
        current = group[0]
        for nxt in group[1:]:
            if nxt.ylo == current.yhi:
                current = Rect(xlo, current.ylo, xhi, nxt.yhi)
            else:
                merged.append(current)
                current = nxt
        merged.append(current)
    merged.sort(key=lambda r: (r.ylo, r.xlo))
    return merged


def covered_cells(rects: list) -> tuple:
    """Return ``(xs, ys, cov)``: the union of ``rects`` on its own grid.

    ``xs`` and ``ys`` are the sorted distinct rect coordinates
    (degenerate rects included) and ``cov[i][j]`` is True when the
    elementary cell ``[xs[i], xs[i+1]] x [ys[j], ys[j+1]]`` lies inside
    the union.  This grid backs :func:`boundary_edges`,
    :func:`union_area` and the array kernel's min-step sweep.
    """
    xs = sorted({c for r in rects for c in (r.xlo, r.xhi)})
    ys = sorted({c for r in rects for c in (r.ylo, r.yhi)})
    cov = [[False] * (len(ys) - 1) for _ in range(len(xs) - 1)]
    for r in rects:
        j0 = bisect_left(ys, r.ylo)
        j1 = bisect_left(ys, r.yhi)
        fill = [True] * (j1 - j0)
        for i in range(bisect_left(xs, r.xlo), bisect_left(xs, r.xhi)):
            cov[i][j0:j1] = fill
    return xs, ys, cov


def union_area(rects: list) -> int:
    """Return the area of the union of ``rects``."""
    xs, ys, cov = covered_cells(rects)
    heights = [b - a for a, b in zip(ys, ys[1:])]
    return sum(
        (xs[i + 1] - xs[i]) * sum(compress(heights, col))
        for i, col in enumerate(cov)
    )


def boundary_edges(rects: list) -> list:
    """Return the boundary loops of the union of ``rects``.

    Each loop is a list of ``(x, y)`` int tuples in order, with the
    polygon interior on the left of the direction of travel (outer
    loops counterclockwise, hole loops clockwise).  Consecutive
    collinear edges are merged, so every returned edge is a genuine
    boundary edge with a corner at each end — exactly what min-step
    checking needs.

    The unit boundary segments of the :func:`covered_cells` grid are
    stitched in a fixed order (horizontal segments column by column,
    then vertical ones), each loop starting at the first unused
    segment and listed from the first corner at or after its start.
    """
    if not rects:
        return []
    xs, ys, cov = covered_cells(rects)
    nx = len(xs) - 1
    ny = len(ys) - 1
    # Grid point (xs[i], ys[j]) is vertex i * h + j.  Directions are
    # 0 east, 1 north, 2 west, 3 south: (d + 1) % 4 turns left.
    h = ny + 1
    starts = []
    ends = []
    dirs = []
    for i in range(nx):
        col = cov[i]
        below = False
        for j in range(h):
            above = j < ny and col[j]
            if above != below:
                v = i * h + j
                if above:
                    starts.append(v)
                    ends.append(v + h)
                    dirs.append(0)
                else:
                    starts.append(v + h)
                    ends.append(v)
                    dirs.append(2)
            below = above
    outside = [False] * ny
    for i in range(nx + 1):
        left = cov[i - 1] if i > 0 else outside
        right = cov[i] if i < nx else outside
        for j in range(ny):
            if left[j] != right[j]:
                v = i * h + j
                if left[j]:
                    starts.append(v)
                    ends.append(v + 1)
                    dirs.append(1)
                else:
                    starts.append(v + 1)
                    ends.append(v)
                    dirs.append(3)

    outgoing = {}
    for seg, v in enumerate(starts):
        outgoing.setdefault(v, []).append(seg)
    used = [False] * len(starts)
    loops = []
    for first in range(len(starts)):
        if used[first]:
            continue
        origin = starts[first]
        walk = []
        seg = first
        while True:
            used[seg] = True
            walk.append(seg)
            v = ends[seg]
            if v == origin:
                break
            candidates = outgoing[v]
            if len(candidates) > 1:
                # At a degenerate 4-way corner prefer the sharpest left
                # turn so distinct loops never get cross-stitched.
                turn = dirs[seg] + 1
                seg = min(
                    (s for s in candidates if not used[s]),
                    key=lambda s: (turn - dirs[s]) % 4,
                )
            else:
                seg = candidates[0]
        loop = []
        prev = dirs[walk[-1]]
        for seg in walk:
            d = dirs[seg]
            if d != prev:
                i, j = divmod(starts[seg], h)
                loop.append((xs[i], ys[j]))
            prev = d
        loops.append(loop)
    return loops


@dataclass
class RectilinearPolygon:
    """The union of a set of rectangles, with cached derived views.

    This is the shape model for pins and merged metal: LEF pins supply
    overlapping rectangles; the polygon exposes the disjoint
    decomposition, union area, bounding box and point membership.
    """

    rects: list
    _merged: list = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rects:
            raise ValueError("polygon requires at least one rect")

    @property
    def merged(self) -> list:
        """Return the disjoint slab decomposition (cached)."""
        if self._merged is None:
            self._merged = merge_rects(self.rects)
        return self._merged

    @property
    def bbox(self) -> Rect:
        """Return the bounding rectangle of the union."""
        r = self.rects[0]
        xlo, ylo, xhi, yhi = r.xlo, r.ylo, r.xhi, r.yhi
        for r in self.rects[1:]:
            xlo = min(xlo, r.xlo)
            ylo = min(ylo, r.ylo)
            xhi = max(xhi, r.xhi)
            yhi = max(yhi, r.yhi)
        return Rect(xlo, ylo, xhi, yhi)

    @property
    def area(self) -> int:
        """Return the union area."""
        return union_area(self.rects)

    def contains_point(self, p: Point) -> bool:
        """Return True if ``p`` lies inside or on the union boundary."""
        return any(r.contains_point(p) for r in self.rects)

    def contains_rect(self, rect: Rect) -> bool:
        """Return True if ``rect`` lies entirely inside the union.

        Checked against the slab decomposition: the part of ``rect``
        not yet covered must shrink to nothing.
        """
        remaining = [rect]
        for slab in self.merged:
            nxt = []
            for piece in remaining:
                if not piece.intersects(slab):
                    nxt.append(piece)
                    continue
                nxt.extend(_subtract(piece, slab))
            remaining = nxt
            if not remaining:
                return True
        return not remaining

    def is_single_rect(self) -> bool:
        """Return True if the union is exactly one rectangle."""
        return len(self.merged) == 1


def _subtract(piece: Rect, hole: Rect) -> list:
    """Return ``piece`` minus ``hole`` as up to four rects."""
    out = []
    inter = piece.intersection(hole)
    if inter.ylo > piece.ylo:
        out.append(Rect(piece.xlo, piece.ylo, piece.xhi, inter.ylo))
    if inter.yhi < piece.yhi:
        out.append(Rect(piece.xlo, inter.yhi, piece.xhi, piece.yhi))
    if inter.xlo > piece.xlo:
        out.append(Rect(piece.xlo, inter.ylo, inter.xlo, inter.yhi))
    if inter.xhi < piece.xhi:
        out.append(Rect(inter.xhi, inter.ylo, piece.xhi, inter.yhi))
    return [r for r in out if r.width > 0 and r.height > 0]
