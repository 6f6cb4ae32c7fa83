"""Property-based tests (hypothesis) for the geometry substrate."""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arraykernel import _union_any_short
from repro.drc.minstep import check_min_step
from repro.drc.violations import Violation
from repro.geom.interval import Interval, union_intervals
from repro.geom.maxrect import maximal_rectangles
from repro.geom.point import Point
from repro.geom.polygon import (
    RectilinearPolygon,
    boundary_edges,
    merge_rects,
    union_area,
)
from repro.geom.rect import Rect
from repro.geom.spatial import GridIndex
from repro.geom.transform import Orientation, Transform
from repro.tech.layer import Layer, LayerKind
from repro.tech.rules import MinStepRule

coords = st.integers(min_value=-500, max_value=500)


@st.composite
def rects(draw, max_size=200):
    x = draw(coords)
    y = draw(coords)
    w = draw(st.integers(min_value=1, max_value=max_size))
    h = draw(st.integers(min_value=1, max_value=max_size))
    return Rect(x, y, x + w, y + h)


@st.composite
def intervals(draw):
    lo = draw(coords)
    length = draw(st.integers(min_value=0, max_value=300))
    return Interval(lo, lo + length)


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlap_length(b) == b.overlap_length(a)
        assert a.distance(b) == b.distance(a)

    @given(intervals(), intervals())
    def test_distance_zero_iff_overlapping(self, a, b):
        assert (a.distance(b) == 0) == a.overlaps(b)

    @given(st.lists(intervals(), max_size=10))
    def test_union_covers_inputs(self, ivs):
        merged = union_intervals(ivs)
        for iv in ivs:
            assert any(m.contains_interval(iv) for m in merged)

    @given(st.lists(intervals(), min_size=1, max_size=10))
    def test_union_output_disjoint_and_sorted(self, ivs):
        merged = union_intervals(ivs)
        for a, b in zip(merged, merged[1:]):
            assert a.hi < b.lo


class TestRectProperties:
    @given(rects(), rects())
    def test_distance_symmetry(self, a, b):
        assert a.distance(b) == b.distance(a)
        assert a.prl(b) == b.prl(a)

    @given(rects(), rects())
    def test_intersects_iff_distance_zero(self, a, b):
        assert a.intersects(b) == (a.distance(b) == 0)

    @given(rects(), rects())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_rect(a) and hull.contains_rect(b)

    @given(rects(), st.integers(min_value=0, max_value=50))
    def test_bloat_contains_original(self, r, amount):
        assert r.bloated(amount).contains_rect(r)


class TestPolygonProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(rects(max_size=60), min_size=1, max_size=6))
    def test_merge_preserves_area(self, rs):
        merged = merge_rects(rs)
        # Disjointness means summed area equals union area; compare
        # against an independent brute-force union area on a grid of
        # elementary cells.
        xs = sorted({r.xlo for r in rs} | {r.xhi for r in rs})
        ys = sorted({r.ylo for r in rs} | {r.yhi for r in rs})
        expected = 0
        for x0, x1 in zip(xs, xs[1:]):
            for y0, y1 in zip(ys, ys[1:]):
                cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
                if any(r.xlo < cx < r.xhi and r.ylo < cy < r.yhi for r in rs):
                    expected += (x1 - x0) * (y1 - y0)
        assert sum(r.area for r in merged) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(rects(max_size=60), min_size=1, max_size=5))
    def test_merged_rects_disjoint(self, rs):
        merged = merge_rects(rs)
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                assert not merged[i].overlaps(merged[j])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rects(max_size=60), min_size=1, max_size=4))
    def test_boundary_loops_close(self, rs):
        for loop in boundary_edges(rs):
            assert len(loop) >= 4
            # Each consecutive pair differs in exactly one axis.
            n = len(loop)
            for k in range(n):
                a, b = loop[k], loop[(k + 1) % n]
                assert (a[0] == b[0]) != (a[1] == b[1])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(rects(max_size=60), min_size=1, max_size=4))
    def test_maximal_rects_contained_and_cover(self, rs):
        poly = RectilinearPolygon(rs)
        out = maximal_rectangles(poly)
        assert out
        for rect in out:
            assert poly.contains_rect(rect)
        # Every input rect is covered by some maximal rect extension:
        # at minimum, total maximal area >= largest input rect area.
        assert max(r.area for r in out) >= max(
            min(r.area for r in out), 1
        )


# -- reference boundary walk -------------------------------------------------
#
# The object-based walk the production integer kernel replaced, kept
# verbatim as the oracle: midpoint cover test, Point/_Edge segments,
# stitching by object identity, then a collinear merge.


@dataclass
class _Edge:
    """A directed boundary edge with the interior on its left."""

    start: Point
    end: Point


def reference_boundary_edges(rects: list) -> list:
    """Boundary loops of the union of ``rects`` as lists of Points."""
    if not rects:
        return []
    xs = sorted({r.xlo for r in rects} | {r.xhi for r in rects})
    ys = sorted({r.ylo for r in rects} | {r.yhi for r in rects})

    def covered(i: int, j: int) -> bool:
        if i < 0 or j < 0 or i >= len(xs) - 1 or j >= len(ys) - 1:
            return False
        cx = (xs[i] + xs[i + 1]) / 2.0
        cy = (ys[j] + ys[j + 1]) / 2.0
        return any(r.xlo < cx < r.xhi and r.ylo < cy < r.yhi for r in rects)

    cover = [
        [covered(i, j) for j in range(len(ys) - 1)] for i in range(len(xs) - 1)
    ]

    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys)):
            above = cover[i][j] if j < len(ys) - 1 else False
            below = cover[i][j - 1] if j > 0 else False
            if above and not below:
                segments.append(
                    _Edge(Point(xs[i], ys[j]), Point(xs[i + 1], ys[j]))
                )
            elif below and not above:
                segments.append(
                    _Edge(Point(xs[i + 1], ys[j]), Point(xs[i], ys[j]))
                )
    for i in range(len(xs)):
        for j in range(len(ys) - 1):
            right = cover[i][j] if i < len(xs) - 1 else False
            left = cover[i - 1][j] if i > 0 else False
            if left and not right:
                segments.append(
                    _Edge(Point(xs[i], ys[j]), Point(xs[i], ys[j + 1]))
                )
            elif right and not left:
                segments.append(
                    _Edge(Point(xs[i], ys[j + 1]), Point(xs[i], ys[j]))
                )
    return _stitch_loops(segments)


def _stitch_loops(segments: list) -> list:
    outgoing = {}
    for seg in segments:
        outgoing.setdefault(seg.start, []).append(seg)
    loops = []
    used = set()
    for seg in segments:
        if id(seg) in used:
            continue
        loop = [seg.start]
        current = seg
        while True:
            used.add(id(current))
            loop.append(current.end)
            if current.end == loop[0]:
                break
            candidates = [
                s for s in outgoing.get(current.end, []) if id(s) not in used
            ]
            if not candidates:
                break
            # At a degenerate 4-way corner prefer the sharpest left turn.
            current = min(candidates, key=lambda s: _turn_key(current, s))
        loops.append(_merge_collinear(loop))
    return loops


def _turn_key(incoming: _Edge, outgoing: _Edge) -> int:
    din = (_sign(incoming.end.x - incoming.start.x),
           _sign(incoming.end.y - incoming.start.y))
    dout = (_sign(outgoing.end.x - outgoing.start.x),
            _sign(outgoing.end.y - outgoing.start.y))
    return -(din[0] * dout[1] - din[1] * dout[0])


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _merge_collinear(loop: list) -> list:
    if len(loop) < 3:
        return loop
    pts = loop[:-1]
    merged = []
    n = len(pts)
    for k in range(n):
        prev_pt, cur, nxt = pts[k - 1], pts[k], pts[(k + 1) % n]
        collinear = (prev_pt.x == cur.x == nxt.x) or (
            prev_pt.y == cur.y == nxt.y
        )
        if not collinear:
            merged.append(cur)
    return merged


def reference_check_min_step(layer, rects: list, label: str) -> list:
    """Min-step as checked on the reference walk's Point loops."""
    rule = layer.min_step
    if rule is None or not rects:
        return []
    violations = []
    for loop in reference_boundary_edges(rects):
        n = len(loop)
        if n < 4:
            continue
        short = [
            abs(loop[k].x - loop[(k + 1) % n].x)
            + abs(loop[k].y - loop[(k + 1) % n].y)
            < rule.min_step_length
            for k in range(n)
        ]
        if all(short):
            violations.append(_marker(layer, loop, label))
            continue
        start = short.index(False)
        run = 0
        run_start = None
        for offset in range(1, n + 1):
            k = (start + offset) % n
            if short[k]:
                if run == 0:
                    run_start = k
                run += 1
            else:
                if run > rule.max_edges:
                    pts = [loop[(run_start + i) % n] for i in range(run + 1)]
                    violations.append(_marker(layer, pts, label))
                run = 0
        if run > rule.max_edges:
            pts = [loop[(run_start + i) % n] for i in range(run + 1)]
            violations.append(_marker(layer, pts, label))
    return violations


def _marker(layer, pts: list, label: str) -> Violation:
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return Violation(
        rule="min-step",
        layer_name=layer.name,
        marker=Rect(min(xs), min(ys), max(xs), max(ys)),
        objects=(label,),
    )


# -- generated rect sets ------------------------------------------------------
#
# Coordinates come from a coarse lattice often, so edges coincide, rects
# touch and corners meet; zero-width and zero-height rects are allowed.

lattice = st.integers(min_value=-4, max_value=4).map(lambda k: 10 * k)
anywhere = st.integers(min_value=-45, max_value=45)


@st.composite
def loose_rect(draw):
    coord = draw(st.sampled_from([lattice, anywhere]))
    x0, x1, y0, y1 = (draw(coord) for _ in range(4))
    return Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


@st.composite
def ring(draw):
    """Four rects around a hole."""
    x, y = draw(lattice), draw(lattice)
    t = draw(st.integers(min_value=1, max_value=12))
    hole = draw(st.integers(min_value=1, max_value=25))
    far = hole + 2 * t
    return [
        Rect(x, y, x + far, y + t),
        Rect(x, y + t + hole, x + far, y + far),
        Rect(x, y + t, x + t, y + t + hole),
        Rect(x + t + hole, y + t, x + far, y + t + hole),
    ]


@st.composite
def corner_pair(draw):
    """Two rects meeting at a single 4-way corner point."""
    x, y = draw(lattice), draw(lattice)
    w1, h1, w2, h2 = (
        draw(st.integers(min_value=1, max_value=30)) for _ in range(4)
    )
    if draw(st.booleans()):
        return [Rect(x - w1, y - h1, x, y), Rect(x, y, x + w2, y + h2)]
    return [Rect(x - w1, y, x, y + h1), Rect(x, y - h2, x + w2, y)]


rect_sets = st.lists(
    st.one_of(
        st.lists(loose_rect(), min_size=1, max_size=3),
        ring(),
        corner_pair(),
    ),
    min_size=1,
    max_size=3,
).map(lambda parts: [r for part in parts for r in part])


def _min_step_layer(length: int, max_edges: int) -> Layer:
    return Layer(
        name="M1",
        kind=LayerKind.ROUTING,
        min_step=MinStepRule(min_step_length=length, max_edges=max_edges),
    )


class TestIntegerGeometryMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(rect_sets)
    def test_boundary_edges_equal_reference_walk(self, rs):
        expected = [
            [(p.x, p.y) for p in loop] for loop in reference_boundary_edges(rs)
        ]
        assert boundary_edges(rs) == expected

    @settings(max_examples=200, deadline=None)
    @given(rect_sets)
    def test_union_area_equals_merged_area(self, rs):
        assert union_area(rs) == sum(r.area for r in merge_rects(rs))
        assert RectilinearPolygon(rs).area == union_area(rs)

    @settings(max_examples=300, deadline=None)
    @given(
        rect_sets,
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2),
    )
    def test_min_step_equals_reference(self, rs, length, max_edges):
        layer = _min_step_layer(length, max_edges)
        assert check_min_step(layer, rs, "net") == reference_check_min_step(
            layer, rs, "net"
        )

    @settings(max_examples=300, deadline=None)
    @given(rect_sets, st.integers(min_value=1, max_value=40))
    def test_union_any_short_iff_a_loop_edge_is_short(self, rs, length):
        short_edge = any(
            abs(a.x - b.x) + abs(a.y - b.y) < length
            for loop in reference_boundary_edges(rs)
            for a, b in zip(loop, loop[1:] + loop[:1])
        )
        assert _union_any_short(rs, length) == short_edge


# -- spatial index -----------------------------------------------------------


@st.composite
def index_case(draw):
    """A bucket pitch, rects to insert (two batches) and query windows
    that span 1, 2 or 4 buckets, over negative and positive coords."""
    b = draw(st.sampled_from([7, 10, 40]))
    coord = st.integers(min_value=-60, max_value=60)
    size = st.integers(min_value=0, max_value=30)

    def rect():
        x, y = draw(coord), draw(coord)
        return Rect(x, y, x + draw(size), y + draw(size))

    batches = [
        [rect() for _ in range(draw(st.integers(0, 25)))] for _ in range(2)
    ]
    windows = []
    for _ in range(draw(st.integers(1, 6))):
        ix, iy = draw(st.integers(-7, 6)), draw(st.integers(-7, 6))
        nx, ny = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
        xlo = ix * b + draw(st.integers(0, b - 1))
        ylo = iy * b + draw(st.integers(0, b - 1))
        xhi = max(xlo, (ix + nx - 1) * b + draw(st.integers(0, b - 1)))
        yhi = max(ylo, (iy + ny - 1) * b + draw(st.integers(0, b - 1)))
        windows.append(Rect(xlo, ylo, xhi, yhi))
    return b, batches, windows


class TestGridIndexMatchesBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(index_case())
    def test_query_pairs_equal_sorted_filter(self, case):
        b, batches, windows = case
        index = GridIndex(bucket=b)
        items = []
        for batch in batches:
            # The second batch lands after queries have built the index.
            for rect in batch:
                payload = len(items)
                index.insert(rect, payload)
                items.append((rect, payload))
            for window in windows:
                expected = sorted(
                    (pair for pair in items if pair[0].intersects(window)),
                    key=lambda pair: (pair[0], pair[1]),
                )
                assert index.query_pairs(window) == expected
        assert len(index) == len(items)
        assert index.all_items() == items


class TestTransformProperties:
    @given(rects(max_size=100), st.sampled_from(list(Orientation)))
    def test_rect_roundtrip_dims(self, r, orient):
        t = Transform(Point(0, 0), orient, 600, 600)
        got = t.apply_rect(r)
        if orient.swaps_axes:
            assert (got.width, got.height) == (r.height, r.width)
        else:
            assert (got.width, got.height) == (r.width, r.height)
