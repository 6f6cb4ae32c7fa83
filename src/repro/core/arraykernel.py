"""Compiled per-cell occupancy tables for Steps 1-3 (the array kernel).

The pair kernel (PR 2) proved that a DRC verdict depending only on a
*relative displacement* can be compiled once into integer tests and
then answered with zero engine calls.  This module extends that idea
from via *pairs* to the two remaining per-candidate engine workloads:

* **Step 1 (Algorithm 1)** -- every candidate access point drops every
  via definition through ``DrcEngine.check_via_placement`` against the
  owning cell's intra-cell context.  The cell's shapes are *fixed* in
  the instance's frame and the via translates, so the whole check (bar
  min-step, below) is again a function of the displacement ``(x - ox,
  y - oy)`` from the instance origin -- and because the origin-relative
  geometry of an instance depends only on ``(master, orientation)``,
  one compiled :class:`CellTables` serves every unique instance of a
  master/orient combination and persists under the AP-cache
  fingerprint next to ``pairkernel.pkl``.

* **Step 3 boundary conflicts** -- :meth:`ArrayKernel.via_vs_instance_clean`
  is the same check with ``net_key=None`` and min-step off; it
  compiles to a second table per ``(master, orient, via)``.

The compiled form reuses the pair kernel's verified test records
(metal short + PRL spacing, EOL open boxes, cut spacing with the
identical-rect exemption) with the cell shape as the fixed ``A`` side
and the via enclosure/cut/planar stub as the moving ``B`` side.  On
top of the pointwise ``clean(dx, dy)`` verdict, :class:`SiteTable`
answers **whole candidate rows at once**: for a fixed row displacement
it first merges the active EOL boxes into sorted open *forbidden
intervals* along the moving axis, then rasterizes intervals and the
remaining pointwise tests into one integer **occupancy bitmask** over
the row's candidate coordinates -- Algorithm 1's validation becomes a
vectorized pass per (coordinate-type, rect) batch instead of a
per-candidate engine probe.

Min-step is the one check that is not pairwise (it walks the merged
boundary of the enclosure plus the pin metal it lands on), so it gets
a dedicated exact evaluator (:class:`MinStepTable`): with the node
presets' ``max_edges == 0`` the verdict reduces to "does the merged
outline have any maximal straight boundary run shorter than the rule
length", which a closed-form two-rectangle enumeration answers in the
dominant case and a coordinate-compressed parity sweep (mirroring
``repro.geom.polygon.boundary_edges``) answers in general.  Rules
with ``max_edges > 0`` fall back to the engine's loop walk.

Three modes mirror ``paircheck_mode``:

* ``array``  -- compiled tables only (the fast path, default);
* ``engine`` -- no tables: Step 1 callers use the DrcEngine, and
  :meth:`ArrayKernel.via_vs_instance_clean` asks the engine itself;
* ``verify`` -- compute both and raise :class:`ApCheckMismatch` on any
  divergence (the engine remains the oracle).

Step 2's flat-array DP lives in :class:`repro.core.dpgraph.FlatDp`
and runs in every mode; the kernel only counts its solves
(``dp_solves``).  The work counters (``candidates``, ``filtered``,
``minstep_engine``, ``dp_solves``) are plain ints on the kernel: the
framework reads them before and after a run and reports the
difference in ``result.stats`` and the metrics registry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.core.coords import candidate_coords
from repro.drc.engine import DrcEngine
from repro.drc.eol import eol_trigger_regions
from repro.drc.minstep import check_min_step
from repro.drc.pairkernel import (
    _BOX,
    _CUT,
    _METAL,
    _metal_test,
    _overlap_box,
    _reach_window,
)
from repro.geom.rect import Rect
from repro.obs.metrics import tick

APCHECK_MODES = ("array", "engine", "verify")


class ApCheckMismatch(RuntimeError):
    """An array-kernel verdict diverged from the DRC engine oracle."""


# -- compiled test evaluation -------------------------------------------------
#
# Test records are the pair kernel's formats verbatim (the math is
# pinned by tests/test_drc_pairkernel.py); the evaluators here add the
# row-batched form the pair kernel never needed.


def _metal_clean(test, dx: int, dy: int) -> bool:
    (_, axlo, aylo, axhi, ayhi,
     bxlo, bylo, bxhi, byhi, steps) = test
    ox = min(axhi, bxhi + dx) - max(axlo, bxlo + dx)
    oy = min(ayhi, byhi + dy) - max(aylo, bylo + dy)
    if ox > 0 and oy > 0:
        return False  # metal-short
    prl = ox if ox > oy else oy
    required = steps[0][1]
    for bound, spacing in steps:
        if prl >= bound:
            required = spacing
    gapx = -ox if ox < 0 else 0
    gapy = -oy if oy < 0 else 0
    if gapx > 0 and gapy > 0:
        return gapx * gapx + gapy * gapy >= required * required
    return (gapx if gapx > gapy else gapy) >= required


def _cut_clean(test, dx: int, dy: int) -> bool:
    (_, axlo, aylo, axhi, ayhi,
     bxlo, bylo, bxhi, byhi, spacing, skip) = test
    if skip is not None and dx == skip[0] and dy == skip[1]:
        return True  # the identical same-net cut is exempt
    ox = min(axhi, bxhi + dx) - max(axlo, bxlo + dx)
    oy = min(ayhi, byhi + dy) - max(aylo, bylo + dy)
    if ox > 0 and oy > 0:
        return False  # cut-short
    gapx = -ox if ox < 0 else 0
    gapy = -oy if oy < 0 else 0
    if gapx > 0 and gapy > 0:
        return gapx * gapx + gapy * gapy >= spacing * spacing
    return (gapx if gapx > gapy else gapy) >= spacing


def _merge_open_intervals(intervals: list) -> list:
    """Merge open intervals; endpoints that only touch stay split.

    ``(a, b)`` and ``(b, c)`` do *not* merge -- the point ``b`` is in
    neither, and a candidate sitting exactly on it must stay clean.
    """
    if not intervals:
        return []
    intervals.sort()
    merged = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo < merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return [tuple(pair) for pair in merged]


class SiteTable:
    """Compiled displacement tests of one moving shape-set vs one cell.

    ``window`` is the closed quick-reject hull, ``tests`` the tagged
    records and ``spans`` the per-test closed interaction windows
    (parallel to ``tests``) that power the row-batched form.  The
    per-row compilation -- merged forbidden intervals plus leftover
    pointwise tests -- is memoized in ``_rows`` and excluded from
    pickling (it rebuilds lazily in whatever process queries it).
    """

    __slots__ = ("window", "tests", "spans", "_rows", "_packed", "_memo")

    def __init__(self, window, tests, spans):
        self.window = window
        self.tests = tests
        self.spans = spans
        self._rows = {}
        self._packed = None
        self._memo = {}

    def __getstate__(self):
        return (self.window, self.tests, self.spans)

    def __setstate__(self, state):
        self.window, self.tests, self.spans = state
        self._rows = {}
        self._packed = None
        self._memo = {}

    def __eq__(self, other):
        return (
            isinstance(other, SiteTable)
            and self.window == other.window
            and self.tests == other.tests
            and self.spans == other.spans
        )

    def clean(self, dx: int, dy: int) -> bool:
        """Pointwise verdict for displacement ``(dx, dy)``."""
        window = self.window
        if window is None:
            return True
        if (
            dx < window[0]
            or dx > window[1]
            or dy < window[2]
            or dy > window[3]
        ):
            return True
        # Verdicts are pure in the displacement; identical offsets
        # recur across same-pitch placements, so memoize in-window
        # probes (the out-of-window fast path above stays unmemoized).
        memo = self._memo
        verdict = memo.get((dx, dy))
        if verdict is not None:
            return verdict
        packed = self._packed
        if packed is None:
            # Span bounds flattened next to their test: one tuple
            # unpack per iteration instead of a zip plus four
            # subscripts.  Lazy and unpickled-fresh, like ``_rows``.
            packed = self._packed = [
                (s[0], s[1], s[2], s[3], t)
                for t, s in zip(self.tests, self.spans)
            ]
        verdict = True
        for s0, s1, s2, s3, test in packed:
            if dx < s0 or dx > s1 or dy < s2 or dy > s3:
                continue
            kind = test[0]
            if kind == _BOX:
                if test[1] < dx < test[2] and test[3] < dy < test[4]:
                    verdict = False
                    break
            elif kind == _METAL:
                if not _metal_clean(test, dx, dy):
                    verdict = False
                    break
            else:
                if not _cut_clean(test, dx, dy):
                    verdict = False
                    break
        memo[(dx, dy)] = verdict
        return verdict

    def _row(self, fixed_is_y: bool, fixed: int) -> tuple:
        """Return ``(forbidden_intervals, pointwise_tests)`` for a row.

        Filters the table down to the tests whose fixed-axis window
        contains ``fixed``, merges the active EOL boxes into sorted
        open intervals on the moving axis, and keeps the metal/cut
        tests (whose dirty region is not an interval) with their
        moving-axis windows for pointwise evaluation.
        """
        key = (fixed_is_y, fixed)
        row = self._rows.get(key)
        if row is not None:
            return row
        intervals = []
        pointwise = []
        for test, spanw in zip(self.tests, self.spans):
            if fixed_is_y:
                flo, fhi = spanw[2], spanw[3]
                mlo, mhi = spanw[0], spanw[1]
            else:
                flo, fhi = spanw[0], spanw[1]
                mlo, mhi = spanw[2], spanw[3]
            if fixed < flo or fixed > fhi:
                continue
            if test[0] == _BOX:
                # The fixed-axis condition is strict for boxes.
                if fixed_is_y:
                    if test[3] < fixed < test[4]:
                        intervals.append((test[1], test[2]))
                else:
                    if test[1] < fixed < test[2]:
                        intervals.append((test[3], test[4]))
            else:
                pointwise.append((test, mlo, mhi))
        row = (_merge_open_intervals(intervals), pointwise)
        self._rows[key] = row
        return row

    def row_mask(self, fixed_is_y: bool, fixed: int, moving: list) -> int:
        """Occupancy bitmask over one candidate row.

        ``moving`` is the ascending list of candidate displacements on
        the moving axis (x when ``fixed_is_y``); bit ``i`` is set when
        candidate ``moving[i]`` is dirty.
        """
        window = self.window
        if window is None:
            return 0
        if fixed_is_y:
            if fixed < window[2] or fixed > window[3]:
                return 0
        elif fixed < window[0] or fixed > window[1]:
            return 0
        intervals, pointwise = self._row(fixed_is_y, fixed)
        mask = 0
        for lo, hi in intervals:
            i0 = bisect_right(moving, lo)
            i1 = bisect_left(moving, hi)
            if i0 < i1:
                mask |= ((1 << (i1 - i0)) - 1) << i0
        for test, mlo, mhi in pointwise:
            i0 = bisect_left(moving, mlo)
            i1 = bisect_right(moving, mhi)
            if test[0] == _METAL:
                for i in range(i0, i1):
                    if mask >> i & 1:
                        continue
                    d = moving[i]
                    dx, dy = (d, fixed) if fixed_is_y else (fixed, d)
                    if not _metal_clean(test, dx, dy):
                        mask |= 1 << i
            else:
                for i in range(i0, i1):
                    if mask >> i & 1:
                        continue
                    d = moving[i]
                    dx, dy = (d, fixed) if fixed_is_y else (fixed, d)
                    if not _cut_clean(test, dx, dy):
                        mask |= 1 << i
        return mask


_REACH_MEMO = {}


def _steps_reach(steps) -> int:
    """Max spacing of a spacing-table row (memoized by the row tuple).

    The reach depends only on the table row, which repeats across
    every shape of a layer; the memo turns the per-shape scan into a
    dict hit.
    """
    reach = _REACH_MEMO.get(steps)
    if reach is None:
        reach = max(s for _, s in steps)
        _REACH_MEMO[steps] = reach
    return reach


def _compile_metal_tests(tech, shapes_by_layer, layer_name, mrect, regions):
    """Metal/EOL tests of every shape on ``layer_name`` vs one moving rect.

    Returns ``(test, span, fpin)`` entries with the owning pin (None
    for obstructions) kept alongside: the per-pin same-net exemption is
    applied later, at assembly, so one compilation serves every pin of
    the cell plus the ``net_key=None`` Step 3 table.  ``regions``
    memoizes each fixed shape's EOL trigger regions, which depend only
    on ``(layer, shape)`` and not on the moving rect.
    """
    layer = tech.layer(layer_name)
    table = layer.spacing_table
    eol = layer.eol
    out = []
    if table is None and eol is None:
        return out
    moving_regions = ()
    if eol is not None:
        mkey = (layer_name, mrect.xlo, mrect.ylo, mrect.xhi, mrect.yhi)
        moving_regions = regions.get(mkey)
        if moving_regions is None:
            moving_regions = eol_trigger_regions(layer, mrect)
            regions[mkey] = moving_regions
    for frect, fpin in shapes_by_layer.get(layer_name, ()):
        # The (test, span) records depend only on the rect pair, not
        # on the owning pin; with a kernel-shared ``regions`` dict the
        # memo carries across cells (rail and power shapes repeat
        # between masters).
        pkey = (
            layer_name,
            frect.xlo, frect.ylo, frect.xhi, frect.yhi,
            mrect.xlo, mrect.ylo, mrect.xhi, mrect.yhi,
        )
        pair = regions.get(pkey)
        if pair is None:
            pair = []
            if table is not None:
                test = _metal_test(table, frect, mrect)
                pair.append((
                    test,
                    _reach_window(frect, mrect, _steps_reach(test[9])),
                ))
            if eol is not None:
                rkey = (
                    layer_name,
                    frect.xlo, frect.ylo, frect.xhi, frect.yhi,
                )
                fixed_regions = regions.get(rkey)
                if fixed_regions is None:
                    fixed_regions = eol_trigger_regions(layer, frect)
                    regions[rkey] = fixed_regions
                for region in fixed_regions:
                    test = _overlap_box(region, mrect)
                    pair.append((test, test[1:]))
                for region in moving_regions:
                    # The moving rect's trigger regions translate
                    # rigidly with it; Rect.overlaps is symmetric.
                    test = _overlap_box(frect, region)
                    pair.append((test, test[1:]))
            regions[pkey] = pair
        for test, span_ in pair:
            out.append((test, span_, fpin))
    return out


def _compile_cut_tests(tech, shapes_by_layer, cut_layer_name, cut):
    """Cut-spacing tests vs one moving cut, skip displacement deferred.

    Each entry is ``(test, span, fpin, skip)`` with the test compiled
    *without* the identical-rect exemption; ``skip`` carries the
    displacement that would be exempt if the shape turns out to belong
    to the probing pin.  Assembly grafts it in (tuple slot 10) only
    for same-pin shapes, matching the engine's same-net rule.
    """
    rule = tech.layer(cut_layer_name).cut_spacing
    out = []
    if rule is None:
        return out
    for frect, fpin in shapes_by_layer.get(cut_layer_name, ()):
        skip = None
        if frect.width == cut.width and frect.height == cut.height:
            skip = (frect.xlo - cut.xlo, frect.ylo - cut.ylo)
        out.append((
            (
                _CUT,
                frect.xlo, frect.ylo, frect.xhi, frect.yhi,
                cut.xlo, cut.ylo, cut.xhi, cut.yhi,
                rule.spacing, None,
            ),
            _reach_window(frect, cut, rule.spacing),
            fpin,
            skip,
        ))
    return out


def _group_entries(entries) -> dict:
    """Group compiled metal entries by owning pin, with per-group hulls.

    Assembling a per-pin table then costs one list-extend per *group*
    instead of one filter test per *entry*, and the window hull
    combines precomputed group hulls instead of rescanning every span.
    """
    acc = {}
    for test, span_, fpin in entries:
        group = acc.get(fpin)
        if group is None:
            group = acc[fpin] = ([], [])
        group[0].append(test)
        group[1].append(span_)
    groups = {}
    for fpin, (tests, spans) in acc.items():
        h0, h1, h2, h3 = spans[0]
        for s0, s1, s2, s3 in spans:
            if s0 < h0:
                h0 = s0
            if s1 > h1:
                h1 = s1
            if s2 < h2:
                h2 = s2
            if s3 > h3:
                h3 = s3
        groups[fpin] = (tests, spans, (h0, h1, h2, h3))
    return groups


def _merge_groups(a: dict, b: dict) -> dict:
    """Merge two grouped-entry dicts (the via's bottom + top layers)."""
    if not a:
        return b
    if not b:
        return a
    out = {
        fpin: (list(tests), list(spans), hull)
        for fpin, (tests, spans, hull) in a.items()
    }
    for fpin, (tests, spans, hull) in b.items():
        group = out.get(fpin)
        if group is None:
            out[fpin] = (tests, spans, hull)
            continue
        group[0].extend(tests)
        group[1].extend(spans)
        gh = group[2]
        out[fpin] = (
            group[0],
            group[1],
            (
                gh[0] if gh[0] < hull[0] else hull[0],
                gh[1] if gh[1] > hull[1] else hull[1],
                gh[2] if gh[2] < hull[2] else hull[2],
                gh[3] if gh[3] > hull[3] else hull[3],
            ),
        )
    return out


def _assemble_grouped(groups, cut_entries, own_pin) -> SiteTable:
    """Filter grouped entries for one probing pin into a SiteTable.

    ``own_pin`` names the probing net's pin: its shapes are exempt
    from metal/EOL exactly like the engine's same-net skip, and they
    donate the cut test's identical-rect skip displacement.
    ``own_pin=None`` reproduces the ``net_key=None`` call (Step 3):
    *every* shape is foreign to metal/EOL while obstruction cuts take
    the skip role.
    """
    tests = []
    spans = []
    window = None
    for fpin, (gtests, gspans, hull) in groups.items():
        if own_pin is not None and fpin == own_pin:
            continue
        tests.extend(gtests)
        spans.extend(gspans)
        if window is None:
            window = hull
        else:
            window = (
                hull[0] if hull[0] < window[0] else window[0],
                hull[1] if hull[1] > window[1] else window[1],
                hull[2] if hull[2] < window[2] else window[2],
                hull[3] if hull[3] > window[3] else window[3],
            )
    for test, span_, fpin, skip in cut_entries:
        if skip is not None and fpin == own_pin:
            test = test[:10] + (skip,)
        tests.append(test)
        spans.append(span_)
        if window is None:
            window = span_
        else:
            window = (
                span_[0] if span_[0] < window[0] else window[0],
                span_[1] if span_[1] > window[1] else window[1],
                span_[2] if span_[2] < window[2] else window[2],
                span_[3] if span_[3] > window[3] else window[3],
            )
    if not tests:
        return SiteTable(None, (), ())
    return SiteTable(window, tuple(tests), tuple(spans))


def _shapes_by_layer(shapes) -> dict:
    by_layer = {}
    for layer_name, rect, pin_name in shapes:
        by_layer.setdefault(layer_name, []).append((rect, pin_name))
    return by_layer


# -- min-step ----------------------------------------------------------------


def _union_any_short(rects: list, length: int) -> bool:
    """Does the union of ``rects`` have a boundary run below ``length``?

    Coordinate-compressed parity sweep over the same covered-cell
    grid as :func:`repro.geom.polygon.boundary_edges`: a grid-line
    segment is boundary when exactly one side is covered, and maximal
    same-oriented contiguous runs on a line are exactly the merged
    loop edges the engine's walk measures.
    """
    rects = [r for r in rects if r.xhi > r.xlo and r.yhi > r.ylo]
    if not rects:
        return False
    xs = sorted({c for r in rects for c in (r.xlo, r.xhi)})
    ys = sorted({c for r in rects for c in (r.ylo, r.yhi)})
    nx = len(xs) - 1
    ny = len(ys) - 1
    cov = [[False] * ny for _ in range(nx)]
    for r in rects:
        i0 = bisect_left(xs, r.xlo)
        i1 = bisect_left(xs, r.xhi)
        j0 = bisect_left(ys, r.ylo)
        j1 = bisect_left(ys, r.yhi)
        for i in range(i0, i1):
            row = cov[i]
            for j in range(j0, j1):
                row[j] = True
    for j in range(ny + 1):
        run = 0
        orient = None
        for i in range(nx):
            below = j > 0 and cov[i][j - 1]
            above = j < ny and cov[i][j]
            if above != below:
                if above is orient:
                    run += xs[i + 1] - xs[i]
                else:
                    if 0 < run < length:
                        return True
                    orient = above
                    run = xs[i + 1] - xs[i]
            else:
                if 0 < run < length:
                    return True
                orient = None
                run = 0
        if 0 < run < length:
            return True
    for i in range(nx + 1):
        run = 0
        orient = None
        for j in range(ny):
            left = i > 0 and cov[i - 1][j]
            right = i < nx and cov[i][j]
            if left != right:
                if right is orient:
                    run += ys[j + 1] - ys[j]
                else:
                    if 0 < run < length:
                        return True
                    orient = right
                    run = ys[j + 1] - ys[j]
            else:
                if 0 < run < length:
                    return True
                orient = None
                run = 0
        if 0 < run < length:
            return True
    return False


def _pair_sides_short(c_a, span_a, c_b, span_b, low_side, length) -> bool:
    """Check the two same-type side edges of an overlapping rect pair.

    ``c_a``/``c_b`` are the side coordinates (e.g. both left x's),
    ``span_a``/``span_b`` the perpendicular closed spans.  The rects
    overlap openly on both axes, so either the edges are collinear and
    merge into one run, or the outer edge is fully visible and the
    inner edge is clipped by the outer rect's open span into at most
    two runs.
    """
    if c_a == c_b:
        lo = span_a[0] if span_a[0] < span_b[0] else span_b[0]
        hi = span_a[1] if span_a[1] > span_b[1] else span_b[1]
        return hi - lo < length
    if (c_a < c_b) == low_side:
        outer, inner = span_a, span_b
    else:
        outer, inner = span_b, span_a
    if outer[1] - outer[0] < length:
        return True
    piece = outer[0] - inner[0]
    if 0 < piece < length:
        return True
    piece = inner[1] - outer[1]
    return 0 < piece < length


def _two_rect_short(a: Rect, b: Rect, length: int) -> bool:
    """Exact min-step verdict for two openly overlapping rects."""
    ay = (a.ylo, a.yhi)
    by = (b.ylo, b.yhi)
    ax = (a.xlo, a.xhi)
    bx = (b.xlo, b.xhi)
    return (
        _pair_sides_short(a.xlo, ay, b.xlo, by, True, length)
        or _pair_sides_short(a.xhi, ay, b.xhi, by, False, length)
        or _pair_sides_short(a.ylo, ax, b.ylo, bx, True, length)
        or _pair_sides_short(a.yhi, ax, b.yhi, bx, False, length)
    )


class MinStepTable:
    """Min-step evaluator for one (pin, via) on the via's bottom layer.

    ``enc`` is the via's bottom enclosure (via-origin-relative),
    ``own`` the pin's positive-area rects on that layer
    (instance-origin-relative) -- exactly the engine's merge set, which
    takes the bottom enclosure plus the touching same-net metal.
    ``_subsets`` memoizes verdicts of pure own-rect unions (hit when
    the enclosure lands inside pin metal, the common clean case);
    ``_verdicts`` memoizes whole displacement verdicts, shared by
    every instance of the cell (Algorithm 1 probes the same on-track
    displacements in each of them).
    """

    __slots__ = ("length", "max_edges", "enc", "own", "_bounds",
                 "_subsets", "_verdicts")

    def __init__(self, length, max_edges, enc, own):
        self.length = length
        self.max_edges = max_edges
        self.enc = enc
        self.own = tuple(
            r for r in own if r.xhi > r.xlo and r.yhi > r.ylo
        )
        self._reset_caches()

    def _reset_caches(self):
        self._bounds = tuple(
            (r.xlo, r.ylo, r.xhi, r.yhi) for r in self.own
        )
        self._subsets = {}
        self._verdicts = {}

    def __getstate__(self):
        return (self.length, self.max_edges, self.enc, self.own)

    def __setstate__(self, state):
        self.length, self.max_edges, self.enc, self.own = state
        self._reset_caches()

    def __eq__(self, other):
        return (
            isinstance(other, MinStepTable)
            and self.__getstate__() == other.__getstate__()
        )

    def dirty(self, dx: int, dy: int, layer) -> bool:
        """Min-step verdict for the via dropped at displacement ``d``."""
        if not self.max_edges:
            verdict = self._verdicts.get((dx, dy))
            if verdict is None:
                verdict = self._dirty_exact(dx, dy)
                self._verdicts[(dx, dy)] = verdict
            return verdict
        enc = self.enc.translated(dx, dy)
        touching = [
            i for i, r in enumerate(self.own) if r.intersects(enc)
        ]
        # Rules tolerating short runs are order-dependent along the
        # loop; defer to the engine's walk (rare preset).
        rects = [enc] + [self.own[i] for i in touching]
        return bool(check_min_step(layer, rects))

    def _dirty_exact(self, dx: int, dy: int) -> bool:
        base = self.enc
        exlo = base.xlo + dx
        eylo = base.ylo + dy
        exhi = base.xhi + dx
        eyhi = base.yhi + dy
        touching = [
            i
            for i, (xlo, ylo, xhi, yhi) in enumerate(self._bounds)
            if xlo <= exhi and xhi >= exlo and ylo <= eyhi and yhi >= eylo
        ]
        length = self.length
        if not touching:
            return exhi - exlo < length or eyhi - eylo < length
        enc = Rect(exlo, eylo, exhi, eyhi)
        contained = any(
            self.own[i].contains_rect(enc) for i in touching
        )
        if contained:
            # The enclosure adds nothing to the union; the verdict
            # depends only on which own rects participate.
            key = tuple(touching)
            verdict = self._subsets.get(key)
            if verdict is None:
                verdict = _union_any_short(
                    [self.own[i] for i in key], length
                )
                self._subsets[key] = verdict
            return verdict
        if len(touching) == 1:
            other = self.own[touching[0]]
            if enc.overlaps(other):
                return _two_rect_short(enc, other, length)
        return _union_any_short(
            [enc] + [self.own[i] for i in touching], length
        )


# -- per-cell table bundle ----------------------------------------------------


class CellTables:
    """Every compiled table of one ``(master, orientation)`` cell.

    * ``site`` -- ``(pin, via) -> SiteTable`` (Step 1 metal/EOL/cut);
    * ``minstep`` -- ``(pin, via) -> MinStepTable or None``;
    * ``planar`` -- ``(pin, layer) -> (E, W, N, S)`` stub tables;
    * ``inst_clean`` -- ``via -> SiteTable`` with ``net_key=None``
      semantics (Step 3 boundary checks, min-step off).
    """

    __slots__ = ("site", "minstep", "planar", "inst_clean")

    def __init__(self, site, minstep, planar, inst_clean):
        self.site = site
        self.minstep = minstep
        self.planar = planar
        self.inst_clean = inst_clean

    def __getstate__(self):
        return (self.site, self.minstep, self.planar, self.inst_clean)

    def __setstate__(self, state):
        self.site, self.minstep, self.planar, self.inst_clean = state


def _planar_stubs(layer) -> dict:
    """The four one-pitch escape stubs relative to the access point."""
    half = layer.width // 2
    length = layer.pitch
    return {
        "E": Rect(0, -half, length, half),
        "W": Rect(-length, -half, 0, half),
        "N": Rect(-half, 0, half, length),
        "S": Rect(-half, -length, half, 0),
    }


def build_cell_tables(tech, inst, regions: dict = None) -> CellTables:
    """Compile every table of ``inst``'s (master, orientation) class.

    Shapes are taken origin-relative, so the result is shared by every
    instance placed with the same master and orientation regardless of
    location or track offsets.  ``regions`` optionally carries the
    compile memo (EOL trigger regions and per-rect-pair test records)
    across calls, so shapes repeated between masters compile once.
    """
    ox, oy = inst.location.x, inst.location.y
    shapes = []
    for pin, layer_name, rect in inst.all_pin_shapes():
        shapes.append((layer_name, rect.translated(-ox, -oy), pin.name))
    for layer_name, rect in inst.obstruction_rects():
        shapes.append((layer_name, rect.translated(-ox, -oy), None))
    by_layer = _shapes_by_layer(shapes)

    # Tests depend on the moving rect, not the probing pin, so compile
    # each distinct (layer, moving rect) once per cell and let the
    # per-pin tables below filter the shared entries.  ``regions``
    # additionally memoizes EOL trigger regions and per-rect-pair test
    # records -- kernel-shared when the caller passes its own dict.
    if regions is None:
        regions = {}
    metal_memo = {}

    def metal_groups(layer_name, mrect):
        key = (layer_name, mrect.xlo, mrect.ylo, mrect.xhi, mrect.yhi)
        hit = metal_memo.get(key)
        if hit is None:
            hit = _group_entries(_compile_metal_tests(
                tech, by_layer, layer_name, mrect, regions
            ))
            metal_memo[key] = hit
        return hit

    via_memo = {}

    def via_groups(via):
        hit = via_memo.get(via.name)
        if hit is None:
            hit = (
                _merge_groups(
                    metal_groups(via.bottom_layer, via.bottom_enc),
                    metal_groups(via.top_layer, via.top_enc),
                ),
                _compile_cut_tests(tech, by_layer, via.cut_layer, via.cut),
            )
            via_memo[via.name] = hit
        return hit

    site = {}
    minstep = {}
    planar = {}
    for pin in inst.master.pins:
        rects_by_layer = inst.pin_rects(pin.name)
        for layer_name in rects_by_layer:
            layer = tech.layer(layer_name)
            if not layer.is_routing:
                continue
            stubs = _planar_stubs(layer)
            planar[(pin.name, layer_name)] = tuple(
                _assemble_grouped(
                    metal_groups(layer_name, stubs[d]), (), pin.name
                )
                for d in ("E", "W", "N", "S")
            )
            own = [
                r.translated(-ox, -oy) for r in rects_by_layer[layer_name]
            ]
            for via in tech.vias_from(layer_name):
                metal, cut = via_groups(via)
                site[(pin.name, via.name)] = _assemble_grouped(
                    metal, cut, pin.name
                )
                rule = layer.min_step
                minstep[(pin.name, via.name)] = (
                    MinStepTable(
                        rule.min_step_length,
                        rule.max_edges,
                        via.bottom_enc,
                        own,
                    )
                    if rule is not None
                    else None
                )
    inst_clean = {}
    empty = SiteTable(None, (), ())
    for via in tech.vias:
        # A via whose metal and cut layers carry no cell geometry can
        # never collide with this cell; skip the compile outright.
        if not (
            via.bottom_layer in by_layer
            or via.top_layer in by_layer
            or via.cut_layer in by_layer
        ):
            inst_clean[via.name] = empty
            continue
        metal, cut = via_groups(via)
        inst_clean[via.name] = _assemble_grouped(metal, cut, None)
    return CellTables(site, minstep, planar, inst_clean)


# -- candidate coordinate tables ---------------------------------------------


class CoordCache:
    """Memoized Algorithm-1 candidate coordinate enumeration.

    A coordinate list depends only on ``(layer, axis, type, span)``
    (plus the via for enclosure-boundary alignment), while the
    Algorithm 1 ladder re-enumerates the same list for every
    ``(t1, t0)`` combination it crosses it into -- up to 12 times per
    rect.  The cache compiles each list once; callers share the stored
    list and must not mutate it.
    """

    def __init__(self, design):
        self.design = design
        self.tech = design.tech
        self._memo = {}

    def candidate(self, axis, ctype, rect, layer, via) -> list:
        span = rect.xspan if axis == "x" else rect.yspan
        key = (layer.name, axis, int(ctype), span.lo, span.hi)
        hit = self._memo.get(key)
        if hit is None:
            hit = {}
            self._memo[key] = hit
        via_key = via.name if via is not None else None
        coords = hit.get(via_key)
        if coords is None:
            coords = candidate_coords(
                axis, ctype, rect, layer, self.design, self.tech, via
            )
            hit[via_key] = coords
        return coords


# -- the kernel --------------------------------------------------------------


class ArrayKernel:
    """Value-keyed per-cell verdict service for Steps 1 and 3.

    Tables build lazily per ``(master, orientation)``; a prebuilt dict
    can be injected (the persisted cache) via ``tables`` or
    :meth:`preload`.  ``built`` counts tables compiled by *this*
    kernel, which decides whether the persisted copy needs rewriting.
    """

    def __init__(self, design, mode: str = "array", engine=None,
                 tables: dict = None):
        if mode not in APCHECK_MODES:
            raise ValueError(
                f"apcheck mode must be one of {APCHECK_MODES}, "
                f"got {mode!r}"
            )
        self.design = design
        self.tech = design.tech
        self.mode = mode
        self.engine = engine if engine is not None else DrcEngine(design.tech)
        self.coords = CoordCache(design)
        self.tables = {}
        self.preloaded = False
        self.built = 0
        self.candidates = 0
        self.filtered = 0
        self.minstep_engine = 0
        self.dp_solves = 0
        self.verify_mismatches = 0
        self._inst_ctx = {}
        self._compile_memo = {}
        if tables:
            self.preload(tables)

    def preload(self, tables: dict) -> None:
        """Adopt prebuilt tables (persisted cache or parent process)."""
        self.tables.update(tables)
        self.preloaded = True

    @staticmethod
    def cell_key(inst) -> tuple:
        orient = inst.orient
        return (
            inst.master.name,
            getattr(orient, "name", None) or str(orient),
        )

    def cell_tables(self, inst) -> CellTables:
        """Return (building if needed) the tables of ``inst``'s class."""
        key = self.cell_key(inst)
        tables = self.tables.get(key)
        if tables is None:
            tick("arraykernel.table.build")
            tables = build_cell_tables(self.tech, inst, self._compile_memo)
            self.tables[key] = tables
            self.built += 1
        else:
            tick("arraykernel.table.hit")
        return tables

    # -- verdicts -----------------------------------------------------------

    def via_vs_instance_clean(self, via_name, x, y, inst) -> bool:
        """Step 3's via-vs-neighbor-shapes verdict in the kernel's mode.

        ``not engine.check_via_placement(via, x, y, None, context,
        with_min_step=False)`` against ``inst``'s intra-cell context:
        asked of the engine in ``engine`` mode, answered from the
        compiled table by displacement otherwise (and cross-checked in
        ``verify`` mode).
        """
        if self.mode == "engine":
            return self._engine_instance_clean(via_name, x, y, inst)
        table = self.cell_tables(inst).inst_clean[via_name]
        verdict = table.clean(x - inst.location.x, y - inst.location.y)
        self.candidates += 1
        if not verdict:
            self.filtered += 1
        if self.mode == "verify":
            oracle = self._engine_instance_clean(via_name, x, y, inst)
            if oracle != verdict:
                self.verify_mismatches += 1
                tick("arraykernel.verify.mismatch")
                raise ApCheckMismatch(
                    f"array kernel diverged from DrcEngine for via "
                    f"{via_name} at ({x}, {y}) vs instance {inst.name}: "
                    f"kernel={'clean' if verdict else 'dirty'}, "
                    f"engine={'clean' if oracle else 'dirty'}"
                )
        return verdict

    def _engine_instance_clean(self, via_name, x, y, inst) -> bool:
        from repro.drc.context import ShapeContext

        # One context per instance, rebuilt when a placement edit has
        # moved the instance since it was built.
        origin = (inst.location.x, inst.location.y)
        hit = self._inst_ctx.get(inst.name)
        if hit is None or hit[0] != origin:
            hit = (origin, ShapeContext.from_instance(inst))
            self._inst_ctx[inst.name] = hit
        context = hit[1]
        return not self.engine.check_via_placement(
            self.tech.via(via_name), x, y, None, context,
            with_min_step=False,
        )

    # -- observability -------------------------------------------------------

    def work_counts(self) -> dict:
        """Return the work counters under their stats names.

        The counters accumulate over the kernel's life (a session's
        moves reuse it), so the framework reports the difference of a
        reading before and after each run and feeds ``candidates`` and
        ``filtered`` to the metrics registry from it.
        """
        return {
            "arraykernel.candidates": self.candidates,
            "arraykernel.filtered": self.filtered,
            "arraykernel.minstep_engine": self.minstep_engine,
            "arraykernel.dp_solves": self.dp_solves,
        }

    def stats(self) -> dict:
        """Return kernel counters for ``PinAccessResult.stats``."""
        return {
            "arraykernel.mode": self.mode,
            "arraykernel.tables": len(self.tables),
            "arraykernel.built": self.built,
            "arraykernel.preloaded": self.preloaded,
            **self.work_counts(),
            "arraykernel.verify_mismatches": self.verify_mismatches,
        }
