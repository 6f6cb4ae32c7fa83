"""Forbidden-displacement tables: one compiled form of a via DRC check.

Both DRC questions of the flow ask whether a via is clean where it lands
among *fixed* shapes: Algorithm 1 against the owning cell (Step 1), and
Algorithm 3's ``isDRCClean`` against another via (Steps 2 and 3).  The
fixed shapes do not move and the via translates rigidly, so the verdict
is a function of the displacement ``(dx, dy)`` alone.  This module
compiles it once into a :class:`DisplacementTable`: a handful of integer
test records over ``(dx, dy)`` that decide cleanliness with zero engine
calls.  The records mirror the engine's math term by term:

* **metal** (:data:`METAL`) -- for each (fixed shape, moving rect) pair
  on a routing layer with a spacing table: the open-overlap short test
  plus the PRL-table spacing test.  The DRC width ``max(min_dim_a,
  min_dim_b)`` does not depend on the displacement, so the width row is
  resolved at compile time and only the PRL column lookup remains per
  query.  Corner (diagonal) cases compare squared gaps against the
  squared requirement, which is exactly ``floor(sqrt(gx^2 + gy^2)) <
  s``.
* **box** (:data:`BOX`) -- every EOL interaction is an *open rectangle*
  in displacement space: the trigger regions of a fixed shape are fixed
  rects, those of the moving rect translate with it, and
  ``Rect.overlaps`` is symmetric, so both directions of
  :func:`~repro.drc.eol.check_eol_spacing` are point-in-open-rect tests.
* **cut** (:data:`CUT`) -- cut spacing with the engine's identical-rect
  exemption: for a same-net cut of the moving cut's size, the one
  displacement that lands it exactly on the fixed cut is skipped.

Every table carries a closed quick-reject ``window`` (the hull of all
test interaction ranges, outside which the via is clean) and per-test
``spans``.  Besides the pointwise :meth:`DisplacementTable.clean`, it
answers a whole row of candidate displacements at once
(:meth:`DisplacementTable.row_mask`), which is how Algorithm 1 validates
a candidate row.  A :class:`VerifiedTable` answers like its table and
raises when the engine's verdict differs (the kernels' ``verify``
mode).

The compiler takes the fixed shapes tagged with their owning pin
(:func:`shapes_by_layer`), compiles the moving via against all of them
(:func:`via_entries`), and assembles one table per probing pin
(:func:`assemble`): the probing pin's own shapes are exempt from metal
and EOL, like the engine's same-net skip, and donate the identical-cut
skip.  A cell table is the moving via against the cell's pins and
obstructions; a via-pair table is the moving via B against via A's
three shapes as one pin, owned by B when the pair is on the same net.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.drc.eol import eol_trigger_regions

METAL = 0
BOX = 1
CUT = 2


# -- evaluation ---------------------------------------------------------------


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


class DisplacementTable:
    """Compiled displacement tests of one moving via vs fixed shapes.

    ``window`` is the closed quick-reject hull (None when the via can
    never violate), ``tests`` the tagged records and ``spans`` the
    per-test closed interaction windows (parallel to ``tests``) that
    power the row-batched form.  The per-row compilation -- merged
    forbidden intervals plus leftover pointwise tests -- is memoized in
    ``_rows``, the pointwise verdicts in ``_memo``; ``_packed`` holds
    the tests flattened for :meth:`clean`, built on its first call.
    """

    __slots__ = ("window", "tests", "spans", "_rows", "_packed", "_memo")

    def __init__(self, window, tests, spans):
        self.window = window
        self.tests = tests
        self.spans = spans
        self._rows = {}
        self._packed = None
        self._memo = {}

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
            # subscripts.  Lazy, like ``_rows``.
            packed = self._packed = [
                (s[0], s[1], s[2], s[3], t)
                for t, s in zip(self.tests, self.spans)
            ]
        verdict = True
        for s0, s1, s2, s3, test in packed:
            if dx < s0 or dx > s1 or dy < s2 or dy > s3:
                continue
            kind = test[0]
            if kind == BOX:
                if test[1] < dx < test[2] and test[3] < dy < test[4]:
                    verdict = False
                    break
            elif kind == METAL:
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
            if test[0] == BOX:
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
            if test[0] == METAL:
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


class VerifiedTable:
    """A compiled table cross-checked against a reference on every probe.

    ``reference`` is any verdict with ``clean(dx, dy)``; the kernels
    pass the DRC engine's, which stays the oracle.  When the two
    disagree, :meth:`clean` raises the exception that ``mismatch(dx,
    dy, verdict)`` returns, ``verdict`` being the table's.
    """

    __slots__ = ("table", "reference", "mismatch")

    def __init__(self, table, reference, mismatch):
        self.table = table
        self.reference = reference
        self.mismatch = mismatch

    def clean(self, dx: int, dy: int) -> bool:
        """Return the table's verdict once the reference agrees."""
        verdict = self.table.clean(dx, dy)
        if verdict != self.reference.clean(dx, dy):
            raise self.mismatch(dx, dy, verdict)
        return verdict


# -- compilation --------------------------------------------------------------


def _metal_test(table, rect_a, rect_b):
    """Compile one metal short+spacing test record."""
    width = max(rect_a.min_dim, rect_b.min_dim)
    row = table.width_rows[0][1]
    for min_width, spacings in table.width_rows:
        if width >= min_width:
            row = spacings
    steps = tuple(zip(table.prl_values, row))
    return (
        METAL,
        rect_a.xlo, rect_a.ylo, rect_a.xhi, rect_a.yhi,
        rect_b.xlo, rect_b.ylo, rect_b.xhi, rect_b.yhi,
        steps,
    )


def _overlap_box(fixed, moving):
    """Open box of displacements where ``fixed`` overlaps ``moving + d``."""
    return (
        BOX,
        fixed.xlo - moving.xhi,
        fixed.xhi - moving.xlo,
        fixed.ylo - moving.yhi,
        fixed.yhi - moving.ylo,
    )


def _reach_window(rect_a, rect_b, reach):
    """Closed displacement window within which the pair can interact."""
    return (
        rect_a.xlo - rect_b.xhi - reach,
        rect_a.xhi - rect_b.xlo + reach,
        rect_a.ylo - rect_b.yhi - reach,
        rect_a.yhi - rect_b.ylo + reach,
    )


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
                CUT,
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


def shapes_by_layer(shapes) -> dict:
    """Index ``(layer, rect, pin)`` fixed shapes as layer -> (rect, pin)."""
    by_layer = {}
    for layer_name, rect, pin_name in shapes:
        by_layer.setdefault(layer_name, []).append((rect, pin_name))
    return by_layer


def metal_groups(tech, by_layer, layer_name, mrect, memo) -> dict:
    """Metal/EOL entries of the fixed shapes vs one moving rect, by pin.

    ``memo`` carries EOL trigger regions and per-rect-pair records
    across calls (see :func:`_compile_metal_tests`).
    """
    return _group_entries(
        _compile_metal_tests(tech, by_layer, layer_name, mrect, memo)
    )


def via_entries(tech, by_layer, via, memo) -> tuple:
    """Compile a moving via against the fixed shapes ``by_layer``.

    Returns ``(metal groups, cut entries)`` for :func:`assemble`: the
    metal/EOL entries of both enclosures grouped by owning pin, and
    the cut entries with their deferred identical-cut skips.
    """
    return (
        _merge_groups(
            metal_groups(
                tech, by_layer, via.bottom_layer, via.bottom_enc, memo
            ),
            metal_groups(tech, by_layer, via.top_layer, via.top_enc, memo),
        ),
        _compile_cut_tests(tech, by_layer, via.cut_layer, via.cut),
    )


def assemble(groups, cut_entries, own_pin) -> DisplacementTable:
    """Filter compiled entries for one probing pin into a table.

    ``own_pin`` names the probing net's pin: its shapes are exempt
    from metal/EOL exactly like the engine's same-net skip, and they
    donate the cut test's identical-rect skip displacement.
    ``own_pin=None`` reproduces the ``net_key=None`` call (Step 3):
    *every* shape is foreign to metal/EOL while unowned cuts
    (obstructions) take the skip role.
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
        return DisplacementTable(None, (), ())
    return DisplacementTable(window, tuple(tests), tuple(spans))
