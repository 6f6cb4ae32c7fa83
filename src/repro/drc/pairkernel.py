"""Translation-invariant via-pair compatibility kernel.

The hottest DRC workload in the flow is the pairwise via check behind
Algorithm 3's ``isDRCClean`` edge costs (Step 2) and the Step 3
boundary-conflict costs.  A via-pair verdict depends only on
``(via_a, via_b, dx, dy, same_net)`` -- never on absolute position --
so instead of re-running :meth:`DrcEngine.check_via_pair` for every
placement, this module compiles each ordered ``(via_a, via_b,
same_net)`` combination once into a **forbidden-displacement table**: a
handful of precomputed integer tests over the relative displacement
``(dx, dy) = (xb - xa, yb - ya)`` that decide cleanliness with zero
engine calls and zero context allocations.

The tests mirror the engine's math exactly, term by term:

* **metal** -- for each (enclosure of A, shape of B) pair on a routing
  layer with a spacing table: the open-overlap short test plus the
  PRL-table spacing test.  The DRC width ``max(min_dim_a, min_dim_b)``
  is displacement-independent, so the width row is resolved at build
  time and only the PRL column lookup remains per query.  Corner
  (diagonal) cases compare squared gaps against the squared
  requirement, which is exactly ``floor(sqrt(gx^2 + gy^2)) < s``.
* **box** -- every EOL interaction reduces to an *open rectangle* in
  displacement space: the trigger regions of A's enclosures are fixed
  rects, the trigger regions of B's shapes translate rigidly with
  ``d``, and ``Rect.overlaps`` is symmetric, so both directions of
  :func:`check_eol_spacing` (and nothing else) become pure
  point-in-open-rect tests.
* **cut** -- the cut-spacing test with the engine's identical-rect
  exemption: with ``same_net=True`` the one displacement that lands
  B's cut exactly on A's cut is skipped, matching how
  ``check_cut_spacing`` skips the probe's own rect.

Same-net pairs compile to cut tests only, because the engine keys both
vias as net ``"a"`` and metal/EOL checks skip same-net shapes (the
contract pinned by ``tests/test_drc_engine.py``).

Every table also carries a closed quick-reject **window**: the hull of
all test interaction ranges.  A displacement outside the window is
clean without touching a single test.

The kernel runs in one of three modes:

* ``kernel`` -- tables only (the fast path, default);
* ``engine`` -- always defer to :meth:`DrcEngine.check_via_pair` (the
  reference path; the kernel is inert);
* ``verify`` -- compute both and raise :class:`PairCheckMismatch` on
  any divergence.  The engine remains the oracle; this mode proves the
  kernel equivalent on live workloads.

Tables are plain picklable values keyed by via *names*, so one kernel
is shared across unique instances, shipped to worker processes
(:mod:`repro.perf.workers`) and persisted next to the AP cache under
the tech+config fingerprint (:mod:`repro.perf.apcache`).
"""

from __future__ import annotations

from repro.drc.engine import DrcEngine
from repro.drc.eol import eol_trigger_regions
from repro.obs.metrics import tick
from repro.obs.trace import span
from repro.tech.technology import Technology
from repro.tech.via import ViaDef

PAIRCHECK_MODES = ("kernel", "engine", "verify")

_METAL = 0
_BOX = 1
_CUT = 2


class PairCheckMismatch(RuntimeError):
    """A kernel verdict diverged from the DRC engine oracle."""


class PairTable:
    """Compiled forbidden-displacement tests for one via combination.

    ``window`` is the closed ``(xlo, xhi, ylo, yhi)`` quick-reject
    hull (None when the combination can never violate); ``tests`` is a
    tuple of tagged test records evaluated until the first violation.
    """

    __slots__ = ("window", "tests")

    def __init__(self, window, tests):
        self.window = window
        self.tests = tests

    def __getstate__(self):
        return (self.window, self.tests)

    def __setstate__(self, state):
        self.window, self.tests = state

    def __eq__(self, other):
        return (
            isinstance(other, PairTable)
            and self.window == other.window
            and self.tests == other.tests
        )

    def clean(self, dx: int, dy: int) -> bool:
        """Return True when displacement ``(dx, dy)`` is DRC-clean."""
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
        for test in self.tests:
            kind = test[0]
            if kind == _BOX:
                _, xlo, xhi, ylo, yhi = test
                if xlo < dx < xhi and ylo < dy < yhi:
                    return False
                continue
            if kind == _METAL:
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
                    if gapx * gapx + gapy * gapy < required * required:
                        return False  # diagonal metal-spacing
                elif (gapx if gapx > gapy else gapy) < required:
                    return False  # metal-spacing (touching included)
                continue
            # _CUT
            (_, axlo, aylo, axhi, ayhi,
             bxlo, bylo, bxhi, byhi, spacing, skip) = test
            if skip is not None and dx == skip[0] and dy == skip[1]:
                continue  # the identical same-net cut is exempt
            ox = min(axhi, bxhi + dx) - max(axlo, bxlo + dx)
            oy = min(ayhi, byhi + dy) - max(aylo, bylo + dy)
            if ox > 0 and oy > 0:
                return False  # cut-short
            gapx = -ox if ox < 0 else 0
            gapy = -oy if oy < 0 else 0
            if gapx > 0 and gapy > 0:
                if gapx * gapx + gapy * gapy < spacing * spacing:
                    return False
            elif (gapx if gapx > gapy else gapy) < spacing:
                return False
        return True


def build_pair_table(
    tech: Technology, via_a: ViaDef, via_b: ViaDef, same_net: bool
) -> PairTable:
    """Compile the forbidden-displacement table for one combination.

    Works in displacement space: A is placed at the origin, B's shapes
    translate rigidly by ``(dx, dy)``, so only the via definitions and
    the layer rules enter the table.
    """
    shapes_b = (
        (via_b.bottom_layer, via_b.bottom_enc),
        (via_b.cut_layer, via_b.cut),
        (via_b.top_layer, via_b.top_enc),
    )
    tests = []
    windows = []
    if not same_net:
        for layer_name, rect_a in (
            (via_a.bottom_layer, via_a.bottom_enc),
            (via_a.top_layer, via_a.top_enc),
        ):
            layer = tech.layer(layer_name)
            others = [r for lname, r in shapes_b if lname == layer_name]
            if layer.spacing_table is not None:
                for rect_b in others:
                    tests.append(
                        _metal_test(layer.spacing_table, rect_a, rect_b)
                    )
                    windows.append(_reach_window(
                        rect_a, rect_b, max(s for _, s in tests[-1][9])
                    ))
            if layer.eol is not None:
                for rect_b in others:
                    for region in eol_trigger_regions(layer, rect_a):
                        tests.append(_overlap_box(region, rect_b))
                        windows.append(tests[-1][1:])
                    for region in eol_trigger_regions(layer, rect_b):
                        # Rect.overlaps is symmetric, so the reverse
                        # direction is the same open-box form.
                        tests.append(_overlap_box(rect_a, region))
                        windows.append(tests[-1][1:])
    cut_layer = tech.layer(via_a.cut_layer)
    rule = cut_layer.cut_spacing
    if rule is not None:
        for lname, rect_b in shapes_b:
            if lname != via_a.cut_layer:
                continue
            cut_a = via_a.cut
            skip = None
            if (
                same_net
                and cut_a.width == rect_b.width
                and cut_a.height == rect_b.height
            ):
                skip = (cut_a.xlo - rect_b.xlo, cut_a.ylo - rect_b.ylo)
            tests.append((
                _CUT,
                cut_a.xlo, cut_a.ylo, cut_a.xhi, cut_a.yhi,
                rect_b.xlo, rect_b.ylo, rect_b.xhi, rect_b.yhi,
                rule.spacing, skip,
            ))
            windows.append(_reach_window(cut_a, rect_b, rule.spacing))
    if not tests:
        return PairTable(None, ())
    window = (
        min(w[0] for w in windows),
        max(w[1] for w in windows),
        min(w[2] for w in windows),
        max(w[3] for w in windows),
    )
    return PairTable(window, tuple(tests))


def _metal_test(table, rect_a, rect_b):
    """Compile one metal short+spacing test record."""
    width = max(rect_a.min_dim, rect_b.min_dim)
    row = table.width_rows[0][1]
    for min_width, spacings in table.width_rows:
        if width >= min_width:
            row = spacings
    steps = tuple(zip(table.prl_values, row))
    return (
        _METAL,
        rect_a.xlo, rect_a.ylo, rect_a.xhi, rect_a.yhi,
        rect_b.xlo, rect_b.ylo, rect_b.xhi, rect_b.yhi,
        steps,
    )


def _overlap_box(fixed, moving):
    """Open box of displacements where ``fixed`` overlaps ``moving + d``."""
    return (
        _BOX,
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


class PairKernel:
    """Value-keyed via-pair verdict service shared across Steps 2/3.

    Tables build lazily per ``(via_a, via_b, same_net)`` name key; a
    prebuilt table dict can be injected (worker shipping, persisted
    cache) via ``tables`` or :meth:`preload`.  ``built`` counts tables
    compiled by *this* kernel, which is what decides whether the
    persisted copy needs rewriting.
    """

    def __init__(
        self,
        tech: Technology,
        mode: str = "kernel",
        engine: DrcEngine = None,
        tables: dict = None,
    ):
        if mode not in PAIRCHECK_MODES:
            raise ValueError(
                f"paircheck mode must be one of {PAIRCHECK_MODES}, "
                f"got {mode!r}"
            )
        self.tech = tech
        self.mode = mode
        self.engine = engine if engine is not None else DrcEngine(tech)
        self.tables = {}
        self.preloaded = False
        self.built = 0
        if tables:
            self.preload(tables)

    def preload(self, tables: dict) -> None:
        """Adopt prebuilt tables (persisted cache or parent process)."""
        self.tables.update(tables)
        self.preloaded = True

    def table(
        self, via_a: str, via_b: str, same_net: bool = False
    ) -> PairTable:
        """Return (building if needed) the table for one combination."""
        key = (via_a, via_b, same_net)
        table = self.tables.get(key)
        if table is None:
            tick("pairkernel.table.build")
            with span(
                "pairkernel.build",
                via_a=via_a,
                via_b=via_b,
                same_net=same_net,
            ):
                table = build_pair_table(
                    self.tech,
                    self.tech.via(via_a),
                    self.tech.via(via_b),
                    same_net,
                )
            self.tables[key] = table
            self.built += 1
        else:
            tick("pairkernel.table.hit")
        return table

    def build_all(self) -> "PairKernel":
        """Eagerly compile every combination of the technology's vias.

        Called before process fan-out so workers receive the complete
        table set and the persisted copy is whole; the table space is
        tiny (|vias|^2 x 2) and each build is microseconds.
        """
        names = [via.name for via in self.tech.vias]
        for name_a in names:
            for name_b in names:
                self.table(name_a, name_b, False)
                self.table(name_a, name_b, True)
        return self

    # -- verdicts -----------------------------------------------------------

    def pair_clean(
        self,
        via_a: str,
        ax: int,
        ay: int,
        via_b: str,
        bx: int,
        by: int,
        same_net: bool = False,
    ) -> bool:
        """Return True when the two via placements are mutually clean.

        The displacement-space equivalent of ``not
        engine.check_via_pair(va, (ax, ay), vb, (bx, by), same_net)``.
        """
        if self.mode == "engine":
            return self._engine_clean(via_a, ax, ay, via_b, bx, by, same_net)
        tick("pairkernel.query")
        verdict = self.table(via_a, via_b, same_net).clean(bx - ax, by - ay)
        if self.mode == "verify":
            oracle = self._engine_clean(
                via_a, ax, ay, via_b, bx, by, same_net
            )
            if oracle != verdict:
                raise PairCheckMismatch(
                    f"pair kernel diverged from DrcEngine for "
                    f"({via_a}, {via_b}, same_net={same_net}) at "
                    f"displacement ({bx - ax}, {by - ay}): "
                    f"kernel={'clean' if verdict else 'dirty'}, "
                    f"engine={'clean' if oracle else 'dirty'}"
                )
        return verdict

    def _engine_clean(self, via_a, ax, ay, via_b, bx, by, same_net) -> bool:
        return not self.engine.check_via_pair(
            self.tech.via(via_a), (ax, ay),
            self.tech.via(via_b), (bx, by),
            same_net=same_net,
        )

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Return table counters for ``PinAccessResult.stats``.

        Keys follow the ``domain.sub.name`` contract of
        :mod:`repro.obs.metrics` so the framework can merge them into
        the flat stats namespace directly.
        """
        return {
            "pairkernel.mode": self.mode,
            "pairkernel.tables": len(self.tables),
            "pairkernel.built": self.built,
            "pairkernel.preloaded": self.preloaded,
        }
