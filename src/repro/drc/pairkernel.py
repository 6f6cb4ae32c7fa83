"""Translation-invariant via-pair compatibility kernel.

The hottest DRC workload in the flow is the pairwise via check behind
Algorithm 3's ``isDRCClean`` edge costs (Step 2) and the Step 3
boundary-conflict costs.  A via-pair verdict depends only on
``(via_a, via_b, dx, dy, same_net)`` -- never on absolute position --
so instead of re-running :meth:`DrcEngine.check_via_pair` for every
placement, this module compiles each ordered ``(via_a, via_b,
same_net)`` combination once into a forbidden-displacement table over
``(dx, dy) = (xb - xa, yb - ya)``.  The table is the cell table of via
B moving against via A's three shapes as one pin
(:mod:`repro.drc.disptable` holds the record format, the evaluator and
the compiler).  With ``same_net`` that pin is B's own: the engine keys
both vias as one net, so metal and EOL are exempt and the identical
cut is skipped (the contract pinned by ``tests/test_drc_engine.py``).
Otherwise A's shapes are foreign.

The kernel runs in one of three modes, and decides it once per
combination, when :meth:`PairKernel.table` builds the verdict every
caller then probes by displacement:

* ``kernel`` -- the compiled table (the fast path, default);
* ``engine`` -- an :class:`EnginePairVerdict`, which asks
  :meth:`DrcEngine.check_via_pair` with A at the origin (the
  reference path; nothing compiles);
* ``verify`` -- the table cross-checked against the engine on every
  probe (a :class:`~repro.drc.disptable.VerifiedTable`), raising
  :class:`PairCheckMismatch` on any divergence.  The engine remains
  the oracle; this mode proves the kernel equivalent on live
  workloads.

Verdicts are keyed by via *names*, so one kernel is shared across
unique instances; each builds on first use and lives as long as its
kernel.
"""

from __future__ import annotations

from functools import partial

from repro.drc.disptable import (
    DisplacementTable,
    VerifiedTable,
    assemble,
    shapes_by_layer,
    via_entries,
)
from repro.drc.engine import DrcEngine
from repro.obs.metrics import tick
from repro.obs.trace import span
from repro.tech.technology import Technology
from repro.tech.via import ViaDef

PAIRCHECK_MODES = ("kernel", "engine", "verify")


class PairCheckMismatch(RuntimeError):
    """A kernel verdict diverged from the DRC engine oracle."""


def build_pair_table(
    tech: Technology, via_a: ViaDef, via_b: ViaDef, same_net: bool
) -> DisplacementTable:
    """Compile the forbidden-displacement table for one combination.

    A sits at the origin as the fixed pin ``"a"`` and B translates by
    ``(dx, dy)``, so only the via definitions and the layer rules enter
    the table.
    """
    fixed = shapes_by_layer((
        (via_a.bottom_layer, via_a.bottom_enc, "a"),
        (via_a.cut_layer, via_a.cut, "a"),
        (via_a.top_layer, via_a.top_enc, "a"),
    ))
    metal, cuts = via_entries(tech, fixed, via_b, {})
    return assemble(metal, cuts, "a" if same_net else None)


class EnginePairVerdict:
    """The DRC engine's verdict on one via-pair combination.

    :meth:`clean` asks :meth:`DrcEngine.check_via_pair` with A at the
    origin and B at ``(dx, dy)``.  The engine's answer depends on the
    displacement alone (a property ``tests/test_drc_engine.py``
    checks), so one verdict serves every placement of the pair.
    """

    __slots__ = ("engine", "via_a", "via_b", "same_net")

    def __init__(self, engine, via_a: ViaDef, via_b: ViaDef, same_net):
        self.engine = engine
        self.via_a = via_a
        self.via_b = via_b
        self.same_net = same_net

    def clean(self, dx: int, dy: int) -> bool:
        return not self.engine.check_via_pair(
            self.via_a, (0, 0), self.via_b, (dx, dy),
            same_net=self.same_net,
        )


class PairKernel:
    """Value-keyed via-pair verdict service shared across Steps 2/3.

    ``tables`` holds one verdict per ``(via_a, via_b, same_net)`` name
    key, built on first use and never dropped; ``pairkernel.built``
    counts the compiled tables among them (none in ``engine`` mode).
    """

    def __init__(
        self,
        tech: Technology,
        mode: str = "kernel",
        engine: DrcEngine = None,
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

    def table(self, via_a: str, via_b: str, same_net: bool = False):
        """Return (building if needed) the verdict of one combination.

        The verdict's ``clean(dx, dy)`` answers for B displaced by
        ``(dx, dy)`` from A, in the kernel's mode (see the module
        docstring).
        """
        key = (via_a, via_b, same_net)
        verdict = self.tables.get(key)
        if verdict is not None:
            tick("pairkernel.table.hit")
            return verdict
        tick("pairkernel.table.build")
        a = self.tech.via(via_a)
        b = self.tech.via(via_b)
        if self.mode == "engine":
            verdict = EnginePairVerdict(self.engine, a, b, same_net)
        else:
            with span(
                "pairkernel.build",
                via_a=via_a,
                via_b=via_b,
                same_net=same_net,
            ):
                verdict = build_pair_table(self.tech, a, b, same_net)
            if self.mode == "verify":
                verdict = VerifiedTable(
                    verdict,
                    EnginePairVerdict(self.engine, a, b, same_net),
                    partial(_mismatch, key),
                )
        self.tables[key] = verdict
        return verdict

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
        tick("pairkernel.query")
        return self.table(via_a, via_b, same_net).clean(bx - ax, by - ay)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Return table counters for ``PinAccessResult.stats``.

        Keys follow the ``domain.sub.name`` contract of
        :mod:`repro.obs.metrics` so the framework can merge them into
        the flat stats namespace directly.
        """
        return {
            "pairkernel.mode": self.mode,
            "pairkernel.built": (
                0 if self.mode == "engine" else len(self.tables)
            ),
        }


def _mismatch(key, dx, dy, verdict) -> PairCheckMismatch:
    via_a, via_b, same_net = key
    return PairCheckMismatch(
        f"pair kernel diverged from DrcEngine for "
        f"({via_a}, {via_b}, same_net={same_net}) at "
        f"displacement ({dx}, {dy}): "
        f"kernel={'clean' if verdict else 'dirty'}, "
        f"engine={'dirty' if verdict else 'clean'}"
    )
