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

The kernel runs in one of three modes:

* ``kernel`` -- tables only (the fast path, default);
* ``engine`` -- always defer to :meth:`DrcEngine.check_via_pair` (the
  reference path; the kernel is inert);
* ``verify`` -- compute both and raise :class:`PairCheckMismatch` on
  any divergence.  The engine remains the oracle; this mode proves the
  kernel equivalent on live workloads.

Tables are keyed by via *names*, so one kernel is shared across unique
instances; each table compiles on first use and lives as long as its
kernel.
"""

from __future__ import annotations

from repro.drc.disptable import (
    DisplacementTable,
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


class PairKernel:
    """Value-keyed via-pair verdict service shared across Steps 2/3.

    Tables build lazily per ``(via_a, via_b, same_net)`` name key and
    are never dropped, so ``pairkernel.built`` is ``len(tables)``.
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

    def table(
        self, via_a: str, via_b: str, same_net: bool = False
    ) -> DisplacementTable:
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
        else:
            tick("pairkernel.table.hit")
        return table

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
            "pairkernel.built": len(self.tables),
        }
