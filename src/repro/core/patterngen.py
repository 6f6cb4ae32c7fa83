"""Unique-instance access pattern generation (paper Sec. III-B).

The iterative flow of Figure 4: order pins, build the layered DP graph
(Figure 6), run Algorithm 2 with the boundary-conflict-aware and
history-aware edge costs of Algorithm 3, validate the resulting
pattern with the DRC engine, penalize the used boundary access points
and iterate for the next pattern.

The DP runs on :class:`~repro.core.dpgraph.FlatDp` whether or not a
telemetry sink is active; the sinks read its edge prices after each
solve.
"""

from __future__ import annotations

from repro.core.apgen import AccessPoint
from repro.core.config import PaafConfig
from repro.core.dpgraph import FlatDp
from repro.core.pattern import AccessPattern
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import PairKernel
from repro.obs.events import active_log
from repro.obs.metrics import active_registry
from repro.obs.trace import span
from repro.tech.technology import Technology


def order_pins(aps_by_pin: dict, alpha: float) -> list:
    """Order pins by ``x_avg + alpha * y_avg`` of their access points.

    Pins without access points are excluded (they cannot join any
    pattern).  With a small alpha the first and last pins are the
    leftmost and rightmost pins -- the *boundary pins* that get special
    treatment (paper Figure 5).
    """
    keyed = []
    for pin_name, aps in aps_by_pin.items():
        if not aps:
            continue
        x_avg = sum(ap.x for ap in aps) / len(aps)
        y_avg = sum(ap.y for ap in aps) / len(aps)
        keyed.append((x_avg + alpha * y_avg, pin_name))
    keyed.sort()
    return [pin_name for _, pin_name in keyed]


def _ap_key(pin_name: str, ap: AccessPoint) -> tuple:
    """Value identity of an access point within one unique instance.

    Keys by ``(pin, via, x, y)`` rather than ``id(ap)``: object ids can
    alias after garbage collection and never match across generator
    instances, while value keys are stable and shareable.  Access
    points are unique per pin location by construction (Step 1 dedupes
    candidate points), so the value key is exactly as discriminating.
    """
    return (pin_name, ap.primary_via, ap.x, ap.y)


def _report_edges(solver: FlatDp, label, registry, log) -> None:
    """Report the last DP iteration's edge prices to the sinks.

    Every edge cost lands in the ``patterngen.edge_cost`` histogram;
    each penalized edge (boundary-used, DRC-incompatible,
    history-incompatible) bumps ``patterngen.edge.<reason>`` and
    becomes a ``dp.edge.penalized`` event, in relaxation order.
    """
    for prev, curr, cost, reason in solver.priced_edges():
        if registry is not None:
            registry.observe("patterngen.edge_cost", float(cost))
        if reason is None:
            continue
        if registry is not None:
            registry.incr("patterngen.edge." + reason.replace("-", "_"))
        if log is not None:
            log.emit(
                "dp.edge.penalized",
                inst=label,
                reason=reason,
                pin_a=prev[0],
                ax=prev[1].x,
                ay=prev[1].y,
                pin_b=curr[0],
                bx=curr[1].x,
                by=curr[1].y,
                cost=cost,
            )


class AccessPatternGenerator:
    """Generates up to N mutually-diverse access patterns per unique instance.

    Pairwise via compatibility is served by a shared
    :class:`~repro.drc.pairkernel.PairKernel` (pass ``kernel`` to share
    tables across generators and processes); with no kernel given, one
    is built lazily from the technology in the config's
    ``paircheck_mode``.  An attached array kernel (``akernel``) counts
    the DP solves in ``dp_solves``.
    """

    def __init__(
        self,
        tech: Technology,
        engine: DrcEngine,
        config: PaafConfig = None,
        kernel: PairKernel = None,
        akernel=None,
    ):
        self.tech = tech
        self.engine = engine
        self.config = config or PaafConfig()
        if kernel is None:
            kernel = PairKernel(
                tech, mode=self.config.paircheck_mode, engine=engine
            )
        self.kernel = kernel
        self.akernel = akernel

    def generate(self, aps_by_pin: dict, label: str = None) -> list:
        """Return access patterns for one unique instance.

        ``aps_by_pin`` maps pin name to the Step 1 access point list
        (representative-instance coordinates).  Patterns cover every
        pin that has at least one access point.  ``label`` tags the
        emitted observability spans/events with the owning instance
        (the unique-instance representative's name).
        """
        cfg = self.config
        ordered_pins = order_pins(aps_by_pin, cfg.alpha)
        if not ordered_pins:
            return []
        boundary_pins = {ordered_pins[0], ordered_pins[-1]}
        groups = [
            [(pin_name, ap) for ap in aps_by_pin[pin_name]]
            for pin_name in ordered_pins
        ]
        used_boundary_aps = set()
        patterns = []
        seen_signatures = set()
        registry = active_registry()
        log = active_log()
        solver = FlatDp(groups, self._compat_probe(), cfg)

        def is_used_boundary(vertex) -> bool:
            pin_name, ap = vertex
            return (
                pin_name in boundary_pins
                and _ap_key(pin_name, ap) in used_boundary_aps
            )

        with span("step2.patterns", inst=label) as record:
            for iteration in range(cfg.patterns_per_unique_instance):
                chosen, cost = solver.solve(is_used_boundary)
                if self.akernel is not None:
                    self.akernel.dp_solves += 1
                if registry is not None or log is not None:
                    _report_edges(solver, label, registry, log)
                pattern = AccessPattern(
                    aps={pin_name: ap for pin_name, ap in chosen},
                    cost=int(cost),
                )
                pattern.violations = self.validate(pattern)
                signature = pattern.signature()
                if signature not in seen_signatures:
                    seen_signatures.add(signature)
                    patterns.append(pattern)
                    if log is not None:
                        log.emit(
                            "pattern.generated",
                            inst=label,
                            index=len(patterns) - 1,
                            cost=pattern.cost,
                            clean=pattern.is_clean,
                            pins={
                                pin_name: [ap.x, ap.y]
                                for pin_name, ap in pattern.aps.items()
                            },
                        )
                for pin_name, ap in chosen:
                    if pin_name in boundary_pins:
                        used_boundary_aps.add(_ap_key(pin_name, ap))
            if record is not None:
                record["attrs"]["patterns"] = len(patterns)
        return patterns

    def _compat_probe(self):
        """Return the via-compatibility test the DP masks compile from.

        In ``kernel`` mode the prebuilt pair tables are probed
        directly: mask compilation is the Step 2 hot loop, and these
        inlined probes skip :meth:`PairKernel.pair_clean` and its
        ``pairkernel.query`` tick.  Other modes go through
        :meth:`aps_compatible` so ``engine`` and ``verify`` keep their
        semantics.
        """
        kernel = self.kernel
        if kernel.mode != "kernel":
            return self.aps_compatible
        tables = kernel.tables
        pair_clean = kernel.pair_clean

        def compat(a, b):
            if not a.has_via_access or not b.has_via_access:
                return True
            table = tables.get((a.primary_via, b.primary_via, False))
            if table is None:
                return pair_clean(
                    a.primary_via, a.x, a.y, b.primary_via, b.x, b.y,
                )
            return table.clean(b.x - a.x, b.y - a.y)

        return compat

    def aps_compatible(self, ap_a: AccessPoint, ap_b: AccessPoint) -> bool:
        """Return True if the primary up-vias of two APs are DRC-clean.

        Only up-vias are checked (the paper's acceleration).  Planar
        access points short-circuit before any kernel lookup -- they
        cannot conflict through vias.  The verdict itself comes from
        the translation-invariant pair kernel, which replaces the old
        per-generator ``id()``-keyed memo with tables shared across
        unique instances, DP iterations and worker processes.
        """
        if not ap_a.has_via_access or not ap_b.has_via_access:
            return True
        return self.kernel.pair_clean(
            ap_a.primary_via, ap_a.x, ap_a.y,
            ap_b.primary_via, ap_b.x, ap_b.y,
        )

    # -- post-generation validation -----------------------------------------

    def validate(self, pattern: AccessPattern) -> list:
        """Full DRC validation of a pattern (all AP pairs, up-vias only).

        Catches the "unseen DRCs" between non-neighboring groups that
        the chain-structured DP cannot price (Sec. III-B end).  Returns
        ``(pin_a, pin_b, violation)`` tuples so failed-pin accounting
        can name the culprits.

        The pair kernel prefilters: only pairs it reports dirty reach
        the engine, which then enumerates the actual violation records.
        Because a kernel-clean verdict is equivalent to an empty engine
        result, the returned list is identical to checking every pair
        through the engine.
        """
        items = list(pattern.aps.items())
        violations = []
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                name_a, ap_a = items[i]
                name_b, ap_b = items[j]
                if not ap_a.has_via_access or not ap_b.has_via_access:
                    continue
                if self.kernel.pair_clean(
                    ap_a.primary_via, ap_a.x, ap_a.y,
                    ap_b.primary_via, ap_b.x, ap_b.y,
                ):
                    continue
                via_a = self.tech.via(ap_a.primary_via)
                via_b = self.tech.via(ap_b.primary_via)
                for violation in self.engine.check_via_pair(
                    via_a, (ap_a.x, ap_a.y), via_b, (ap_b.x, ap_b.y)
                ):
                    violations.append((name_a, name_b, violation))
        return violations
