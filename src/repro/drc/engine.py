"""The DRC engine facade."""

from __future__ import annotations

import time

from repro.drc.cutspacing import check_cut_spacing
from repro.drc.eol import check_eol_spacing
from repro.drc.minarea import check_min_area
from repro.drc.minstep import check_min_step
from repro.drc.spacing import check_metal_spacing
from repro.geom.rect import Rect
from repro.obs.metrics import active_registry, tick
from repro.obs.trace import active_tracer, current_span_id
from repro.tech.technology import Technology
from repro.tech.via import ViaDef


class DrcEngine:
    """Checks candidate geometry against a :class:`ShapeContext`.

    The engine is stateless; every method takes the context to check
    against, so callers can reuse one engine across instances, clusters
    and the router.
    """

    def __init__(self, tech: Technology):
        self.tech = tech

    # -- via placements ------------------------------------------------------

    def check_via_placement(
        self,
        via: ViaDef,
        x: int,
        y: int,
        net_key,
        context,
        with_min_step: bool = True,
        label: str = "via",
        min_step_rects: list = None,
    ) -> list:
        """Check dropping ``via`` at ``(x, y)`` for net ``net_key``.

        Performs, in TritonRoute's pin-access scope:

        * bottom/top enclosure metal spacing + EOL vs foreign shapes;
        * cut spacing vs other cuts;
        * min-step on the merged polygon of the bottom enclosure and
          the same-net metal it lands on (the Figure 3 check).  By
          default the merged metal is every touching same-net context
          shape; pass ``min_step_rects`` to scope the merge explicitly
          (e.g. to the accessed pin's own shapes, excluding same-net
          metal of other cells).

        Returns the violation list (empty means DRC-clean).
        """
        # Hot path: grab the observability sinks once (a context-var
        # load each) instead of per tick; both are None-guarded so the
        # disabled cost stays two loads and two tests.
        registry = active_registry()
        tracer = active_tracer()
        record = None
        if tracer is not None:
            record = tracer.begin(
                "drc.via_placement",
                {"via": via.name, "label": label},
                current_span_id(),
            )
        t_start = 0.0
        if registry is not None:
            registry.incr("drc.check.via_placement")
            registry.incr("drc.check.metal_spacing", 2)
            registry.incr("drc.check.eol_spacing", 2)
            registry.incr("drc.check.cut_spacing")
            t_start = time.perf_counter()
        bottom_layer = self.tech.layer(via.bottom_layer)
        cut_layer = self.tech.layer(via.cut_layer)
        top_layer = self.tech.layer(via.top_layer)
        bottom = via.bottom_at(x, y)
        cut = via.cut_at(x, y)
        top = via.top_at(x, y)

        violations = []
        violations.extend(
            check_metal_spacing(bottom_layer, bottom, net_key, context, label)
        )
        violations.extend(
            check_eol_spacing(bottom_layer, bottom, net_key, context, label)
        )
        violations.extend(
            check_metal_spacing(top_layer, top, net_key, context, label)
        )
        violations.extend(
            check_eol_spacing(top_layer, top, net_key, context, label)
        )
        violations.extend(
            check_cut_spacing(cut_layer, cut, net_key, context, label)
        )
        if with_min_step:
            if min_step_rects is not None:
                merged = [bottom] + [
                    r for r in min_step_rects if r.intersects(bottom)
                ]
            else:
                merged = [bottom] + self._touching_same_net(
                    bottom_layer.name, bottom, net_key, context
                )
            violations.extend(check_min_step(bottom_layer, merged, label))
        if registry is not None:
            registry.observe(
                "drc.check.via_placement.seconds",
                time.perf_counter() - t_start,
            )
        if record is not None:
            record["attrs"]["violations"] = len(violations)
            tracer.end(record)
        return violations

    def check_via_pair(
        self, via_a: ViaDef, pa, via_b: ViaDef, pb, same_net: bool = False
    ) -> list:
        """Check two via placements against each other only.

        This is the pairwise compatibility predicate the DP edge costs
        use (paper Algorithm 3 ``isDRCClean``): the vias of two access
        points must obey metal spacing on both enclosure layers, cut
        spacing, and min-step does not apply across nets.  ``pa`` /
        ``pb`` are ``(x, y)`` tuples.

        Net-key handling is deliberate: the probe via always checks as
        net ``"a"``; with ``same_net=True`` the context via is keyed
        ``"a"`` as well, so the same-net pair is *exempt* from metal
        spacing and EOL (same-net metal may abut or short) while cut
        spacing still applies -- ``check_cut_spacing`` only skips the
        identical cut rect, because two distinct same-net cuts (e.g.
        stacked or redundant vias) still need cut-to-cut spacing.
        ``tests/test_drc_engine.py`` pins this contract.
        """
        tick("drc.check.via_pair")
        ctx = _PairContext(via_b, pb, net_key="b" if not same_net else "a")
        return self.check_via_placement(
            via_a,
            pa[0],
            pa[1],
            "a",
            ctx,
            with_min_step=False,
            label="via-pair",
        )

    # -- plain metal ----------------------------------------------------------

    def check_metal_rect(
        self,
        layer_name: str,
        rect: Rect,
        net_key,
        context,
        label: str = "wire",
    ) -> list:
        """Check one metal rect (spacing + EOL) against the context."""
        layer = self.tech.layer(layer_name)
        violations = []
        violations.extend(
            check_metal_spacing(layer, rect, net_key, context, label)
        )
        violations.extend(
            check_eol_spacing(layer, rect, net_key, context, label)
        )
        return violations

    def check_polygon(
        self, layer_name: str, rects: list, label: str = "metal"
    ) -> list:
        """Check min-step and min-area on a merged metal polygon."""
        layer = self.tech.layer(layer_name)
        violations = []
        violations.extend(check_min_step(layer, rects, label))
        violations.extend(check_min_area(layer, rects, label))
        return violations

    # -- helpers --------------------------------------------------------------

    def _touching_same_net(
        self, layer_name: str, rect: Rect, net_key, context
    ) -> list:
        """Return same-net context rects that touch/overlap ``rect``."""
        if net_key is None:
            return []
        out = []
        for other, other_key in context.query(layer_name, rect):
            if other_key == net_key and other.intersects(rect):
                out.append(other)
        return out

    @staticmethod
    def dedupe(violations: list) -> list:
        """Collapse symmetric duplicates (A-vs-B and B-vs-A reports)."""
        seen = set()
        unique = []
        for v in violations:
            key = (v.rule, v.layer_name, v.marker)
            if key in seen:
                continue
            seen.add(key)
            unique.append(v)
        return unique


class _PairContext:
    """A minimal context exposing exactly one via's three shapes."""

    def __init__(self, via: ViaDef, at, net_key):
        x, y = at
        self._shapes = {
            via.bottom_layer: [(via.bottom_at(x, y), net_key)],
            via.cut_layer: [(via.cut_at(x, y), net_key)],
            via.top_layer: [(via.top_at(x, y), net_key)],
        }

    def query(self, layer_name: str, window: Rect) -> list:
        return [
            (rect, key)
            for rect, key in self._shapes.get(layer_name, ())
            if rect.intersects(window)
        ]
