"""Min-step checks on merged metal polygons.

This is the rule behind paper Figure 3: dropping a via whose enclosure
partially overhangs the pin shape creates short boundary edges on the
merged (pin + enclosure) polygon.  On-track and half-track positions
can violate while shape-center and enclosure-boundary positions are
clean -- which is exactly why the coordinate-type ladder exists.
"""

from __future__ import annotations

from repro.drc.violations import Violation
from repro.geom.polygon import boundary_edges
from repro.geom.rect import Rect
from repro.tech.layer import Layer


def check_min_step(layer: Layer, rects: list, label: str = "metal") -> list:
    """Check min-step on the union of ``rects``.

    A maximal run of more than ``max_edges`` consecutive boundary edges
    shorter than ``min_step_length`` is a violation.  The node presets
    use ``max_edges = 0`` (classic LEF semantics): any short edge
    violates.
    """
    rule = layer.min_step
    if rule is None or not rects:
        return []
    violations = []
    for loop in boundary_edges(rects):
        violations.extend(_check_loop(layer, loop, rule, label))
    return violations


def _check_loop(layer: Layer, loop: list, rule, label: str) -> list:
    n = len(loop)
    if n < 4:
        return []
    limit = rule.min_step_length
    short = [
        abs(ax - bx) + abs(ay - by) < limit
        for (ax, ay), (bx, by) in zip(loop, loop[1:] + loop[:1])
    ]
    if all(short):
        # Degenerate tiny polygon: one violation covering it all.
        return [
            Violation(
                rule="min-step",
                layer_name=layer.name,
                marker=_loop_bbox(loop),
                objects=(label,),
            )
        ]
    violations = []
    # Walk maximal runs of consecutive short edges.  Start scanning at a
    # long edge so runs are not split across the wrap-around point.
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
                violations.append(
                    _run_violation(layer, loop, run_start, run, label)
                )
            run = 0
    if run > rule.max_edges:
        violations.append(_run_violation(layer, loop, run_start, run, label))
    return violations


def _run_violation(
    layer: Layer, loop: list, run_start: int, run: int, label: str
):
    n = len(loop)
    pts = [loop[(run_start + i) % n] for i in range(run + 1)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return Violation(
        rule="min-step",
        layer_name=layer.name,
        marker=Rect(min(xs), min(ys), max(xs), max(ys)),
        objects=(label,),
    )


def _loop_bbox(loop: list) -> Rect:
    xs = [p[0] for p in loop]
    ys = [p[1] for p in loop]
    return Rect(min(xs), min(ys), max(xs), max(ys))
