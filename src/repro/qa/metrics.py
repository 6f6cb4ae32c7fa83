"""Paper-style quality metrics in a stable, gateable JSON schema.

``quality_metrics`` extracts from a :class:`PinAccessResult` the
numbers the paper's evaluation reports -- average access points per
pin and k-coverage (Table II territory), pattern validity, boundary
conflicts and cluster cost (Step 3), failed pins (Table III) -- as a
flat JSON-serializable dict stamped with ``METRICS_SCHEMA``.

The same schema underpins the ``BENCH_*.json`` perf baselines:
``bench_entry`` wraps a measurement into the shared envelope
(``design`` / ``scale`` / ``cells`` identity, ``perf`` timings,
``derived`` speedups, ``context`` host facts).

``compare_metrics`` is the quality gate: each metric has a known
"better" direction, improvements always pass, and any regression
fails (goldens stay bit-exact at zero tolerance).
"""

from __future__ import annotations

METRICS_SCHEMA = "repro.qa.metrics/v1"
BENCH_SCHEMA = "repro.qa.bench/v1"

#: Which way is better, per gated metric.  Metrics absent here (design
#: identity, schema stamps) are compared for information only.
METRIC_DIRECTIONS = {
    "access_points": "higher",
    "avg_aps_per_pin": "higher",
    "k_coverage": "higher",
    "patterns": "higher",
    "pattern_validity_rate": "higher",
    "boundary_conflicts": "lower",
    "cluster_cost": "lower",
    "failed_pins": "lower",
    "failed_pins_internal": "lower",
}

def quality_metrics(result, failed: list = None) -> dict:
    """Extract the gated quality metrics from a result.

    ``failed`` is the output of
    :func:`repro.core.framework.evaluate_failed_pins` (the paper's
    fair, independently-scored Table III metric); when omitted, the
    scorer is run here.  ``failed_pins_internal`` is the framework's
    own bookkeeping (``result.failed_pins()``) -- the two agreeing is
    itself a useful invariant.
    """
    if failed is None:
        from repro.core.framework import evaluate_failed_pins

        failed = evaluate_failed_pins(result.design, result.access_map())
    num_pins = 0
    covered_k = 0
    k = result.config.k
    for ua in result.unique_accesses:
        for aps in ua.aps_by_pin.values():
            num_pins += 1
            if len(aps) >= k:
                covered_k += 1
    total_aps = result.total_access_points
    patterns = sum(len(ua.patterns) for ua in result.unique_accesses)
    clean = sum(
        1
        for ua in result.unique_accesses
        for pattern in ua.patterns
        if pattern.is_clean
    )
    selection = result.selection
    cluster_cost = 0
    conflicts = 0
    if selection is not None:
        cluster_cost = sum(
            s.pattern.cost
            for s in selection.selection.values()
            if s.pattern is not None
        )
        conflicts = len(selection.conflicts)
    connected = len(result.design.connected_pins())
    return {
        "schema": METRICS_SCHEMA,
        "design": result.design.name,
        "cells": result.design.stats()["num_std_cells"],
        "unique_instances": result.num_unique_instances,
        "connected_pins": connected,
        "access_points": total_aps,
        "avg_aps_per_pin": _ratio(total_aps, num_pins),
        "k": k,
        "k_coverage": _ratio(covered_k, num_pins),
        "patterns": patterns,
        "pattern_validity_rate": _ratio(clean, patterns),
        "boundary_conflicts": conflicts,
        "cluster_cost": cluster_cost,
        "failed_pins": len(failed),
        "failed_pins_internal": len(result.failed_pins()),
        "failed_pin_rate": _ratio(len(failed), connected),
    }


def _ratio(num: int, den: int) -> float:
    return round(num / den, 6) if den else 0.0


def gate_value(want, have, direction: str) -> str:
    """Classify one golden-vs-current value pair.

    Returns ``ok`` (unchanged), ``improved`` or ``regressed`` (the
    failing verdict).  ``direction`` names which way is better
    (``higher`` or ``lower``); a missing current value is always a
    regression.
    """
    if have is None:
        return "regressed"
    delta = have - want
    if delta == 0:
        return "ok"
    worse = delta < 0 if direction == "higher" else delta > 0
    return "regressed" if worse else "improved"


def compare_metrics(golden: dict, current: dict) -> list:
    """Gate ``current`` against ``golden`` metric by metric.

    Returns one row per gated metric:
    ``(name, golden value, current value, status)`` -- the statuses of
    :func:`gate_value`.
    """
    rows = []
    for name, direction in METRIC_DIRECTIONS.items():
        if name not in golden:
            continue
        want = golden[name]
        have = current.get(name)
        rows.append((name, want, have, gate_value(want, have, direction)))
    return rows


def regressions(rows: list) -> list:
    """Filter :func:`compare_metrics` rows down to the failing ones."""
    return [row for row in rows if row[3] == "regressed"]


# -- BENCH_*.json envelope ---------------------------------------------------


def bench_context() -> dict:
    """Describe the measuring host for a ``BENCH_*.json`` entry.

    One shared implementation so every benchmark records the same
    fields: logical CPU count, interpreter version and platform
    string.  Benchmarks that historically recorded only ``cpu_count``
    (or nothing) pick the full set up automatically through
    :func:`bench_entry`.
    """
    import os
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def bench_entry(
    design: str,
    scale: float,
    cells: int,
    perf: dict,
    derived: dict = None,
    context: dict = None,
    metrics: dict = None,
) -> dict:
    """Build one ``BENCH_*.json`` history entry in the shared schema.

    The host description from :func:`bench_context` is merged in
    under ``context``; caller-provided keys win on conflict.
    """
    entry = {
        "schema": BENCH_SCHEMA,
        "design": design,
        "scale": scale,
        "cells": cells,
        "perf": dict(perf),
        "derived": dict(derived or {}),
        "context": {**bench_context(), **(context or {})},
    }
    if metrics is not None:
        entry["metrics"] = dict(metrics)
    return entry
