"""The units of work of the pin access pipeline.

The paper splits the analysis into independent units: Steps 1 and 2
run once per unique instance (:func:`step12_unique`, whose Step 1
half is :func:`step1_unique`) and Step 3 once per row-cluster
component (:func:`step3_component`).  They are plain functions over
explicit arguments; :class:`~repro.core.framework.PinAccessFramework`
calls them in process on its own design, config and kernels, for a
full run and for every placement move alike, so a move reuses the
kernels' compiled tables and caches.

This module is imported lazily by the framework (after ``repro.core``
has fully initialized) to keep the import graph acyclic.
"""

from __future__ import annotations

import time

from repro.core.apgen import AccessPointGenerator
from repro.core.cluster import (
    ClusterPatternSelector,
    ClusterSelectionResult,
    SelectedAccess,
)
from repro.core.patterngen import AccessPatternGenerator
from repro.drc.context import ShapeContext
from repro.obs.trace import span


def step1_unique(design, config, engine, akernel, rep) -> dict:
    """Step 1 for one unique instance: pin name -> access points.

    Generates the access points of every signal pin of the
    representative ``rep`` against its intra-cell context.
    """
    context = ShapeContext.from_instance(rep)
    generator = AccessPointGenerator(design, engine, config, akernel=akernel)
    return {
        pin.name: generator.generate_for_pin(rep, pin, context)
        for pin in rep.master.signal_pins()
    }


def step12_unique(design, config, engine, kernel, akernel, ui,
                  index: int) -> tuple:
    """Run fused Step 1 + 2 for unique instance ``ui``.

    ``index`` is the instance's position in the caller's list; it
    labels the ``step12.unique`` span.  Returns ``(aps_by_pin,
    patterns, step1_s, step2_s)``.
    """
    rep = ui.representative
    with span(
        "step12.unique",
        index=index,
        master=ui.master_name,
        rep=rep.name,
        members=len(ui.members),
    ):
        t0 = time.perf_counter()
        aps_by_pin = step1_unique(design, config, engine, akernel, rep)
        t1 = time.perf_counter()
        patterns = AccessPatternGenerator(
            design.tech, engine, config, kernel=kernel, akernel=akernel,
        ).generate(aps_by_pin, label=rep.name)
        t2 = time.perf_counter()
    return aps_by_pin, patterns, t1 - t0, t2 - t1


def step3_component(design, config, kernel, akernel, clusters,
                    component: list, ua_of_inst: dict,
                    translations: dict) -> tuple:
    """Run the Step 3 cluster DP over one cluster component.

    ``component`` lists indices into ``clusters`` in design order.
    Clusters sharing an instance (multi-height cells) always land in
    the same component, so the pinning semantics -- a lower row's
    choice is kept in upper rows -- hold inside it.  ``ua_of_inst``
    and ``translations`` map each member's name to its unique access
    and to its ``(dx, dy)`` from that access's coordinates.

    Returns ``(selection, per_cluster)``: ``selection`` maps every
    member's name to its :class:`SelectedAccess`, ``per_cluster``
    lists ``(cluster_index, conflicts)`` in component order.
    """
    with span(
        "step3.component", clusters=len(component), first=component[0]
    ):
        names = sorted(
            {inst.name for ci in component for inst in clusters[ci]}
        )
        candidates_by_inst = {}
        for name in names:
            dx, dy = translations[name]
            inst = design.instance(name)
            candidates_by_inst[name] = [
                SelectedAccess(inst=inst, pattern=p, dx=dx, dy=dy)
                for p in ua_of_inst[name].patterns
            ]

        alternatives_fn = None
        if config.boundary_conflict_aware:
            aps_by_inst = {name: ua_of_inst[name].aps_by_pin for name in names}

            def alternatives_fn(inst_name, pin_name):
                return aps_by_inst.get(inst_name, {}).get(pin_name, [])

        selector = ClusterPatternSelector(
            design, config, kernel=kernel, akernel=akernel
        )
        result = ClusterSelectionResult()
        per_cluster = []
        for ci in component:
            before = len(result.conflicts)
            selector.select_cluster(
                clusters[ci], candidates_by_inst, result, alternatives_fn
            )
            per_cluster.append((ci, result.conflicts[before:]))
    return result.selection, per_cluster
