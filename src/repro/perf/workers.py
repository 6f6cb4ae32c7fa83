"""Picklable task functions for the pin access pipeline.

A worker process receives the shared read-only state -- the design,
the config, the framework's two kernels and the unique instances or
row clusters of the fan-out -- once through the pool initializer
(:func:`init_worker`); tasks then reference unique instances and row
clusters *by index*, so only small keys and each task's own result
cross the process boundary.

The same functions run in-process when ``jobs=1`` (the serial
reference path, and every placement move), which is what makes
parallel runs bit-identical to serial ones by construction.  In
process the state holds the framework's own kernel objects, so a
move reuses their compiled tables and caches.

This module is imported lazily by the framework (after ``repro.core``
has fully initialized) to keep the import graph acyclic.
"""

from __future__ import annotations

import threading
import time

from repro.core.apgen import AccessPointGenerator
from repro.core.cluster import (
    ClusterPatternSelector,
    ClusterSelectionResult,
    SelectedAccess,
)
from repro.core.patterngen import AccessPatternGenerator
from repro.drc.context import ShapeContext
from repro.obs.collect import Collector
from repro.obs.trace import span


class WorkerState:
    """Per-process shared state, installed by :func:`init_worker`.

    ``kernel`` (pair kernel) and ``akernel`` (array kernel) are the
    framework's: a worker process gets copies carrying the compiled
    tables, so it never recompiles them.  ``uniques`` and ``clusters``
    are the fan-out's index spaces for Step 1/2 and Step 3 tasks.
    """

    __slots__ = (
        "design", "config", "engine", "kernel", "akernel", "uniques",
        "clusters",
    )

    def __init__(self, design, config, kernel, akernel, uniques, clusters):
        self.design = design
        self.config = config
        self.engine = akernel.engine
        self.kernel = kernel
        self.akernel = akernel
        self.uniques = uniques
        self.clusters = clusters


# Per thread: the in-process path runs the initializer and its tasks
# in the calling thread, and daemon sessions analyze and move designs
# from concurrent threads.  A worker process runs both in one thread.
_LOCAL = threading.local()


def init_worker(design, config, kernel, akernel, uniques=(),
                clusters=()) -> None:
    """Pool initializer: install the shared state in this thread."""
    _LOCAL.state = WorkerState(
        design, config, kernel, akernel, uniques, clusters
    )


def release_worker() -> None:
    """Drop this thread's state once its fan-out is done.

    In process the state holds the framework's design and kernels;
    keeping it would pin them, and their memos, past the framework.
    """
    _LOCAL.state = None


def step12_task(index: int) -> tuple:
    """Run fused Step 1 + 2 for unique instance ``index``.

    The two steps share the representative's intra-cell
    :class:`ShapeContext`, which is why they are fused into one task:
    the context is built once.  Returns ``((index, aps_by_pin,
    patterns, step1_s, step2_s), counts, obs_snapshot_or_None)``.
    ``counts`` is the task's
    :meth:`~repro.core.arraykernel.ArrayKernel.work_counts` delta,
    which the parent sums into ``result.stats``.  The snapshot is the
    task's :meth:`repro.obs.collect.Collector.snapshot` -- metrics,
    span buffer and decision events -- which the parent merges back
    in deterministic task order.  Entering the task collector shadows
    any parent-context sinks (context-local activation), so the
    ``jobs=1`` in-process path produces exactly the per-task streams
    a worker process would.
    """
    state = _LOCAL.state
    ui = state.uniques[index]
    rep = ui.representative
    collector = Collector.from_config(state.config)
    before = state.akernel.work_counts()
    with collector, span(
        "step12.unique",
        index=index,
        master=ui.master_name,
        rep=rep.name,
        members=len(ui.members),
    ):
        t0 = time.perf_counter()
        context = ShapeContext.from_instance(rep)
        generator = AccessPointGenerator(
            state.design, state.engine, state.config, akernel=state.akernel
        )
        aps_by_pin = {
            pin.name: generator.generate_for_pin(rep, pin, context)
            for pin in rep.master.signal_pins()
        }
        t1 = time.perf_counter()
        patterns = AccessPatternGenerator(
            state.design.tech, state.engine, state.config,
            kernel=state.kernel, akernel=state.akernel,
        ).generate(aps_by_pin, label=rep.name)
        t2 = time.perf_counter()
    counts = _counts_since(state.akernel, before)
    value = (index, aps_by_pin, patterns, t1 - t0, t2 - t1)
    return value, counts, collector.snapshot()


def step3_task(payload: dict) -> tuple:
    """Run the Step 3 cluster DP over one cluster component.

    ``payload`` carries:

    * ``clusters`` -- global cluster indices of the component, in
      design order.  Clusters sharing an instance (multi-height cells)
      always land in the same component, so the serial pinning
      semantics -- a lower row's choice is kept in upper rows -- are
      preserved inside the task.
    * ``patterns`` -- instance name -> list of candidate
      :class:`AccessPattern` (the unique instance's Step 2 output).
    * ``translations`` -- instance name -> ``(dx, dy)`` from the
      representative's coordinates.
    * ``aps`` -- instance name -> Step 1 ``aps_by_pin`` powering the
      conflict-repair post-pass, or None when BCA is off.

    Returns ``(per_cluster, counts, obs_snapshot_or_None)`` where
    ``per_cluster`` is a list of ``(cluster_index, selections,
    conflicts)`` and each selection is the lean transport triple
    ``(inst_name, pattern_index_or_None, overrides)``.  ``counts``
    and the snapshot are as in :func:`step12_task`.
    """
    state = _LOCAL.state
    collector = Collector.from_config(state.config)
    before = state.akernel.work_counts()
    with collector, span(
        "step3.component",
        clusters=len(payload["clusters"]),
        first=payload["clusters"][0] if payload["clusters"] else None,
    ):
        per_cluster = _run_step3_component(state, payload)
    counts = _counts_since(state.akernel, before)
    return per_cluster, counts, collector.snapshot()


def _counts_since(akernel, before: dict) -> dict:
    return {
        name: count - before[name]
        for name, count in akernel.work_counts().items()
    }


def _run_step3_component(state, payload) -> list:
    design = state.design
    config = state.config
    patterns_by_inst = payload["patterns"]
    translations = payload["translations"]
    aps_by_inst = payload.get("aps")

    candidates_by_inst = {}
    for inst_name, patterns in patterns_by_inst.items():
        dx, dy = translations[inst_name]
        inst = design.instance(inst_name)
        candidates_by_inst[inst_name] = [
            SelectedAccess(inst=inst, pattern=p, dx=dx, dy=dy)
            for p in patterns
        ]

    alternatives_fn = None
    if aps_by_inst is not None:

        def alternatives_fn(inst_name, pin_name):
            return aps_by_inst.get(inst_name, {}).get(pin_name, [])

    selector = ClusterPatternSelector(
        design, config, kernel=state.kernel, akernel=state.akernel
    )
    result = ClusterSelectionResult()
    per_cluster = []
    for ci in payload["clusters"]:
        cluster = state.clusters[ci]
        before = len(result.conflicts)
        selector.select_cluster(
            cluster, candidates_by_inst, result, alternatives_fn
        )
        selections = []
        for inst in cluster:
            selected = result.selection[inst.name]
            pattern_index = None
            if selected.pattern is not None:
                pattern_index = _index_of_pattern(
                    patterns_by_inst.get(inst.name, ()), selected.pattern
                )
            selections.append(
                (inst.name, pattern_index, dict(selected.overrides))
            )
        per_cluster.append((ci, selections, result.conflicts[before:]))
    return per_cluster


def _index_of_pattern(patterns, pattern) -> int:
    for k, candidate in enumerate(patterns):
        if candidate is pattern:
            return k
    # A pattern that is not one of the shipped candidates cannot be
    # selected by the DP; reaching this is a programming error.
    raise ValueError("selected pattern not among candidates")
