"""Picklable task functions for the parallel pin access pipeline.

A worker process receives the shared read-only state -- the design and
the config -- once through the pool initializer (:func:`init_worker`);
tasks then reference unique instances and row clusters *by index*, so
only small keys and each task's own result cross the process boundary.
Because :func:`repro.core.signature.unique_instances` and
:meth:`repro.db.design.Design.row_clusters` are deterministic, the
worker's index space is identical to the parent's.

The same functions run in-process when ``jobs=1`` (the serial
reference path), which is what makes parallel runs bit-identical to
serial ones by construction.

This module is imported lazily by the framework (after ``repro.core``
has fully initialized) to keep the import graph acyclic.
"""

from __future__ import annotations

import time

from repro.core.apgen import AccessPointGenerator
from repro.core.arraykernel import ArrayKernel
from repro.core.cluster import (
    ClusterPatternSelector,
    ClusterSelectionResult,
    SelectedAccess,
)
from repro.core.patterngen import AccessPatternGenerator
from repro.core.signature import unique_instances
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import PairKernel
from repro.obs.collect import Collector
from repro.obs.trace import span


class WorkerState:
    """Per-process shared state, built once by :func:`init_worker`."""

    __slots__ = (
        "design", "config", "profile", "engine", "kernel", "akernel",
        "_uniques", "_clusters",
    )

    def __init__(self, design, config, profile=False, pair_tables=None,
                 array_tables=None):
        self.design = design
        self.config = config
        self.profile = profile
        self.engine = DrcEngine(design.tech)
        # One pair kernel per process, shared by every task: the
        # parent ships its prebuilt forbidden-displacement tables so
        # workers never recompile them (tables are value-keyed, hence
        # valid in any process).
        self.kernel = PairKernel(
            design.tech,
            mode=config.paircheck_mode,
            engine=self.engine,
            tables=pair_tables,
        )
        # Likewise one array kernel per process: the parent ships its
        # compiled per-cell occupancy tables (keyed by master/orient,
        # hence valid in any process) so Step 1 validation and Step 3
        # boundary checks never recompile them.
        self.akernel = ArrayKernel(
            design,
            mode=config.apcheck_mode,
            engine=self.engine,
            tables=array_tables,
        )
        self._uniques = None
        self._clusters = None

    @property
    def uniques(self):
        if self._uniques is None:
            self._uniques = unique_instances(self.design)
        return self._uniques

    @property
    def clusters(self):
        if self._clusters is None:
            self._clusters = self.design.row_clusters()
        return self._clusters


_STATE = None


def init_worker(design, config, profile=False, pair_tables=None,
                array_tables=None) -> None:
    """Pool initializer: install the shared state in this process."""
    global _STATE
    _STATE = WorkerState(design, config, profile, pair_tables, array_tables)


def compute_unique_access(
    design, engine, config, ui, kernel=None, akernel=None
) -> tuple:
    """Fused Step 1 + Step 2 for one unique instance.

    Returns ``(aps_by_pin, patterns, step1_seconds, step2_seconds)``.
    The two steps share the representative's intra-cell
    :class:`ShapeContext`, which is why they are fused into one task:
    the context is built (and, under process fan-out, shipped) once.
    ``kernel`` is the shared pair kernel and ``akernel`` the shared
    array kernel; each generator builds its own when None.
    """
    rep = ui.representative
    t0 = time.perf_counter()
    context = ShapeContext.from_instance(rep)
    generator = AccessPointGenerator(design, engine, config, akernel=akernel)
    aps_by_pin = {}
    for pin in rep.master.signal_pins():
        aps_by_pin[pin.name] = generator.generate_for_pin(rep, pin, context)
    t1 = time.perf_counter()
    patterns = AccessPatternGenerator(
        design.tech, engine, config, kernel=kernel, akernel=akernel
    ).generate(aps_by_pin, label=rep.name)
    t2 = time.perf_counter()
    return aps_by_pin, patterns, t1 - t0, t2 - t1


def step12_task(index: int) -> tuple:
    """Run fused Step 1 + 2 for unique instance ``index``.

    Returns ``(index, aps_by_pin, patterns, step1_s, step2_s, counts,
    obs_snapshot_or_None)``.  ``counts`` is the task's
    :meth:`~repro.core.arraykernel.ArrayKernel.work_counts` delta,
    which the parent sums into ``result.stats``.  The snapshot is the
    task's :meth:`repro.obs.collect.Collector.snapshot` -- metrics,
    span buffer and decision events -- which the parent merges back
    in deterministic task order.  Entering the task collector shadows
    any parent-context sinks (context-local activation), so the
    ``jobs=1`` in-process path produces exactly the per-task streams
    a worker process would.
    """
    state = _STATE
    ui = state.uniques[index]
    collector = Collector.from_config(state.config, profile=state.profile)
    before = state.akernel.work_counts()
    with collector, span(
        "step12.unique",
        index=index,
        master=ui.master_name,
        rep=ui.representative.name,
        members=len(ui.members),
    ):
        aps_by_pin, patterns, s1, s2 = compute_unique_access(
            state.design, state.engine, state.config, ui,
            state.kernel, state.akernel,
        )
    counts = _counts_since(state.akernel, before)
    return (
        index, aps_by_pin, patterns, s1, s2, counts, collector.snapshot()
    )


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
    state = _STATE
    collector = Collector.from_config(state.config, profile=state.profile)
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
        design, state.engine, config, kernel=state.kernel,
        akernel=state.akernel,
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
