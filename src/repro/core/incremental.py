"""Incremental pin access maintenance across placement edits.

The paper's motivation for Step 3's speed (Sec. IV, Experiment 2):
"runtime is one of the most important aspects of a pin access analysis
framework in physical design, especially for support of placement
optimizations (i.e., detailed placement, sizing, buffering), where
frequent changes in placement require a tremendous amount of
inter-cell pin access analysis."

:class:`IncrementalPinAccess` serves exactly that loop.  It is
bookkeeping around the framework's own Step 1-3 path: after a full
analysis, moving an instance only

1. re-derives the instance's signature -- the per-unique-instance
   Step 1/2 results are kept by signature and reused whenever the new
   placement lands on an already-analyzed offset class; a new class
   goes through the framework's cache-then-compute Step 1/2 path; and
2. re-runs Step 3 over the clusters of the affected cluster
   components -- every component with a cluster in a row the moved
   instance spans before or after the move -- in one pass of the
   framework's Step 3, on the configured backend, leaving the rest of
   the selection untouched.

Components share no instance, so the result equals a from-scratch
re-analysis (asserted by tests and measured by
``benchmarks/test_incremental.py``) at a small fraction of the cost.
"""

from __future__ import annotations

import time

from repro.core.cluster import ClusterSelectionResult
from repro.core.config import PaafConfig
from repro.core.framework import PinAccessFramework, UniqueInstanceAccess
from repro.core.oracle import UnknownInstanceError
from repro.core.signature import UniqueInstance, instance_signature
from repro.db.design import Design
from repro.geom.point import Point


class IncrementalPinAccess:
    """Pin access that survives placement edits cheaply."""

    def __init__(self, design: Design, config: PaafConfig = None):
        self.design = design
        self.config = config or PaafConfig()
        self.framework = PinAccessFramework(design, self.config)
        self._ua_by_signature = {}
        # Analysis-time origin of each cached unique access: the
        # representative's location when its Step 1/2 geometry was
        # computed.  Translations MUST use this, not the live
        # ``representative.location`` -- when the representative itself
        # is later moved within its signature class, the live location
        # drifts away from the coordinates the cached APs are expressed
        # in, and rep-relative translation would silently pin the
        # moved instance's answers to its old placement.
        self._ua_origin = {}
        self._selection = ClusterSelectionResult()
        self._last_update_seconds = 0.0

    # -- full analysis -------------------------------------------------------

    def analyze(self) -> None:
        """Run the full three-step flow and prime the caches."""
        result = self.framework.run()
        for ua in result.unique_accesses:
            self._remember(ua)
        self._selection = result.selection

    # -- queries --------------------------------------------------------------

    def access_map(self) -> dict:
        """Return (inst, pin) -> access point over the current placement."""
        out = {}
        for inst_name, selected in self._selection.selection.items():
            for pin_name, ap in selected.access_points().items():
                out[(inst_name, pin_name)] = ap
        return out

    def conflicts(self) -> list:
        """Return all residual inter-cell conflicts."""
        return list(self._selection.conflicts)

    def unique_access_of(self, inst) -> UniqueInstanceAccess:
        """Return the Step 1/2 results covering ``inst``.

        Analyzes (or loads from the persistent AP cache) on first
        sight of a signature; subsequent lookups are a dict hit.  The
        serving layer uses this to enumerate every instance's
        alternative access points when publishing a snapshot.
        """
        signature = instance_signature(self.design, inst)
        ua = self._ua_by_signature.get(signature)
        if ua is None:
            ui = UniqueInstance(signature=signature, representative=inst)
            ui.members.append(inst)
            (ua,) = self.framework.analyze_uniques([ui])
            self._remember(ua)
        return ua

    def translation_of(self, inst) -> tuple:
        """Return ``(dx, dy)`` mapping cached AP coords onto ``inst``.

        Relative to the unique access's *analysis-time* origin (see
        ``_ua_origin``), which stays correct even after the
        representative itself has been moved.
        """
        ua = self.unique_access_of(inst)
        ox, oy = self._ua_origin[ua.unique_instance.signature]
        return (inst.location.x - ox, inst.location.y - oy)

    @property
    def last_update_seconds(self) -> float:
        """Return the wall time of the most recent incremental update."""
        return self._last_update_seconds

    # -- edits ----------------------------------------------------------------

    def move_instance(self, inst_name: str, new_location: Point) -> None:
        """Move an instance and repair the analysis incrementally.

        Raises :class:`~repro.core.oracle.UnknownInstanceError` (a
        ``KeyError`` subclass) when ``inst_name`` is not in the design.
        """
        t0 = time.perf_counter()
        design = self.design
        try:
            inst = design.instance(inst_name)
        except KeyError:
            raise UnknownInstanceError(inst_name) from None
        rows = set(design.rows_of(inst))
        inst.location = new_location
        rows.update(design.rows_of(inst))

        clusters = design.row_clusters()
        affected = sorted(
            ci
            for component in cluster_components(clusters)
            if any(
                member is inst or rows.intersection(design.rows_of(member))
                for ci in component
                for member in clusters[ci]
            )
            for ci in component
        )
        clusters = [clusters[ci] for ci in affected]
        members = {
            member.name: member for cluster in clusters for member in cluster
        }
        partial = self.framework.select_patterns(
            clusters,
            {n: self.unique_access_of(m) for n, m in members.items()},
            {n: self.translation_of(m) for n, m in members.items()},
        )
        self._selection.selection.update(partial.selection)
        # A conflict pairs two neighbors of one cluster, so either both
        # or neither of its instances were re-selected.
        self._selection.conflicts = [
            conflict
            for conflict in self._selection.conflicts
            if conflict[0] not in members
        ] + partial.conflicts
        self._last_update_seconds = time.perf_counter() - t0

    # -- internals ------------------------------------------------------------

    def _remember(self, ua: UniqueInstanceAccess) -> None:
        ui = ua.unique_instance
        self._ua_by_signature[ui.signature] = ua
        rep = ui.representative
        self._ua_origin[ui.signature] = (rep.location.x, rep.location.y)


def cluster_components(clusters: list) -> list:
    """Group cluster indices into instance-sharing components.

    Two clusters belong to the same component when they share an
    instance (a multi-height cell is a member of every row it covers).
    Components are returned as sorted index lists, ordered by their
    first cluster.  A component may skip indices (clusters 0 and 2),
    so component order is not cluster order.
    """
    parent = list(range(len(clusters)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    owner = {}
    for ci, cluster in enumerate(clusters):
        for inst in cluster:
            prev = owner.get(inst.name)
            if prev is None:
                owner[inst.name] = ci
            else:
                parent[find(ci)] = find(prev)
    components = {}
    for ci in range(len(clusters)):
        components.setdefault(find(ci), []).append(ci)
    return sorted(
        (sorted(members) for members in components.values()),
        key=lambda members: members[0],
    )
