"""Incremental pin access maintenance across placement edits.

The paper's motivation for Step 3's speed (Sec. IV, Experiment 2):
"runtime is one of the most important aspects of a pin access analysis
framework in physical design, especially for support of placement
optimizations (i.e., detailed placement, sizing, buffering), where
frequent changes in placement require a tremendous amount of
inter-cell pin access analysis."

:class:`IncrementalPinAccess` serves exactly that loop.  It is
bookkeeping around the framework's own Step 1-3 path, sized so that a
move costs time in proportion to what moved:

* each instance's ``(unique access, translation)`` is memoised; a
  move drops only the moved instance's entry.  Its new signature
  reuses the per-unique-instance Step 1/2 results whenever it lands on
  an already-analyzed offset class; a new class goes through the
  framework's cache-then-compute Step 1/2 path;
* a per-row index keeps each row's members and clusters (the lists
  :meth:`~repro.db.design.Design.row_clusters` returns, chunked by
  the same :func:`~repro.db.design.row_chunks`); a move re-chunks only
  the rows the instance left and entered;
* Step 3 re-runs over the clusters of the components the move
  changed -- every component holding a re-chunked cluster that holds
  the moved instance or whose members the move changed (for a legal
  placement: a cluster of the moved instance or of a former
  cluster-mate), found by walking the index through multi-height
  members -- in one pass of the framework's Step 3, on the configured
  backend, leaving the rest of the selection untouched.
  :meth:`IncrementalPinAccess.move_instance` returns that partial
  selection, so a caller can republish just what changed;
* that pass reads and extends the framework's boundary verdicts
  (:attr:`~repro.core.framework.PinAccessFramework.verdicts`), kept
  across passes: a verdict is keyed by two patterns and the
  displacement between their instances, so no move invalidates it.

The clusters of a row are independent DPs, linked only through
multi-height members, and components share no instance.  A cluster
that keeps its members, their placements and its component therefore
keeps its selection, so the result equals a from-scratch re-analysis
(asserted by tests, including a seeded move-sequence property, and
measured by ``benchmarks/test_incremental.py``).
"""

from __future__ import annotations

import time

from repro.core.cluster import ClusterSelectionResult
from repro.core.config import PaafConfig
from repro.core.framework import (
    PinAccessFramework,
    PinAccessResult,
    UniqueInstanceAccess,
)
from repro.core.signature import UniqueInstance, instance_signature
from repro.db.design import Design, row_chunks
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
        # Instance name -> (unique access, (dx, dy)) at its current
        # placement; a move drops the moved instance's entry only.
        self._placed = {}
        # Row y -> members left to right, and -> their row_chunks.
        self._row_members = {}
        self._row_clusters = {}
        self._macros = []
        self._order = {}
        self._selection = ClusterSelectionResult()
        self._last_update_seconds = 0.0

    # -- full analysis -------------------------------------------------------

    def analyze(self) -> PinAccessResult:
        """Run the full three-step flow and prime the caches.

        Returns the run's :class:`~repro.core.framework.PinAccessResult`;
        later moves repair a copy of its selection, not the run's own.
        """
        result = self.framework.run()
        for ua in result.unique_accesses:
            self._remember(ua)
        self._placed = result.placements()
        self._selection = ClusterSelectionResult(
            dict(result.selection.selection), list(result.selection.conflicts)
        )
        design = self.design
        self._order = {name: k for k, name in enumerate(design.instances)}
        self._row_members, self._macros = design.row_members()
        self._row_clusters = {
            y: row_chunks(members)
            for y, members in self._row_members.items()
        }
        return result

    # -- queries --------------------------------------------------------------

    @property
    def selection(self) -> ClusterSelectionResult:
        """Return the current Step 3 result (read-only by contract)."""
        return self._selection

    def access_map(self) -> dict:
        """Return (inst, pin) -> access point over the current placement."""
        return self._selection.access_map()

    def conflicts(self) -> list:
        """Return all residual inter-cell conflicts."""
        return list(self._selection.conflicts)

    def clusters(self) -> list:
        """Return the row clusters of the current placement.

        The same lists, in the same order, as
        :meth:`~repro.db.design.Design.row_clusters`, read from the
        per-row index.
        """
        out = []
        for y in sorted(self._row_clusters):
            out.extend(self._row_clusters[y])
        out.extend([inst] for inst in self._macros)
        return out

    def placement_of(self, inst) -> tuple:
        """Return ``(unique access, (dx, dy))`` for ``inst`` where it is.

        The unique access holds the Step 1/2 results covering
        ``inst`` -- analyzed (or loaded from the persistent AP cache)
        on first sight of a signature -- and ``(dx, dy)`` maps its
        coordinates onto ``inst``.  The offset is taken from the
        access's *analysis-time* origin (see ``_ua_origin``), which
        stays correct even after the representative itself has been
        moved.  Memoised per instance until the instance moves.
        """
        entry = self._placed.get(inst.name)
        if entry is None:
            signature = instance_signature(self.design, inst)
            ua = self._ua_by_signature.get(signature)
            if ua is None:
                ui = UniqueInstance(signature=signature, representative=inst)
                ui.members.append(inst)
                (ua,) = self.framework.analyze_uniques([ui])
                self._remember(ua)
            ox, oy = self._ua_origin[signature]
            entry = (ua, (inst.location.x - ox, inst.location.y - oy))
            self._placed[inst.name] = entry
        return entry

    @property
    def last_update_seconds(self) -> float:
        """Return the wall time of the most recent incremental update."""
        return self._last_update_seconds

    # -- edits ----------------------------------------------------------------

    def move_instance(
        self, inst_name: str, new_location: Point
    ) -> ClusterSelectionResult:
        """Move an instance and repair the analysis incrementally.

        Returns the partial Step 3 result: the selection of every
        instance this move re-selected (and their conflicts), already
        merged into the current selection.

        Raises :class:`~repro.core.oracle.UnknownInstanceError` (a
        ``KeyError`` subclass) when ``inst_name`` is not in the design.
        """
        t0 = time.perf_counter()
        design = self.design
        try:
            inst = design.instance(inst_name)
        except KeyError:
            # Imported here: repro.core.oracle builds on this module.
            from repro.core.oracle import UnknownInstanceError

            raise UnknownInstanceError(inst_name) from None
        left = design.rows_of(inst)
        inst.location = new_location
        self._placed.pop(inst_name, None)
        entered = design.rows_of(inst)
        if entered:
            clusters = self._affected_clusters(
                self._reindex(inst, left, entered)
            )
        else:
            # A macro joins no row: its component is its own singleton.
            clusters = [[inst]]
        placements = {
            member.name: self.placement_of(member)
            for cluster in clusters
            for member in cluster
        }
        partial = self.framework.select_patterns(clusters, placements)
        self._selection.selection.update(partial.selection)
        # A conflict pairs two neighbors of one cluster, so either both
        # or neither of its instances were re-selected.
        self._selection.conflicts = [
            conflict
            for conflict in self._selection.conflicts
            if conflict[0] not in placements
        ] + partial.conflicts
        self._last_update_seconds = time.perf_counter() - t0
        return partial

    # -- internals ------------------------------------------------------------

    def _remember(self, ua: UniqueInstanceAccess) -> None:
        ui = ua.unique_instance
        self._ua_by_signature[ui.signature] = ua
        rep = ui.representative
        self._ua_origin[ui.signature] = (rep.location.x, rep.location.y)

    def _reindex(self, inst, left: list, entered: list) -> list:
        """Splice ``inst`` out of the rows ``left`` and into ``entered``.

        Members stay sorted as ``Design.row_members`` sorts them
        (x, then insertion order), and only those rows are re-chunked.
        Returns the ``(row y, index)`` of every re-chunked cluster
        that holds ``inst`` or whose members differ from every cluster
        its row had before the move.  For a legal placement these are
        the clusters of ``inst`` and of its former cluster-mates; an
        overlapping one can also split off a cluster ``inst`` never
        joins (:func:`~repro.db.design.row_chunks` links each member
        to its left neighbor only).
        """
        order = self._order
        rows = set(left).union(entered)
        before = {
            (y, tuple(member.name for member in cluster))
            for y in rows
            for cluster in self._row_clusters.get(y, ())
        }
        for y in left:
            self._row_members[y] = [
                member for member in self._row_members[y] if member is not inst
            ]
        for y in entered:
            members = self._row_members.setdefault(y, [])
            members.append(inst)
            members.sort(key=lambda i: (i.location.x, order[i.name]))
        changed = []
        for y in rows:
            members = self._row_members[y]
            if not members:
                del self._row_members[y]
                del self._row_clusters[y]
                continue
            self._row_clusters[y] = row_chunks(members)
            for index, cluster in enumerate(self._row_clusters[y]):
                names = tuple(member.name for member in cluster)
                if inst.name in names or (y, names) not in before:
                    changed.append((y, index))
        return changed

    def _affected_clusters(self, seeds: list) -> list:
        """Return the clusters of every component holding a seed.

        ``seeds`` are ``(row y, index)`` keys of the per-row index.
        The walk starts from them and follows multi-height members
        into the clusters of the other rows they span.  Clusters come
        back in design cluster order (row y, then left to right).
        """
        design = self.design
        row_clusters = self._row_clusters
        seen = set(seeds)
        frontier = list(seen)
        while frontier:
            y, index = frontier.pop()
            for member in row_clusters[y][index]:
                spans = design.rows_of(member)
                if len(spans) < 2:
                    continue
                for other in spans:
                    key = (other, _index_of(row_clusters[other], member))
                    if key not in seen:
                        seen.add(key)
                        frontier.append(key)
        return [row_clusters[y][index] for y, index in sorted(seen)]


def _index_of(clusters: list, inst) -> int:
    """Return the index of the cluster in ``clusters`` holding ``inst``."""
    for index, cluster in enumerate(clusters):
        if any(member is inst for member in cluster):
            return index
    raise ValueError(f"{inst.name} is in no cluster of its row")

