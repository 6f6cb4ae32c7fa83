"""The pin access oracle (the PAO of the title).

A detailed router (or placer, or ECO tool) wants one question
answered: *where can I land on this pin, legally?*
:class:`PinAccessOracle` is the one analyzed-design object: it runs
the three-step framework once, answers per instance pin with the
selected access point plus the validated alternatives, in preference
order, and repairs its answers after a placement move (the paper's
Experiment 2 loop).  The ``repro.serve`` daemon hosts one oracle per
design, so wire and in-process answers come from the same object.

Every answer comes from an immutable :class:`Snapshot`: one map from
each instance to its Step 3 :class:`~repro.core.cluster.SelectedAccess`,
which carries the instance's unique access and offset ``(dx, dy)``.  A
query translates only the pin it asks for.  :meth:`Snapshot.next`
shares every entry a move did not re-select with the generation
before, which is safe because of one invariant: **no object a snapshot
references is mutated after the Step 3 pass that made it.**  A pass
builds a fresh ``SelectedAccess`` for each instance it selects and
sets its repair overrides before it returns; Step 1/2 results are
never edited, nor is an access point's via or direction list once the
point is built (a unique access's ``wire`` memo fills on a pin's first
wire answer, with the same value whichever reader fills it).  So a
held snapshot keeps its answers however many moves follow, and no
answer can tear.

The published snapshot is the oracle's only selection state.  The
paper motivates Step 3's speed with the placement loop (Sec. IV,
Experiment 2: "frequent changes in placement require a tremendous
amount of inter-cell pin access analysis"), and a move costs time in
proportion to what moved:

* the moved instance's signature reuses the Step 1/2 results of an
  already-analyzed offset class; a new class goes through the
  framework's cache-then-compute Step 1/2 path.  Every other instance
  keeps the unique access and offset its published selection carries;
* a per-row index keeps each row's members and clusters (the lists
  :meth:`~repro.db.design.Design.row_clusters` returns, chunked by
  the same :func:`~repro.db.design.row_chunks`); a move re-chunks only
  the rows the instance left and entered;
* Step 3 re-runs over the clusters of the components the move changed
  -- every component holding a re-chunked cluster that holds the
  moved instance or whose members the move changed (for a legal
  placement: a cluster of the moved instance or of a former
  cluster-mate), found by walking the index through multi-height
  members -- in one pass of the framework's one Step 3 selector
  (:attr:`~repro.core.framework.PinAccessFramework.selector`), on the
  configured backend.  That pass reads and extends the selector's
  boundary verdicts, keyed by two patterns and the displacement
  between their instances, so no move invalidates one.

The clusters of a row are independent DPs, linked only through
multi-height members, and components share no instance.  A cluster
that keeps its members, their placements and its component therefore
keeps its selection, so every generation equals a from-scratch
analysis of its placement (asserted by tests, including a seeded
move-sequence property, and measured by
``benchmarks/test_incremental.py``).

Lookup failures raise the typed :class:`UnknownInstanceError` /
:class:`UnknownPinError` hierarchy.  Both derive from ``KeyError`` so
pre-existing ``except KeyError`` callers keep working, and both are
shared with the ``repro.serve`` wire protocol so an in-process caller
and a network client see the same error taxonomy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.cluster import ClusterSelectionResult
from repro.core.config import PaafConfig
from repro.core.framework import PinAccessFramework
from repro.core.signature import UniqueInstance, instance_signature
from repro.db.design import Design, row_chunks
from repro.geom.point import Point


class UnknownInstanceError(KeyError):
    """Query names an instance the design does not contain."""

    def __init__(self, instance_name: str):
        super().__init__(instance_name)
        self.instance_name = instance_name

    def __str__(self) -> str:
        return f"no instance named {self.instance_name!r}"


class UnknownPinError(KeyError):
    """Query names a pin the instance's master does not declare."""

    def __init__(self, instance_name: str, pin_name: str):
        super().__init__((instance_name, pin_name))
        self.instance_name = instance_name
        self.pin_name = pin_name

    def __str__(self) -> str:
        return (
            f"instance {self.instance_name!r} has no signal pin "
            f"named {self.pin_name!r}"
        )


@dataclass
class PinAccessAnswer:
    """The oracle's answer for one instance pin.

    ``selected`` is the Step 3 choice (pattern-compatible with the
    instance's other pins and its neighbors); ``alternatives`` are all
    Step 1 access points translated to the instance, in generation
    (cost) order -- what a router falls back to when the selected point
    is blocked by congestion.
    """

    instance_name: str
    pin_name: str
    selected: object
    alternatives: list

    @property
    def accessible(self) -> bool:
        """Return True if at least one access point exists."""
        return self.selected is not None or bool(self.alternatives)


@dataclass
class Snapshot:
    """The answers for one placement, immutable once built.

    ``selection`` maps each instance name to its Step 3
    :class:`~repro.core.cluster.SelectedAccess`, which carries the
    instance's unique access and offset; ``conflicts`` holds the
    residual inter-cell conflicts ``(inst a, pin a, inst b, pin b)``.
    ``pins_by_inst`` fixes the known-pin universe, so a reader tells an
    unknown pin from a pin with no access without consulting the
    mutable design.
    """

    generation: int
    selection: dict
    conflicts: tuple
    pins_by_inst: dict

    @classmethod
    def first(
        cls, design: Design, selection: ClusterSelectionResult
    ) -> "Snapshot":
        """Return generation 0: ``selection``, a Step 3 result covering
        every instance of ``design``."""
        return cls(
            generation=0,
            selection=dict(selection.selection),
            conflicts=tuple(selection.conflicts),
            pins_by_inst={
                inst.name: frozenset(
                    pin.name for pin in inst.master.signal_pins()
                )
                for inst in design.instances.values()
            },
        )

    def next(self, partial: ClusterSelectionResult) -> "Snapshot":
        """Return the next generation, copy-on-write.

        ``partial`` holds every instance a Step 3 pass re-selected, and
        their conflicts.  Its entries replace this snapshot's in a
        shallow copy of the selection; every other entry, and
        ``pins_by_inst``, is shared.  A conflict pairs two neighbors of
        one cluster, so either both or neither of its instances were
        re-selected: the conflicts of the instances the pass did not
        re-select are kept, and the pass's own appended.
        """
        reselected = partial.selection
        return Snapshot(
            generation=self.generation + 1,
            selection={**self.selection, **reselected},
            conflicts=tuple(
                conflict
                for conflict in self.conflicts
                if conflict[0] not in reselected
            )
            + tuple(partial.conflicts),
            pins_by_inst=self.pins_by_inst,
        )

    def access_map(self) -> dict:
        """Return (inst name, pin name) -> selected AP in design coords."""
        return ClusterSelectionResult(self.selection).access_map()

    def query(self, instance_name: str, pin_name: str) -> PinAccessAnswer:
        """Answer one pin of this placement.

        Raises :class:`UnknownInstanceError` for an instance the
        snapshot does not hold and :class:`UnknownPinError` for a pin
        its master does not declare; a declared pin without access
        answers inaccessible.  Only this pin's access points are
        translated.  Read the answer, do not mutate it: it shares
        objects with the snapshot (a repair override, and the via and
        direction lists of every access point).
        """
        selected = self.selection_for(instance_name, pin_name)
        dx, dy = selected.dx, selected.dy
        return PinAccessAnswer(
            instance_name,
            pin_name,
            _selected_ap(selected, pin_name),
            [
                ap.translated(dx, dy)
                for ap in selected.unique_access.aps_by_pin.get(pin_name, ())
            ],
        )

    def selection_for(self, instance_name: str, pin_name: str):
        """Return the instance's Step 3 selection, checking the pin.

        Raises as :meth:`query` does.  The selection's unique access
        holds the pin's points in its own coordinates and ``(dx, dy)``
        maps them onto the instance.
        """
        pins = self.pins_by_inst.get(instance_name)
        if pins is None:
            raise UnknownInstanceError(instance_name)
        if pin_name not in pins:
            raise UnknownPinError(instance_name, pin_name)
        return self.selection[instance_name]

    def selected_point(self, instance_name: str, pin_name: str):
        """Return the pin's Step 3 access point in design space, or None."""
        selected = self.selection.get(instance_name)
        return None if selected is None else _selected_ap(selected, pin_name)

    def served_pins(self) -> int:
        """Return how many pins have a selected access point."""
        return sum(
            len(selected.pattern.aps.keys() | selected.overrides.keys())
            for selected in self.selection.values()
            if selected.pattern is not None
        )


def _selected_ap(selected, pin_name: str):
    """Return ``selected``'s access point for one pin, or None."""
    if selected.pattern is None:
        return None
    if pin_name in selected.overrides:
        return selected.overrides[pin_name]
    ap = selected.pattern.aps.get(pin_name)
    return None if ap is None else ap.translated(selected.dx, selected.dy)


class PinAccessOracle:
    """One analyzed design: answers pin queries and takes placement moves.

    The oracle runs its :attr:`framework` once (:attr:`result` is that
    run, never edited) and publishes generation 0 as :attr:`snapshot`.
    Reads are lock-free: a query reads :attr:`snapshot` with one
    attribute load and never touches the mutable design.  Writes are
    serialized: :meth:`move_instance` repairs the analysis and builds
    the next snapshot under the write lock, then publishes it with one
    assignment.  Besides the snapshot, the oracle keeps only what
    nothing else holds: the unique access of every signature seen, and
    the per-row index.
    """

    def __init__(self, design: Design, config: Optional[PaafConfig] = None):
        self.design = design
        self.framework = PinAccessFramework(design, config)
        self._write_lock = threading.Lock()
        self.last_update_seconds = 0.0
        t0 = time.perf_counter()
        self.result = self.framework.run()
        # Signature -> (unique access, the analysis-time origin of its
        # representative).  Offsets MUST be taken from that origin, not
        # from the live ``representative.location``: once the
        # representative itself moves within its signature class, the
        # live location drifts away from the coordinates the access
        # points are expressed in.
        self._ua_by_signature = {}
        for ua in self.result.unique_accesses:
            self._remember(ua)
        # The per-row index: row y -> members left to right (ties in
        # insertion order), and -> their row_chunks.
        self._order = {name: k for k, name in enumerate(design.instances)}
        self._row_members, _ = design.row_members()
        self._row_clusters = {
            y: row_chunks(members)
            for y, members in self._row_members.items()
        }
        self.analyze_seconds = time.perf_counter() - t0
        self.snapshot = Snapshot.first(design, self.result.selection)

    # -- reads (lock-free) ---------------------------------------------------

    def query(
        self, instance_name: str, pin_name: str, strict: bool = False
    ) -> PinAccessAnswer:
        """Answer for one instance pin.

        Raises :class:`UnknownInstanceError` for unknown instances;
        unknown pins of known instances answer with no access
        (robustness for callers probing generated pin names) unless
        ``strict`` is set, in which case a pin the instance's master
        does not declare raises :class:`UnknownPinError` -- the
        contract the serving layer exposes over the wire.
        """
        try:
            return self.snapshot.query(instance_name, pin_name)
        except UnknownPinError:
            if strict:
                raise
            return PinAccessAnswer(instance_name, pin_name, None, [])

    def accessible_fraction(self) -> float:
        """Return the share of connected pins with a selected access."""
        pins = self.design.connected_pins()
        snap = self.snapshot
        have = sum(
            snap.selected_point(inst.name, pin.name) is not None
            for inst, pin in pins
        )
        return have / len(pins) if pins else 1.0

    def stats(self) -> dict:
        """Return the serving statistics of one published generation.

        The snapshot and the update time of the move that published it
        are read together under the write lock (so, unlike a query,
        this waits for a move in flight); ``moves`` is the number of
        moves that generation holds.
        """
        with self._write_lock:
            snap = self.snapshot
            last_update_seconds = self.last_update_seconds
        cache = self.framework.cache
        return {
            "design": self.design.name,
            "generation": snap.generation,
            "instances": len(snap.pins_by_inst),
            "served_pins": snap.served_pins(),
            "moves": snap.generation,
            "cache_entries": cache.entry_count() if cache is not None else 0,
            "analyze_seconds": round(self.analyze_seconds, 6),
            "last_update_seconds": round(last_update_seconds, 6),
        }

    # -- writes (serialized) -------------------------------------------------

    def move_instance(self, instance_name: str, x: int, y: int) -> tuple:
        """Move one instance to ``(x, y)`` and publish the next snapshot.

        Returns ``(generation, update_seconds)`` of this move, both read
        under the write lock, so a concurrent writer cannot swap in its
        own figures; ``update_seconds`` times the repair, not the
        publication.  Raises :class:`UnknownInstanceError` for an
        instance the design does not contain.
        """
        with self._write_lock:
            t0 = time.perf_counter()
            design = self.design
            try:
                inst = design.instance(instance_name)
            except KeyError:
                raise UnknownInstanceError(instance_name) from None
            left = design.rows_of(inst)
            inst.location = Point(x, y)
            entered = design.rows_of(inst)
            if entered:
                clusters = self._affected_clusters(
                    self._reindex(inst, left, entered)
                )
            else:
                # A macro joins no row: its component is its own singleton.
                clusters = [[inst]]
            held = self.snapshot.selection
            placements = {}
            for cluster in clusters:
                for member in cluster:
                    selected = held[member.name]
                    placements[member.name] = (
                        selected.unique_access, (selected.dx, selected.dy)
                    )
            placements[instance_name] = self._placement(inst)
            partial = self.framework.select_patterns(clusters, placements)
            self.last_update_seconds = time.perf_counter() - t0
            self.snapshot = self.snapshot.next(partial)
            return self.snapshot.generation, self.last_update_seconds

    # -- internals ------------------------------------------------------------

    def _remember(self, ua) -> tuple:
        ui = ua.unique_instance
        origin = ui.representative.location
        entry = self._ua_by_signature[ui.signature] = (
            ua, (origin.x, origin.y)
        )
        return entry

    def _placement(self, inst) -> tuple:
        """Return ``(unique access, (dx, dy))`` for ``inst`` where it is.

        A signature first seen here is analyzed (or loaded from the
        persistent AP cache) and remembered.
        """
        signature = instance_signature(self.design, inst)
        entry = self._ua_by_signature.get(signature)
        if entry is None:
            ui = UniqueInstance(signature=signature, representative=inst)
            ui.members.append(inst)
            (ua,) = self.framework.analyze_uniques([ui])
            entry = self._remember(ua)
        ua, (ox, oy) = entry
        return ua, (inst.location.x - ox, inst.location.y - oy)

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
