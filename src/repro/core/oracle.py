"""The pin access oracle (the PAO of the title).

A detailed router (or placer, or ECO tool) wants one question
answered: *where can I land on this pin, legally?*
:class:`PinAccessOracle` is the one analyzed-design object: it runs
the three-step framework once, answers per instance pin with the
selected access point plus the validated alternatives, in preference
order, and repairs its answers after a placement move (the paper's
Experiment 2 loop).  The ``repro.serve`` daemon hosts one oracle per
design, so wire and in-process answers come from the same object.

Every answer comes from an immutable :class:`Snapshot` with one entry
per instance: its Step 3 :class:`~repro.core.cluster.SelectedAccess`
and its ``(unique access, (dx, dy))``.  A query translates only the
pin it asks for.  :meth:`Snapshot.next` shares every entry a move did
not replace with the generation before, which is safe because of one
invariant: **no object a snapshot references is mutated after the
Step 3 pass that made it.**  A pass builds a fresh ``SelectedAccess``
for each instance it selects and sets its repair overrides before it
returns; Step 1/2 results are never edited; a move replaces the moved
instance's placement instead of editing it.  So a held snapshot keeps
its answers however many moves follow, and no answer can tear.

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
from repro.core.incremental import IncrementalPinAccess
from repro.db.design import Design
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
    :class:`~repro.core.cluster.SelectedAccess` and ``placements`` to
    its ``(unique access, (dx, dy))``.  ``pins_by_inst`` fixes the
    known-pin universe, so a reader tells an unknown pin from a pin
    with no access without consulting the mutable design.
    """

    generation: int
    selection: dict
    placements: dict
    pins_by_inst: dict

    @classmethod
    def first(
        cls,
        design: Design,
        selection: ClusterSelectionResult,
        placements: dict,
    ) -> "Snapshot":
        """Return generation 0: every instance of ``design``.

        ``selection`` is a Step 3 result covering every instance and
        ``placements`` maps every instance name to its ``(unique
        access, (dx, dy))``.
        """
        return cls(
            generation=0,
            selection=dict(selection.selection),
            placements=dict(placements),
            pins_by_inst={
                inst.name: frozenset(
                    pin.name for pin in inst.master.signal_pins()
                )
                for inst in design.instances.values()
            },
        )

    def next(
        self, selection: ClusterSelectionResult, placements: dict
    ) -> "Snapshot":
        """Return the next generation, copy-on-write.

        ``selection`` holds every instance Step 3 re-selected and
        ``placements`` every instance whose placement changed.  Their
        entries replace this snapshot's in shallow copies of its two
        maps; every other entry, and ``pins_by_inst``, is shared.
        """
        return Snapshot(
            generation=self.generation + 1,
            selection={**self.selection, **selection.selection},
            placements={**self.placements, **placements},
            pins_by_inst=self.pins_by_inst,
        )

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
        pins = self.pins_by_inst.get(instance_name)
        if pins is None:
            raise UnknownInstanceError(instance_name)
        if pin_name not in pins:
            raise UnknownPinError(instance_name, pin_name)
        ua, (dx, dy) = self.placements[instance_name]
        return PinAccessAnswer(
            instance_name,
            pin_name,
            self.selected_point(instance_name, pin_name),
            [ap.shifted(dx, dy) for ap in ua.aps_by_pin.get(pin_name, ())],
        )

    def selected_point(self, instance_name: str, pin_name: str):
        """Return the pin's Step 3 access point in design space, or None."""
        selected = self.selection.get(instance_name)
        if selected is None or selected.pattern is None:
            return None
        if pin_name in selected.overrides:
            return selected.overrides[pin_name]
        ap = selected.pattern.aps.get(pin_name)
        return None if ap is None else ap.shifted(selected.dx, selected.dy)

    def served_pins(self) -> int:
        """Return how many pins have a selected access point."""
        return sum(
            len(selected.pattern.aps.keys() | selected.overrides.keys())
            for selected in self.selection.values()
            if selected.pattern is not None
        )


class PinAccessOracle:
    """One analyzed design: answers pin queries and takes placement moves.

    The oracle analyzes ``design`` through
    :class:`~repro.core.incremental.IncrementalPinAccess` (:attr:`result`
    is that run) and publishes generation 0 as :attr:`snapshot`.  Reads
    are lock-free: a query reads :attr:`snapshot` with one attribute
    load and never touches the mutable design.  Writes are serialized:
    :meth:`move_instance` repairs the analysis and builds the next
    snapshot under the write lock, then publishes it with one
    assignment.
    """

    def __init__(self, design: Design, config: Optional[PaafConfig] = None):
        self.design = design
        self.inc = IncrementalPinAccess(design, config)
        self._write_lock = threading.Lock()
        t0 = time.perf_counter()
        self.result = self.inc.analyze()
        self.analyze_seconds = time.perf_counter() - t0
        self.snapshot = Snapshot.first(
            design, self.result.selection, self.result.placements()
        )

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
            last_update_seconds = self.inc.last_update_seconds
        cache = self.inc.framework.cache
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
        own figures.  Raises :class:`UnknownInstanceError` for an
        instance the design does not contain.
        """
        with self._write_lock:
            partial = self.inc.move_instance(instance_name, Point(x, y))
            moved = self.design.instance(instance_name)
            snap = self.snapshot.next(
                partial, {instance_name: self.inc.placement_of(moved)}
            )
            self.snapshot = snap
            return snap.generation, self.inc.last_update_seconds
