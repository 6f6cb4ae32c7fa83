"""A served design: warm analysis + lock-free read snapshots.

:class:`DesignSession` owns one analyzed design and enforces the
daemon's reader-writer discipline:

* **Reads are lock-free.**  Every query answers against an immutable
  :class:`Snapshot` -- the published answer map plus the per-instance
  Step 1/2 alternatives, all translation offsets precomputed -- reached
  through a single attribute load (atomic under the GIL).  A reader
  never touches the mutable design database, so an in-flight placement
  edit cannot tear its answers.

* **Writes are serialized.**  ``move_instance`` takes the session
  write lock, routes the edit through
  :class:`~repro.core.incremental.IncrementalPinAccess` (signature
  cache hit + one Step 3 pass over the affected cluster components'
  clusters, on the configured backend -- the paper's Experiment 2
  loop), builds the next snapshot off to the side and publishes it
  with one reference assignment.  Readers see the old generation or
  the new one, never a mixture; the ``generation`` stamp on every
  answer makes that observable (and testable).

* **Publication is copy-on-write.**  The next snapshot starts as
  shallow copies of the previous one's maps: only the instances the
  move's Step 3 pass re-selected get new ``access`` entries and only
  the moved instance new ``alternatives``; every other entry, and
  ``pins_by_inst``, is shared between generations and never mutated,
  so a move publishes in time proportional to what moved.

The per-query path replicates :meth:`PinAccessOracle.query
<repro.core.oracle.PinAccessOracle.query>` exactly -- same selected
access point, same alternatives in the same order -- which the test
suite asserts bit-for-bit over the wire.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import PaafConfig
from repro.core.incremental import IncrementalPinAccess
from repro.core.oracle import (
    PinAccessAnswer,
    UnknownInstanceError,
    UnknownPinError,
)
from repro.db.design import Design
from repro.geom.point import Point


@dataclass
class Snapshot:
    """One immutable published state of a session.

    ``access`` maps ``(instance, pin)`` to the selected design-space
    access point; ``alternatives`` maps the same key to the translated
    Step 1 access point list (generation order).  ``pins_by_inst``
    fixes the known-pin universe so readers can distinguish an unknown
    pin from a pin with no access without consulting the mutable
    design.  Construction happens entirely under the session write
    lock; after publication the snapshot is never mutated, and neither
    is any dict, list or access point it shares with a later one.
    """

    generation: int
    access: dict = field(default_factory=dict)
    alternatives: dict = field(default_factory=dict)
    pins_by_inst: dict = field(default_factory=dict)


class DesignSession:
    """One analyzed design served by the daemon."""

    def __init__(
        self,
        name: str,
        design: Design,
        config: Optional[PaafConfig] = None,
    ):
        self.name = name
        self.design = design
        self.inc = IncrementalPinAccess(design, config)
        self._write_lock = threading.Lock()
        t0 = time.perf_counter()
        self.inc.analyze()
        self.analyze_seconds = time.perf_counter() - t0
        self.moves = 0
        instances = design.instances.values()
        empty = Snapshot(
            generation=-1,
            pins_by_inst={
                inst.name: frozenset(
                    pin.name for pin in inst.master.signal_pins()
                )
                for inst in instances
            },
        )
        self._snapshot = self._build_snapshot(
            empty, self.inc.selection.selection, instances
        )

    # -- reads (lock-free) ---------------------------------------------------

    @property
    def snapshot(self) -> Snapshot:
        """Return the current published snapshot (atomic load)."""
        return self._snapshot

    def query(
        self, instance_name: str, pin_name: str, snap: Snapshot = None
    ) -> PinAccessAnswer:
        """Answer one pin against ``snap`` (default: the published one).

        Mirrors ``PinAccessOracle.query(..., strict=True)``: unknown
        instances raise :class:`UnknownInstanceError`, pins the master
        does not declare raise :class:`UnknownPinError`, declared pins
        without access answer inaccessible.
        """
        snap = snap if snap is not None else self._snapshot
        pins = snap.pins_by_inst.get(instance_name)
        if pins is None:
            raise UnknownInstanceError(instance_name)
        if pin_name not in pins:
            raise UnknownPinError(instance_name, pin_name)
        key = (instance_name, pin_name)
        return PinAccessAnswer(
            instance_name=instance_name,
            pin_name=pin_name,
            selected=snap.access.get(key),
            alternatives=snap.alternatives.get(key, []),
        )

    def query_batch(self, pins: list, snap: Snapshot = None) -> list:
        """Answer many pins against one snapshot (no torn batches)."""
        snap = snap if snap is not None else self._snapshot
        return [self.query(inst, pin, snap=snap) for inst, pin in pins]

    def stats(self) -> dict:
        """Return the session's serving statistics."""
        snap = self._snapshot
        cache = self.inc.framework.cache
        return {
            "design": self.design.name,
            "generation": snap.generation,
            "instances": len(snap.pins_by_inst),
            "served_pins": len(snap.access),
            "moves": self.moves,
            "cache_entries": cache.entry_count() if cache is not None else 0,
            "analyze_seconds": round(self.analyze_seconds, 6),
            "last_update_seconds": round(self.inc.last_update_seconds, 6),
        }

    # -- writes (serialized) -------------------------------------------------

    def move_instance(self, instance_name: str, x: int, y: int) -> tuple:
        """Apply one placement edit and publish the next snapshot.

        Returns ``(generation, update_seconds)``: the new generation
        and the wall time of this edit's incremental update, both read
        under the write lock, so a concurrent writer cannot swap in its
        own figures.  The analysis repair and the snapshot build both
        happen under the lock; publication is the final single
        assignment.
        """
        with self._write_lock:
            partial = self.inc.move_instance(instance_name, Point(x, y))
            self.moves += 1
            snap = self._build_snapshot(
                self._snapshot,
                partial.selection,
                (self.design.instance(instance_name),),
            )
            self._snapshot = snap
            return snap.generation, self.inc.last_update_seconds

    # -- internals -----------------------------------------------------------

    def _build_snapshot(
        self, prev: Snapshot, selection: dict, moved
    ) -> Snapshot:
        """Derive the next snapshot from ``prev``, copy-on-write.

        ``selection`` maps every instance Step 3 re-selected to its
        new :class:`~repro.core.cluster.SelectedAccess`; ``moved`` are
        the instances whose placement changed.  Only their entries are
        replaced, in fresh shallow copies of ``prev``'s maps; every
        other entry, and ``pins_by_inst``, is shared with ``prev``.
        Generation 0 passes an empty ``prev`` (generation -1, carrying
        only ``pins_by_inst``) with every instance in both.
        """
        pins_by_inst = prev.pins_by_inst
        access = dict(prev.access)
        for name, selected in selection.items():
            for pin_name in pins_by_inst[name]:
                access.pop((name, pin_name), None)
            for pin_name, ap in selected.access_points().items():
                access[(name, pin_name)] = ap
        alternatives = dict(prev.alternatives)
        for inst in moved:
            pins = pins_by_inst[inst.name]
            ua, (dx, dy) = self.inc.placement_of(inst)
            for pin_name in pins:
                alternatives.pop((inst.name, pin_name), None)
            for pin_name, aps in ua.aps_by_pin.items():
                if pin_name in pins:
                    alternatives[(inst.name, pin_name)] = [
                        ap.translated(dx, dy) for ap in aps
                    ]
        return Snapshot(
            generation=prev.generation + 1,
            access=access,
            alternatives=alternatives,
            pins_by_inst=pins_by_inst,
        )
