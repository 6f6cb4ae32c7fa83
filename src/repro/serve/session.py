"""A served design: warm analysis + lock-free read snapshots.

:class:`DesignSession` owns one analyzed design and enforces the
daemon's reader-writer discipline:

* **Reads are lock-free.**  Every query answers against an immutable
  :class:`~repro.core.oracle.Snapshot` -- the published answer map
  plus the per-instance Step 1/2 alternatives, all translation offsets
  precomputed -- reached through a single attribute load (atomic
  under the GIL).  A reader never touches the mutable design
  database, so an in-flight placement edit cannot tear its answers.

* **Writes are serialized.**  ``move_instance`` takes the session
  write lock, routes the edit through
  :class:`~repro.core.incremental.IncrementalPinAccess` (signature
  cache hit + one Step 3 pass over the affected cluster components'
  clusters, on the configured backend -- the paper's Experiment 2
  loop), builds the next snapshot off to the side and publishes it
  with one reference assignment.  Readers see the old generation or
  the new one, never a mixture; the ``generation`` stamp on every
  answer makes that observable (and testable).

* **Publication is copy-on-write.**
  :meth:`Snapshot.next <repro.core.oracle.Snapshot.next>` starts from
  shallow copies of the previous snapshot's maps: only the instances
  the move's Step 3 pass re-selected get new ``access`` entries and
  only the moved instance new ``alternatives``; every other entry, and
  ``pins_by_inst``, is shared between generations and never mutated,
  so a move publishes in time proportional to what moved.

Generation 0 comes from :meth:`Snapshot.first
<repro.core.oracle.Snapshot.first>`, which also builds the answers
:class:`~repro.core.oracle.PinAccessOracle` holds, so wire answers
equal the in-process oracle's by construction.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.config import PaafConfig
from repro.core.incremental import IncrementalPinAccess
from repro.core.oracle import Snapshot
from repro.db.design import Design
from repro.geom.point import Point


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
        result = self.inc.analyze()
        self.analyze_seconds = time.perf_counter() - t0
        self._snapshot = Snapshot.first(
            design, result.selection, result.placements()
        )

    # -- reads (lock-free) ---------------------------------------------------

    @property
    def snapshot(self) -> Snapshot:
        """Return the current published snapshot (atomic load)."""
        return self._snapshot

    def stats(self) -> dict:
        """Return the session's serving statistics.

        Every figure belongs to one published generation: the snapshot
        and the update time of the move that published it are read
        together under the write lock (so, unlike a query, this waits
        for a move in flight), and ``moves`` is the number of moves
        that generation holds.
        """
        with self._write_lock:
            snap = self._snapshot
            last_update_seconds = self.inc.last_update_seconds
        cache = self.inc.framework.cache
        return {
            "design": self.design.name,
            "generation": snap.generation,
            "instances": len(snap.pins_by_inst),
            "served_pins": len(snap.access),
            "moves": snap.generation,
            "cache_entries": cache.entry_count() if cache is not None else 0,
            "analyze_seconds": round(self.analyze_seconds, 6),
            "last_update_seconds": round(last_update_seconds, 6),
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
            moved = self.design.instance(instance_name)
            snap = self._snapshot.next(
                partial, {instance_name: self.inc.placement_of(moved)}
            )
            self._snapshot = snap
            return snap.generation, self.inc.last_update_seconds
