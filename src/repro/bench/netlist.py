"""Netlist construction for generated designs.

Connects placed instances with locality: each cell's output pin drives
a handful of input pins of nearby cells (same or neighboring rows),
which is the connectivity pattern placement tools produce and the one
that matters for pin access (neighboring pins on distinct nets).
"""

from __future__ import annotations

import random

from repro.db.design import Design
from repro.db.net import IOPin, Net
from repro.geom.rect import Rect


class NetlistBuilder:
    """Builds nets and IO pins over an already-placed design."""

    def __init__(self, design: Design, seed: int = 1):
        self.design = design
        self.rng = random.Random(f"netlist:{design.name}:{seed}")

    def build(self, target_nets: int = None, num_io_pins: int = 0) -> None:
        """Create nets (and IO pins) on the design.

        Every signal output pin drives one net; each net picks 1-3
        nearby unclaimed input pins as sinks.  ``target_nets`` trims or
        keeps all output-driven nets; IO pins are attached round-robin
        to the first nets.
        """
        outputs, inputs = self._collect_terminals()
        input_pool = _SpatialPool(inputs)
        nets = []
        for inst, pin_name in outputs:
            if target_nets is not None and len(nets) >= target_nets:
                break
            net = Net(name=f"net_{len(nets) + 1}")
            net.add_term(inst.name, pin_name)
            fanout = 1 + self.rng.randrange(3)
            for sink in input_pool.claim_near(inst.bbox.center, fanout):
                net.add_term(sink[0].name, sink[1])
            nets.append(net)
        # Sweep leftover inputs into the existing nets so almost every
        # signal pin is connected, as in the contest testcases.
        leftovers = input_pool.remaining()
        for idx, (inst, pin_name) in enumerate(leftovers):
            if not nets:
                break
            nets[idx % len(nets)].add_term(inst.name, pin_name)
        for net in nets:
            self.design.add_net(net)
        self._add_io_pins(num_io_pins, nets)

    # -- internals ---------------------------------------------------------

    def _collect_terminals(self) -> tuple:
        outputs = []
        inputs = []
        for inst in self.design.instances.values():
            for pin in inst.master.signal_pins():
                if pin.name.startswith(("Z", "Q", "P")):
                    outputs.append((inst, pin.name))
                else:
                    inputs.append((inst, pin.name))
        return outputs, inputs

    def _add_io_pins(self, num_io_pins: int, nets: list) -> None:
        if num_io_pins <= 0 or not nets:
            return
        die = self.design.die_area
        tech = self.design.tech
        m2 = tech.layer("M2")
        w = m2.width
        span = max(1, die.height - 4 * w)
        for i in range(num_io_pins):
            y = die.ylo + 2 * w + (i * span) // max(1, num_io_pins)
            on_left = i % 2 == 0
            x = die.xlo if on_left else die.xhi
            rect = (
                Rect(x, y - w, x + 4 * w, y + w)
                if on_left
                else Rect(x - 4 * w, y - w, x, y + w)
            )
            pin = IOPin(name=f"io_{i + 1}", layer_name="M2", rect=rect)
            self.design.add_io_pin(pin)
            nets[i % len(nets)].add_io_pin(pin.name)


class _SpatialPool:
    """Pool of claimable input pins, searchable by proximity."""

    def __init__(self, terminals: list):
        # Sort by (y, x) of the owning instance: row-major locality.
        self._items = sorted(
            terminals,
            key=lambda t: (t[0].location.y, t[0].location.x, t[1]),
        )
        self._claimed = [False] * len(self._items)
        self._free = len(self._items)
        self._cursor = 0

    def claim_near(self, point, count: int) -> list:
        """Claim up to ``count`` pins, preferring pool locality.

        A full nearest-neighbor search is unnecessary: the pool is
        row-major sorted and consumed with a moving cursor, which
        yields the short, local nets real netlists have.  An empty
        pool returns at once: a full scan would claim nothing and
        leave the cursor where it was.
        """
        if not self._free:
            return []
        claimed = []
        idx = self._cursor
        n = len(self._items)
        scanned = 0
        while len(claimed) < count and scanned < n:
            if not self._claimed[idx % n]:
                self._claimed[idx % n] = True
                self._free -= 1
                claimed.append(self._items[idx % n])
            idx += 1
            scanned += 1
        self._cursor = idx % n if n else 0
        return claimed

    def remaining(self) -> list:
        """Return all unclaimed terminals."""
        return [
            item
            for item, used in zip(self._items, self._claimed)
            if not used
        ]
