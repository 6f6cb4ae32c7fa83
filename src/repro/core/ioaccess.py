"""Access point analysis for top-level IO pins.

The contest designs carry up to 1211 IO pins (Table I); a router ends
nets on them just like on instance pins.  IO pins sit on routing
layers at the die boundary, so their analysis is simpler than cell
pins -- no unique-instance machinery, no clustering -- but runs the
same Algorithm 1 ladder and validator (:meth:`~repro.core.apgen.
AccessPointGenerator.generate`) over DRC engine verdicts against the
full design, in design coordinates
(:func:`~repro.core.arraykernel.engine_tables`).  An IO access point
needs a clean via: no planar directions are recorded and no
cut-on-pin test applies.
"""

from __future__ import annotations

import dataclasses

from repro.core.apgen import AccessPointGenerator
from repro.core.arraykernel import ArrayKernel, engine_tables
from repro.core.config import PaafConfig
from repro.db.design import Design
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine


class IoPinAccess:
    """Generates validated access points for every IO pin."""

    def __init__(self, design: Design, config: PaafConfig = None):
        self.design = design
        self.config = config or PaafConfig()
        self.engine = DrcEngine(design.tech)

    def run(self, context: ShapeContext = None) -> dict:
        """Return IO pin name -> list of validated access points.

        ``context`` defaults to the full-design fixed shapes; pass a
        pre-built one to amortize across calls.  A design without IO
        pins returns ``{}`` and builds no context.
        """
        if not self.design.io_pins:
            return {}
        if context is None:
            context = ShapeContext.from_design(self.design)
        # An IO pin is reached by a clean via alone: no planar stubs
        # and no cut-on-pin test.
        config = dataclasses.replace(
            self.config, check_planar=False, require_cut_on_pin=False
        )
        generator = AccessPointGenerator(
            self.design, config, akernel=ArrayKernel(self.design)
        )
        access = {}
        for io_pin in self.design.io_pins.values():
            net_key = self._net_key(io_pin)
            tables = engine_tables(
                self.engine, self.design.tech,
                [(io_pin.name, net_key, io_pin.layer_name)], lambda: context,
            )
            access[io_pin.name] = generator.generate(
                {io_pin.layer_name: [io_pin.rect]}, net_key, io_pin.name,
                tables,
            )
        return access

    def _net_key(self, io_pin):
        for net in self.design.nets.values():
            if io_pin.name in net.io_pins:
                return net.name
        return io_pin.name
