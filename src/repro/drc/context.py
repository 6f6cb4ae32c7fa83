"""Shape context: the fixed geometry a candidate is checked against."""

from __future__ import annotations

from repro.geom.rect import Rect
from repro.geom.spatial import GridIndex


class ShapeContext:
    """Per-layer indexed shapes, each tagged with a *net key*.

    The net key is an arbitrary hashable identifying electrical
    equivalence; two shapes with equal, non-None net keys are the same
    net and do not violate spacing against each other.  ``None`` marks
    obstructions, which are foreign to everything.
    """

    def __init__(self, bucket: int = 10000):
        self._bucket = bucket
        self._layers = {}

    def add(self, layer_name: str, rect: Rect, net_key) -> None:
        """Index ``rect`` on ``layer_name`` under ``net_key``."""
        if layer_name not in self._layers:
            self._layers[layer_name] = GridIndex(bucket=self._bucket)
        self._layers[layer_name].insert(rect, net_key)

    def query(self, layer_name: str, window: Rect) -> list:
        """Return ``(rect, net_key)`` pairs intersecting ``window``.

        The list is the index's own answer: read it, do not edit it.
        """
        index = self._layers.get(layer_name)
        if index is None:
            return []
        return index.query_pairs(window)

    def layers(self) -> list:
        """Return layer names with at least one shape."""
        return sorted(self._layers)

    @staticmethod
    def from_instance(inst, bucket: int = 2000) -> "ShapeContext":
        """Build the intra-cell context for one instance.

        Pin shapes get the ``(instance name, pin name)`` net key so
        that a via accessing pin A sees pin B as foreign; obstructions
        get ``None``.
        """
        ctx = ShapeContext(bucket=bucket)
        for pin, layer, rect in inst.all_pin_shapes():
            ctx.add(layer, rect, (inst.name, pin.name))
        for layer, rect in inst.obstruction_rects():
            ctx.add(layer, rect, None)
        return ctx

    @staticmethod
    def from_design(design) -> "ShapeContext":
        """Build the full-design fixed-shape context.

        Pin net keys are the owning net's name when the pin is
        connected (so router metal of the same net can touch it), or
        the ``(instance, pin)`` pair otherwise.  Buckets are 8 site
        widths wide (10,000 DBU when the tech has no site), so a
        region query tests the shapes near it, not the whole die.
        """
        site_width = design.tech.site_width
        bucket = max(1, site_width * 8) if site_width else 10000
        ctx = ShapeContext(bucket=bucket)
        for inst in design.instances.values():
            for pin, layer, rect in inst.all_pin_shapes():
                net = design.net_of(inst.name, pin.name)
                key = net.name if net is not None else (inst.name, pin.name)
                ctx.add(layer, rect, key)
            for layer, rect in inst.obstruction_rects():
                ctx.add(layer, rect, None)
        for io_pin in design.io_pins.values():
            net_key = None
            for net in design.nets.values():
                if io_pin.name in net.io_pins:
                    net_key = net.name
                    break
            ctx.add(io_pin.layer_name, io_pin.rect, net_key or io_pin.name)
        return ctx
