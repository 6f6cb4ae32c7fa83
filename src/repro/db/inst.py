"""Placed instances (DEF COMPONENTS)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.master import CellMaster
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.transform import Orientation, Transform


@dataclass
class Instance:
    """A placed component.

    ``location`` is the DEF placement point (lower-left of the placed
    bounding box); ``orient`` the DEF orientation.  The geometry views
    translate the master's :class:`~repro.db.master.CellClass` record
    of ``orient`` by ``location``; :attr:`transform` computes the same
    shapes from the master directly.
    """

    name: str
    master: CellMaster
    location: Point
    orient: Orientation = Orientation.R0

    @property
    def transform(self) -> Transform:
        """Return the master-to-design transform for this placement."""
        return Transform(
            offset=self.location,
            orient=self.orient,
            width=self.master.width,
            height=self.master.height,
        )

    @property
    def bbox(self) -> Rect:
        """Return the placed bounding box in design coordinates."""
        cell = self.master.cell_class(self.orient)
        x, y = self.location.x, self.location.y
        return Rect(x, y, x + cell.width, y + cell.height)

    def pin_rects(self, pin_name: str) -> dict:
        """Return design-space pin rects, keyed by layer name."""
        rects_by_layer = self.master.cell_class(self.orient).pin_rects.get(
            pin_name
        )
        if rects_by_layer is None:
            self.master.pin(pin_name)  # raises the KeyError naming it
        x, y = self.location.x, self.location.y
        return {
            layer: [r.translated(x, y) for r in rects]
            for layer, rects in rects_by_layer.items()
        }

    def all_pin_shapes(self) -> list:
        """Return (pin, layer_name, design-space rect) for all pins."""
        x, y = self.location.x, self.location.y
        cell = self.master.cell_class(self.orient)
        return [
            (pin, layer, r.translated(x, y))
            for pin in cell.pins
            for layer, rects in cell.pin_rects[pin.name].items()
            for r in rects
        ]

    def obstruction_rects(self) -> list:
        """Return (layer_name, design-space rect) for all obstructions."""
        x, y = self.location.x, self.location.y
        return [
            (layer, r.translated(x, y))
            for layer, r in self.master.cell_class(self.orient).obstructions
        ]

    def __str__(self) -> str:
        return (
            f"Instance({self.name}, {self.master.name}, "
            f"{self.location}, {self.orient.def_name})"
        )
