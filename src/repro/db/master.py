"""Cell master (LEF MACRO) records and their per-orientation geometry."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.geom.maxrect import maximal_rectangles
from repro.geom.point import Point
from repro.geom.polygon import RectilinearPolygon
from repro.geom.rect import Rect
from repro.geom.transform import Orientation, Transform


class PinUse(enum.Enum):
    """LEF pin USE values the flow distinguishes."""

    SIGNAL = "SIGNAL"
    POWER = "POWER"
    GROUND = "GROUND"
    CLOCK = "CLOCK"


@dataclass
class MasterPin:
    """One pin of a cell master.

    ``shapes`` maps layer name to the list of rects of the pin on that
    layer (master coordinates).  Standard-cell signal pins live on M1
    in the benchmark suites; macro pins may sit higher.
    """

    name: str
    use: PinUse = PinUse.SIGNAL
    shapes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The master this pin was added to: a new shape drops its
        # cell-class records.
        self._master = None

    def add_shape(self, layer_name: str, rect: Rect) -> None:
        """Add a rect on ``layer_name``."""
        self.shapes.setdefault(layer_name, []).append(rect)
        if self._master is not None:
            self._master._classes.clear()

    def layers(self) -> list:
        """Return the layer names this pin has shapes on, sorted."""
        return sorted(self.shapes)

    def rects_on(self, layer_name: str) -> list:
        """Return the pin rects on ``layer_name`` (empty if none)."""
        return list(self.shapes.get(layer_name, ()))

    def polygon_on(self, layer_name: str) -> RectilinearPolygon:
        """Return the pin shape on ``layer_name`` as a polygon."""
        rects = self.rects_on(layer_name)
        if not rects:
            raise KeyError(f"pin {self.name} has no shape on {layer_name}")
        return RectilinearPolygon(rects)

    @property
    def is_signal(self) -> bool:
        """Return True for signal pins (the ones needing access analysis)."""
        return self.use is PinUse.SIGNAL

    def bbox(self) -> Rect:
        """Return the bounding box over all layers."""
        rects = [r for shapes in self.shapes.values() for r in shapes]
        if not rects:
            raise ValueError(f"pin {self.name} has no shapes")
        box = rects[0]
        for r in rects[1:]:
            box = box.hull(r)
        return box


@dataclass
class Obstruction:
    """A blockage shape (LEF OBS) in master coordinates."""

    layer_name: str
    rect: Rect


@dataclass
class CellMaster:
    """A LEF MACRO: dimensions, pins and obstructions.

    ``is_macro`` distinguishes block macros (Table I's "#Macro cell")
    from standard cells; macros are not clustered in Step 3.
    """

    name: str
    width: int
    height: int
    pins: list = field(default_factory=list)
    obstructions: list = field(default_factory=list)
    site_name: str = ""
    is_macro: bool = False

    def __post_init__(self) -> None:
        self._pins_by_name = {p.name: p for p in self.pins}
        for pin in self.pins:
            pin._master = self
        self._classes = {}  # orientation -> CellClass

    def add_pin(self, pin: MasterPin) -> MasterPin:
        """Register a pin."""
        if pin.name in self._pins_by_name:
            raise ValueError(f"duplicate pin {pin.name} in master {self.name}")
        self.pins.append(pin)
        self._pins_by_name[pin.name] = pin
        pin._master = self
        self._classes.clear()
        return pin

    def add_obstruction(self, obs: Obstruction) -> Obstruction:
        """Register an obstruction shape."""
        self.obstructions.append(obs)
        self._classes.clear()
        return obs

    def cell_class(self, orient) -> "CellClass":
        """Return (building on first use) the record of ``orient``.

        ``add_pin``, ``add_obstruction`` and a pin's ``add_shape`` drop
        every record, so none outlives an edit made through them.
        """
        cell = self._classes.get(orient)
        if cell is None:
            cell = self._classes[orient] = CellClass(self, orient)
        return cell

    def pin(self, name: str) -> MasterPin:
        """Return the pin named ``name``."""
        try:
            return self._pins_by_name[name]
        except KeyError:
            raise KeyError(
                f"master {self.name} has no pin named {name!r}"
            ) from None

    def signal_pins(self) -> list:
        """Return the signal pins, in declaration order."""
        return [p for p in self.pins if p.is_signal]

    @property
    def bbox(self) -> Rect:
        """Return the master's bounding box (origin at 0,0)."""
        return Rect(0, 0, self.width, self.height)

    def __str__(self) -> str:
        return f"CellMaster({self.name}, {self.width}x{self.height})"


class CellClass:
    """The origin-relative geometry of one ``(master, orientation)`` class.

    Every shape is placed by the master's :class:`Transform` at the
    origin, so an instance's shapes are these translated by its
    location:

    * ``width``/``height`` -- the placed (post-orientation) size;
    * ``pins`` -- the master's pins, in declaration order;
    * ``pin_rects`` -- pin name -> layer -> rects, in the master's pin
      and layer order;
    * ``obstructions`` -- every ``(layer, rect)``;
    * :meth:`maximal_rectangles` -- a pin's maximal rectangles on one
      layer, computed on first use (Step 1's candidate rects).
    """

    __slots__ = ("width", "height", "pins", "pin_rects", "obstructions",
                 "_maxrects")

    def __init__(self, master: CellMaster, orient):
        xf = Transform(Point(0, 0), orient, master.width, master.height)
        # R0 at the origin is the identity: share the master's rects.
        place = _same if orient is Orientation.R0 else xf.apply_rect
        self.width = xf.placed_width
        self.height = xf.placed_height
        self.pins = tuple(master.pins)
        self.pin_rects = {
            pin.name: {
                layer: tuple(place(r) for r in rects)
                for layer, rects in pin.shapes.items()
            }
            for pin in master.pins
        }
        self.obstructions = tuple(
            (obs.layer_name, place(obs.rect))
            for obs in master.obstructions
        )
        self._maxrects = {}

    def maximal_rectangles(self, pin_name: str, layer_name: str) -> tuple:
        """Return the maximal rectangles of one pin's shape on one layer."""
        key = (pin_name, layer_name)
        rects = self._maxrects.get(key)
        if rects is None:
            polygon = RectilinearPolygon(
                list(self.pin_rects[pin_name][layer_name])
            )
            rects = self._maxrects[key] = tuple(maximal_rectangles(polygon))
        return rects


def _same(rect: Rect) -> Rect:
    return rect
