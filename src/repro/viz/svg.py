"""SVG rendering of layouts, pin accesses and DRC markers."""

from __future__ import annotations

from repro.db.design import Design
from repro.geom.rect import Rect

# Layer palette, bottom-up; cut layers render dark.
_LAYER_COLORS = {
    "M1": "#4878cf",
    "M2": "#d65f5f",
    "M3": "#6acc65",
    "M4": "#b47cc7",
    "M5": "#c4ad66",
    "M6": "#77bedb",
    "M7": "#f2a65a",
    "M8": "#8c8c8c",
    "M9": "#e377c2",
}
_CUT_COLOR = "#333333"
_OUTLINE_COLOR = "#999999"
_DRC_COLOR = "#d62728"
_AP_COLOR = "#111111"


class LayoutPainter:
    """Accumulates drawable shapes and emits an SVG document.

    All inputs are design-space DBU; the painter flips y (SVG grows
    downward) and scales to the requested pixel width.
    """

    def __init__(self, window: Rect, pixel_width: int = 800):
        if window.width <= 0 or window.height <= 0:
            raise ValueError("window must have positive area")
        self.window = window
        self.scale = pixel_width / window.width
        self.pixel_width = pixel_width
        self.pixel_height = max(1, round(window.height * self.scale))
        self._elements = []

    # -- coordinate mapping --------------------------------------------------

    def _x(self, x: int) -> float:
        return (x - self.window.xlo) * self.scale

    def _y(self, y: int) -> float:
        return (self.window.yhi - y) * self.scale

    def _rect_attrs(self, rect: Rect) -> str:
        return (
            f'x="{self._x(rect.xlo):.2f}" y="{self._y(rect.yhi):.2f}" '
            f'width="{rect.width * self.scale:.2f}" '
            f'height="{rect.height * self.scale:.2f}"'
        )

    # -- drawing primitives ---------------------------------------------------

    def add_rect(
        self,
        rect: Rect,
        fill: str,
        opacity: float = 0.55,
        stroke: str = "none",
        dashed: bool = False,
        title: str = "",
    ) -> None:
        """Draw a filled (or outlined) rectangle clipped to the window."""
        if not rect.intersects(self.window):
            return
        rect = rect.intersection(self.window)
        if rect.width == 0 or rect.height == 0:
            return
        dash = ' stroke-dasharray="6,3"' if dashed else ""
        stroke_attr = (
            f' stroke="{stroke}" stroke-width="1.5" fill-opacity="{opacity}"'
            if stroke != "none"
            else f' fill-opacity="{opacity}"'
        )
        label = f"<title>{_escape(title)}</title>" if title else ""
        self._elements.append(
            f'<rect {self._rect_attrs(rect)} fill="{fill}"'
            f"{stroke_attr}{dash}>{label}</rect>"
            if title
            else f'<rect {self._rect_attrs(rect)} fill="{fill}"'
            f"{stroke_attr}{dash}/>"
        )

    def add_marker(self, rect: Rect, title: str = "") -> None:
        """Draw a dashed red DRC marker box (paper Figure 8 style)."""
        marker = rect if rect.area > 0 else rect.bloated(10)
        self.add_rect(
            marker,
            fill="none",
            stroke=_DRC_COLOR,
            dashed=True,
            title=title,
            opacity=1.0,
        )

    def add_point(self, x: int, y: int, title: str = "") -> None:
        """Draw an access point cross."""
        if not (
            self.window.xlo <= x <= self.window.xhi
            and self.window.ylo <= y <= self.window.yhi
        ):
            return
        px, py = self._x(x), self._y(y)
        size = 4.0
        label = f"<title>{_escape(title)}</title>" if title else ""
        self._elements.append(
            f'<g stroke="{_AP_COLOR}" stroke-width="1.5">{label}'
            f'<line x1="{px - size:.2f}" y1="{py:.2f}" '
            f'x2="{px + size:.2f}" y2="{py:.2f}"/>'
            f'<line x1="{px:.2f}" y1="{py - size:.2f}" '
            f'x2="{px:.2f}" y2="{py + size:.2f}"/></g>'
        )

    # -- composite draws ------------------------------------------------------

    def draw_design(self, design: Design, layers: tuple = None) -> None:
        """Draw instance outlines and pin/obstruction shapes."""
        for inst in design.instances.values():
            if not inst.bbox.intersects(self.window):
                continue
            self.add_rect(
                inst.bbox,
                fill="none",
                stroke=_OUTLINE_COLOR,
                opacity=1.0,
                title=f"{inst.name} ({inst.master.name})",
            )
            for pin, layer, rect in inst.all_pin_shapes():
                if layers and layer not in layers:
                    continue
                self.add_rect(
                    rect,
                    fill=layer_color(layer),
                    title=f"{inst.name}/{pin.name} {layer}",
                )
            for layer, rect in inst.obstruction_rects():
                if layers and layer not in layers:
                    continue
                self.add_rect(
                    rect, fill="#555555", opacity=0.35,
                    title=f"{inst.name} OBS {layer}",
                )
        for io_pin in design.io_pins.values():
            self.add_rect(
                io_pin.rect,
                fill=layer_color(io_pin.layer_name),
                title=f"IO {io_pin.name}",
            )

    def draw_access(self, design: Design, access_map: dict) -> None:
        """Draw selected access points with their via enclosures."""
        for (inst_name, pin_name), ap in access_map.items():
            if not ap.has_via_access:
                continue
            via = design.tech.via(ap.primary_via)
            bottom = via.bottom_at(ap.x, ap.y)
            top = via.top_at(ap.x, ap.y)
            cut = via.cut_at(ap.x, ap.y)
            if not bottom.intersects(self.window):
                continue
            self.add_rect(
                bottom, fill=layer_color(via.bottom_layer), opacity=0.45
            )
            self.add_rect(top, fill=layer_color(via.top_layer), opacity=0.45)
            self.add_rect(cut, fill=_CUT_COLOR, opacity=0.9)
            self.add_point(
                ap.x, ap.y, title=f"{inst_name}/{pin_name} via {via.name}"
            )

    def draw_routing(self, design: Design, routing_result) -> None:
        """Draw routed wires and vias."""
        for net_name, layer_name, rect in routing_result.wires:
            self.add_rect(
                rect,
                fill=layer_color(layer_name),
                opacity=0.45,
                title=f"{net_name} {layer_name}",
            )
        for net_name, via_name, x, y in routing_result.vias:
            via = design.tech.via(via_name)
            self.add_rect(via.cut_at(x, y), fill=_CUT_COLOR, opacity=0.9)

    def draw_violations(self, violations: list) -> None:
        """Draw every violation as a dashed marker."""
        for v in violations:
            self.add_marker(v.marker, title=str(v))

    # -- output ---------------------------------------------------------------

    def to_svg(self) -> str:
        """Return the SVG document."""
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.pixel_width}" height="{self.pixel_height}" '
            f'viewBox="0 0 {self.pixel_width} {self.pixel_height}">'
        )
        background = (
            f'<rect x="0" y="0" width="{self.pixel_width}" '
            f'height="{self.pixel_height}" fill="#ffffff"/>'
        )
        return "\n".join(
            [header, background, *self._elements, "</svg>"]
        )


def layer_color(layer_name: str) -> str:
    """Return the palette color of a layer (cut layers are dark)."""
    if layer_name.startswith("V"):
        return _CUT_COLOR
    return _LAYER_COLORS.get(layer_name, "#aaaaaa")


def render_pin_access(
    design: Design, access_map: dict, window: Rect = None,
    pixel_width: int = 800,
) -> str:
    """Render a Figure 9-style view: cells, pins and selected accesses."""
    painter = LayoutPainter(window or design.die_area, pixel_width)
    painter.draw_design(design, layers=("M1", "M2", "M3"))
    painter.draw_access(design, access_map)
    return painter.to_svg()


def render_routing(
    design: Design, routing_result, violations: list = (),
    window: Rect = None, pixel_width: int = 800,
) -> str:
    """Render a Figure 8-style view: routed design with DRC markers."""
    painter = LayoutPainter(window or design.die_area, pixel_width)
    painter.draw_design(design, layers=("M1",))
    painter.draw_routing(design, routing_result)
    painter.draw_violations(list(violations))
    return painter.to_svg()


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
