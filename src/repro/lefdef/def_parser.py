"""DEF 5.8 parser (the subset :mod:`repro.lefdef.def_writer` emits)."""

from __future__ import annotations

from repro.db.design import Design, Row
from repro.db.inst import Instance
from repro.db.net import IOPin, Net
from repro.db.tracks import TrackPattern
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.transform import Orientation
from repro.tech.layer import RoutingDirection
from repro.tech.technology import Technology


class DefParseError(ValueError):
    """Raised on malformed DEF input."""


def parse_def(text: str, tech: Technology, masters: list) -> Design:
    """Parse DEF text into a :class:`Design`.

    ``masters`` supplies the cell library (e.g. from
    :func:`repro.lefdef.parse_lef`).
    """
    parser = _DefParser(text, tech, masters)
    return parser.run()


class _DefParser:
    def __init__(self, text: str, tech: Technology, masters: list):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.tech = tech
        self.masters = {m.name: m for m in masters}
        self.design = None

    def _peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise DefParseError("unexpected end of DEF")
        self.pos += 1
        return token

    def _next_int(self) -> int:
        token = self._next()
        try:
            return int(token)
        except ValueError:
            raise DefParseError(
                f"expected an integer, got {token!r}"
            ) from None

    def _next_orientation(self) -> Orientation:
        token = self._next()
        try:
            return Orientation.from_def_name(token)
        except ValueError:
            raise DefParseError(
                f"expected an orientation, got {token!r}"
            ) from None

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise DefParseError(f"expected {token!r}, got {got!r}")

    def _skip_statement(self) -> None:
        while self._next() != ";":
            pass

    def run(self) -> Design:
        design_name = "design"
        dbu = self.tech.dbu_per_micron
        pending = []
        while (token := self._peek()) is not None:
            if token == "DESIGN":
                self._next()
                design_name = self._next()
                self._expect(";")
            elif token == "UNITS":
                self._next()
                self._expect("DISTANCE")
                self._expect("MICRONS")
                dbu = self._next_int()
                self._expect(";")
            elif token == "DIEAREA":
                pending.append(("diearea", self._parse_diearea()))
            elif token == "ROW":
                pending.append(("row", self._parse_row()))
            elif token == "TRACKS":
                pending.append(("tracks", self._parse_tracks()))
            elif token == "COMPONENTS":
                pending.append(("components", self._parse_components()))
            elif token == "PINS":
                pending.append(("pins", self._parse_pins()))
            elif token == "NETS":
                pending.append(("nets", self._parse_nets()))
            elif token == "END":
                self._next()
                if self._peek() == "DESIGN":
                    self._next()
                    break
            else:
                self._next()
                if token in ("VERSION", "DIVIDERCHAR", "BUSBITCHARS"):
                    self._skip_statement()
        if dbu != self.tech.dbu_per_micron:
            raise DefParseError(
                f"DEF DBU {dbu} != technology DBU {self.tech.dbu_per_micron}"
            )
        return self._build(design_name, pending)

    def _build(self, design_name, pending) -> Design:
        design = Design(name=design_name, tech=self.tech)
        for master in self.masters.values():
            design.add_master(master)
        io_nets = {}
        try:
            for kind, payload in pending:
                self._add(design, kind, payload, io_nets)
        except ValueError as exc:
            # The database rejects a duplicate name or an unknown layer.
            raise DefParseError(str(exc)) from None
        # A term naming an absent instance is skipped by the flow; one
        # naming a pin its instance's master lacks is malformed.
        for net in design.nets.values():
            for inst_name, pin_name in net.terms:
                inst = design.instances.get(inst_name)
                if inst is None:
                    continue
                try:
                    inst.master.pin(pin_name)
                except KeyError:
                    raise DefParseError(
                        f"net {net.name}: master {inst.master.name} of "
                        f"{inst_name} has no pin named {pin_name!r}"
                    ) from None
        # Attach IO pins whose NET property references a parsed net but
        # which the NETS section did not list explicitly.
        for io_name, net_name in io_nets.items():
            net = design.nets.get(net_name)
            if net is not None and io_name not in net.io_pins:
                net.add_io_pin(io_name)
        return design

    def _add(self, design, kind, payload, io_nets) -> None:
        """Add one parsed section to ``design``."""
        if kind == "diearea":
            design.die_area = payload
        elif kind == "row":
            design.add_row(payload)
        elif kind == "tracks":
            design.add_track_pattern(payload)
        elif kind == "components":
            for name, master_name, x, y, orient in payload:
                master = self.masters.get(master_name)
                if master is None:
                    raise DefParseError(f"unknown master {master_name}")
                design.add_instance(
                    Instance(
                        name=name,
                        master=master,
                        location=Point(x, y),
                        orient=orient,
                    )
                )
        elif kind == "pins":
            for pin, net_name in payload:
                design.add_io_pin(pin)
                io_nets[pin.name] = net_name
        elif kind == "nets":
            for net in payload:
                design.add_net(net)

    # -- sections -------------------------------------------------------------

    def _parse_diearea(self) -> Rect:
        self._expect("DIEAREA")
        self._expect("(")
        xlo = self._next_int()
        ylo = self._next_int()
        self._expect(")")
        self._expect("(")
        xhi = self._next_int()
        yhi = self._next_int()
        self._expect(")")
        self._expect(";")
        return _rect(xlo, ylo, xhi, yhi, "DIEAREA")

    def _parse_row(self) -> Row:
        self._expect("ROW")
        name = self._next()
        self._next()  # site name
        x = self._next_int()
        y = self._next_int()
        orient = self._next_orientation()
        self._expect("DO")
        count = self._next_int()
        self._expect("BY")
        self._next()  # rows-in-y, always 1 here
        self._expect("STEP")
        step_x = self._next_int()
        self._next()  # step y
        self._expect(";")
        return Row(
            name=name,
            origin=Point(x, y),
            orient=orient,
            count=count,
            site_width=step_x,
            site_height=self.tech.site_height,
        )

    def _parse_tracks(self) -> TrackPattern:
        self._expect("TRACKS")
        axis = self._next()
        start = self._next_int()
        self._expect("DO")
        count = self._next_int()
        self._expect("STEP")
        step = self._next_int()
        self._expect("LAYER")
        layer_name = self._next()
        self._expect(";")
        direction = (
            RoutingDirection.HORIZONTAL
            if axis == "Y"
            else RoutingDirection.VERTICAL
        )
        try:
            return TrackPattern(
                layer_name=layer_name,
                direction=direction,
                start=start,
                step=step,
                count=count,
            )
        except ValueError as exc:  # a step or count below 1
            raise DefParseError(f"TRACKS on {layer_name}: {exc}") from None

    def _parse_components(self) -> list:
        self._expect("COMPONENTS")
        self._next()  # count
        self._expect(";")
        out = []
        while self._peek() == "-":
            self._next()
            name = self._next()
            master_name = self._next()
            x = y = 0
            orient = Orientation.R0
            while self._peek() != ";":
                token = self._next()
                if token == "+":
                    continue
                if token == "PLACED" or token == "FIXED":
                    self._expect("(")
                    x = self._next_int()
                    y = self._next_int()
                    self._expect(")")
                    orient = self._next_orientation()
            self._expect(";")
            out.append((name, master_name, x, y, orient))
        self._expect("END")
        self._expect("COMPONENTS")
        return out

    def _parse_pins(self) -> list:
        self._expect("PINS")
        self._next()  # count
        self._expect(";")
        out = []
        while self._peek() == "-":
            self._next()
            name = self._next()
            net_name = None
            layer_name = None
            rect = None
            while self._peek() != ";":
                token = self._next()
                if token == "+":
                    continue
                if token == "NET":
                    net_name = self._next()
                elif token == "LAYER":
                    layer_name = self._next()
                    self._expect("(")
                    xlo = self._next_int()
                    ylo = self._next_int()
                    self._expect(")")
                    self._expect("(")
                    xhi = self._next_int()
                    yhi = self._next_int()
                    self._expect(")")
                    rect = _rect(xlo, ylo, xhi, yhi, f"IO pin {name}")
                elif token == "PLACED":
                    self._expect("(")
                    self._next()
                    self._next()
                    self._expect(")")
                    self._next()  # orientation
                elif token == "DIRECTION":
                    self._next()
            self._expect(";")
            if layer_name is None or rect is None:
                raise DefParseError(f"IO pin {name} missing LAYER/RECT")
            out.append(
                (IOPin(name=name, layer_name=layer_name, rect=rect), net_name)
            )
        self._expect("END")
        self._expect("PINS")
        return out

    def _parse_nets(self) -> list:
        self._expect("NETS")
        self._next()  # count
        self._expect(";")
        out = []
        while self._peek() == "-":
            self._next()
            net = Net(name=self._next())
            while self._peek() != ";":
                self._expect("(")
                first = self._next()
                second = self._next()
                self._expect(")")
                if first == "PIN":
                    net.add_io_pin(second)
                else:
                    net.add_term(first, second)
            self._expect(";")
            out.append(net)
        self._expect("END")
        self._expect("NETS")
        return out


def _rect(xlo: int, ylo: int, xhi: int, yhi: int, owner: str) -> Rect:
    """Return the rect, or raise :class:`DefParseError` naming ``owner``."""
    try:
        return Rect(xlo, ylo, xhi, yhi)
    except ValueError as exc:
        raise DefParseError(f"{owner}: {exc}") from None


def _tokenize(text: str) -> list:
    tokens = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        line = (
            line.replace(";", " ; ")
            .replace("(", " ( ")
            .replace(")", " ) ")
        )
        tokens.extend(line.split())
    return tokens
