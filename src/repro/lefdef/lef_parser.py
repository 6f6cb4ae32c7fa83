"""LEF 5.8 parser (the subset :mod:`repro.lefdef.lef_writer` emits)."""

from __future__ import annotations

import math

from repro.db.master import CellMaster, MasterPin, Obstruction, PinUse
from repro.geom.rect import Rect
from repro.tech.layer import Layer, LayerKind, RoutingDirection
from repro.tech.rules import (
    CutSpacingRule,
    EolRule,
    MinAreaRule,
    MinStepRule,
    SpacingTable,
)
from repro.tech.technology import Technology
from repro.tech.via import ViaDef


class LefParseError(ValueError):
    """Raised on malformed LEF input."""


def parse_lef(text: str, name: str = "parsed") -> tuple:
    """Parse LEF text into ``(Technology, [CellMaster])``."""
    parser = _LefParser(text, name)
    parser.run()
    return parser.tech, parser.masters


class _LefParser:
    def __init__(self, text: str, name: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.name = name
        self.dbu = 1000
        self.tech = None
        self.masters = []
        self._pending_layers = []
        self._pending_vias = []
        self._site = (None, 0, 0)
        self._grid = 1

    # -- token helpers -------------------------------------------------------

    def _peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise LefParseError("unexpected end of LEF")
        self.pos += 1
        return token

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise LefParseError(f"expected {token!r}, got {got!r}")

    def _skip_statement(self) -> None:
        """Consume tokens through the next ';'."""
        while self._next() != ";":
            pass

    def _next_number(self, kind=float):
        token = self._next()
        try:
            value = kind(token)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise LefParseError(f"expected a number, got {token!r}")
        return value

    def _next_dbu(self) -> int:
        return round(self._next_number() * self.dbu)

    def _next_keyword(self, kind):
        """Read one value of the enum ``kind`` (``TYPE``, ``USE``, ...)."""
        token = self._next()
        try:
            return kind(token)
        except ValueError:
            choices = " or ".join(member.value for member in kind)
            raise LefParseError(f"expected {choices}, got {token!r}") from None

    def _at_end_of(self, name: str) -> bool:
        """Return True when the next two tokens are ``END name``."""
        tokens, pos = self.tokens, self.pos
        if pos >= len(tokens) or tokens[pos] != "END":
            return False
        if pos + 1 == len(tokens):
            raise LefParseError("unexpected end of LEF")
        return tokens[pos + 1] == name

    # -- driver ---------------------------------------------------------------

    def run(self) -> None:
        while (token := self._peek()) is not None:
            if token == "UNITS":
                self._parse_units()
            elif token == "MANUFACTURINGGRID":
                self._next()
                self._grid = self._next_dbu()
                self._expect(";")
            elif token == "SITE":
                self._parse_site()
            elif token == "LAYER":
                self._parse_layer()
            elif token == "VIA":
                self._parse_via()
            elif token == "MACRO":
                self._parse_macro()
            elif token == "END":
                self._next()
                nxt = self._peek()
                if nxt == "LIBRARY":
                    self._next()
                    break
            else:
                self._next()
                if self._peek_is_statement_tail(token):
                    self._skip_statement()
        self._finalize()

    def _peek_is_statement_tail(self, token: str) -> bool:
        return token in ("VERSION", "BUSBITCHARS", "DIVIDERCHAR")

    def _finalize(self) -> None:
        site_name, site_w, site_h = self._site
        self.tech = Technology(
            name=self.name,
            dbu_per_micron=self.dbu,
            site_name=site_name or "site",
            site_width=site_w,
            site_height=site_h,
            manufacturing_grid=self._grid,
        )
        try:
            for layer in self._pending_layers:
                self.tech.add_layer(layer)
            for via in self._pending_vias:
                self.tech.add_via(via)
        except ValueError as exc:
            # A duplicate name, or a via on an unknown layer.
            raise LefParseError(str(exc)) from None
        for master in self.masters:
            master.site_name = master.site_name or site_name or ""

    # -- sections -------------------------------------------------------------

    def _parse_units(self) -> None:
        self._expect("UNITS")
        while self._peek() != "END":
            if self._next() == "DATABASE":
                self._expect("MICRONS")
                self.dbu = self._next_number(int)
                self._expect(";")
        self._expect("END")
        self._expect("UNITS")

    def _parse_site(self) -> None:
        self._expect("SITE")
        name = self._next()
        width = height = 0
        while self._peek() != "END":
            token = self._next()
            if token == "SIZE":
                width = self._next_dbu()
                self._expect("BY")
                height = self._next_dbu()
                self._expect(";")
            elif token == "CLASS":
                self._skip_statement()
        self._expect("END")
        self._expect(name)
        self._site = (name, width, height)

    def _parse_layer(self) -> None:
        self._expect("LAYER")
        name = self._next()
        layer = Layer(name=name, kind=LayerKind.ROUTING)
        while self._peek() != "END":
            token = self._next()
            if token == "TYPE":
                layer.kind = self._next_keyword(LayerKind)
                self._expect(";")
            elif token == "DIRECTION":
                layer.direction = self._next_keyword(RoutingDirection)
                self._expect(";")
            elif token == "PITCH":
                layer.pitch = self._next_dbu()
                self._expect(";")
            elif token == "OFFSET":
                layer.offset = self._next_dbu()
                self._expect(";")
            elif token == "WIDTH":
                layer.width = self._next_dbu()
                self._expect(";")
            elif token == "SPACINGTABLE":
                layer.spacing_table = self._parse_spacing_table()
            elif token == "SPACING":
                value = self._next_dbu()
                if self._peek() == "ENDOFLINE":
                    self._next()
                    eol_width = self._next_dbu()
                    self._expect("WITHIN")
                    eol_within = self._next_dbu()
                    self._expect(";")
                    layer.eol = EolRule(
                        eol_space=value,
                        eol_width=eol_width,
                        eol_within=eol_within,
                    )
                else:
                    self._expect(";")
                    layer.cut_spacing = CutSpacingRule(spacing=value)
            elif token == "MINSTEP":
                length = self._next_dbu()
                max_edges = 0
                if self._peek() == "MAXEDGES":
                    self._next()
                    max_edges = self._next_number(int)
                self._expect(";")
                layer.min_step = MinStepRule(
                    min_step_length=length, max_edges=max_edges
                )
            elif token == "AREA":
                area = round(self._next_number() * self.dbu * self.dbu)
                self._expect(";")
                layer.min_area = MinAreaRule(min_area=area)
            else:
                self._skip_statement()
        self._expect("END")
        self._expect(name)
        self._pending_layers.append(layer)

    def _parse_spacing_table(self) -> SpacingTable:
        self._expect("PARALLELRUNLENGTH")
        prl_values = []
        while _is_number(self._peek()):
            prl_values.append(self._next_dbu())
        width_rows = []
        done = False
        while self._peek() == "WIDTH" and not done:
            self._next()
            width = self._next_dbu()
            spacings = []
            while _is_number(self._peek()):
                spacings.append(self._next_dbu())
            if self._peek() == ";":
                self._next()
                done = True
            width_rows.append((width, spacings))
        try:
            return SpacingTable(prl_values=prl_values, width_rows=width_rows)
        except ValueError as exc:
            raise LefParseError(str(exc)) from None

    def _parse_via(self) -> None:
        self._expect("VIA")
        name = self._next()
        if self._peek() == "DEFAULT":
            self._next()
        shapes = []  # (layer_name, rect)
        current_layer = None
        while self._peek() != "END":
            token = self._next()
            if token == "LAYER":
                current_layer = self._next()
                self._expect(";")
            elif token == "RECT":
                rect = self._parse_rect_um(current_layer, f"via {name}")
                shapes.append((current_layer, rect))
            else:
                self._skip_statement()
        self._expect("END")
        self._expect(name)
        if len(shapes) != 3:
            raise LefParseError(f"via {name} must have exactly 3 shapes")
        try:
            via = ViaDef(
                name=name,
                bottom_layer=shapes[0][0],
                cut_layer=shapes[1][0],
                top_layer=shapes[2][0],
                bottom_enc=shapes[0][1],
                cut=shapes[1][1],
                top_enc=shapes[2][1],
            )
        except ValueError as exc:  # an enclosure that misses the cut
            raise LefParseError(str(exc)) from None
        self._pending_vias.append(via)

    def _parse_rect_um(self, layer: str, owner: str) -> Rect:
        """Read a ``RECT`` statement's body; ``layer`` is the current
        ``LAYER``, which must have been given (``owner`` names the
        block in the message)."""
        if layer is None:
            raise LefParseError(f"{owner}: RECT before any LAYER")
        xlo = self._next_dbu()
        ylo = self._next_dbu()
        xhi = self._next_dbu()
        yhi = self._next_dbu()
        self._expect(";")
        try:
            return Rect(xlo, ylo, xhi, yhi)
        except ValueError as exc:
            raise LefParseError(f"{owner}: {exc}") from None

    def _parse_macro(self) -> None:
        self._expect("MACRO")
        name = self._next()
        master = CellMaster(name=name, width=0, height=0)
        while not self._at_end_of(name):
            token = self._next()
            if token == "CLASS":
                master.is_macro = self._next() == "BLOCK"
                self._expect(";")
            elif token == "SIZE":
                master.width = self._next_dbu()
                self._expect("BY")
                master.height = self._next_dbu()
                self._expect(";")
            elif token == "SITE":
                master.site_name = self._next()
                self._expect(";")
            elif token == "ORIGIN":
                self._skip_statement()
            elif token == "PIN":
                pin = self._parse_pin()
                try:
                    master.add_pin(pin)
                except ValueError as exc:  # a duplicate pin name
                    raise LefParseError(str(exc)) from None
            elif token == "OBS":
                self._parse_obs(master)
            else:
                self._skip_statement()
        self._expect("END")
        self._expect(name)
        self.masters.append(master)

    def _parse_pin(self) -> MasterPin:
        name = self._next()
        pin = MasterPin(name=name)
        while not self._at_end_of(name):
            token = self._next()
            if token == "USE":
                pin.use = self._next_keyword(PinUse)
                self._expect(";")
            elif token == "DIRECTION":
                self._skip_statement()
            elif token == "PORT":
                current_layer = None
                while self._peek() != "END":
                    inner = self._next()
                    if inner == "LAYER":
                        current_layer = self._next()
                        self._expect(";")
                    elif inner == "RECT":
                        pin.add_shape(
                            current_layer,
                            self._parse_rect_um(current_layer, f"pin {name}"),
                        )
                    else:
                        self._skip_statement()
                self._expect("END")
        self._expect("END")
        self._expect(name)
        return pin

    def _parse_obs(self, master: CellMaster) -> None:
        current_layer = None
        while self._peek() != "END":
            token = self._next()
            if token == "LAYER":
                current_layer = self._next()
                self._expect(";")
            elif token == "RECT":
                rect = self._parse_rect_um(
                    current_layer, f"OBS of {master.name}"
                )
                master.add_obstruction(
                    Obstruction(layer_name=current_layer, rect=rect)
                )
            else:
                self._skip_statement()
        self._expect("END")


def _tokenize(text: str) -> list:
    tokens = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for part in line.replace(";", " ; ").split():
            tokens.append(part)
    return tokens


def _is_number(token: str) -> bool:
    if token is None:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True
