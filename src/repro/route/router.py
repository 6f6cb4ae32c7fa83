"""The detailed router and routed-design DRC scoring.

The router is deliberately held constant between comparison modes; it
consumes an *access map* ((instance, pin) -> access point) and connects
each net with track-aligned wires and vias:

1. every terminal enters the grid through its access point's up-via
   plus an escape stub to the nearest track intersection;
2. terminals are joined tree-style with A* over the occupancy-aware
   track graph (routed nets block later nets, node-disjoint).

Scoring re-checks the complete routed layout -- wires, vias, pins --
with the DRC engine, which is how Experiment 3 counts final DRCs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.db.design import Design
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine
from repro.geom.polygon import union_area
from repro.geom.rect import Rect
from repro.route.astar import astar_route
from repro.route.grid import RoutingGrid


@dataclass
class RoutingResult:
    """Routed geometry plus bookkeeping."""

    wires: list = field(default_factory=list)      # (net, layer_name, Rect)
    vias: list = field(default_factory=list)       # (net, via_name, x, y)
    routed_nets: int = 0
    failed_nets: list = field(default_factory=list)
    unconnected_terms: int = 0
    runtime: float = 0.0

    @property
    def total_wirelength(self) -> int:
        """Return summed wire length (DBU)."""
        return sum(max(r.width, r.height) for _, _, r in self.wires)


class DetailedRouter:
    """Routes a design given an access map."""

    def __init__(self, design: Design, grid: RoutingGrid = None):
        self.design = design
        self.tech = design.tech
        self.grid = grid or RoutingGrid(design)

    def route(
        self,
        access_map: dict,
        max_nets: int = None,
        repair_min_area: bool = True,
        io_access: dict = None,
    ) -> RoutingResult:
        """Route every net; returns geometry and statistics.

        ``access_map`` maps (instance name, pin name) to the selected
        :class:`~repro.core.apgen.AccessPoint`; terminals without an
        entry are left unconnected (counted, as a real router would
        report pin access failures).  ``io_access`` optionally maps IO
        pin names to their selected access points: when given, IO
        terminals enter the grid at the chosen point (and a missing
        entry counts as an unconnected terminal); when ``None`` the
        router falls back to tapping every IO pin at its shape center.
        ``repair_min_area`` extends undersized isolated metal after
        routing (real routers patch min-area the same way).
        """
        result = RoutingResult()
        t0 = time.perf_counter()
        nets = list(self.design.nets.values())
        if max_nets is not None:
            nets = nets[:max_nets]
        # Pre-pass: reserve every terminal's grid entry node for its
        # net, so no other net's wire tramples an access point before
        # its owner routes (a real router's pin-blockage modeling).
        terminals_by_net = {}
        for net in nets:
            terminals = self._net_terminals(
                net, access_map, result, io_access
            )
            terminals_by_net[net.name] = terminals
            for access, node in terminals:
                self.grid.claim(node, net.name)
                self.grid.occupy_via_at(node, net.name)
                self._reserve_offtrack_corridor(access, node, net.name)
        for net in nets:
            self._route_net(net, terminals_by_net[net.name], result)
        if repair_min_area:
            self._repair_min_area(result)
        result.runtime = time.perf_counter() - t0
        return result

    def _repair_min_area(self, result: RoutingResult) -> None:
        """Extend undersized isolated metal components to min area.

        Works per (net, layer) connected component (wires plus via
        enclosures); the longest wire of an undersized component grows
        symmetrically along its layer's preferred direction.
        """
        components = net_layer_components(self.design, result)
        wire_ids = {id(w): k for k, w in enumerate(result.wires)}
        for net_name, layer_name, members in components:
            layer = self.tech.layer(layer_name)
            if layer.min_area is None:
                continue
            area = union_area([rect for _, rect in members])
            if area >= layer.min_area.min_area:
                continue
            deficit = layer.min_area.min_area - area
            grow = -(-deficit // max(1, layer.width)) + 2
            half = grow // 2 + 1
            die = self.design.die_area
            wires = [m for m in members if m[0] is not None]
            if wires:
                entry, rect = max(wires, key=lambda m: m[1].max_dim)
            else:
                # A bare via-enclosure island (the terminal landed
                # exactly on a grid node): patch metal over it, as a
                # real router's min-area fixer does.
                entry, rect = None, members[0][1]
            if layer.is_horizontal:
                extended = Rect(
                    max(die.xlo, rect.xlo - half),
                    rect.ylo,
                    min(die.xhi, rect.xhi + half),
                    rect.yhi,
                )
            else:
                extended = Rect(
                    rect.xlo,
                    max(die.ylo, rect.ylo - half),
                    rect.xhi,
                    min(die.yhi, rect.yhi + half),
                )
            if entry is None:
                result.wires.append((net_name, layer_name, extended))
            else:
                result.wires[wire_ids[id(entry)]] = (
                    net_name,
                    layer_name,
                    extended,
                )

    # -- internals ---------------------------------------------------------

    def _route_net(self, net, terminals, result) -> None:
        if len(terminals) < 2:
            return
        entry_nodes = []
        for ap, node in terminals:
            entry_nodes.append(node)
        bounds = self._search_bounds(entry_nodes, margin=12)

        tree = {terminals[0][1]}
        pending = [t for t in terminals[1:]]
        success = True
        for ap, node in pending:
            if node in tree:
                continue
            path = astar_route(self.grid, tree, {node}, net.name, bounds)
            if path is None:
                bounds_wide = self._search_bounds(entry_nodes, margin=40)
                path = astar_route(
                    self.grid, tree, {node}, net.name, bounds_wide
                )
            if path is None:
                success = False
                continue
            self.grid.occupy_path(path, net.name)
            self._emit_path(net.name, path, result)
            tree.update(path)
        for ap, node in terminals:
            self._emit_terminal(net.name, ap, node, result)
        if success:
            result.routed_nets += 1
        else:
            result.failed_nets.append(net.name)

    def _net_terminals(self, net, access_map, result, io_access=None) -> list:
        terminals = []
        seen_nodes = set()
        for inst_name, pin_name in net.terms:
            ap = access_map.get((inst_name, pin_name))
            if ap is None or not ap.has_via_access:
                result.unconnected_terms += 1
                continue
            # The terminal enters the grid on the access via's top
            # layer: M2 for standard-cell pins, higher for macro pins
            # (e.g. M4 above an M3 macro pin).
            via = self.tech.via(ap.primary_via)
            try:
                entry_level = self.grid.level_of(via.top_layer)
            except KeyError:
                result.unconnected_terms += 1
                continue
            node = self._entry_node(
                ap.x, ap.y, net.name, seen_nodes, entry_level
            )
            if node is None:
                result.unconnected_terms += 1
                continue
            seen_nodes.add(node)
            terminals.append((ap, node))
        for io_name in net.io_pins:
            io_pin = self.design.io_pins.get(io_name)
            if io_pin is None:
                continue
            if io_access is not None:
                # Flow-selected IO entry: the access analysis picked
                # the tap point; a pin it could not cover is a real
                # open, reported like any other access failure.
                io_ap = io_access.get(io_name)
                if io_ap is None:
                    result.unconnected_terms += 1
                    continue
                tap_x, tap_y = io_ap.x, io_ap.y
            else:
                center = io_pin.rect.center
                tap_x, tap_y = center.x, center.y
            try:
                io_level = self.grid.level_of(io_pin.layer_name)
            except KeyError:
                continue
            node = self._entry_node(
                tap_x, tap_y, net.name, seen_nodes, io_level
            )
            if node is not None:
                seen_nodes.add(node)
                terminals.append((_IoAccess(io_pin, tap_x, tap_y), node))
        return terminals

    def _entry_node(self, x, y, net_name, seen_nodes, entry_level=0):
        """Pick the nearest free (or own) grid node for a terminal.

        The nearest intersection may already be reserved by another
        net's terminal; spiral out over the immediate neighborhood.
        """
        i0, j0 = self.grid.nearest_index(x, y)
        best = None
        for di, dj in (
            (0, 0), (0, 1), (0, -1), (1, 0), (-1, 0),
            (1, 1), (1, -1), (-1, 1), (-1, -1),
            (0, 2), (0, -2), (2, 0), (-2, 0),
        ):
            i, j = i0 + di, j0 + dj
            if not (0 <= i < len(self.grid.xs) and 0 <= j < len(self.grid.ys)):
                continue
            node = (entry_level, i, j)
            if node in seen_nodes:
                continue
            if self.grid.is_free(node, net_name):
                best = node
                break
        return best

    def _reserve_offtrack_corridor(self, access, node, net_name) -> None:
        """Block the neighboring track when an AP sits off-track.

        An off-track access point's via enclosure reaches into the
        corridor of the adjacent track; a foreign wire routed there
        would violate spacing/EOL against it, so the adjacent node
        column (row, for horizontal entry layers) is reserved too.
        """
        if isinstance(access, _IoAccess):
            return
        l, i, j = node
        layer = self.grid.layer_of(l)
        # Interaction reach: enclosure half-extent + spacing + half wire.
        via = self.tech.via(access.primary_via)
        if layer.is_vertical:
            reach = (
                max(-via.top_enc.xlo, via.top_enc.xhi)
                + layer.min_spacing
                + layer.width // 2
            )
            for di in (-1, 1):
                ii = i + di
                if 0 <= ii < len(self.grid.xs) and abs(
                    self.grid.xs[ii] - access.x
                ) < reach:
                    # The enclosure is tall: block the corridor across
                    # the rows it spans.
                    for dj in (-1, 0, 1):
                        jj = j + dj
                        if 0 <= jj < len(self.grid.ys):
                            self.grid.claim((l, ii, jj), net_name)
        else:
            reach = (
                max(-via.top_enc.ylo, via.top_enc.yhi)
                + layer.min_spacing
                + layer.width // 2
            )
            for dj in (-1, 1):
                jj = j + dj
                if 0 <= jj < len(self.grid.ys) and abs(
                    self.grid.ys[jj] - access.y
                ) < reach:
                    for di in (-1, 0, 1):
                        ii = i + di
                        if 0 <= ii < len(self.grid.xs):
                            self.grid.claim((l, ii, jj), net_name)

    def _search_bounds(self, nodes, margin: int) -> tuple:
        ilo = min(n[1] for n in nodes) - margin
        ihi = max(n[1] for n in nodes) + margin
        jlo = min(n[2] for n in nodes) - margin
        jhi = max(n[2] for n in nodes) + margin
        return (
            max(0, ilo),
            max(0, jlo),
            min(len(self.grid.xs) - 1, ihi),
            min(len(self.grid.ys) - 1, jhi),
        )

    def _emit_path(self, net_name, path, result) -> None:
        """Convert a node path into wire rects and vias."""
        k = 0
        while k < len(path) - 1:
            a = path[k]
            b = path[k + 1]
            if a[0] != b[0]:
                lower = a if a[0] < b[0] else b
                layer = self.grid.layer_of(lower[0])
                via = self.tech.primary_via_from(layer.name)
                x, y = self.grid.point_of(lower)
                result.vias.append((net_name, via.name, x, y))
                k += 1
                continue
            # Extend the straight run as far as it goes.
            end = k + 1
            while (
                end + 1 < len(path)
                and path[end + 1][0] == a[0]
                and self._collinear(path[k], path[end + 1])
            ):
                end += 1
            self._emit_segment(net_name, path[k], path[end], result)
            k = end

    def _collinear(self, a, b) -> bool:
        return a[1] == b[1] or a[2] == b[2]

    def _emit_segment(self, net_name, a, b, result) -> None:
        layer = self.grid.layer_of(a[0])
        half = layer.width // 2
        xa, ya = self.grid.point_of(a)
        xb, yb = self.grid.point_of(b)
        rect = Rect(
            min(xa, xb) - half,
            min(ya, yb) - half,
            max(xa, xb) + half,
            max(ya, yb) + half,
        )
        result.wires.append((net_name, layer.name, rect))

    def _emit_terminal(self, net_name, access, node, result) -> None:
        """Emit the AP up-via (or IO tap) plus the escape stub."""
        gx, gy = self.grid.point_of(node)
        entry_layer = self.grid.layer_of(node[0])
        half = entry_layer.width // 2
        if isinstance(access, _IoAccess):
            sx, sy = access.x, access.y
        else:
            result.vias.append(
                (net_name, access.primary_via, access.x, access.y)
            )
            sx, sy = access.x, access.y
        # L-shaped escape stub on the entry layer: preferred-direction
        # leg first, then the jog.
        if (sx, sy) == (gx, gy):
            return
        if entry_layer.is_vertical:
            if sy != gy:
                result.wires.append(
                    (
                        net_name,
                        entry_layer.name,
                        Rect(
                            sx - half,
                            min(sy, gy) - half,
                            sx + half,
                            max(sy, gy) + half,
                        ),
                    )
                )
            if sx != gx:
                result.wires.append(
                    (
                        net_name,
                        entry_layer.name,
                        Rect(
                            min(sx, gx) - half,
                            gy - half,
                            max(sx, gx) + half,
                            gy + half,
                        ),
                    )
                )
        else:
            if sx != gx:
                result.wires.append(
                    (
                        net_name,
                        entry_layer.name,
                        Rect(
                            min(sx, gx) - half,
                            sy - half,
                            max(sx, gx) + half,
                            sy + half,
                        ),
                    )
                )
            if sy != gy:
                result.wires.append(
                    (
                        net_name,
                        entry_layer.name,
                        Rect(
                            gx - half,
                            min(sy, gy) - half,
                            gx + half,
                            max(sy, gy) + half,
                        ),
                    )
                )
        self.grid.claim(node, net_name)


class _IoAccess:
    """Terminal adapter for IO pins (no up-via needed).

    ``x``/``y`` is the tap point: the flow-selected access point when
    one was provided, the shape center otherwise.
    """

    def __init__(self, io_pin, x=None, y=None):
        self.io_pin = io_pin
        center = io_pin.rect.center
        self.x = center.x if x is None else x
        self.y = center.y if y is None else y


def net_layer_components(design: Design, result: RoutingResult) -> list:
    """Group routed metal into per-(net, layer) connected components.

    Each member is ``(wire_tuple_or_None, rect)`` -- via enclosures
    join the component geometry but carry ``None`` (they cannot be
    resized).  Used for min-area accounting and repair.
    """
    # The lowest routing layer is the pin layer: enclosures there merge
    # with pin metal (not tracked here), so its min-area is the cell
    # library's responsibility and the layer is excluded.
    lowest = design.tech.routing_layers()[0].name
    groups = {}
    for wire in result.wires:
        net_name, layer_name, rect = wire
        if layer_name == lowest:
            continue
        groups.setdefault((net_name, layer_name), []).append((wire, rect))
    for net_name, via_name, x, y in result.vias:
        via = design.tech.via(via_name)
        if via.bottom_layer != lowest:
            groups.setdefault((net_name, via.bottom_layer), []).append(
                (None, via.bottom_at(x, y))
            )
        groups.setdefault((net_name, via.top_layer), []).append(
            (None, via.top_at(x, y))
        )
    out = []
    for (net_name, layer_name), members in groups.items():
        for component in _connected_components(members):
            out.append((net_name, layer_name, component))
    return out


def _connected_components(members: list) -> list:
    """Split (payload, rect) members into touching components."""
    parent = list(range(len(members)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if members[i][1].intersects(members[j][1]):
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    buckets = {}
    for k in range(len(members)):
        buckets.setdefault(find(k), []).append(members[k])
    return list(buckets.values())


def count_route_drcs(
    design: Design, result: RoutingResult, scope: str = "pin-access"
) -> list:
    """Score a routed design: return the deduplicated violation list.

    Builds the full context (design shapes + routed wires and vias,
    keyed by net) and re-checks the routed geometry.

    ``scope="pin-access"`` (default) checks the pin-access vias -- the
    up-vias landing on pins -- against everything around them: metal
    spacing and EOL on both enclosure layers, cut spacing, and min-step
    on the merged (pin + enclosure) metal.  This is the comparison
    paper Figure 8 draws between Dr. CU 2.0 and PAAF on the final
    routed design.

    ``scope="full"`` additionally checks every wire segment, which
    includes the wire-vs-wire noise floor of the simplified router
    substrate (identical in both comparison modes).
    """
    if scope not in ("pin-access", "full"):
        raise ValueError(f"unknown scope {scope!r}")
    engine = DrcEngine(design.tech)
    context = ShapeContext.from_design(design)
    for net_name, layer_name, rect in result.wires:
        context.add(layer_name, rect, net_name)
    via_shapes = []
    for net_name, via_name, x, y in result.vias:
        via = design.tech.via(via_name)
        context.add(via.bottom_layer, via.bottom_at(x, y), net_name)
        context.add(via.cut_layer, via.cut_at(x, y), net_name)
        context.add(via.top_layer, via.top_at(x, y), net_name)
        via_shapes.append((net_name, via, x, y))

    violations = []
    lowest = design.tech.routing_layers()[0].name
    if scope == "full":
        for net_name, layer_name, rect in result.wires:
            violations.extend(
                engine.check_metal_rect(
                    layer_name, rect, net_name, context, label=net_name
                )
            )
    for net_name, via, x, y in via_shapes:
        is_pin_via = via.bottom_layer == lowest
        if scope == "pin-access" and not is_pin_via:
            continue
        violations.extend(
            engine.check_via_placement(
                via,
                x,
                y,
                net_name,
                context,
                with_min_step=is_pin_via,
                label=net_name,
            )
        )
    if scope == "full":
        from repro.drc.minarea import check_min_area

        for net_name, layer_name, members in net_layer_components(
            design, result
        ):
            layer = design.tech.layer(layer_name)
            violations.extend(
                check_min_area(
                    layer, [rect for _, rect in members], label=net_name
                )
            )
    return DrcEngine.dedupe(violations)
