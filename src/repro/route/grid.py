"""The routing grid: a 3-D track graph over M2..M6.

Nodes are intersections of vertical-layer tracks (x coordinates) with
horizontal-layer tracks (y coordinates), replicated across the routing
layers.  A node is addressed ``(l, i, j)`` where ``l`` is the layer
index within the grid's layer list and ``i``/``j`` index the x/y
coordinate arrays.  Edges run along each layer's preferred direction;
vias connect vertically adjacent layers at the same (i, j).

Internally each node is one integer, ``(l * NI + i) * NJ + j`` for an
``NI`` x ``NJ`` grid, so a wire step is ``+-1`` (along y) or ``+-NJ``
(along x) and a via step is ``+-NI * NJ``.  The occupancy maps are
keyed by these ids and written only through the grid's methods.

``via_steps`` holds the fewest level changes between two levels when a
path must also turn, which the search's bound reads; it depends only on
the layer stack, so it is computed once per stack.
"""

from __future__ import annotations

import bisect
from functools import lru_cache

from repro.db.design import Design
from repro.tech.layer import RoutingDirection


class RoutingGrid:
    """Track graph geometry and occupancy for one design."""

    def __init__(self, design: Design, layer_names: list = None):
        self.design = design
        tech = design.tech
        if layer_names is None:
            layer_names = [
                l.name
                for l in tech.routing_layers()
                if l.name not in ("M1",)
            ][:5]  # M2..M6
        self.layers = [tech.layer(name) for name in layer_names]
        self._layer_index = {l.name: k for k, l in enumerate(self.layers)}

        self.xs = self._axis_coords(RoutingDirection.VERTICAL)
        self.ys = self._axis_coords(RoutingDirection.HORIZONTAL)
        if not self.xs or not self.ys:
            raise ValueError("design has no track patterns for the grid")
        self.ni = len(self.xs)
        self.nj = len(self.ys)
        self.via_steps = _via_steps(
            tuple(layer.is_horizontal for layer in self.layers)
        )
        # node id -> net name
        self.occupancy = {}
        # cut-layer exclusion: lower node id -> net name, bloated to
        # neighbors so foreign vias never land at adjacent track nodes
        # (cut spacing is larger than one track gap minus a cut width).
        self.via_occupancy = {}

    def _axis_coords(self, direction) -> list:
        coords = set()
        for layer in self.layers:
            if layer.direction is not direction:
                continue
            for pattern in self.design.track_patterns_on(layer.name):
                if pattern.direction is direction:
                    coords.update(pattern.coordinates())
        return sorted(coords)

    # -- geometry ------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        """Return the number of grid layers."""
        return len(self.layers)

    def layer_of(self, l: int):
        """Return the Layer object at grid level ``l``."""
        return self.layers[l]

    def level_of(self, layer_name: str) -> int:
        """Return the grid level of ``layer_name``."""
        return self._layer_index[layer_name]

    def node_id(self, node: tuple) -> int:
        """Return the integer id of on-grid node ``(l, i, j)``."""
        l, i, j = node
        return (l * self.ni + i) * self.nj + j

    def node_of(self, node_id: int) -> tuple:
        """Return the ``(l, i, j)`` of integer id ``node_id``."""
        rest, j = divmod(node_id, self.nj)
        l, i = divmod(rest, self.ni)
        return (l, i, j)

    def point_of(self, node: tuple) -> tuple:
        """Return the (x, y) of node ``(l, i, j)``."""
        _, i, j = node
        return (self.xs[i], self.ys[j])

    def nearest_index(self, x: int, y: int) -> tuple:
        """Return the (i, j) of the grid point nearest (x, y)."""
        return (
            _nearest(self.xs, x),
            _nearest(self.ys, y),
        )

    def neighbors(self, node: tuple) -> list:
        """Return the (neighbor node, move kind) pairs of ``node``.

        Moves along the layer's preferred direction cost as wire;
        level changes cost as vias.  ``kind`` is ``"wire"`` or
        ``"via"``.
        """
        l, i, j = node
        layer = self.layers[l]
        out = []
        if layer.is_horizontal:
            if i > 0:
                out.append(((l, i - 1, j), "wire"))
            if i < len(self.xs) - 1:
                out.append(((l, i + 1, j), "wire"))
        else:
            if j > 0:
                out.append(((l, i, j - 1), "wire"))
            if j < len(self.ys) - 1:
                out.append(((l, i, j + 1), "wire"))
        if l > 0:
            out.append(((l - 1, i, j), "via"))
        if l < len(self.layers) - 1:
            out.append(((l + 1, i, j), "via"))
        return out

    # -- occupancy -----------------------------------------------------------

    def is_free(self, node: tuple, net_name: str) -> bool:
        """Return True if ``node`` is unoccupied or owned by ``net_name``."""
        owner = self.occupancy.get(self.node_id(node))
        return owner is None or owner == net_name

    def via_allowed(self, lower_node: tuple, net_name: str) -> bool:
        """Return True if a via can be dropped at ``lower_node``.

        Checks the bloated cut exclusion zone, which keeps foreign
        cuts at least two track nodes apart (cut spacing safe).
        """
        owner = self.via_occupancy.get(self.node_id(lower_node))
        return owner is None or owner == net_name

    def claim(self, node: tuple, net_name: str) -> None:
        """Reserve ``node`` for ``net_name`` unless a net already holds it."""
        self.occupancy.setdefault(self.node_id(node), net_name)

    def claim_via(self, lower_node: tuple, net_name: str) -> None:
        """Reserve the single cut-exclusion key ``lower_node`` (no bloat)."""
        self.via_occupancy.setdefault(self.node_id(lower_node), net_name)

    def occupy_path(self, path: list, net_name: str) -> None:
        """Claim all nodes of ``path`` (and via exclusions) for a net."""
        for node in path:
            self.occupancy[self.node_id(node)] = net_name
        for a, b in zip(path, path[1:]):
            if a[0] != b[0]:
                self.occupy_via_at(a if a[0] < b[0] else b, net_name)

    def occupy_via_at(self, lower_node: tuple, net_name: str) -> None:
        """Claim a via exclusion zone at ``lower_node``.

        The zone is the node and its eight neighbours on the same cut
        level.  Neighbours off the grid are dropped: no search reaches
        them, and their ids would alias nodes on the far border.
        """
        l, i, j = lower_node
        for ii in range(max(0, i - 1), min(self.ni, i + 2)):
            for jj in range(max(0, j - 1), min(self.nj, j + 2)):
                self.claim_via((l, ii, jj), net_name)


@lru_cache(maxsize=None)
def _via_steps(horizontal: tuple) -> tuple:
    """Return the fewest level changes between levels, turns included.

    ``steps[l][tl][h][v]`` is the length of the shortest walk over the
    level stack from ``l`` to ``tl`` that visits a horizontal level
    when ``h`` and a vertical one when ``v``.  Such a walk covers some
    run of levels ``a..b`` around both ends and costs ``2 * (b - a) -
    |l - tl|``; the table takes the cheapest run holding each needed
    direction.  The walk starts on ``l``, so ``l``'s own direction is
    never missing: the entry does not depend on that flag.
    """
    n = len(horizontal)

    def fewest(l, tl, need_h, need_v):
        return min(
            2 * (b - a) - abs(l - tl)
            for a in range(min(l, tl) + 1)
            for b in range(max(l, tl), n)
            if (not need_h or True in horizontal[a:b + 1])
            and (not need_v or False in horizontal[a:b + 1])
        )

    return tuple(
        tuple(
            tuple(
                tuple(fewest(l, tl, h, v) for v in (False, True))
                for h in (False, True)
            )
            for tl in range(n)
        )
        for l in range(n)
    )


def _nearest(coords: list, value: int) -> int:
    """Return the index of the coordinate nearest ``value``."""
    pos = bisect.bisect_left(coords, value)
    if pos == 0:
        return 0
    if pos == len(coords):
        return len(coords) - 1
    before = coords[pos - 1]
    after = coords[pos]
    return pos if after - value < value - before else pos - 1
