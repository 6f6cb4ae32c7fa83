"""A* search over the routing grid."""

from __future__ import annotations

from heapq import heappop, heappush

WIRE_COST = 1
VIA_COST = 4


def astar_route(
    grid,
    sources: set,
    targets: set,
    net_name: str,
    bounds: tuple = None,
    max_expansions: int = 200000,
) -> list:
    """Find a node path from any source to any target.

    ``sources``/``targets`` are sets of grid nodes.  ``bounds`` is an
    optional ``(ilo, jlo, ihi, jhi)`` search window (grid indices);
    nodes outside it are not expanded.  Returns the node path
    (source..target inclusive) or None when no path exists within the
    expansion budget.

    The path is fixed by the neighbour order of
    :meth:`RoutingGrid.neighbors` (wire moves to the lower, then the
    higher index; then the via down, then the via up) and by the heap
    tie-break on ``(f, push order)``.  Everything that stays fixed for
    the search -- step, target coordinates, layer directions, window,
    occupancy lookups -- is bound once, and neighbours are expanded
    inline in that order.
    """
    if not sources or not targets:
        return None
    xs, ys = grid.xs, grid.ys
    # Distances are counted in track steps of the smaller first gap.
    step = max(
        1,
        min(
            xs[1] - xs[0] if len(xs) > 1 else 1,
            ys[1] - ys[0] if len(ys) > 1 else 1,
        ),
    )
    target_set = set(targets)
    target_points = [(xs[i], ys[j]) for _, i, j in target_set]
    if len(target_points) == 1:
        ((tx, ty),) = target_points
        # Per-axis distances to the single target, indexed by i and j.
        dx = [abs(x - tx) for x in xs]
        dy = [abs(y - ty) for y in ys]

        def heuristic(i, j):
            return WIRE_COST * (dx[i] + dy[j]) // step

    else:

        def heuristic(i, j):
            x, y = xs[i], ys[j]
            best = min(abs(x - tx) + abs(y - ty) for tx, ty in target_points)
            return WIRE_COST * best // step

    # The search window, clipped to the grid: a neighbour is expanded
    # only when it lies on the grid and inside ``bounds``.
    ilo, jlo, ihi, jhi = 0, 0, len(xs) - 1, len(ys) - 1
    if bounds is not None:
        ilo, jlo = max(ilo, bounds[0]), max(jlo, bounds[1])
        ihi, jhi = min(ihi, bounds[2]), min(jhi, bounds[3])
    horizontal = [layer.is_horizontal for layer in grid.layers]
    top = len(horizontal) - 1
    owner_of = grid.occupancy.get
    via_owner_of = grid.via_occupancy.get
    best_cost = {}
    cost_of = best_cost.get
    came_from = {}
    inf = float("inf")

    open_heap = []
    counter = 0
    for s in sources:
        heappush(open_heap, (heuristic(s[1], s[2]), counter, s))
        counter += 1
        best_cost[s] = 0

    expansions = 0
    while open_heap:
        node = heappop(open_heap)[2]
        if node in target_set:
            return _reconstruct(came_from, node)
        expansions += 1
        if expansions > max_expansions:
            return None
        g = best_cost[node]
        level, i, j = node
        # Wire moves along the preferred direction.
        if horizontal[level]:
            wires = ((i - 1, j), (i + 1, j)) if jlo <= j <= jhi else ()
        else:
            wires = ((i, j - 1), (i, j + 1)) if ilo <= i <= ihi else ()
        cost = g + WIRE_COST
        for ni, nj in wires:
            if not (ilo <= ni <= ihi and jlo <= nj <= jhi):
                continue
            nb = (level, ni, nj)
            owner = owner_of(nb)
            if owner is not None and owner != net_name:
                continue
            if cost < cost_of(nb, inf):
                best_cost[nb] = cost
                came_from[nb] = node
                heappush(open_heap, (cost + heuristic(ni, nj), counter, nb))
                counter += 1
        # Vias at the same (i, j): down, then up.
        if not (ilo <= i <= ihi and jlo <= j <= jhi):
            continue
        cost = g + VIA_COST
        h = None
        for nl in (level - 1, level + 1):
            if not 0 <= nl <= top:
                continue
            nb = (nl, i, j)
            owner = owner_of(nb)
            if owner is not None and owner != net_name:
                continue
            owner = via_owner_of(node if level < nl else nb)
            if owner is not None and owner != net_name:
                continue
            if cost < cost_of(nb, inf):
                best_cost[nb] = cost
                came_from[nb] = node
                if h is None:
                    h = heuristic(i, j)
                heappush(open_heap, (cost + h, counter, nb))
                counter += 1
    return None


def _reconstruct(came_from, node) -> list:
    path = [node]
    while node in came_from:
        node = came_from[node]
        path.append(node)
    path.reverse()
    return path
