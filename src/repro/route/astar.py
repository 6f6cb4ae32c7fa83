"""A* search over the routing grid."""

from __future__ import annotations

from collections import defaultdict, deque

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
    """Find a minimum-cost node path from any source to any target.

    ``sources``/``targets`` are sets of grid nodes.  ``bounds`` is an
    optional ``(ilo, jlo, ihi, jhi)`` search window (grid indices);
    nodes outside it are not expanded.  Returns the node path
    (source..target inclusive) or None when no path exists within the
    expansion budget.

    A node's bound is its exact distance to the nearest target on the
    same grid with no obstacles and no window: ``WIRE_COST`` per
    track-index step, plus ``VIA_COST`` per level change of
    :attr:`RoutingGrid.via_steps` (end on the target's level, visit a
    horizontal level to move in x and a vertical one to move in y).
    An exact distance in a supergraph is admissible and consistent, so
    the first target popped is reached at minimum cost and ``f`` never
    falls along an edge.

    Among paths of equal cost, the one returned is fixed by the
    neighbour order of :meth:`RoutingGrid.neighbors` (wire moves to the
    lower, then the higher index; then the via down, then the via up)
    and by the pop order ``(f, push order)``.  Costs and the bound are
    integers and no push lands below the bucket being popped, so the
    open set is a bucket queue: one FIFO per ``f``, popped from the
    lowest non-empty one.  Nodes are the grid's integer ids: a
    neighbour is an id offset, and everything that stays fixed for the
    search is bound once.
    """
    if not sources or not targets:
        return None
    ni, nj = grid.ni, grid.nj
    stride = ni * nj
    horizontal = [layer.is_horizontal for layer in grid.layers]
    top = len(horizontal) - 1
    target_ids = {grid.node_id(t) for t in targets}
    if len(targets) == 1:
        ((tl, ti, tj),) = targets
        # The bound, read inline: dx[i] + dy[j] for the wire, plus
        # vias[l][i != ti][j != tj] for the level changes.
        dx = [WIRE_COST * abs(i - ti) for i in range(ni)]
        dy = [WIRE_COST * abs(j - tj) for j in range(nj)]
        vias = [
            [[VIA_COST * s for s in row] for row in steps[tl]]
            for steps in grid.via_steps
        ]
        heuristic = None
    else:
        # Several targets: the nearest one's bound, by node id (the
        # loop still reads the lists above, so they hold zeros).
        ti = tj = -1
        dx, dy = [0] * ni, [0] * nj
        vias = [[[0, 0], [0, 0]]] * (top + 1)
        ends = list(targets)
        via_steps = grid.via_steps

        def heuristic(n):
            level, rest = divmod(n, stride)
            i, j = divmod(rest, nj)
            return min(
                WIRE_COST * (abs(i - ei) + abs(j - ej))
                + VIA_COST * via_steps[level][el][i != ei][j != ej]
                for el, ei, ej in ends
            )

    # The search window, clipped to the grid: a neighbour is expanded
    # only when it lies on the grid and inside ``bounds``.
    ilo, jlo, ihi, jhi = 0, 0, ni - 1, nj - 1
    if bounds is not None:
        ilo, jlo = max(ilo, bounds[0]), max(jlo, bounds[1])
        ihi, jhi = min(ihi, bounds[2]), min(jhi, bounds[3])
    owner_of = grid.occupancy.get
    via_owner_of = grid.via_occupancy.get
    best_cost = {}
    cost_of = best_cost.get
    came_from = {}
    inf = float("inf")

    # f -> FIFO of node ids; every key is >= cur, and q is buckets[cur].
    buckets = defaultdict(deque)
    for level, i, j in sources:
        n = (level * ni + i) * nj + j
        if heuristic:
            f = heuristic(n)
        else:
            f = dx[i] + dy[j] + vias[level][i != ti][j != tj]
        buckets[f].append(n)
        best_cost[n] = 0
    cur = min(buckets)
    q = buckets[cur]

    expansions = 0
    while True:
        if not q:
            del buckets[cur]
            if not buckets:
                return None
            cur = min(buckets)
            q = buckets[cur]
            continue
        n = q.popleft()
        if n in target_ids:
            return [grid.node_of(k) for k in _reconstruct(came_from, n)]
        expansions += 1
        if expansions > max_expansions:
            return None
        g = best_cost[n]
        level = n // stride
        rest = n % stride
        i = rest // nj
        j = rest % nj
        away_i = i != ti
        away_j = j != tj
        # Wire moves along the preferred direction: along x (index i,
        # id step nj) on horizontal layers, along y (j, id step 1) else.
        # A level's via count does not depend on the flag of its own
        # direction, so the bound's via term is fixed along the move.
        if horizontal[level]:
            inside, k, lo, hi, off, axis = jlo <= j <= jhi, i, ilo, ihi, nj, dx
            base = dy[j] + vias[level][0][away_j]
        else:
            inside, k, lo, hi, off, axis = ilo <= i <= ihi, j, jlo, jhi, 1, dy
            base = dx[i] + vias[level][away_i][0]
        if inside:
            cost = g + WIRE_COST
            if lo < k <= hi + 1:  # the move to k - 1
                nb = n - off
                owner = owner_of(nb)
                if (owner is None or owner == net_name) and (
                    cost < cost_of(nb, inf)
                ):
                    best_cost[nb] = cost
                    came_from[nb] = n
                    if heuristic:
                        buckets[cost + heuristic(nb)].append(nb)
                    else:
                        buckets[cost + axis[k - 1] + base].append(nb)
            if lo - 1 <= k < hi:  # the move to k + 1
                nb = n + off
                owner = owner_of(nb)
                if (owner is None or owner == net_name) and (
                    cost < cost_of(nb, inf)
                ):
                    best_cost[nb] = cost
                    came_from[nb] = n
                    if heuristic:
                        buckets[cost + heuristic(nb)].append(nb)
                    else:
                        buckets[cost + axis[k + 1] + base].append(nb)
        # Vias at the same (i, j): down, then up.
        if not (ilo <= i <= ihi and jlo <= j <= jhi):
            continue
        cost = g + VIA_COST
        for d in (-1, 1):
            if not 0 <= level + d <= top:
                continue
            nb = n + d * stride
            owner = owner_of(nb)
            if owner is not None and owner != net_name:
                continue
            owner = via_owner_of(nb if d < 0 else n)
            if owner is not None and owner != net_name:
                continue
            if cost < cost_of(nb, inf):
                best_cost[nb] = cost
                came_from[nb] = n
                if heuristic:
                    f = cost + heuristic(nb)
                else:
                    f = cost + dx[i] + dy[j] + vias[level + d][away_i][away_j]
                buckets[f].append(nb)


def _reconstruct(came_from, node) -> list:
    path = [node]
    while node in came_from:
        node = came_from[node]
        path.append(node)
    path.reverse()
    return path
