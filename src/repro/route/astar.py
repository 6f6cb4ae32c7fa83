"""A* search over the routing grid."""

from __future__ import annotations

from collections import deque

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
    higher index; then the via down, then the via up) and by the pop
    order ``(f, push order)``.  Costs and the heuristic are integers,
    so the open set is a bucket queue: one FIFO per ``f``, popped from
    the lowest non-empty one.  A push below the current bucket (an N32
    x step can lower ``h`` by 2) moves the cursor back to it, so the
    pop order is exactly that of a heap on ``(f, push order)``.  Nodes
    are the grid's integer ids: a neighbour is an id offset, and
    everything that stays fixed for the search is bound once.
    """
    if not sources or not targets:
        return None
    xs, ys = grid.xs, grid.ys
    ni, nj = len(xs), len(ys)
    stride = ni * nj
    # Distances are counted in track steps of the smaller first gap.
    step = max(
        1,
        min(
            xs[1] - xs[0] if ni > 1 else 1,
            ys[1] - ys[0] if nj > 1 else 1,
        ),
    )
    target_set = set(targets)
    target_ids = {grid.node_id(t) for t in target_set}
    if len(target_set) == 1:
        ((_, ti, tj),) = target_set
        tx, ty = xs[ti], ys[tj]
        # Per-axis wire costs to the single target, indexed by i and j;
        # the heuristic (dx[i] + dy[j]) // step is read inline.
        dx = [WIRE_COST * abs(x - tx) for x in xs]
        dy = [WIRE_COST * abs(y - ty) for y in ys]
        heuristic = None
    else:
        # Several targets: the nearest one's distance, by node id (the
        # loop still reads the per-axis lists, so they hold zeros).
        dx, dy = [0] * ni, [0] * nj
        target_points = [(xs[i], ys[j]) for _, i, j in target_set]

        def heuristic(n):
            i, j = divmod(n % stride, nj)
            x, y = xs[i], ys[j]
            best = min(abs(x - tx) + abs(y - ty) for tx, ty in target_points)
            return WIRE_COST * best // step

    # The search window, clipped to the grid: a neighbour is expanded
    # only when it lies on the grid and inside ``bounds``.
    ilo, jlo, ihi, jhi = 0, 0, ni - 1, nj - 1
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

    # f -> FIFO of node ids; every key is >= cur, and q is buckets[cur].
    buckets = {}
    for level, i, j in sources:
        n = (level * ni + i) * nj + j
        f = heuristic(n) if heuristic else (dx[i] + dy[j]) // step
        buckets.setdefault(f, deque()).append(n)
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
        # Wire moves along the preferred direction: along x (index i,
        # id step nj) on horizontal layers, along y (j, id step 1) else.
        if horizontal[level]:
            inside, k, lo, hi, off, axis, base = (
                jlo <= j <= jhi, i, ilo, ihi, nj, dx, dy[j]
            )
        else:
            inside, k, lo, hi, off, axis, base = (
                ilo <= i <= ihi, j, jlo, jhi, 1, dy, dx[i]
            )
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
                        f = cost + heuristic(nb)
                    else:
                        f = cost + (axis[k - 1] + base) // step
                    b = buckets.get(f)
                    if b is None:
                        buckets[f] = b = deque()
                        if f < cur:
                            cur, q = f, b
                    b.append(nb)
            if lo - 1 <= k < hi:  # the move to k + 1
                nb = n + off
                owner = owner_of(nb)
                if (owner is None or owner == net_name) and (
                    cost < cost_of(nb, inf)
                ):
                    best_cost[nb] = cost
                    came_from[nb] = n
                    if heuristic:
                        f = cost + heuristic(nb)
                    else:
                        f = cost + (axis[k + 1] + base) // step
                    b = buckets.get(f)
                    if b is None:
                        buckets[f] = b = deque()
                        if f < cur:
                            cur, q = f, b
                    b.append(nb)
        # Vias at the same (i, j): down, then up.
        if not (ilo <= i <= ihi and jlo <= j <= jhi):
            continue
        cost = g + VIA_COST
        f = None
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
                if f is None:
                    f = cost + (
                        heuristic(n) if heuristic else (dx[i] + dy[j]) // step
                    )
                b = buckets.get(f)
                if b is None:
                    buckets[f] = b = deque()
                    if f < cur:
                        cur, q = f, b
                b.append(nb)

def _reconstruct(came_from, node) -> list:
    path = [node]
    while node in came_from:
        node = came_from[node]
        path.append(node)
    path.reverse()
    return path
