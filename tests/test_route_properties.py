"""Properties of the routing substrate: geometry and cost invariants."""

import heapq
import itertools
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.route.astar import WIRE_COST, VIA_COST, astar_route
from repro.route.grid import RoutingGrid, _nearest, _via_steps
from repro.tech import make_node
from repro.tech.layer import RoutingDirection

from tests.conftest import make_simple_design


@pytest.fixture
def grid(n45):
    return RoutingGrid(make_simple_design(n45, num_instances=2))


class TestNearest:
    def test_exact_hit(self):
        assert _nearest([0, 10, 20], 10) == 1

    def test_midpoint_prefers_lower(self):
        # Tie at exactly halfway: the lower index wins (deterministic).
        assert _nearest([0, 10], 5) == 0

    def test_clamping(self):
        assert _nearest([0, 10, 20], -100) == 0
        assert _nearest([0, 10, 20], 100) == 2


class TestPathInvariants:
    def path(self, grid, a, b):
        return astar_route(grid, {a}, {b}, "n")

    def test_path_is_connected_neighbor_chain(self, grid):
        path = self.path(grid, (0, 2, 2), (2, 8, 9))
        assert path is not None
        for a, b in zip(path, path[1:]):
            diffs = [abs(x - y) for x, y in zip(a, b)]
            assert sum(diffs) == 1  # exactly one coordinate by one step
            neighbors = [n for n, _ in grid.neighbors(a)]
            assert b in neighbors

    def test_path_has_no_repeats(self, grid):
        path = self.path(grid, (0, 2, 2), (1, 9, 3))
        assert len(set(path)) == len(path)

    def test_straight_line_is_optimal(self, grid):
        path = self.path(grid, (0, 5, 0), (0, 5, 9))
        assert len(path) == 10  # no detour on a free grid

    def test_obstacles_never_on_path(self, grid):
        for j in range(3, 8):
            grid.claim((0, 5, j), "wall")
            grid.claim((1, 5, j), "wall")
        path = self.path(grid, (0, 5, 0), (0, 5, 9))
        assert path is not None
        for node in path:
            assert grid.is_free(node, "n")

    def test_cost_constants_ordering(self):
        # Vias must cost more than wires or the router zig-zags layers.
        assert VIA_COST > WIRE_COST


class TestSourceTargetSets:
    def test_multi_source_picks_nearest(self, grid):
        sources = {(0, 2, 2), (0, 8, 8)}
        path = astar_route(grid, sources, {(0, 8, 9)}, "n")
        assert path[0] == (0, 8, 8)

    def test_empty_sets(self, grid):
        assert astar_route(grid, set(), {(0, 1, 1)}, "n") is None
        assert astar_route(grid, {(0, 1, 1)}, set(), "n") is None

    def test_source_equals_target(self, grid):
        path = astar_route(grid, {(0, 3, 3)}, {(0, 3, 3)}, "n")
        assert path == [(0, 3, 3)]


# -- reference search ---------------------------------------------------------
#
# The A* search as it read before its loop was specialised, kept as the
# oracle: one bound call and one ``grid.neighbors`` list per step,
# ``is_free``/``via_allowed`` per neighbour, and a bound computed here
# from a brute-force walk over the level stack.  The production search
# must return the same path (or None) on every input.


def reference_astar_route(
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
    """
    if not sources or not targets:
        return None
    heuristic = reference_bound(grid, targets)
    target_set = set(targets)

    open_heap = []
    best_cost = {}
    came_from = {}
    counter = 0
    for s in sources:
        heapq.heappush(open_heap, (heuristic(s), counter, s))
        counter += 1
        best_cost[s] = 0

    expansions = 0
    while open_heap:
        _, _, node = heapq.heappop(open_heap)
        if node in target_set:
            return _reconstruct(came_from, node)
        expansions += 1
        if expansions > max_expansions:
            return None
        node_cost = best_cost[node]
        for neighbor, kind in grid.neighbors(node):
            edge = _move_cost(grid, node, neighbor, kind, net_name, bounds)
            if edge is None:
                continue
            cost = node_cost + edge
            if cost < best_cost.get(neighbor, float("inf")):
                best_cost[neighbor] = cost
                came_from[neighbor] = node
                heapq.heappush(
                    open_heap, (cost + heuristic(neighbor), counter, neighbor)
                )
                counter += 1
    return None


def reference_bound(grid, targets):
    """The exact cost to the nearest target on the free, unbounded grid."""
    horizontal = tuple(
        grid.layer_of(l).is_horizontal for l in range(grid.num_layers)
    )

    def bound(node):
        l, i, j = node
        return min(
            WIRE_COST * (abs(i - ti) + abs(j - tj))
            + VIA_COST * fewest_level_changes(
                horizontal, l, tl, i != ti, j != tj
            )
            for tl, ti, tj in targets
        )

    return bound


@lru_cache(maxsize=None)
def fewest_level_changes(horizontal, level, target, need_h, need_v):
    """Breadth-first walk over (level, seen horizontal, seen vertical)."""
    start = (level, horizontal[level], not horizontal[level])
    seen, frontier, steps = {start}, [start], 0
    while frontier:
        for l, h, v in frontier:
            if l == target and (h or not need_h) and (v or not need_v):
                return steps
        nxt = []
        for l, h, v in frontier:
            for m in (l - 1, l + 1):
                if 0 <= m < len(horizontal):
                    state = (m, h or horizontal[m], v or not horizontal[m])
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
        frontier, steps = nxt, steps + 1
    return None


def _move_cost(grid, node, neighbor, kind, net_name, bounds):
    """Return the cost of a move the search may take, else None."""
    if bounds is not None and not _inside(neighbor, bounds):
        return None
    if not grid.is_free(neighbor, net_name):
        return None
    if kind == "via":
        lower = node if node[0] < neighbor[0] else neighbor
        if not grid.via_allowed(lower, net_name):
            return None
        return VIA_COST
    return WIRE_COST


def _inside(node, bounds) -> bool:
    _, i, j = node
    ilo, jlo, ihi, jhi = bounds
    return ilo <= i <= ihi and jlo <= j <= jhi


def _reconstruct(came_from, node) -> list:
    path = [node]
    while node in came_from:
        node = came_from[node]
        path.append(node)
    path.reverse()
    return path


# -- Dijkstra -----------------------------------------------------------------


def dijkstra_cost(grid, sources, targets, net_name, bounds=None):
    """Return the least cost from any source to any target, or None.

    A plain Dijkstra with no bound and no budget, over the moves the
    search may take.
    """
    dist = {s: 0 for s in sources}
    heap = [(0, s) for s in sources]
    heapq.heapify(heap)
    done = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node in targets:
            return d
        done.add(node)
        for neighbor, kind in grid.neighbors(node):
            edge = _move_cost(grid, node, neighbor, kind, net_name, bounds)
            if edge is None:
                continue
            if d + edge < dist.get(neighbor, float("inf")):
                dist[neighbor] = d + edge
                heapq.heappush(heap, (d + edge, neighbor))
    return None


def path_cost(grid, path, net_name, bounds=None) -> int:
    """Return the cost of ``path``, asserting each move is one allowed."""
    total = 0
    for a, b in zip(path, path[1:]):
        kinds = [kind for n, kind in grid.neighbors(a) if n == b]
        assert kinds, (a, b)
        edge = _move_cost(grid, a, b, kinds[0], net_name, bounds)
        assert edge is not None, (a, b)
        total += edge
    return total


@lru_cache(maxsize=None)
def _oracle_design(kind: str):
    if kind == "n45":
        return make_simple_design(make_node("N45"))
    # N32 with vertical tracks stretched to 1.2x pitch, as in the
    # misaligned ispd18 N32 cases: the x gap (120) differs from the y
    # gap (100), so a bound in DBU over one gap misjudges a run in x.
    design = make_simple_design(make_node("N32"))
    design.track_patterns = [
        replace(p, step=p.step + p.step // 5)
        if p.direction is RoutingDirection.VERTICAL
        else p
        for p in design.track_patterns
    ]
    return design


#: Searches are drawn in the grid's lower-left WINDOW x WINDOW corner,
#: or on the stretched N32 grid in a WIDE x WINDOW one, with the
#: sources in its left quarter and the targets in its right quarter.
WINDOW = 12
WIDE = 30


@st.composite
def searches(draw):
    """A grid kind, occupancy, via exclusions and one search's inputs."""
    kind = draw(st.sampled_from(("n45", "n32", "n32-wide")))
    # Coordinates shrink toward the middle layer and the middle of the
    # window, where both vias and both wire moves exist and tie.
    level = st.integers(0, 4).map(lambda k: (k + 2) % 5)
    track = st.integers(0, WINDOW - 1).map(
        lambda k: (k + WINDOW // 2) % WINDOW
    )
    if kind == "n32-wide":
        quarter = WIDE // 4
        nodes = st.tuples(level, st.integers(0, WIDE - 1), track)
        near = st.tuples(level, st.integers(0, quarter - 1), track)
        far = st.tuples(level, st.integers(WIDE - quarter, WIDE - 1), track)
    else:
        nodes = near = far = st.tuples(level, track, track)
    # "n" is the routed net; "a" and "b" are foreign nets.
    owners = st.sampled_from(("n", "a", "b"))
    occupancy = draw(st.dictionaries(nodes, owners, max_size=120))
    via_occupancy = draw(st.dictionaries(nodes, owners, max_size=40))
    sources = draw(st.sets(near, min_size=1, max_size=4))
    targets = draw(
        st.sets(far.filter(lambda n: n not in sources), min_size=1, max_size=3)
    )
    bounds = None
    if draw(st.booleans()):
        # A window around the terminals, as the router draws one; a
        # negative margin leaves some sources or targets outside it.
        ends = sources | targets
        margin = st.integers(-1, 4)
        bounds = (
            min(n[1] for n in ends) - draw(margin),
            min(n[2] for n in ends) - draw(margin),
            max(n[1] for n in ends) + draw(margin),
            max(n[2] for n in ends) + draw(margin),
        )
    # Either a budget small enough to cut the search or a roomy one.
    if draw(st.booleans()):
        budget = draw(st.integers(0, 60))
    else:
        budget = draw(st.integers(1000, 3000))
    return kind, occupancy, via_occupancy, sources, targets, bounds, budget


def _grid_for(kind, occupancy, via_occupancy):
    grid = RoutingGrid(_oracle_design(kind.split("-")[0]))
    for node, owner in occupancy.items():
        grid.claim(node, owner)
    for node, owner in via_occupancy.items():
        grid.claim_via(node, owner)
    return grid


class TestAstarMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(searches())
    def test_same_path_as_reference(self, search):
        kind, occupancy, via_occupancy, sources, targets, bounds, budget = (
            search
        )
        grid = _grid_for(kind, occupancy, via_occupancy)
        args = (grid, sources, targets, "n", bounds, budget)
        assert astar_route(*args) == reference_astar_route(*args)


class TestAstarIsOptimal:
    @settings(max_examples=100, deadline=None)
    @given(searches())
    def test_path_costs_what_dijkstra_finds(self, search):
        kind, occupancy, via_occupancy, sources, targets, bounds, budget = (
            search
        )
        grid = _grid_for(kind, occupancy, via_occupancy)
        best = dijkstra_cost(grid, sources, targets, "n", bounds)
        path = astar_route(grid, sources, targets, "n", bounds, budget)
        if path is None:
            # No path, or a budget that cut the search: an uncut one
            # finds the least cost.
            path = astar_route(grid, sources, targets, "n", bounds)
            assert (path is None) == (best is None)
        if path is not None:
            assert path[0] in sources and path[-1] in targets
            assert path_cost(grid, path, "n", bounds) == best

    def test_x_run_on_the_stretched_grid(self):
        # Shrunk from the property above on its wide window.  One via
        # down from M4 and 23 x steps on M3 cost 27; a bound in DBU over
        # the 100-DBU y gap priced each 120-DBU x step at 1.2, and the
        # search returned the M5 source's run and two vias, 31.
        grid = RoutingGrid(_oracle_design("n32"))
        sources, targets = {(3, 0, 6), (2, 0, 6)}, {(1, 23, 6)}
        path = astar_route(grid, sources, targets, "n")
        assert path[0] == (2, 0, 6)
        assert path_cost(grid, path, "n") == 27
        assert dijkstra_cost(grid, sources, targets, "n") == 27


class TestViaSteps:
    @pytest.mark.parametrize("node", ("N45", "N32", "N14"))
    def test_table_matches_a_walk_over_the_stack(self, node):
        grid = RoutingGrid(make_simple_design(make_node(node)))
        horizontal = tuple(layer.is_horizontal for layer in grid.layers)
        assert_matches_walk(grid.via_steps, horizontal)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=2, max_size=7).filter(
            lambda stack: any(stack) and not all(stack)
        )
    )
    def test_any_stack_with_both_directions(self, horizontal):
        horizontal = tuple(horizontal)
        assert_matches_walk(_via_steps(horizontal), horizontal)


def assert_matches_walk(steps, horizontal):
    """Every (level, target level, Δi ≠ 0, Δj ≠ 0) entry of ``steps``."""
    n = len(horizontal)
    for level, target in itertools.product(range(n), repeat=2):
        for need_h, need_v in itertools.product((False, True), repeat=2):
            assert steps[level][target][need_h][need_v] == (
                fewest_level_changes(horizontal, level, target, need_h, need_v)
            ), (level, target, need_h, need_v)


class TestBucketQueueOrder:
    def test_f_never_falls_along_the_path(self):
        # Two sources on the stretched N32 grid: a search with a bound
        # that overestimated x runs pushed nodes below the bucket being
        # popped here.  The exact bound is consistent, so the queue
        # never steps back and f never falls along the path.
        grid = RoutingGrid(_oracle_design("n32"))
        sources, target = {(2, 3, 1), (1, 7, 12)}, (3, 8, 6)
        expected = reference_astar_route(grid, sources, {target}, "n")
        bound = reference_bound(grid, {target})
        g, fs = 0, [bound(expected[0])]
        for a, b in zip(expected, expected[1:]):
            g += VIA_COST if a[0] != b[0] else WIRE_COST
            fs.append(g + bound(b))
        assert fs == sorted(fs)
        assert astar_route(grid, sources, {target}, "n") == expected
