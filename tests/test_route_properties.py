"""Properties of the routing substrate: geometry and cost invariants."""

import heapq
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.route.astar import WIRE_COST, VIA_COST, astar_route
from repro.route.grid import RoutingGrid, _nearest
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
# The A* search as it read before its loop was specialised, kept verbatim
# as the oracle: one heuristic call and one ``grid.neighbors`` list per
# step, ``is_free``/``via_allowed`` per neighbour.  The production search
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
    target_points = [grid.point_of(t) for t in targets]
    target_set = set(targets)

    def heuristic(node):
        x, y = grid.point_of(node)
        best = min(
            abs(x - tx) + abs(y - ty) for tx, ty in target_points
        )
        # Scale distance to track steps so the heuristic stays
        # admissible against WIRE_COST-per-step edges.
        step = min(
            grid.xs[1] - grid.xs[0] if len(grid.xs) > 1 else 1,
            grid.ys[1] - grid.ys[0] if len(grid.ys) > 1 else 1,
        )
        return WIRE_COST * best // max(1, step)

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
            if bounds is not None and not _inside(neighbor, bounds):
                continue
            if not grid.is_free(neighbor, net_name):
                continue
            if kind == "via":
                lower = node if node[0] < neighbor[0] else neighbor
                if not grid.via_allowed(lower, net_name):
                    continue
                edge = VIA_COST
            else:
                edge = WIRE_COST
            cost = node_cost + edge
            if cost < best_cost.get(neighbor, float("inf")):
                best_cost[neighbor] = cost
                came_from[neighbor] = node
                heapq.heappush(
                    open_heap, (cost + heuristic(neighbor), counter, neighbor)
                )
                counter += 1
    return None


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


@lru_cache(maxsize=None)
def _oracle_design(kind: str):
    if kind == "n45":
        return make_simple_design(make_node("N45"))
    # N32 with vertical tracks stretched to 1.2x pitch, as in the
    # misaligned ispd18 N32 cases: the x gap (120) differs from the y
    # gap (100), so the heuristic's step is the smaller of the two.
    design = make_simple_design(make_node("N32"))
    design.track_patterns = [
        replace(p, step=p.step + p.step // 5)
        if p.direction is RoutingDirection.VERTICAL
        else p
        for p in design.track_patterns
    ]
    return design


#: Searches are drawn in the grid's lower-left WINDOW x WINDOW corner.
WINDOW = 12


@st.composite
def searches(draw):
    """A grid kind, occupancy, via exclusions and one search's inputs."""
    kind = draw(st.sampled_from(("n45", "n32")))
    # Coordinates shrink toward the middle layer and the middle of the
    # window, where both vias and both wire moves exist and tie.
    level = st.integers(0, 4).map(lambda k: (k + 2) % 5)
    track = st.integers(0, WINDOW - 1).map(
        lambda k: (k + WINDOW // 2) % WINDOW
    )
    nodes = st.tuples(level, track, track)
    # "n" is the routed net; "a" and "b" are foreign nets.
    owners = st.sampled_from(("n", "a", "b"))
    occupancy = draw(st.dictionaries(nodes, owners, max_size=120))
    via_occupancy = draw(st.dictionaries(nodes, owners, max_size=40))
    sources = draw(st.sets(nodes, min_size=1, max_size=4))
    targets = draw(
        st.sets(
            nodes.filter(lambda n: n not in sources), min_size=1, max_size=3
        )
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


class TestAstarMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(searches())
    def test_same_path_as_reference(self, search):
        kind, occupancy, via_occupancy, sources, targets, bounds, budget = (
            search
        )
        grid = RoutingGrid(_oracle_design(kind))
        for node, owner in occupancy.items():
            grid.claim(node, owner)
        for node, owner in via_occupancy.items():
            grid.claim_via(node, owner)
        args = (grid, sources, targets, "n", bounds, budget)
        assert astar_route(*args) == reference_astar_route(*args)


class TestBucketQueueOrder:
    def test_push_below_the_current_bucket(self):
        # On the stretched N32 grid one x step (120) can lower the
        # heuristic by 2 steps of 100, so an expansion pushes its
        # neighbour one f below the bucket being popped.  A bucket
        # queue that did not step back to it would return the other
        # source's costlier path here.
        grid = RoutingGrid(_oracle_design("n32"))
        sources, target = {(2, 3, 1), (1, 7, 12)}, (3, 8, 6)
        expected = reference_astar_route(grid, sources, {target}, "n")
        tx, ty = grid.point_of(target)

        def h(node):
            x, y = grid.point_of(node)
            return (abs(x - tx) + abs(y - ty)) // 100

        assert any(h(a) - h(b) == 2 for a, b in zip(expected, expected[1:]))
        assert astar_route(grid, sources, {target}, "n") == expected
