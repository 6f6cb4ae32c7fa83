"""Unit and integration tests for the routing substrate."""

import functools
import hashlib
import json

import pytest

from repro.bench import build_case, build_testcase
from repro.core import PinAccessFramework
from repro.core.ioaccess import IoPinAccess
from repro.route.astar import astar_route
from repro.route.drcu import drcu_access_map
from repro.route.grid import RoutingGrid
from repro.route.router import DetailedRouter, count_route_drcs

from tests.conftest import make_simple_design


@pytest.fixture(scope="module")
def routed_env():
    design = build_testcase("ispd18_test1", scale=0.005)
    access = PinAccessFramework(design).run().access_map()
    return design, access


@pytest.fixture
def grid(n45):
    design = make_simple_design(n45, num_instances=2)
    return RoutingGrid(design)


class TestRoutingGrid:
    def test_layers_default_m2_up(self, grid):
        assert [l.name for l in grid.layers] == ["M2", "M3", "M4", "M5", "M6"]
        assert grid.level_of("M3") == 1

    def test_coordinates_from_tracks(self, grid):
        assert grid.xs[0] == 70
        assert all(b - a == 140 for a, b in zip(grid.xs, grid.xs[1:]))

    def test_nearest_index(self, grid):
        i, j = grid.nearest_index(75, 140)
        assert grid.xs[i] == 70
        assert grid.ys[j] in (70, 210)

    def test_neighbors_follow_direction(self, grid):
        # M2 (level 0) is vertical: wire moves change j.
        node = (0, 5, 5)
        wire_moves = [
            n for n, kind in grid.neighbors(node) if kind == "wire"
        ]
        assert all(n[1] == 5 for n in wire_moves)
        # M3 (level 1) is horizontal: wire moves change i.
        node = (1, 5, 5)
        wire_moves = [
            n for n, kind in grid.neighbors(node) if kind == "wire"
        ]
        assert all(n[2] == 5 for n in wire_moves)

    def test_via_moves_present(self, grid):
        vias = [n for n, kind in grid.neighbors((1, 5, 5)) if kind == "via"]
        assert {(n[0]) for n in vias} == {0, 2}

    def test_occupancy(self, grid):
        path = [(0, 5, 5), (0, 5, 6), (1, 5, 6)]
        grid.occupy_path(path, "netA")
        assert grid.is_free((0, 5, 5), "netA")
        assert not grid.is_free((0, 5, 5), "netB")
        assert grid.is_free((0, 9, 9), "netB")

    def test_via_exclusion_bloats(self, grid):
        grid.occupy_path([(0, 5, 5), (1, 5, 5)], "netA")
        assert not grid.via_allowed((0, 6, 6), "netB")
        assert grid.via_allowed((0, 8, 8), "netB")

    @pytest.mark.parametrize("side", ["i=0", "j=0", "i=NI-1", "j=NJ-1"])
    def test_via_exclusion_at_the_border_stays_on_grid(self, grid, side):
        # The zone's off-grid keys are dropped: a node id scheme that
        # wrapped them would block nodes across the grid or a level.
        ni, nj = len(grid.xs), len(grid.ys)
        i, j = {
            "i=0": (0, 5), "j=0": (5, 0),
            "i=NI-1": (ni - 1, 5), "j=NJ-1": (5, nj - 1),
        }[side]
        grid.occupy_via_at((2, i, j), "netA")
        zone = {
            (2, i + di, j + dj)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if 0 <= i + di < ni and 0 <= j + dj < nj
        }
        for node in (
            (l, ii, jj)
            for l in range(grid.num_layers)
            for ii in range(ni)
            for jj in range(nj)
        ):
            assert grid.is_free(node, "netB")
            assert grid.via_allowed(node, "netB") == (node not in zone)


class TestAstar:
    def test_straight_route(self, grid):
        path = astar_route(grid, {(0, 5, 2)}, {(0, 5, 8)}, "n")
        assert path is not None
        assert path[0] == (0, 5, 2) and path[-1] == (0, 5, 8)
        assert len(path) == 7

    def test_bend_needs_layer_change(self, grid):
        path = astar_route(grid, {(0, 2, 2)}, {(0, 8, 2)}, "n")
        assert path is not None
        # Moving in x requires visiting a horizontal layer.
        assert any(node[0] == 1 for node in path)

    def test_blocked_path_detours(self, grid):
        # Wall across M2 column 5 except far above.
        for j in range(0, 15):
            grid.claim((1, 5, j), "wall")
            grid.claim((0, 5, j), "wall")
        path = astar_route(grid, {(0, 2, 2)}, {(0, 8, 2)}, "n")
        assert path is not None
        assert all(grid.is_free(n, "n") for n in path)

    def test_unreachable_returns_none(self, grid):
        # Enclose the target completely on all layers.
        target = (0, 5, 5)
        for l in range(grid.num_layers):
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if (di, dj) != (0, 0):
                        grid.claim((l, 5 + di, 5 + dj), "wall")
            grid.claim((l, 5, 5), "n" if l == 0 else "wall")
        path = astar_route(grid, {(0, 2, 2)}, {target}, "n")
        assert path is None

    def test_bounds_respected(self, grid):
        path = astar_route(
            grid, {(0, 5, 2)}, {(0, 5, 8)}, "n", bounds=(5, 2, 5, 8)
        )
        assert path is not None
        assert all(5 == n[1] for n in path)


class TestRouter:
    def test_routes_most_nets(self, routed_env):
        design, access = routed_env
        result = DetailedRouter(design).route(access)
        assert result.routed_nets > 0.8 * len(design.nets)
        assert result.unconnected_terms == 0
        assert result.total_wirelength > 0

    def test_emits_pin_vias(self, routed_env):
        design, access = routed_env
        result = DetailedRouter(design).route(access)
        pin_vias = [v for v in result.vias if v[1].startswith("V12")]
        assert pin_vias

    def test_max_nets_limits_work(self, routed_env):
        design, access = routed_env
        result = DetailedRouter(design).route(access, max_nets=5)
        routed_net_names = {w[0] for w in result.wires}
        assert len(routed_net_names) <= 5


class TestExperiment3Shape:
    def test_pao_beats_drcu_by_an_order_of_magnitude(self, routed_env):
        design, access = routed_env
        pao = DetailedRouter(design).route(access)
        pao_drcs = count_route_drcs(design, pao, scope="pin-access")

        drcu = DetailedRouter(design).route(drcu_access_map(design))
        drcu_drcs = count_route_drcs(design, drcu, scope="pin-access")

        assert len(drcu_drcs) >= 10 * max(1, len(pao_drcs))

    def test_full_scope_superset(self, routed_env):
        design, access = routed_env
        result = DetailedRouter(design).route(access)
        pin = count_route_drcs(design, result, scope="pin-access")
        full = count_route_drcs(design, result, scope="full")
        assert len(full) >= len(pin)

    def test_bad_scope_rejected(self, routed_env):
        design, access = routed_env
        result = DetailedRouter(design).route(access, max_nets=1)
        with pytest.raises(ValueError):
            count_route_drcs(design, result, scope="everything")


@pytest.fixture(scope="module")
def small_env():
    """A tiny case for failure-path tests (fast to re-route)."""
    design = build_testcase("ispd18_test1", scale=0.002)
    access = PinAccessFramework(design).run().access_map()
    return design, access


class TestRouterFailurePaths:
    def test_fully_blocked_grid_connects_nothing(self, small_env):
        design, access = small_env
        grid = RoutingGrid(design)
        for l in range(len(grid.layers)):
            for i in range(len(grid.xs)):
                for j in range(len(grid.ys)):
                    grid.claim((l, i, j), "__blocker__")
        result = DetailedRouter(design, grid).route(access)
        total_terms = sum(len(net.terms) for net in design.nets.values())
        assert result.routed_nets == 0
        assert result.wires == []
        assert result.unconnected_terms == total_terms

    def test_blocked_upper_layers_fail_nets(self, small_env):
        # Terminals can still enter on M2 (level 0), but with every
        # higher level foreign-occupied no i-changing move exists, so
        # cross-column nets must fail -- and be reported as failed,
        # not silently dropped.
        design, access = small_env
        grid = RoutingGrid(design)
        for l in range(1, len(grid.layers)):
            for i in range(len(grid.xs)):
                for j in range(len(grid.ys)):
                    grid.claim((l, i, j), "__blocker__")
        result = DetailedRouter(design, grid).route(access)
        assert result.failed_nets
        assert result.routed_nets + len(result.failed_nets) <= len(
            design.nets
        )

    def test_empty_access_map_counts_every_terminal(self, small_env):
        design, _ = small_env
        result = DetailedRouter(design).route({})
        total_terms = sum(len(net.terms) for net in design.nets.values())
        assert result.unconnected_terms == total_terms
        assert result.routed_nets == 0
        assert result.vias == []

    def test_missing_terminal_is_counted_not_fatal(self, small_env):
        design, access = small_env
        baseline = DetailedRouter(design).route(access)
        assert baseline.unconnected_terms == 0
        partial = dict(access)
        victim = next(
            term
            for net in design.nets.values()
            if len(net.terms) >= 2
            for term in net.terms
            if term in partial
        )
        del partial[victim]
        result = DetailedRouter(design).route(partial)
        assert result.unconnected_terms == 1

    def test_max_nets_deterministic_across_runs(self, small_env):
        design, access = small_env
        first = DetailedRouter(design).route(access, max_nets=5)
        second = DetailedRouter(design).route(access, max_nets=5)
        assert first.wires == second.wires
        assert first.vias == second.vias
        assert first.total_wirelength == second.total_wirelength

    def test_wirelength_of_via_only_result_is_zero(self):
        from repro.route.router import RoutingResult

        result = RoutingResult(vias=[("n1", "V12_simple", 0, 0)])
        assert result.total_wirelength == 0
        assert result.wires == []

    def test_wirelength_counts_longest_side(self):
        from repro.geom.rect import Rect
        from repro.route.router import RoutingResult

        result = RoutingResult(
            wires=[("n1", "M2", Rect(0, 0, 70, 500))]
        )
        assert result.total_wirelength == 500


class TestIoAccessParity:
    @pytest.fixture(scope="class")
    def io_env(self):
        from repro.bench import build_case
        from repro.core.ioaccess import IoPinAccess

        design = build_case("pinzoo_io", scale=1.0)
        access = PinAccessFramework(design).run().access_map()
        io_aps = IoPinAccess(design).run()
        io_map = {name: aps[0] for name, aps in io_aps.items() if aps}
        return design, access, io_map

    def test_default_taps_io_at_center(self, io_env):
        design, access, _ = io_env
        result = DetailedRouter(design).route(access)
        assert result.unconnected_terms == 0

    def test_io_access_map_drives_tap_points(self, io_env):
        design, access, io_map = io_env
        assert io_map  # the oracle covers the off-grid IO pins
        result = DetailedRouter(design).route(access, io_access=io_map)
        assert result.unconnected_terms == 0
        assert result.routed_nets > 0

    def test_missing_io_entry_counts_as_open(self, io_env):
        design, access, _ = io_env
        io_terms = sum(
            len(net.io_pins) for net in design.nets.values()
        )
        assert io_terms > 0
        result = DetailedRouter(design).route(access, io_access={})
        assert result.unconnected_terms == io_terms

    def test_legacy_io_map_misses_offgrid_pins(self, io_env):
        from repro.route.drcu import drcu_io_access_map

        design, _, pao_io = io_env
        legacy_io = drcu_io_access_map(design)
        # The zoo's off-grid IO pins have no on-track crossing: the
        # naive strategy must cover strictly fewer pins than the
        # validated coordinate ladder.
        assert len(legacy_io) < len(pao_io)


@functools.lru_cache(maxsize=None)
def pao_routed(case_id: str) -> tuple:
    """Return ``(design, result)`` of the pao flow routed on ``case_id``.

    Cached so the route and scorer digests of one case share a routing.
    """
    name, _, scale = case_id.partition("@")
    design = build_case(name, scale=float(scale))
    access = PinAccessFramework(design).run().access_map()
    io_map = {
        pin: aps[0] for pin, aps in IoPinAccess(design).run().items() if aps
    }
    result = DetailedRouter(design).route(access, io_access=io_map)
    return design, result


def _box(rect) -> list:
    return [rect.xlo, rect.ylo, rect.xhi, rect.yhi]


def _violation_rows(violations) -> list:
    return [
        [v.rule, v.layer_name, _box(v.marker), list(v.objects)]
        for v in violations
    ]


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def pao_route_digest(case_id: str) -> str:
    """Return a sha256 over the pao flow's routed result on ``case_id``.

    The digest covers the route's wires, vias, failed nets and
    unconnected-terminal count plus its sorted pin-access violations,
    so any change of path -- not only of a summary count -- shows.
    """
    design, result = pao_routed(case_id)
    violations = count_route_drcs(design, result, scope="pin-access")
    return _digest({
        "wires": [[net, layer, _box(r)] for net, layer, r in result.wires],
        "vias": [list(via) for via in result.vias],
        "failed_nets": result.failed_nets,
        "unconnected_terms": result.unconnected_terms,
        "pin_access_violations": sorted(_violation_rows(violations)),
    })


def score_digest(case_id: str) -> str:
    """Return a sha256 over the scorer's output on the pao route.

    Unlike :func:`pao_route_digest` it keeps the violations in the
    order ``count_route_drcs`` returns them, in both scopes, so a
    geometry kernel that reorders, drops or moves one marker shows.
    """
    design, result = pao_routed(case_id)
    return _digest({
        scope: _violation_rows(count_route_drcs(design, result, scope=scope))
        for scope in ("pin-access", "full")
    })


#: Digests of today's pao routes.  A router speedup must leave every
#: path as it is; a change of search order or cost shows up here.
ROUTE_DIGESTS = {
    "ispd18_test1@0.004": (
        "1126f521e68cef565823dbcd4b4c0ca565af8663a7f8ec396c7d4d08d0b360ee"
    ),
    "ispd18_test5@0.002": (
        "eb9b4c5191f99a26428753a9cce4a77f52b110592e3cabbf4357c3e1558d3917"
    ),
}


@pytest.mark.parametrize("case_id", sorted(ROUTE_DIGESTS))
def test_pao_route_digest(case_id):
    assert pao_route_digest(case_id) == ROUTE_DIGESTS[case_id]


#: Digests of the scorer's in-order violations (both scopes) on the
#: routes above.  A geometry kernel under the DRC engine must leave
#: every marker, and the order the scorer reports them in, as it is.
SCORE_DIGESTS = {
    "ispd18_test1@0.004": (
        "bd213bcceef747af8e0ff5bca9f216fd35cac2d3ea761c1660006edfc997415e"
    ),
    "ispd18_test5@0.002": (
        "7214165deedce41f29da787ed43b01a6b687e8afee7c11418a1690c836ee825b"
    ),
}


@pytest.mark.parametrize("case_id", sorted(SCORE_DIGESTS))
def test_score_digest(case_id):
    assert score_digest(case_id) == SCORE_DIGESTS[case_id]
