"""Property-based tests (hypothesis) for the framework's core machinery."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apgen import AccessPoint
from repro.core.config import PaafConfig
from repro.core.coords import CoordType
from repro.core.dpgraph import (
    DRC_COST,
    PENALTY_COST,
    FlatDp,
    LayeredDpGraph,
)
from repro.core.patterngen import order_pins
from repro.tech.rules import SpacingTable


# -- DP optimality against brute force ----------------------------------------


@st.composite
def dp_problems(draw):
    num_groups = draw(st.integers(min_value=1, max_value=4))
    groups = []
    for g in range(num_groups):
        size = draw(st.integers(min_value=1, max_value=3))
        groups.append([f"g{g}v{v}" for v in range(size)])
    # Random positive edge costs, drawn as a dict seeded from a list.
    costs = {}
    rng_values = draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=60,
            max_size=60,
        )
    )
    counter = itertools.count()

    def edge_cost(prev, curr, prev_prev):
        key = (prev, curr)
        if key not in costs:
            costs[key] = rng_values[next(counter) % len(rng_values)]
        return costs[key]

    return groups, edge_cost, costs


class TestDpOptimality:
    @settings(max_examples=60, deadline=None)
    @given(dp_problems())
    def test_dp_matches_brute_force(self, problem):
        groups, edge_cost, costs = problem
        graph = LayeredDpGraph(groups)
        path, total = graph.solve(edge_cost)

        # Brute force over every combination, re-using the now-frozen
        # cost dictionary.
        def cost_of(combo):
            cost = costs[(None, combo[0])]
            for prev, curr in zip(combo, combo[1:]):
                cost += costs[(prev, curr)]
            return cost

        best = min(cost_of(c) for c in itertools.product(*groups))
        assert total == best
        assert cost_of(tuple(path)) == total


# -- FlatDp against the LayeredDpGraph reference ------------------------------


class _Ap:
    """Stand-in access point: the Step 2 DP reads only ``cost``."""

    __slots__ = ("cost",)

    def __init__(self, cost):
        self.cost = cost


def _algorithm3(cfg, is_used_boundary, compatible):
    """The plain Algorithm 3 edge cost, as a LayeredDpGraph callback."""

    def edge_cost(prev, curr, prev_prev):
        if prev is None:
            # Virtual source edge: the vertex's own quality cost.
            return curr[1].cost
        if cfg.boundary_conflict_aware and is_used_boundary(prev):
            return PENALTY_COST
        if cfg.boundary_conflict_aware and is_used_boundary(curr):
            return PENALTY_COST
        if not compatible(prev[1], curr[1]):
            return DRC_COST
        if (
            cfg.history_aware
            and prev_prev is not None
            and not compatible(prev_prev[1], curr[1])
        ):
            return DRC_COST
        return prev[1].cost + curr[1].cost

    return edge_cost


@st.composite
def step2_problems(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    groups = [
        [(f"P{g}", _Ap(draw(st.integers(0, 6)))) for _ in range(size)]
        for g, size in enumerate(sizes)
    ]
    n = sum(sizes)
    vertex = st.integers(0, n - 1)
    incompatible = draw(st.sets(st.tuples(vertex, vertex), max_size=3 * n))
    # One used-boundary set per pattern iteration.
    used_sets = draw(st.lists(st.sets(vertex), min_size=1, max_size=3))
    config = PaafConfig(
        boundary_conflict_aware=draw(st.booleans()),
        history_aware=draw(st.booleans()),
    )
    return groups, incompatible, used_sets, config


class TestFlatDpMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(step2_problems())
    def test_same_path_cost_and_edge_prices(self, problem):
        groups, incompatible, used_sets, cfg = problem
        index = {
            id(ap): i
            for i, (_, ap) in enumerate(v for g in groups for v in g)
        }
        boundary_pins = {groups[0][0][0], groups[-1][0][0]}

        def compatible(a, b):
            return (index[id(a)], index[id(b)]) not in incompatible

        solver = FlatDp(groups, compatible, cfg)
        for used in used_sets:

            def is_used(vertex, used=used):
                return (
                    vertex[0] in boundary_pins
                    and index[id(vertex[1])] in used
                )

            priced = []
            reference = _algorithm3(cfg, is_used, compatible)

            def recorded(prev, curr, prev_prev):
                cost = reference(prev, curr, prev_prev)
                priced.append((prev, curr, cost))
                return cost

            expected = LayeredDpGraph(groups).solve(recorded)
            assert solver.solve(is_used) == expected
            assert [
                (prev, curr, cost)
                for prev, curr, cost, _ in solver.priced_edges()
            ] == priced


# -- pin ordering -------------------------------------------------------------


def _ap(x, y):
    return AccessPoint(
        x=x,
        y=y,
        layer_name="M1",
        pref_type=CoordType.ON_TRACK,
        nonpref_type=CoordType.ON_TRACK,
        valid_vias=["V12_P"],
    )


class TestOrderPinsProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["A", "B", "C", "D", "E"]),
            st.lists(
                st.tuples(
                    st.integers(0, 10000), st.integers(0, 10000)
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
        ),
        st.floats(min_value=0, max_value=2),
    )
    def test_order_is_permutation_and_deterministic(self, raw, alpha):
        aps = {k: [_ap(x, y) for x, y in v] for k, v in raw.items()}
        order1 = order_pins(aps, alpha)
        order2 = order_pins(aps, alpha)
        assert order1 == order2
        assert sorted(order1) == sorted(aps)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10000), st.integers(0, 10000)),
            min_size=2,
            max_size=6,
            unique_by=lambda t: t[0],
        )
    )
    def test_alpha_zero_orders_by_x(self, coords):
        aps = {f"P{i}": [_ap(x, y)] for i, (x, y) in enumerate(coords)}
        order = order_pins(aps, 0.0)
        xs = [aps[name][0].x for name in order]
        assert xs == sorted(xs)


# -- spacing table monotonicity --------------------------------------------------


@st.composite
def spacing_tables(draw):
    num_prl = draw(st.integers(min_value=1, max_value=4))
    prl_values = sorted(
        draw(
            st.lists(
                st.integers(0, 1000),
                min_size=num_prl,
                max_size=num_prl,
                unique=True,
            )
        )
    )
    num_rows = draw(st.integers(min_value=1, max_value=4))
    widths = sorted(
        draw(
            st.lists(
                st.integers(0, 500),
                min_size=num_rows,
                max_size=num_rows,
                unique=True,
            )
        )
    )
    rows = []
    base = draw(st.integers(10, 100))
    for r, width in enumerate(widths):
        # Spacings non-decreasing along both axes by construction.
        rows.append(
            (width, [base + 10 * r + 5 * c for c in range(num_prl)])
        )
    return SpacingTable(prl_values=prl_values, width_rows=rows)


class TestSpacingTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        spacing_tables(),
        st.integers(0, 600),
        st.integers(-100, 1200),
    )
    def test_lookup_within_table_values(self, table, width, prl):
        value = table.lookup(width, prl)
        all_values = [s for _, row in table.width_rows for s in row]
        assert value in all_values
        assert value <= table.max_spacing

    @settings(max_examples=60, deadline=None)
    @given(spacing_tables(), st.integers(0, 600), st.integers(0, 1200))
    def test_monotone_in_width_and_prl(self, table, width, prl):
        value = table.lookup(width, prl)
        assert table.lookup(width + 50, prl) >= value
        assert table.lookup(width, prl + 100) >= value


# -- access point invariants -------------------------------------------------------


class TestAccessPointProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(-10000, 10000),
        st.integers(-10000, 10000),
        st.integers(-500, 500),
        st.integers(-500, 500),
    )
    def test_translation_composes(self, x, y, dx, dy):
        ap = _ap(x, y)
        moved = ap.translated(dx, dy).translated(-dx, -dy)
        assert (moved.x, moved.y) == (ap.x, ap.y)
        assert moved.cost == ap.cost
