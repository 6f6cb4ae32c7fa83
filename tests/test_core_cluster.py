"""Unit tests for Step 3 (cluster-based access pattern selection)."""

import pytest

from repro.core.apgen import AccessPoint
from repro.core.arraykernel import ArrayKernel
from repro.core.cluster import (
    ClusterPatternSelector,
    SelectedAccess,
    boundary_records,
)
from repro.core.coords import CoordType
from repro.core.framework import UniqueInstanceAccess
from repro.core.pattern import AccessPattern
from repro.core.signature import UniqueInstance
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import PairKernel
from repro.geom.point import Point

from tests.conftest import make_simple_design


def ap(x, y, vias=("V12_P",)):
    return AccessPoint(
        x=x,
        y=y,
        layer_name="M1",
        pref_type=CoordType.ON_TRACK,
        nonpref_type=CoordType.ON_TRACK,
        valid_vias=list(vias),
        planar_dirs=[],
    )


def pattern(aps: dict, cost=0):
    return AccessPattern(aps=aps, cost=cost)


def unique_access(inst, patterns, aps_by_pin=None, signature=None):
    """Return a Step 1/2 result holding ``patterns``, ``inst`` its member.

    Each pin's Step 1 points are ``aps_by_pin[pin]`` when given, else
    the pin's distinct points over ``patterns``, in order.
    """
    if aps_by_pin is None:
        aps_by_pin = {}
        for p in patterns:
            for pin, point in p.aps.items():
                if point not in aps_by_pin.setdefault(pin, []):
                    aps_by_pin[pin].append(point)
    ui = UniqueInstance(
        signature=signature or (inst.master.name, inst.name),
        representative=inst,
        members=[inst],
    )
    return UniqueInstanceAccess(
        unique_instance=ui, aps_by_pin=aps_by_pin, patterns=list(patterns)
    )


def placements(insts, patterns, aps_by_pin=None, signature=None) -> dict:
    """Return the Step 3 placement map: each of ``insts`` is its own
    unique instance, at offset ``(0, 0)``, holding ``patterns[name]``."""
    aps_by_pin = aps_by_pin or {}
    signature = signature or {}
    return {
        inst.name: (
            unique_access(
                inst,
                patterns.get(inst.name, []),
                aps_by_pin.get(inst.name),
                signature.get(inst.name),
            ),
            (0, 0),
        )
        for inst in insts
    }


@pytest.fixture
def design(n45):
    return make_simple_design(n45, num_instances=2)


@pytest.fixture
def selector(design):
    # Via-vs-neighbor checks on the engine path, pair checks on the
    # pair kernel's tables.
    engine = DrcEngine(design.tech)
    return ClusterPatternSelector(
        design,
        kernel=PairKernel(design.tech, engine=engine),
        akernel=ArrayKernel(design, mode="engine", engine=engine),
    )


class TestSelectedAccess:
    def test_access_points_translated(self, design):
        inst = design.instance("u0")
        sel = SelectedAccess(
            inst=inst,
            pattern=pattern({"A": ap(100, 200)}),
            dx=50,
            dy=60,
        )
        got = sel.access_points()["A"]
        assert (got.x, got.y) == (150, 260)

    def test_none_pattern_empty(self, design):
        sel = SelectedAccess(
            inst=design.instance("u0"), pattern=None, dx=0, dy=0
        )
        assert sel.access_points() == {}
        assert boundary_records(sel, 150) == ()

    def test_boundary_aps_default_first_last(self, design):
        inst = design.instance("u0")  # bbox (1400,1400)-(2100,2800)
        sel = SelectedAccess(
            inst=inst,
            pattern=pattern(
                {"A": ap(1700, 0), "B": ap(1750, 0), "Z": ap(1800, 0)}
            ),
            dx=0,
            dy=0,
        )
        names = {name for name, *_ in boundary_records(sel, 150)}
        assert names == {"A", "Z"}

    def test_boundary_aps_window_includes_edge_pins(self, design):
        inst = design.instance("u0")  # bbox (1400,1400)-(2100,2800)
        sel = SelectedAccess(
            inst=inst,
            pattern=pattern(
                {
                    "A": ap(1500, 0),
                    "B": ap(2050, 0),  # near right edge, not last in order
                    "C": ap(1950, 0),  # exactly the window from the right
                    "D": ap(1550, 0),  # exactly the window from the left
                    "M": ap(1800, 0),  # interior, neither first nor last
                    "Z": ap(1700, 0),
                }
            ),
            dx=0,
            dy=0,
        )
        records = {name: rest for name, *rest in boundary_records(sel, 150)}
        assert set(records) == {"A", "B", "C", "D", "Z"}
        # Origin-relative: the via and the point less the location.
        assert records["B"] == ["V12_P", 650, -1400]

    def test_boundary_records_are_origin_relative(self, design):
        # A pattern in its representative's coordinates, selected for
        # a member (10, 20) away: every record is the point plus that
        # offset, less the member's origin (1400, 1400).
        inst = design.instance("u0")
        sel = SelectedAccess(
            inst=inst,
            pattern=pattern(
                {"A": ap(1700, 0), "Z": ap(2070, 1480, vias=("V12_Q",))}
            ),
            dx=10,
            dy=20,
        )
        got = {name: rest for name, *rest in boundary_records(sel, 150)}
        assert got == {"A": ["V12_P", 310, -1380], "Z": ["V12_Q", 680, 100]}


class TestSelection:
    def test_single_candidate_selected(self, design, selector):
        u0, u1 = design.instance("u0"), design.instance("u1")
        result = selector.select(
            design.row_clusters(),
            placements(
                [u0, u1],
                {"u0": [pattern({"A": ap(100, 560)})],
                 "u1": [pattern({"A": ap(100, 560)})]},
            ),
        )
        assert set(result.selection) == {"u0", "u1"}

    def test_missing_candidates_get_none_pattern(self, design, selector):
        # A unique access without patterns: the member is selected with
        # pattern None, and still carries its unique access and offset.
        held = placements(design.instances.values(), {})
        result = selector.select(design.row_clusters(), held)
        sel = result.selection["u0"]
        assert sel.pattern is None
        assert sel.unique_access is held["u0"][0]
        assert (sel.dx, sel.dy) == (0, 0)

    def test_conflicting_boundary_patterns_avoided(self, design, selector):
        # u0 and u1 abut at x=2100.  Give each two patterns: one with a
        # boundary AP hugging the shared edge (conflicting), one safe.
        u0, u1 = design.instance("u0"), design.instance("u1")
        u0_bad = pattern({"Z": ap(2030, 2100)}, cost=0)
        u0_safe = pattern({"Z": ap(1750, 2100)}, cost=1)
        u1_bad = pattern({"A": ap(2170, 2100)}, cost=0)
        u1_safe = pattern({"A": ap(2450, 2100)}, cost=1)
        result = selector.select(
            design.row_clusters(),
            placements(
                [u0, u1], {"u0": [u0_bad, u0_safe], "u1": [u1_bad, u1_safe]}
            ),
        )
        assert result.conflicts == []
        chosen_z = result.selection["u0"].pattern.aps["Z"].x
        chosen_a = result.selection["u1"].pattern.aps["A"].x
        assert chosen_a - chosen_z >= 280

    def test_unavoidable_conflict_recorded(self, design, selector):
        # Each pin's only Step 1 point is its pattern's: no repair.
        u0, u1 = design.instance("u0"), design.instance("u1")
        result = selector.select(
            design.row_clusters(),
            placements(
                [u0, u1],
                {"u0": [pattern({"Z": ap(2030, 2100)})],
                 "u1": [pattern({"A": ap(2170, 2100)})]},
            ),
        )
        assert result.conflicts
        assert ("u0", "Z") in result.conflicting_pins()
        assert ("u1", "A") in result.conflicting_pins()

    def test_repair_uses_alternative_aps(self, design, selector):
        # Single conflicting pattern each, but alternatives exist in the
        # Step 1 AP lists: the repair pass must resolve the conflict
        # with a new selection, leaving the unique access alone.
        u0, u1 = design.instance("u0"), design.instance("u1")
        u0_pattern = pattern({"Z": ap(2030, 2100)}, cost=3)
        u1_pattern = pattern({"A": ap(2170, 2100)}, cost=5)
        held = placements(
            [u0, u1],
            {"u0": [u0_pattern], "u1": [u1_pattern]},
            aps_by_pin={
                "u0": {"Z": [ap(2030, 2100)]},
                "u1": {"A": [ap(2170, 2100), ap(2450, 2100)]},
            },
        )
        result = selector.select(design.row_clusters(), held)
        assert result.conflicts == []
        ua = held["u1"][0]
        repaired = result.selection["u1"]
        # The repaired pattern moves the pin to one of its own Step 1
        # points and keeps the DP pattern's cost and violations.
        assert repaired.pattern.aps["A"] is ua.aps_by_pin["A"][1]
        assert repaired.pattern.cost == 5
        assert repaired.pattern.violations == []
        assert repaired.pattern not in ua.patterns
        assert repaired.key == (ua.unique_instance.signature, 0, ("A", 1))
        assert repaired.unique_access is ua
        assert u1_pattern.aps["A"].x == 2170
        assert result.selection["u0"].pattern is u0_pattern
        # The repaired selection is value-keyed like any other: its
        # boundary verdicts are kept.
        assert any(repaired.key in key[:2] for key in selector.verdicts)

    def test_via_vs_neighbor_shape_conflict(self, design, selector):
        # A via just left of u1's pin A shape, closer than the spacing
        # rule allows, conflicts with that shape: u1 stands at (2100,
        # 1400), so A covers x 2240..2520, y 1960..2100.
        u0, u1 = design.instance("u0"), design.instance("u1")
        a_rect = u1.pin_rects("A")["M1"][0]
        via_x = a_rect.xlo - 100
        via_y = (a_rect.ylo + a_rect.yhi) // 2
        result = selector.select(
            design.row_clusters(),
            placements(
                [u0, u1],
                {"u0": [pattern({"Z": ap(via_x, via_y)})],
                 "u1": [pattern({"A": ap(a_rect.center.x, via_y)})]},
            ),
        )
        assert ("u0", "Z") in result.conflicting_pins()


class TestOnePass:
    def test_one_selector_spans_disjoint_cluster_sets(self, n45):
        """Boundary verdicts kept across passes equal a fresh scan.

        Two disjoint clusters abut alike, so their candidates carry the
        same by-value keys.  One selector runs over both in turn, the
        first cluster's placement map freed before the second pass
        (the object ids of its selections may be handed out again):
        the second cluster must be served from the verdicts the first
        left in the table.  Later passes of the same selector, as a
        framework's, add nothing either.  Every pass must equal a fresh
        selector's.
        """
        design = make_simple_design(n45, num_instances=4)
        for name in ("u2", "u3"):
            inst = design.instance(name)
            inst.location = Point(inst.location.x + 1400, inst.location.y)
        clusters = design.row_clusters()
        assert [[inst.name for inst in c] for c in clusters] == [
            ["u0", "u1"],
            ["u2", "u3"],
        ]
        # Per cluster: a cheap pair of patterns hugging the shared edge
        # (in conflict) and a dearer clean one per side.  Patterns, like
        # a unique instance's, outlive every pass, and sit at the same
        # offsets from their member's origin in both clusters, so a
        # side's role (its signature) and the pattern's ordinal name
        # one by value.
        patterns = {}
        role = {}
        for left, right in (("u0", "u1"), ("u2", "u3")):
            edge = design.instance(left).bbox.xhi
            patterns[left] = [
                pattern({"Z": ap(edge - 70, 2100)}, cost=0),
                pattern({"Z": ap(edge - 350, 2100)}, cost=1),
            ]
            patterns[right] = [
                pattern({"A": ap(edge + 70, 2100)}, cost=0),
                pattern({"A": ap(edge + 350, 2100)}, cost=1),
            ]
            role[left], role[right] = ("left",), ("right",)

        def held(cluster):
            return placements(cluster, patterns, signature=role)

        engine = DrcEngine(design.tech)

        def selector():
            return ClusterPatternSelector(
                design,
                kernel=PairKernel(design.tech, engine=engine),
                akernel=ArrayKernel(design, mode="engine", engine=engine),
            )

        shared = selector()
        kept = shared.verdicts
        passes = []
        sizes = []
        for cluster in clusters:
            fresh = held(cluster)
            passes.append(shared.select([cluster], fresh))
            del fresh
            sizes.append(len(kept))
        assert sizes[0] > 0
        assert sizes[1] == sizes[0]
        later = [shared.select([c], held(c)) for c in clusters]
        assert len(kept) == sizes[0]
        for cluster, got, again in zip(clusters, passes, later):
            want = selector().select([cluster], held(cluster))
            assert want.conflicts == []
            for res in (got, again):
                assert list(res.selection) == list(want.selection)
                assert res.selection == want.selection
                assert res.conflicts == want.conflicts
