"""Unit tests for the DRC engine facade (via placement, pairs, dedupe)."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.stdcells import build_library
from repro.core.arraykernel import CellShapes, _planar_stubs
from repro.db.inst import Instance
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import build_pair_table
from repro.drc.violations import Violation
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.transform import Orientation
from repro.tech.nodes import make_node

from tests.conftest import make_simple_design


@pytest.fixture
def engine(n45):
    return DrcEngine(n45)


@pytest.fixture
def via(n45):
    return n45.primary_via_from("M1")


def pin_ctx(pin_rect, extra=()):
    ctx = ShapeContext(bucket=1000)
    ctx.add("M1", pin_rect, "net")
    for layer, rect, key in extra:
        ctx.add(layer, rect, key)
    return ctx


class TestCheckViaPlacement:
    def test_clean_centered_drop(self, engine, via):
        # Pin taller than the enclosure, via centered: clean.
        ctx = pin_ctx(Rect(0, 0, 500, 100))
        assert engine.check_via_placement(via, 250, 50, "net", ctx) == []

    def test_min_step_on_partial_protrusion(self, engine, via):
        ctx = pin_ctx(Rect(0, 0, 500, 100))
        out = engine.check_via_placement(via, 250, 80, "net", ctx)
        assert {v.rule for v in out} == {"min-step"}

    def test_min_step_suppressible(self, engine, via):
        ctx = pin_ctx(Rect(0, 0, 500, 100))
        out = engine.check_via_placement(
            via, 250, 80, "net", ctx, with_min_step=False
        )
        assert out == []

    def test_min_step_rects_override(self, engine, via):
        # Without the override, a touching same-net bar merges in and
        # creates steps; scoping the merge to the pin keeps it clean.
        pin = Rect(0, 0, 500, 100)
        stray = Rect(300, 100, 340, 300)  # same net, touches enclosure? no
        ctx = pin_ctx(pin, extra=[("M1", stray, "net")])
        out = engine.check_via_placement(
            via, 250, 50, "net", ctx, min_step_rects=[pin]
        )
        assert out == []

    def test_spacing_to_foreign_pin(self, engine, via):
        ctx = pin_ctx(
            Rect(0, 0, 500, 100),
            extra=[("M1", Rect(0, 150, 500, 250), "other")],
        )
        out = engine.check_via_placement(via, 250, 50, "net", ctx)
        assert any(v.rule == "metal-spacing" for v in out)

    def test_top_layer_checked(self, engine, via):
        # A foreign M2 bar overlapping the top enclosure.
        ctx = pin_ctx(
            Rect(0, 0, 500, 100),
            extra=[("M2", Rect(230, -100, 300, 200), "other")],
        )
        out = engine.check_via_placement(via, 250, 50, "net", ctx)
        assert any(
            v.rule == "metal-short" and v.layer_name == "M2" for v in out
        )

    def test_cut_spacing_to_existing_cut(self, engine, via, n45):
        ctx = pin_ctx(
            Rect(0, 0, 500, 100),
            extra=[("V12", Rect(320, 15, 390, 85), "other")],
        )
        out = engine.check_via_placement(via, 250, 50, "net", ctx)
        assert any(v.rule == "cut-spacing" for v in out)


class TestCheckViaPair:
    def test_far_apart_clean(self, engine, via):
        assert engine.check_via_pair(via, (0, 0), via, (1000, 0)) == []

    def test_too_close_violates(self, engine, via):
        out = engine.check_via_pair(via, (0, 0), via, (200, 0))
        assert any(v.rule == "metal-spacing" for v in out)

    def test_same_net_pair_skips_metal_but_not_cut(self, engine, via):
        out = engine.check_via_pair(
            via, (0, 0), via, (140, 0), same_net=True
        )
        rules = {v.rule for v in out}
        assert "metal-spacing" not in rules
        assert "cut-spacing" in rules

    def test_same_net_exempts_eol_too(self, engine, via):
        # Pins the net-key contract (see check_via_pair docstring):
        # same_net=True keys both vias as net "a", which exempts EOL
        # spacing along with metal spacing -- not just metal.  dy=200
        # sits in the band where only M2 metal/EOL spacing fires.
        diff = {v.rule for v in engine.check_via_pair(via, (0, 0), via, (0, 200))}
        assert "eol-spacing" in diff
        same = engine.check_via_pair(via, (0, 0), via, (0, 200), same_net=True)
        assert same == []

    def test_same_net_identical_stack_is_clean(self, engine, via):
        # Two vias at the same spot: different nets short on metal and
        # cut; the same net is fully clean because shorts are same-net
        # exempt and check_cut_spacing skips the identical cut rect.
        diff = {v.rule for v in engine.check_via_pair(via, (0, 0), via, (0, 0))}
        assert {"metal-short", "cut-short"} <= diff
        assert engine.check_via_pair(via, (0, 0), via, (0, 0), same_net=True) == []

    def test_vertical_separation_governed_by_top_enclosure(self, engine, via):
        # The M2 top enclosure is 140 tall, so vertical via pairs
        # interact on M2 long after the M1 enclosures are clear: at
        # dy=140 the M2 enclosures touch (spacing violation), and EOL
        # keeps the pair dirty until the M2 gap reaches eol_space.
        out = engine.check_via_pair(via, (0, 0), via, (0, 140))
        assert any(
            v.rule == "metal-spacing" and v.layer_name == "M2" for v in out
        )
        # M2 gap = 290 - 140 = 150 >= eol_space 90: fully clean.
        assert engine.check_via_pair(via, (0, 0), via, (0, 290)) == []


class TestCheckMetalAndPolygon:
    def test_check_metal_rect(self, engine):
        ctx = ShapeContext(bucket=1000)
        ctx.add("M1", Rect(0, 0, 100, 70), "other")
        out = engine.check_metal_rect(
            "M1", Rect(150, 0, 400, 70), "net", ctx
        )
        assert any(v.rule == "metal-spacing" for v in out)

    def test_check_polygon(self, engine):
        out = engine.check_polygon("M1", [Rect(0, 0, 100, 70)])
        assert {v.rule for v in out} == {"min-area"}


class TestDedupe:
    def test_dedupe_collapses_identical_markers(self):
        a = Violation("metal-spacing", "M1", Rect(0, 0, 10, 10), ("x", "y"))
        b = Violation("metal-spacing", "M1", Rect(0, 0, 10, 10), ("y", "x"))
        c = Violation("metal-spacing", "M2", Rect(0, 0, 10, 10), ("x", "y"))
        assert len(DrcEngine.dedupe([a, b, c])) == 2


class TestShapeContext:
    def test_from_instance_keys(self, n45):
        design = make_simple_design(n45)
        inst = design.instance("u0")
        ctx = ShapeContext.from_instance(inst)
        hits = ctx.query("M1", inst.bbox)
        keys = {key for _, key in hits}
        assert ("u0", "A") in keys and ("u0", "VDD") in keys

    def test_from_design_uses_net_names(self, n45):
        design = make_simple_design(n45)
        ctx = ShapeContext.from_design(design)
        keys = {key for _, key in ctx.query("M1", design.die_area)}
        assert "net_0_A" in keys
        # Rails are unconnected: identified per instance pin.
        assert ("u0", "VDD") in keys

    def test_layers_listing(self):
        ctx = ShapeContext()
        ctx.add("M2", Rect(0, 0, 1, 1), "x")
        ctx.add("M1", Rect(0, 0, 1, 1), "x")
        assert ctx.layers() == ["M1", "M2"]


# -- the engine answers by displacement ---------------------------------------
#
# Both kernels' engine and verify modes ask the engine once per
# combination at the origin and probe it by displacement, which holds
# only if the engine's verdict does not depend on where the shapes sit.

NODES = ("N45", "N32", "N14")


@lru_cache(maxsize=None)
def _node(name):
    return make_node(name)


@lru_cache(maxsize=None)
def _library(name):
    return build_library(_node(name), seed=1, multi_height=True)


@lru_cache(maxsize=None)
def _pair_window(node, via_a, via_b, same_net):
    tech = _node(node)
    table = build_pair_table(
        tech, tech.via(via_a), tech.via(via_b), same_net
    )
    return table.window or (-300, 300, -300, 300)


origins = st.tuples(
    st.integers(min_value=-100_000, max_value=100_000),
    st.integers(min_value=-100_000, max_value=100_000),
)


@st.composite
def via_pairs(draw):
    """A via pair of one node and a displacement around its window."""
    node = draw(st.sampled_from(NODES))
    vias = [via.name for via in _node(node).vias]
    via_a = draw(st.sampled_from(vias))
    via_b = draw(st.sampled_from(vias))
    same_net = draw(st.booleans())
    xlo, xhi, ylo, yhi = _pair_window(node, via_a, via_b, same_net)
    dx = draw(st.integers(min_value=xlo - 20, max_value=xhi + 20))
    dy = draw(st.integers(min_value=ylo - 20, max_value=yhi + 20))
    return node, via_a, via_b, same_net, (dx, dy)


@st.composite
def cell_vias(draw):
    """A generated cell in one orientation, a low via and its offset.

    The offset ``(x, y)`` is the via's position relative to the
    cell's origin, anywhere over the placed cell plus two pitches.
    """
    node = draw(st.sampled_from(NODES))
    tech = _node(node)
    master = draw(st.sampled_from(_library(node).all_masters()))
    orient = draw(st.sampled_from(list(Orientation)))
    via = draw(st.sampled_from(tech.vias_from("M1") + tech.vias_from("M2")))
    cell = master.cell_class(orient)
    margin = 2 * tech.layer("M1").pitch
    x = draw(st.integers(min_value=-margin, max_value=cell.width + margin))
    y = draw(st.integers(min_value=-margin, max_value=cell.height + margin))
    return node, master, orient, via.name, (x, y)


@st.composite
def cell_pin_vias(draw):
    """A generated cell, one of its signal pins, a via and its offset.

    The via drops from a routing layer the pin has shapes on; the
    offset is relative to the cell's origin, as in :func:`cell_vias`.
    """
    node = draw(st.sampled_from(NODES))
    tech = _node(node)
    master = draw(st.sampled_from(_library(node).all_masters()))
    orient = draw(st.sampled_from(list(Orientation)))
    cell = master.cell_class(orient)
    pin = draw(st.sampled_from(master.signal_pins()))
    layer = draw(
        st.sampled_from(
            [
                name
                for name in sorted(cell.pin_rects[pin.name])
                if tech.layer(name).is_routing and tech.vias_from(name)
            ]
        )
    )
    via = draw(st.sampled_from(tech.vias_from(layer)))
    margin = 2 * tech.layer(layer).pitch
    x = draw(st.integers(min_value=-margin, max_value=cell.width + margin))
    y = draw(st.integers(min_value=-margin, max_value=cell.height + margin))
    return node, master, orient, pin.name, layer, via.name, (x, y)


def _rules(violations):
    return [(v.rule, v.layer_name) for v in violations]


class TestVerdictsByDisplacement:
    @settings(max_examples=300, deadline=None)
    @given(via_pairs(), origins)
    def test_via_pair_verdict_moves_with_the_pair(self, pair, origin):
        node, via_a, via_b, same_net, (dx, dy) = pair
        ox, oy = origin
        tech = _node(node)
        engine = DrcEngine(tech)
        a, b = tech.via(via_a), tech.via(via_b)
        at_origin = engine.check_via_pair(
            a, (0, 0), b, (dx, dy), same_net=same_net
        )
        placed = engine.check_via_pair(
            a, (ox, oy), b, (ox + dx, oy + dy), same_net=same_net
        )
        assert bool(placed) == bool(at_origin)

    @settings(max_examples=200, deadline=None)
    @given(cell_vias(), origins)
    def test_cell_verdict_moves_with_the_cell(self, probe, origin):
        # The Step 3 check: ``net_key=None``, min-step off.
        node, master, orient, via_name, (x, y) = probe
        ox, oy = origin
        tech = _node(node)
        engine = DrcEngine(tech)
        via = tech.via(via_name)
        verdicts = []
        for location, (vx, vy) in (
            (Point(ox, oy), (ox + x, oy + y)),
            (Point(0, 0), (x, y)),
        ):
            inst = Instance("u0", master, location, orient)
            verdicts.append(
                not engine.check_via_placement(
                    via,
                    vx,
                    vy,
                    None,
                    ShapeContext.from_instance(inst),
                    with_min_step=False,
                )
            )
        assert verdicts[0] == verdicts[1]

    @settings(max_examples=200, deadline=None)
    @given(cell_pin_vias(), origins)
    def test_step1_check_moves_with_the_cell(self, probe, origin):
        # The Step 1 check (the pin's net key, min-step on) and its four
        # planar stubs name the same rules in the same order on a placed
        # instance and among the cell class's shapes at the origin,
        # which the array kernel's engine verdicts ask.
        node, master, orient, pin_name, layer, via_name, (x, y) = probe
        ox, oy = origin
        tech = _node(node)
        engine = DrcEngine(tech)
        via = tech.via(via_name)
        placed = Instance("u0", master, Point(ox, oy), orient)
        placed_ctx = ShapeContext.from_instance(placed)
        class_ctx = CellShapes(
            tech, Instance("u0", master, Point(0, 0), orient)
        ).context()
        assert _rules(
            engine.check_via_placement(
                via, ox + x, oy + y, ("u0", pin_name), placed_ctx
            )
        ) == _rules(
            engine.check_via_placement(via, x, y, pin_name, class_ctx)
        )
        for stub in _planar_stubs(tech.layer(layer)):
            assert _rules(
                engine.check_metal_rect(
                    layer, stub.translated(ox + x, oy + y),
                    ("u0", pin_name), placed_ctx,
                )
            ) == _rules(
                engine.check_metal_rect(
                    layer, stub.translated(x, y), pin_name, class_ctx
                )
            )
