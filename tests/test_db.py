"""Unit tests for the design database."""

import pytest

from repro.db.design import Design, Row
from repro.db.inst import Instance
from repro.db.master import CellMaster, MasterPin, Obstruction, PinUse
from repro.db.net import IOPin, Net
from repro.db.tracks import TrackPattern
from repro.drc.context import ShapeContext
from repro.geom.point import Point
from repro.geom.rect import Rect
from repro.geom.transform import Orientation
from repro.tech.layer import RoutingDirection

from tests.conftest import make_simple_design, make_simple_master


class TestMasterPin:
    def test_add_and_query_shapes(self):
        pin = MasterPin(name="A")
        pin.add_shape("M1", Rect(0, 0, 10, 10))
        pin.add_shape("M1", Rect(5, 0, 20, 10))
        pin.add_shape("M2", Rect(0, 0, 5, 5))
        assert pin.layers() == ["M1", "M2"]
        assert len(pin.rects_on("M1")) == 2
        assert pin.rects_on("M3") == []

    def test_polygon_on_missing_layer(self):
        pin = MasterPin(name="A")
        with pytest.raises(KeyError):
            pin.polygon_on("M1")

    def test_bbox(self):
        pin = MasterPin(name="A")
        pin.add_shape("M1", Rect(0, 0, 10, 10))
        pin.add_shape("M2", Rect(5, 5, 30, 8))
        assert pin.bbox() == Rect(0, 0, 30, 10)

    def test_signal_predicate(self):
        assert MasterPin(name="A").is_signal
        assert not MasterPin(name="VDD", use=PinUse.POWER).is_signal


class TestCellMaster:
    def test_duplicate_pin_rejected(self):
        master = CellMaster(name="X", width=100, height=100)
        master.add_pin(MasterPin(name="A"))
        with pytest.raises(ValueError):
            master.add_pin(MasterPin(name="A"))

    def test_pin_lookup(self):
        master = make_simple_master()
        assert master.pin("A").name == "A"
        with pytest.raises(KeyError):
            master.pin("NOPE")

    def test_signal_pins_exclude_rails(self):
        master = make_simple_master()
        assert [p.name for p in master.signal_pins()] == ["A", "Z"]

    def test_bbox(self):
        master = make_simple_master(width=700, height=1400)
        assert master.bbox == Rect(0, 0, 700, 1400)


class TestInstance:
    def test_bbox_r0(self):
        inst = Instance("u", make_simple_master(), Point(100, 200))
        assert inst.bbox == Rect(100, 200, 800, 1600)

    def test_pin_rects_translated(self):
        inst = Instance("u", make_simple_master(), Point(1000, 0))
        rects = inst.pin_rects("A")["M1"]
        assert rects == [Rect(1140, 560, 1420, 700)]

    def test_pin_rects_mx(self):
        master = make_simple_master()
        inst = Instance("u", master, Point(0, 0), Orientation.MX)
        rect = inst.pin_rects("A")["M1"][0]
        # MX mirrors y within the cell height.
        assert rect == Rect(140, 1400 - 700, 420, 1400 - 560)

    def test_all_pin_shapes_counts(self):
        inst = Instance("u", make_simple_master(), Point(0, 0))
        shapes = inst.all_pin_shapes()
        assert len(shapes) == 4  # VSS, VDD, A, Z one rect each

    def test_obstruction_rects(self):
        master = make_simple_master()
        master.add_obstruction(
            Obstruction(layer_name="M2", rect=Rect(0, 0, 50, 50))
        )
        inst = Instance("u", master, Point(10, 20))
        assert inst.obstruction_rects() == [("M2", Rect(10, 20, 60, 70))]


class TestTrackPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrackPattern("M1", RoutingDirection.HORIZONTAL, 0, 0, 10)
        with pytest.raises(ValueError):
            TrackPattern("M1", RoutingDirection.HORIZONTAL, 0, 10, 0)

    def test_coordinates(self):
        tp = TrackPattern("M1", RoutingDirection.HORIZONTAL, 70, 140, 3)
        assert tp.coordinates() == [70, 210, 350]
        assert tp.end == 350

    def test_coords_in_range(self):
        tp = TrackPattern("M1", RoutingDirection.HORIZONTAL, 70, 140, 100)
        assert tp.coords_in(200, 400) == [210, 350]
        assert tp.coords_in(210, 210) == [210]
        assert tp.coords_in(0, 69) == []
        assert tp.coords_in(20000, 30000) == []

    def test_half_track_coords(self):
        tp = TrackPattern("M1", RoutingDirection.HORIZONTAL, 70, 140, 100)
        assert tp.half_track_coords_in(100, 300) == [140, 280]

    def test_offset_of(self):
        tp = TrackPattern("M1", RoutingDirection.HORIZONTAL, 70, 140, 10)
        assert tp.offset_of(70) == 0
        assert tp.offset_of(210) == 0
        assert tp.offset_of(100) == 30


class TestNet:
    def test_degree(self):
        net = Net(name="n")
        net.add_term("u1", "A")
        net.add_term("u2", "Z")
        net.add_io_pin("io1")
        assert net.degree == 3


class TestDesign:
    def test_duplicate_instance_rejected(self, n45):
        design = make_simple_design(n45)
        master = design.masters["CELL_X1"]
        with pytest.raises(ValueError):
            design.add_instance(
                Instance("u0", master, Point(0, 0))
            )

    def test_net_of(self, n45):
        design = make_simple_design(n45)
        assert design.net_of("u0", "A").name == "net_0_A"
        assert design.net_of("u0", "VDD") is None

    def test_connected_pins(self, n45):
        design = make_simple_design(n45, num_instances=3)
        pins = design.connected_pins()
        assert len(pins) == 6
        assert all(pin.is_signal for _, pin in pins)

    def test_track_patterns_on(self, n45):
        design = make_simple_design(n45)
        assert len(design.track_patterns_on("M1")) == 1
        assert design.track_patterns_on("NOPE") == []

    def test_stats(self, n45):
        design = make_simple_design(n45)
        stats = design.stats()
        assert stats["num_std_cells"] == 2
        assert stats["num_nets"] == 4
        assert stats["node"] == "N45"


class TestRowClusters:
    def test_abutting_form_one_cluster(self, n45):
        design = make_simple_design(n45, num_instances=3)
        clusters = design.row_clusters()
        assert len(clusters) == 1
        assert [i.name for i in clusters[0]] == ["u0", "u1", "u2"]

    def test_gap_splits_cluster(self, n45):
        design = make_simple_design(n45, num_instances=2)
        master = design.masters["CELL_X1"]
        design.add_instance(
            Instance("far", master, Point(9800, 1400))
        )
        clusters = design.row_clusters()
        assert len(clusters) == 2

    def test_different_rows_not_clustered(self, n45):
        design = make_simple_design(n45, num_instances=1)
        master = design.masters["CELL_X1"]
        design.add_instance(
            Instance("above", master, Point(1400, 2800), Orientation.MX)
        )
        assert len(design.row_clusters()) == 2

    def test_macros_are_singletons(self, n45):
        design = make_simple_design(n45, num_instances=2)
        macro = CellMaster(
            name="BLK", width=2800, height=2800, is_macro=True
        )
        design.add_master(macro)
        design.add_instance(Instance("blk", macro, Point(1400 + 1400, 1400)))
        clusters = design.row_clusters()
        singleton = [c for c in clusters if c[0].name == "blk"]
        assert singleton and len(singleton[0]) == 1

    def test_row_bbox_and_site_x(self):
        row = Row(
            name="r",
            origin=Point(100, 200),
            orient=Orientation.R0,
            count=10,
            site_width=140,
            site_height=1400,
        )
        assert row.bbox == Rect(100, 200, 1500, 1600)
        assert row.site_x(3) == 520
        with pytest.raises(IndexError):
            row.site_x(10)


class TestIOPin:
    def test_io_pin_indexed(self, n45):
        design = make_simple_design(n45)
        design.add_io_pin(
            IOPin(name="io1", layer_name="M2", rect=Rect(0, 0, 100, 100))
        )
        context = ShapeContext.from_design(design)
        hits = context.query("M2", Rect(0, 0, 50, 50))
        assert hits == [(Rect(0, 0, 100, 100), "io1")]


# -- the cell-class record ----------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.geom.maxrect import maximal_rectangles  # noqa: E402
from repro.geom.polygon import RectilinearPolygon  # noqa: E402


@st.composite
def _rects_in(draw, width, height):
    """A rect inside ``width x height``: positive area, or one L of two."""
    xlo = draw(st.integers(0, width - 2))
    ylo = draw(st.integers(0, height - 2))
    xhi = draw(st.integers(xlo + 1, width))
    yhi = draw(st.integers(ylo + 1, height))
    rects = [Rect(xlo, ylo, xhi, yhi)]
    if draw(st.booleans()):  # an L: a second arm sharing the corner
        rects.append(
            Rect(xlo, ylo, draw(st.integers(xlo + 1, width)), ylo + 1)
        )
    return rects


@st.composite
def masters(draw):
    """A master with multi-layer signal pins, L shapes and obstructions."""
    width = draw(st.integers(4, 60)) * 10
    height = draw(st.integers(4, 40)) * 10
    master = CellMaster(name="GEN", width=width, height=height)
    for i in range(draw(st.integers(1, 4))):
        pin = MasterPin(name=f"P{i}")
        for layer in draw(
            st.lists(st.sampled_from(["M1", "M2", "M3"]), min_size=1,
                     max_size=3)
        ):
            for rect in draw(_rects_in(width, height)):
                pin.add_shape(layer, rect)
        master.add_pin(pin)
    for layer in draw(st.lists(st.sampled_from(["M1", "M2"]), max_size=3)):
        for rect in draw(_rects_in(width, height)):
            master.add_obstruction(Obstruction(layer, rect))
    return master


class TestCellClassMatchesTransform:
    """Every instance view equals the Transform reference."""

    @settings(max_examples=120, deadline=None)
    @given(
        masters(),
        st.sampled_from(list(Orientation)),
        st.integers(-100_000, 100_000),
        st.integers(-100_000, 100_000),
    )
    def test_views(self, master, orient, x, y):
        inst = Instance("u", master, Point(x, y), orient)
        xf = inst.transform
        assert inst.bbox == xf.bbox()
        for pin in master.pins:
            want = {
                layer: [xf.apply_rect(r) for r in rects]
                for layer, rects in pin.shapes.items()
            }
            got = inst.pin_rects(pin.name)
            assert got == want and list(got) == list(want)
            cell = inst.master.cell_class(orient)
            for layer, rects in want.items():
                assert [
                    r.translated(x, y)
                    for r in cell.maximal_rectangles(pin.name, layer)
                ] == maximal_rectangles(RectilinearPolygon(rects))
        assert inst.all_pin_shapes() == [
            (pin, layer, xf.apply_rect(r))
            for pin in master.pins
            for layer, rects in pin.shapes.items()
            for r in rects
        ]
        assert inst.obstruction_rects() == [
            (obs.layer_name, xf.apply_rect(obs.rect))
            for obs in master.obstructions
        ]


class TestCellClassEdits:
    """An edit through the master's API never serves a stale record."""

    def test_edits_rebuild_the_record(self):
        master = make_simple_master()
        inst = Instance("u", master, Point(300, 700), Orientation.MX)
        before = inst.all_pin_shapes()
        pin = master.signal_pins()[0]
        layer = next(iter(pin.shapes))
        inst.master.cell_class(inst.orient).maximal_rectangles(
            pin.name, layer
        )

        pin.add_shape(layer, Rect(0, 0, 10, 10))
        xf = inst.transform
        assert len(inst.all_pin_shapes()) == len(before) + 1
        assert inst.pin_rects(pin.name)[layer][-1] == xf.apply_rect(
            Rect(0, 0, 10, 10)
        )
        want = maximal_rectangles(
            RectilinearPolygon(inst.pin_rects(pin.name)[layer])
        )
        assert [
            r.translated(300, 700)
            for r in inst.master.cell_class(inst.orient).maximal_rectangles(
                pin.name, layer
            )
        ] == want

        extra = MasterPin(name="EXTRA")
        extra.add_shape("M1", Rect(5, 5, 15, 15))
        master.add_pin(extra)
        assert inst.pin_rects("EXTRA") == {
            "M1": [xf.apply_rect(Rect(5, 5, 15, 15))]
        }
        extra.add_shape("M2", Rect(1, 1, 2, 2))
        assert "M2" in inst.pin_rects("EXTRA")

        count = len(inst.obstruction_rects())
        master.add_obstruction(Obstruction("M1", Rect(0, 0, 4, 4)))
        assert inst.obstruction_rects()[count:] == [
            ("M1", xf.apply_rect(Rect(0, 0, 4, 4)))
        ]

    def test_unknown_pin_still_raises(self):
        inst = Instance("u", make_simple_master(), Point(0, 0))
        with pytest.raises(KeyError, match="no pin named 'NOPE'"):
            inst.pin_rects("NOPE")
