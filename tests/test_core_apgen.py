"""Unit tests for Algorithm 1 (pin-based access point generation)."""

import pytest

from repro.core.apgen import AccessPoint, AccessPointGenerator
from repro.core.arraykernel import ArrayKernel
from repro.core.config import PaafConfig
from repro.core.coords import CoordType
from repro.db.master import Obstruction
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine
from repro.geom.rect import Rect

from tests.conftest import make_simple_design


@pytest.fixture
def design(n45):
    return make_simple_design(n45)


def engine_generator(design, config=None):
    return AccessPointGenerator(
        design, config, akernel=ArrayKernel(design, mode="engine")
    )


@pytest.fixture
def generator(design):
    return engine_generator(design)


def gen_for(design, generator, inst_name, pin_name):
    inst = design.instance(inst_name)
    return generator.generate_for_pin(inst, inst.master.pin(pin_name))


class TestAccessPoint:
    def ap(self, **kw):
        defaults = dict(
            x=10,
            y=20,
            layer_name="M1",
            pref_type=CoordType.ON_TRACK,
            nonpref_type=CoordType.HALF_TRACK,
            valid_vias=["V12_P", "V12_S"],
            planar_dirs=["E"],
        )
        defaults.update(kw)
        return AccessPoint(**defaults)

    def test_cost_is_type_sum(self):
        assert self.ap().cost == 1
        assert self.ap(
            pref_type=CoordType.ENCLOSURE_BOUNDARY,
            nonpref_type=CoordType.SHAPE_CENTER,
        ).cost == 5

    def test_primary_via(self):
        assert self.ap().primary_via == "V12_P"
        assert self.ap(valid_vias=[]).primary_via is None
        assert not self.ap(valid_vias=[]).has_via_access

    def test_translated_copies(self):
        ap = self.ap()
        moved = ap.translated(5, -5)
        assert (moved.x, moved.y) == (15, 15)
        assert moved.valid_vias == ap.valid_vias
        assert moved.valid_vias is ap.valid_vias


class TestGeneration:
    def test_generates_k_or_slightly_more(self, design, generator):
        aps = gen_for(design, generator, "u0", "A")
        assert len(aps) >= 1
        # k=3 with group-completion semantics: never wildly more.
        assert len(aps) <= 8

    def test_every_ap_on_pin_shape(self, design, generator):
        inst = design.instance("u0")
        pin_rects = inst.pin_rects("A")["M1"]
        for ap in gen_for(design, generator, "u0", "A"):
            assert any(
                r.xlo <= ap.x <= r.xhi and r.ylo <= ap.y <= r.yhi
                for r in pin_rects
            )

    def test_every_ap_is_drc_validated(self, design, generator):
        engine = DrcEngine(design.tech)
        inst = design.instance("u0")
        ctx = ShapeContext.from_instance(inst)
        for ap in gen_for(design, generator, "u0", "A"):
            via = design.tech.via(ap.primary_via)
            assert (
                engine.check_via_placement(
                    via, ap.x, ap.y, (inst.name, "A"), ctx
                )
                == []
            )

    def test_cost_ladder_order(self, design, generator):
        aps = gen_for(design, generator, "u0", "A")
        # The generation order follows the (t1, t0) ladder: the
        # non-preferred type is non-decreasing along the output.
        t1s = [int(ap.nonpref_type) for ap in aps]
        assert t1s == sorted(t1s)

    def test_k_controls_quota(self, design):
        generator = engine_generator(design, PaafConfig(k=1))
        aps = gen_for(design, generator, "u0", "A")
        # Quota reached after the first complete type group.
        assert 1 <= len(aps) <= 4

    def test_planar_directions_recorded(self, design, generator):
        aps = gen_for(design, generator, "u0", "A")
        assert any(ap.planar_dirs for ap in aps)

    def test_planar_disabled(self, design):
        generator = engine_generator(
            design, PaafConfig(check_planar=False)
        )
        aps = gen_for(design, generator, "u0", "A")
        assert all(ap.planar_dirs == [] for ap in aps)

    def test_restricted_coord_types(self, design):
        config = PaafConfig(
            preferred_types=(CoordType.ON_TRACK,),
            non_preferred_types=(CoordType.ON_TRACK,),
        )
        generator = engine_generator(design, config)
        aps = gen_for(design, generator, "u0", "A")
        for ap in aps:
            assert ap.pref_type is CoordType.ON_TRACK
            assert ap.nonpref_type is CoordType.ON_TRACK

    def test_deterministic(self, design):
        g1 = engine_generator(design)
        g2 = engine_generator(design)
        a1 = [(a.x, a.y) for a in gen_for(design, g1, "u0", "A")]
        a2 = [(a.x, a.y) for a in gen_for(design, g2, "u0", "A")]
        assert a1 == a2

    def test_obstructed_pin_gets_no_dirty_aps(self, design, generator):
        # Foreign metal hugging pin Z from above, drawn into the master
        # as an obstruction: the access points must avoid it.
        inst = design.instance("u0")
        engine = DrcEngine(design.tech)

        def dirty(aps):
            ctx = ShapeContext.from_instance(inst)
            return [
                ap
                for ap in aps
                if engine.check_via_placement(
                    design.tech.via(ap.primary_via), ap.x, ap.y,
                    (inst.name, "Z"), ctx,
                )
            ]

        free = gen_for(design, generator, "u0", "Z")
        inst.master.add_obstruction(
            Obstruction("M1", Rect(420, 1040, 630, 1180))
        )
        # The blocker bites: it dirties points chosen without it.
        assert dirty(free)
        aps = gen_for(design, engine_generator(design), "u0", "Z")
        assert aps
        assert dirty(aps) == []


class TestPlanarOnlyAccess:
    def test_macro_planar_only_points_array_equals_engine(self):
        """Macro pins accept planar-only points; the array backend, which
        probes planar stubs only where they can change the answer, must
        still find every one the engine backend does."""
        from repro.bench.pinzoo import build_pinzoo
        from repro.core import PinAccessFramework

        design = build_pinzoo("pinzoo_sram", 1.0)
        results = {
            mode: PinAccessFramework(
                design, PaafConfig(apcheck_mode=mode)
            ).run(use_cache=False)
            for mode in ("array", "engine")
        }
        points = {
            mode: [
                (pin, ap.x, ap.y, ap.valid_vias, ap.planar_dirs)
                for ua in result.unique_accesses
                for pin, aps in ua.aps_by_pin.items()
                for ap in aps
            ]
            for mode, result in results.items()
        }
        assert points["array"] == points["engine"]
        assert any(
            not vias and planar for *_, vias, planar in points["array"]
        )
