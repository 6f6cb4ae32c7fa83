"""Coverage of smaller behaviors across packages."""

import pytest

from repro.bench import build_testcase
from repro.core import PinAccessFramework, PinAccessOracle
from repro.core.cluster import interaction_window
from repro.drc.violations import Violation
from repro.geom.rect import Rect
from repro.lefdef import parse_def, parse_lef, write_def, write_lef
from repro.lefdef.def_parser import DefParseError
from repro.viz import render_pin_access

from tests.conftest import one_site_moves


class TestInteractionWindow:
    def test_window_covers_via_reach_plus_rules(self, n45):
        window = interaction_window(n45)
        via = n45.primary_via_from("M1")
        assert window >= via.bottom_enc.xhi + n45.layer("M1").min_spacing
        # Sane upper bound: a few pitches.
        assert window <= 6 * n45.layer("M1").pitch


class TestViolationStr:
    def test_str_with_objects(self):
        v = Violation("metal-short", "M1", Rect(0, 0, 5, 5), ("a", "b"))
        text = str(v)
        assert "metal-short" in text and "a, b" in text

    def test_str_without_objects(self):
        v = Violation("min-area", "M2", Rect(0, 0, 5, 5))
        assert "between" not in str(v)


class TestDefParserErrors:
    def test_truncated_def(self, n45):
        with pytest.raises(DefParseError):
            parse_def("DESIGN x ;\nCOMPONENTS 1 ;\n- u1", n45, [])

    def test_component_count_not_enforced_but_masters_are(self, n45):
        text = (
            "DESIGN x ;\n"
            f"UNITS DISTANCE MICRONS {n45.dbu_per_micron} ;\n"
            "COMPONENTS 1 ;\n"
            "- u1 GHOST + PLACED ( 0 0 ) N ;\n"
            "END COMPONENTS\n"
            "END DESIGN\n"
        )
        with pytest.raises(DefParseError):
            parse_def(text, n45, [])


class TestMultiHeightIntegrations:
    @pytest.fixture(scope="class")
    def mh_design(self):
        return build_testcase(
            "ispd18_test1", scale=0.008, multi_height_fraction=0.1
        )

    def test_incremental_on_multiheight_design(self, mh_design):
        """Each move and move back equals a from-scratch analysis.

        Single-height cells sharing a row with a double-height cell
        move one site and back; after every edit the incremental access
        map and conflicts equal ``run()`` on the edited placement.
        """
        oracle = PinAccessOracle(mh_design)
        moves = one_site_moves(mh_design)
        assert len(moves) >= 20
        for inst, target in moves:
            for location in (target, inst.location):
                oracle.move_instance(inst.name, location.x, location.y)
                full = PinAccessFramework(mh_design).run()
                snap = oracle.snapshot
                assert snap.access_map() == full.access_map(), inst.name
                assert sorted(snap.conflicts) == sorted(
                    full.selection.conflicts
                ), inst.name

    def test_viz_renders_multiheight(self, mh_design):
        result = PinAccessFramework(mh_design).run()
        svg = render_pin_access(mh_design, result.access_map())
        assert svg.count("<rect") > 20
        assert "_2H" in svg  # double-height master named in titles

    def test_lefdef_roundtrip_multiheight(self, mh_design):
        lef = write_lef(
            mh_design.tech, list(mh_design.masters.values())
        )
        tech, masters = parse_lef(lef, name=mh_design.tech.name)
        back = parse_def(write_def(mh_design), tech, masters)
        assert back.stats() == mh_design.stats()
        doubles = [
            m for m in back.masters.values() if m.name.endswith("_2H")
        ]
        assert doubles
        assert all(m.height == 2 * tech.site_height for m in doubles)


class TestScaleMonotonicity:
    def test_counts_scale_proportionally(self):
        small = build_testcase("ispd18_test1", scale=0.004)
        large = build_testcase("ispd18_test1", scale=0.008)
        assert large.stats()["num_std_cells"] == round(8879 * 0.008)
        assert small.stats()["num_std_cells"] == round(8879 * 0.004)
        assert large.die_area.area > small.die_area.area
