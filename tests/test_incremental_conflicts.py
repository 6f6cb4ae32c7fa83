"""Incremental analysis: conflict bookkeeping across edits."""

import pytest

from repro.bench import build_testcase
from repro.core import PaafConfig, PinAccessFramework, evaluate_failed_pins
from repro.core.incremental import IncrementalPinAccess
from repro.geom.point import Point

from tests.conftest import make_simple_design


@pytest.fixture
def design(n45):
    # Three abutting cells in one row plus one isolated.
    d = make_simple_design(n45, num_instances=3)
    return d


class TestConflictTracking:
    def test_initial_conflicts_match_framework(self, design):
        inc = IncrementalPinAccess(design)
        inc.analyze()
        full = PinAccessFramework(design).run()
        assert sorted(inc.conflicts()) == sorted(full.selection.conflicts)

    def test_moving_away_clears_abutment(self, design, n45):
        inc = IncrementalPinAccess(design)
        inc.analyze()
        # Pull the middle cell out of the cluster; everything stays
        # clean and the access map tracks the move.
        u1 = design.instance("u1")
        inc.move_instance("u1", Point(9800, 1400))
        assert u1.location == Point(9800, 1400)
        assert evaluate_failed_pins(design, inc.access_map()) == []
        moved = inc.access_map()[("u1", "A")]
        assert 9800 <= moved.x <= 9800 + u1.bbox.width

    def test_move_back_and_forth_stable(self, design):
        inc = IncrementalPinAccess(design)
        inc.analyze()
        original_map = {
            k: (ap.x, ap.y) for k, ap in inc.access_map().items()
        }
        u1 = design.instance("u1")
        origin = u1.location
        inc.move_instance("u1", Point(9800, 1400))
        inc.move_instance("u1", origin)
        back_map = {k: (ap.x, ap.y) for k, ap in inc.access_map().items()}
        assert back_map == original_map

    def test_unknown_instance_raises(self, design):
        inc = IncrementalPinAccess(design)
        inc.analyze()
        with pytest.raises(KeyError):
            inc.move_instance("ghost", Point(0, 0))

    def test_last_update_seconds_recorded(self, design):
        inc = IncrementalPinAccess(design)
        inc.analyze()
        assert inc.last_update_seconds == 0.0
        inc.move_instance("u2", Point(9800, 1400))
        assert inc.last_update_seconds > 0.0

    def test_new_signature_analyzed_on_demand(self, design, n45):
        inc = IncrementalPinAccess(design)
        inc.analyze()
        before = len(inc._ua_by_signature)
        # Move by a non-multiple of the upper-layer pitch: new offsets,
        # new signature class.
        inc.move_instance("u2", Point(9800 + 140, 1400))
        assert len(inc._ua_by_signature) >= before
        assert evaluate_failed_pins(design, inc.access_map()) == []

    def test_conflicts_follow_moves_without_bca(self):
        # Without BCA residual conflicts survive Step 3; moving the
        # cells involved must drop their old conflicts and record the
        # new ones exactly as a from-scratch run does.
        design = build_testcase("ispd18_test1", scale=0.01)
        config = PaafConfig().without_bca()
        inc = IncrementalPinAccess(design, config)
        inc.analyze()
        involved = sorted({c[0] for c in inc.conflicts()})[:4]
        assert involved
        site = design.tech.site_width
        for name in involved:
            home = design.instance(name).location
            for location in (Point(home.x + site, home.y), home):
                inc.move_instance(name, location)
                full = PinAccessFramework(design, config).run()
                assert sorted(inc.conflicts()) == sorted(
                    full.selection.conflicts
                )
                assert inc.access_map() == full.access_map()
