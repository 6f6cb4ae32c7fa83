"""Incremental analysis: conflict bookkeeping across edits."""

import pytest

from repro.bench import build_testcase
from repro.core import (
    PaafConfig,
    PinAccessFramework,
    PinAccessOracle,
    evaluate_failed_pins,
)
from repro.geom.point import Point

from tests.conftest import make_simple_design


@pytest.fixture
def design(n45):
    # Three abutting cells in one row plus one isolated.
    d = make_simple_design(n45, num_instances=3)
    return d


class TestConflictTracking:
    def test_initial_conflicts_match_framework(self, design):
        oracle = PinAccessOracle(design)
        full = PinAccessFramework(design).run()
        assert sorted(oracle.snapshot.conflicts) == sorted(
            full.selection.conflicts
        )

    def test_moving_away_clears_abutment(self, design, n45):
        oracle = PinAccessOracle(design)
        # Pull the middle cell out of the cluster; everything stays
        # clean and the access map tracks the move.
        u1 = design.instance("u1")
        oracle.move_instance("u1", 9800, 1400)
        assert u1.location == Point(9800, 1400)
        assert evaluate_failed_pins(design, oracle.snapshot.access_map()) == []
        moved = oracle.snapshot.access_map()[("u1", "A")]
        assert 9800 <= moved.x <= 9800 + u1.bbox.width

    def test_move_back_and_forth_stable(self, design):
        oracle = PinAccessOracle(design)
        original_map = {
            k: (ap.x, ap.y) for k, ap in oracle.snapshot.access_map().items()
        }
        u1 = design.instance("u1")
        origin = u1.location
        oracle.move_instance("u1", 9800, 1400)
        oracle.move_instance("u1", origin.x, origin.y)
        back_map = {
            k: (ap.x, ap.y) for k, ap in oracle.snapshot.access_map().items()
        }
        assert back_map == original_map

    def test_unknown_instance_raises(self, design):
        oracle = PinAccessOracle(design)
        with pytest.raises(KeyError):
            oracle.move_instance("ghost", 0, 0)

    def test_last_update_seconds_recorded(self, design):
        oracle = PinAccessOracle(design)
        assert oracle.last_update_seconds == 0.0
        oracle.move_instance("u2", 9800, 1400)
        assert oracle.last_update_seconds > 0.0

    def test_new_signature_analyzed_on_demand(self, design, n45):
        oracle = PinAccessOracle(design)
        before = len(oracle._ua_by_signature)
        # Move by a non-multiple of the upper-layer pitch: new offsets,
        # new signature class.
        oracle.move_instance("u2", 9800 + 140, 1400)
        assert len(oracle._ua_by_signature) >= before
        assert evaluate_failed_pins(design, oracle.snapshot.access_map()) == []

    def test_conflicts_follow_moves_without_bca(self):
        # Without BCA residual conflicts survive Step 3; moving the
        # cells involved must drop their old conflicts and record the
        # new ones exactly as a from-scratch run does.
        design = build_testcase("ispd18_test1", scale=0.01)
        config = PaafConfig().without_bca()
        oracle = PinAccessOracle(design, config)
        involved = sorted({c[0] for c in oracle.snapshot.conflicts})[:4]
        assert involved
        site = design.tech.site_width
        for name in involved:
            home = design.instance(name).location
            for location in (Point(home.x + site, home.y), home):
                oracle.move_instance(name, location.x, location.y)
                full = PinAccessFramework(design, config).run()
                assert sorted(oracle.snapshot.conflicts) == sorted(
                    full.selection.conflicts
                )
                assert oracle.snapshot.access_map() == full.access_map()
