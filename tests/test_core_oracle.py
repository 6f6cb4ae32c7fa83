"""Tests for the pin access oracle facade."""

import pytest

from repro.core.oracle import PinAccessOracle

from tests.conftest import make_simple_design


@pytest.fixture(scope="module")
def oracle():
    import repro.tech as tech

    design = make_simple_design(tech.make_n45(), num_instances=3)
    return PinAccessOracle(design), design


class TestQuery:
    def test_selected_matches_access_map(self, oracle):
        orc, design = oracle
        answer = orc.query("u0", "A")
        assert answer.accessible
        assert answer.selected is not None
        amap = orc.result.access_map()
        assert (answer.selected.x, answer.selected.y) == (
            amap[("u0", "A")].x,
            amap[("u0", "A")].y,
        )

    def test_alternatives_in_cost_order_and_translated(self, oracle):
        orc, design = oracle
        answer = orc.query("u2", "Z")
        assert answer.alternatives
        inst = design.instance("u2")
        for ap in answer.alternatives:
            assert inst.bbox.xlo <= ap.x <= inst.bbox.xhi
        costs = [ap.cost for ap in answer.alternatives]
        # Generation order is the coordinate ladder: the non-preferred
        # type (dominant cost term) never decreases.
        t1s = [int(ap.nonpref_type) for ap in answer.alternatives]
        assert t1s == sorted(t1s)

    def test_selected_is_among_alternatives(self, oracle):
        orc, _ = oracle
        answer = orc.query("u1", "A")
        positions = {(ap.x, ap.y) for ap in answer.alternatives}
        assert (answer.selected.x, answer.selected.y) in positions

    def test_unknown_pin_answers_inaccessible(self, oracle):
        orc, _ = oracle
        answer = orc.query("u0", "NOPE")
        assert not answer.accessible
        assert answer.alternatives == []

    def test_unknown_instance_raises(self, oracle):
        orc, _ = oracle
        with pytest.raises(KeyError):
            orc.query("ghost", "A")

    def test_accessible_fraction_full(self, oracle):
        orc, _ = oracle
        assert orc.accessible_fraction() == 1.0


def test_answer_is_never_torn_by_a_later_edit():
    """An edit the oracle never analyzed changes none of its answers.

    u2 shares u0's unique instance without being its representative.
    Moving it in the design, with no re-analysis, must leave its
    answer whole: the selected point and the alternatives both belong
    to the analyzed placement, so the one is among the other.
    """
    import repro.tech as tech
    from repro.geom.point import Point

    design = make_simple_design(tech.make_n45(), num_instances=3)
    orc = PinAccessOracle(design)
    before = orc.query("u2", "A")
    u2 = design.instance("u2")
    u2.location = Point(
        u2.location.x + 10 * design.tech.site_width, u2.location.y
    )
    answer = orc.query("u2", "A")
    positions = {(ap.x, ap.y) for ap in answer.alternatives}
    assert (answer.selected.x, answer.selected.y) in positions
    assert answer == before
