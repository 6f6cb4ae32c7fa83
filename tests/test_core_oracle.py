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


# Two BURIED cells (every signal pin under an obstruction, so their
# unique instance has no access pattern) of one signature, b2 not its
# representative, in one cluster with an AND2 between them.
BURIED_DEF = """
VERSION 5.8 ;
DESIGN buried ;
UNITS DISTANCE MICRONS 2000 ;
DIEAREA ( 0 0 ) ( 10000 10000 ) ;

ROW r0 core 0 0 N DO 25 BY 1 STEP 400 0 ;

TRACKS Y 200 DO 25 STEP 400 LAYER metal1 ;
TRACKS X 200 DO 25 STEP 400 LAYER metal2 ;

COMPONENTS 3 ;
- b1 BURIED + PLACED ( 2000 0 ) N ;
- a1 AND2 + PLACED ( 3200 0 ) N ;
- b2 BURIED + PLACED ( 4400 0 ) N ;
END COMPONENTS

NETS 3 ;
- n1 ( b1 B ) ;
- n2 ( a1 A ) ;
- n3 ( b2 B ) ;
END NETS

END DESIGN
"""


class TestPatternlessInstance:
    """An instance whose unique access has no pattern still answers.

    Its selection carries ``pattern`` None with its unique access and
    real offset, and each of its pins answers inaccessible, with no
    alternatives, in process and over the wire, before and after a
    move of the instance.
    """

    def test_buried_cells_answer_inaccessible(self, tmp_path):
        from repro.lefdef import parse_def, parse_lef
        from repro.serve import OracleClient, OracleServer
        from repro.serve.protocol import answer_to_wire

        from tests.test_core_arraykernel import HOSTILE_LEF

        tech, masters = parse_lef(HOSTILE_LEF, name="hostile")
        design = parse_def(BURIED_DEF, tech, masters)
        assert [[m.name for m in c] for c in design.row_clusters()] == [
            ["b1", "a1", "b2"]
        ]
        orc = PinAccessOracle(design)
        sock = str(tmp_path / "pao.sock")
        server = OracleServer(("unix", sock), sessions={"buried": orc})
        server.start()

        def check(client, generation):
            snap = orc.snapshot
            assert snap.generation == generation
            for name in ("b1", "b2"):
                selected = snap.selection[name]
                assert selected.pattern is None
                assert selected.unique_access.patterns == []
                assert selected.unique_access.aps_by_pin == {"B": []}
                # b1, at x = 2000, represents the signature.
                x = design.instance(name).location.x
                assert (selected.dx, selected.dy) == (x - 2000, 0)
                answer = orc.query(name, "B", strict=True)
                assert not answer.accessible
                assert answer.selected is None
                assert answer.alternatives == []
                wire = client.query(name, "B")
                assert wire == answer_to_wire(answer, generation)
            assert orc.query("a1", "A").accessible

        try:
            with OracleClient(("unix", sock)) as client:
                check(client, 0)
                client.move_instance("b2", 4800, 0)
                check(client, 1)
        finally:
            server.stop()
