"""Seeded property: every move of a random sequence equals a fresh run.

A daemon session applies random placement moves that never return an
instance home -- one to three sites left or right into free space, a
row change of the same parity (two rows, so the row orientation still
fits), or a macro shift on ispd18_test3.  After every move:

* the published snapshot's ``access``, ``alternatives`` and
  ``pins_by_inst`` equal those of a from-scratch
  ``PinAccessFramework(design).run()`` on the same placement, and
* the incremental row index yields ``Design.row_clusters()``, member
  for member and in order.

The profile is small and derandomized, so the suite sees the same
sequences on every run.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import build_testcase
from repro.core import PinAccessFramework
from repro.geom.point import Point
from repro.serve import DesignSession

PROFILE = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def site_cells(design, inst, location) -> list:
    """Return the (x, y) of every site ``inst`` covers at ``location``."""
    site_w, site_h = design.tech.site_width, design.tech.site_height
    box = inst.bbox
    dx, dy = location.x - inst.location.x, location.y - inst.location.y
    return [
        (x, y)
        for x in range(box.xlo + dx, box.xhi + dx, site_w)
        for y in range(box.ylo + dy, box.yhi + dy, site_h)
    ]


def legal_moves(design, home: dict) -> dict:
    """Return move kind -> ``[(instance name, target)]`` of legal moves.

    A target is legal when every site it covers lies in a row and is
    free (or the moving instance's own), and it is not the instance's
    ``home`` placement.
    """
    site_w, site_h = design.tech.site_width, design.tech.site_height
    sites = {
        (row.origin.x + k * site_w, row.origin.y)
        for row in design.rows
        for k in range(row.count)
    }
    owner = {}
    for inst in design.instances.values():
        for cell in site_cells(design, inst, inst.location):
            owner[cell] = inst.name

    def free(inst, target):
        return target != home[inst.name] and all(
            cell in sites and owner.get(cell, inst.name) == inst.name
            for cell in site_cells(design, inst, target)
        )

    moves = {"shift": [], "row": [], "macro": []}
    for inst in design.instances.values():
        x, y = inst.location.x, inst.location.y
        shifts = [
            Point(x + k * site_w, y) for k in (-3, -2, -1, 1, 2, 3)
        ]
        if inst.master.is_macro:
            moves["macro"].extend(
                (inst.name, t) for t in shifts if free(inst, t)
            )
            continue
        moves["shift"].extend((inst.name, t) for t in shifts if free(inst, t))
        moves["row"].extend(
            (inst.name, t)
            for t in (Point(x, y - 2 * site_h), Point(x, y + 2 * site_h))
            if free(inst, t)
        )
    return moves


def scratch_snapshot(design) -> tuple:
    """Return a fresh run's ``(access, alternatives, pins_by_inst)``."""
    full = PinAccessFramework(design).run()
    alternatives = {}
    pins_by_inst = {}
    for ua in full.unique_accesses:
        ui = ua.unique_instance
        for member in ui.members:
            pins = frozenset(p.name for p in member.master.signal_pins())
            pins_by_inst[member.name] = pins
            dx, dy = ui.translation_to(member)
            for pin_name, aps in ua.aps_by_pin.items():
                if pin_name in pins:
                    alternatives[(member.name, pin_name)] = [
                        ap.translated(dx, dy) for ap in aps
                    ]
    return full.access_map(), alternatives, pins_by_inst


def first_difference(got: dict, want: dict):
    """Return the first key whose entry differs, or None."""
    for key in sorted(set(got) | set(want), key=repr):
        if got.get(key) != want.get(key):
            return key
    return None


def check_session(session, design) -> None:
    snap = session.snapshot
    access, alternatives, pins_by_inst = scratch_snapshot(design)
    key = first_difference(snap.access, access)
    assert key is None, f"access differs at {key}"
    key = first_difference(snap.alternatives, alternatives)
    assert key is None, f"alternatives differ at {key}"
    assert snap.pins_by_inst == pins_by_inst
    names = [[m.name for m in c] for c in session.inc.clusters()]
    assert names == [[m.name for m in c] for c in design.row_clusters()]


def run_moves(data, design, kinds, first_kind=None, max_moves=3) -> None:
    session = DesignSession("prop", design)
    home = {name: inst.location for name, inst in design.instances.items()}
    for step in range(data.draw(st.integers(1, max_moves), label="moves")):
        moves = legal_moves(design, home)
        if step == 0 and first_kind is not None:
            kind = first_kind
        else:
            kind = data.draw(
                st.sampled_from([k for k in kinds if moves[k]]), label="kind"
            )
        name, target = data.draw(st.sampled_from(moves[kind]), label="move")
        session.move_instance(name, target.x, target.y)
        assert session.snapshot.generation == step + 1
        check_session(session, design)


class TestMoveSequences:
    @settings(PROFILE, max_examples=5)
    @given(st.data())
    def test_moves_on_test1_s004(self, data):
        design = build_testcase(
            "ispd18_test1", scale=0.004, multi_height_fraction=0.1
        )
        run_moves(data, design, ("shift", "row"))

    @settings(PROFILE, max_examples=4)
    @given(st.data())
    def test_moves_on_test1_s008(self, data):
        design = build_testcase(
            "ispd18_test1", scale=0.008, multi_height_fraction=0.1
        )
        run_moves(data, design, ("shift", "row"))

    @settings(PROFILE, max_examples=2)
    @given(st.data())
    def test_macro_moves_on_test3(self, data):
        design = build_testcase("ispd18_test3", scale=0.004)
        run_moves(
            data, design, ("shift", "row", "macro"), first_kind="macro",
            max_moves=2,
        )

    def test_row_move_beside_double_height(self):
        """Shrunk case: a row change into rows double-height cells span.

        Step 3 must re-run the clusters those cells join in their other
        rows too; the property found this move when that walk was cut.
        """
        design = build_testcase(
            "ispd18_test1", scale=0.008, multi_height_fraction=0.1
        )
        session = DesignSession("prop", design)
        session.move_instance("inst_12", 4900, 4760)
        check_session(session, design)
