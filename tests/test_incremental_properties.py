"""Seeded property: every move of a random sequence equals a fresh run.

An oracle applies random placement moves that never return an
instance home -- one to three sites left or right into free space, a
row change of the same parity (two rows, so the row orientation still
fits), or a macro shift on ispd18_test3.  After every move:

* the published snapshot's pin universe, and every pin's
  ``Snapshot.query`` answer in it, equal -- as do those of a fresh
  ``PinAccessOracle(design)`` -- answers built here from that fresh
  oracle's from-scratch run on the same placement, and
* the oracle's row index yields the row clusters of
  ``Design.row_clusters()`` (all but the macros' singletons), member
  for member and in order.

The profile is small and derandomized, so the suite sees the same
sequences on every run.

Every Step 3 pass of an oracle reads and extends one table of boundary
verdicts, kept across moves; ``TestKeptVerdicts`` checks that no move
leaves an entry stale.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import build_testcase
from repro.core import PaafConfig, PinAccessAnswer, PinAccessOracle
from repro.core.cluster import ClusterPatternSelector, SelectedAccess
from repro.geom.point import Point

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
    """Return a fresh oracle and its run's reference answers.

    The reference, ``(answers, pins_by_inst)``, maps every signal pin
    of every instance to its answer, built here from the run's access
    map and unique accesses, not through ``Snapshot``.
    """
    oracle = PinAccessOracle(design)
    full = oracle.result
    access = full.access_map()
    answers = {}
    pins_by_inst = {}
    for ua in full.unique_accesses:
        ui = ua.unique_instance
        for member in ui.members:
            pins = frozenset(p.name for p in member.master.signal_pins())
            pins_by_inst[member.name] = pins
            dx, dy = ui.translation_to(member)
            for pin_name in pins:
                answers[(member.name, pin_name)] = PinAccessAnswer(
                    instance_name=member.name,
                    pin_name=pin_name,
                    selected=access.get((member.name, pin_name)),
                    alternatives=[
                        ap.translated(dx, dy)
                        for ap in ua.aps_by_pin.get(pin_name, [])
                    ],
                )
    return oracle, (answers, pins_by_inst)


def first_difference(got: dict, want: dict):
    """Return the first key whose entry differs, or None."""
    for key in sorted(set(got) | set(want), key=repr):
        if got.get(key) != want.get(key):
            return key
    return None


def check_session(oracle, design) -> None:
    fresh, (answers, pins_by_inst) = scratch_snapshot(design)
    for name, snap in (
        ("moved", oracle.snapshot),
        ("fresh", fresh.snapshot),
    ):
        assert snap.pins_by_inst == pins_by_inst, name
        got = {
            (inst, pin): snap.query(inst, pin)
            for inst, pins in snap.pins_by_inst.items()
            for pin in pins
        }
        key = first_difference(got, answers)
        assert key is None, f"{name}: answer differs at {key}"
    index = oracle._row_clusters
    names = [[m.name for m in c] for y in sorted(index) for c in index[y]]
    assert names == [
        [m.name for m in c]
        for c in design.row_clusters()
        if design.rows_of(c[0])
    ]


def run_moves(data, design, kinds, first_kind=None, max_moves=3) -> None:
    oracle = PinAccessOracle(design)
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
        oracle.move_instance(name, target.x, target.y)
        assert oracle.snapshot.generation == step + 1
        check_session(oracle, design)


def seeded_moves(oracle, design, seed: int, count: int) -> None:
    """Apply ``count`` legal shift or row moves drawn from ``seed``."""
    rng = random.Random(seed)
    home = {name: inst.location for name, inst in design.instances.items()}
    for _ in range(count):
        moves = legal_moves(design, home)
        kind = rng.choice([k for k in ("shift", "row") if moves[k]])
        name, target = rng.choice(moves[kind])
        oracle.move_instance(name, target.x, target.y)
        check_session(oracle, design)


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
        oracle = PinAccessOracle(design)
        oracle.move_instance("inst_12", 4900, 4760)
        check_session(oracle, design)

    def test_row_move_away_from_cluster_mates(self):
        """Shrunk case: a row change that leaves two cluster-mates behind.

        inst_27 leaves the cluster [inst_27, inst_28, inst_29] for a
        row where it stands alone.  [inst_28, inst_29] holds no moved
        instance, yet lost a member, so Step 3 must re-run it; the
        property found this move when only the moved instance's
        clusters were re-run.
        """
        design = build_testcase(
            "ispd18_test1", scale=0.004, multi_height_fraction=0.1
        )
        oracle = PinAccessOracle(design)
        oracle.move_instance("inst_27", 5600, 7560)
        check_session(oracle, design)

    def test_overlapping_move_splits_a_cluster_it_never_joins(self):
        """A move onto another cell can split a cluster it never joins.

        inst_9 (840 wide) lands on inst_5 (1260 wide) at the same x.
        ``row_chunks`` links each cell to its left neighbor only, so
        [inst_5, inst_6, inst_7, inst_8] becomes [inst_5, inst_9] and
        [inst_6, inst_7, inst_8]: the second cluster never held
        inst_9 or one of its cluster-mates, yet lost inst_5, and
        Step 3 must re-run it too.
        """
        design = build_testcase("ispd18_test1", scale=0.004)
        oracle = PinAccessOracle(design)
        oracle.move_instance("inst_9", 5600, 560)
        check_session(oracle, design)


class TestKeptVerdicts:
    """The framework selector's boundary verdicts hold for every placement.

    The table memoises the kernels' verdicts in every mode, so
    ``verify`` mode cross-checks a verdict only the first time the
    table sees it, as a per-pass memo would.
    """

    def test_kept_verdicts_equal_a_fresh_scan(self):
        """Every adjacent pair of every current cluster, every pattern
        pair: the verdict the oracle kept equals a scan against an
        empty table."""
        design = build_testcase(
            "ispd18_test1", scale=0.004, multi_height_fraction=0.1
        )
        oracle = PinAccessOracle(design)
        seeded_moves(oracle, design, seed=11, count=6)
        framework = oracle.framework
        fresh = ClusterPatternSelector(
            design,
            framework.config,
            kernel=framework.kernel,
            akernel=framework.akernel,
        )

        def candidates(inst):
            held = oracle.snapshot.selection[inst.name]
            ua, dx, dy = held.unique_access, held.dx, held.dy
            signature = ua.unique_instance.signature
            return [
                SelectedAccess(
                    inst=inst, pattern=p, dx=dx, dy=dy,
                    key=(signature, ordinal),
                )
                for ordinal, p in enumerate(ua.patterns)
            ]

        for cluster in design.row_clusters():
            for left, right in zip(cluster, cluster[1:]):
                for a in candidates(left):
                    for b in candidates(right):
                        fresh._boundary_conflicts(a, b)
        scanned = fresh.verdicts
        held = framework.selector.verdicts
        kept = {key: held[key] for key in scanned if key in held}
        assert len(kept) > len(scanned) // 2
        assert kept == {key: scanned[key] for key in kept}

    def test_verify_mode_moves_match_a_fresh_run(self):
        """Both kernels cross-check their verdicts while an oracle moves
        cells: no mismatch is raised, and every move's answers equal a
        from-scratch run."""
        design = build_testcase(
            "ispd18_test1", scale=0.004, multi_height_fraction=0.1
        )
        config = PaafConfig(apcheck_mode="verify", paircheck_mode="verify")
        oracle = PinAccessOracle(design, config)
        verdicts = oracle.framework.selector.verdicts
        held = len(verdicts)
        seeded_moves(oracle, design, seed=5, count=3)
        # The moves met adjacencies the analysis never saw, so verify
        # mode cross-checked verdicts first computed on a move.
        assert len(verdicts) > held
