"""Equivalence tests: the pair kernel versus the DrcEngine oracle.

The kernel's whole claim is term-by-term equivalence with
``DrcEngine.check_via_pair`` for every via combination and every
displacement.  This suite sweeps that claim property-style: for each
ordered via pair of each node preset (including ``same_net=True``) it
probes a deterministic boundary-critical displacement set derived from
the table's quick-reject window -- corners, edges, center, just inside
and just outside -- plus seeded random displacements, and demands the
table verdict match the engine exactly.

Set ``REPRO_PAIRKERNEL_SWEEP`` to raise the random probe count per
combination (CI uses a larger value than the local default).
"""

import hashlib
import os
import random

import pytest

from repro.core.apgen import AccessPoint
from repro.core.arraykernel import ArrayKernel
from repro.core.config import PaafConfig
from repro.core.coords import CoordType
from repro.core.framework import PinAccessFramework
from repro.core.patterngen import AccessPatternGenerator
from repro.drc import pairkernel
from repro.drc.disptable import CUT, DisplacementTable, VerifiedTable
from repro.drc.engine import DrcEngine
from repro.drc.pairkernel import (
    PAIRCHECK_MODES,
    EnginePairVerdict,
    PairCheckMismatch,
    PairKernel,
    build_pair_table,
)
from repro.obs.metrics import collecting
from tests.conftest import make_simple_design

# Random displacements per via combination, on top of the ~26
# deterministic boundary-critical probes.
SWEEP = int(os.environ.get("REPRO_PAIRKERNEL_SWEEP", "4"))

# sha256 over every (window, sorted tests) pair table of N45, N32 and
# N14 -- see TestEquivalence.test_compiled_tables_are_pinned.
PAIR_TABLES_SHA256 = (
    "f8a53f1aac060c273402c824a701d8f79dbb9a5f1f7fed94df1c9d6b27d7ec75"
)


def _probes(table: DisplacementTable, rng: random.Random, extra: int) -> list:
    """Boundary-critical + random displacements for one table."""
    if table.window is None:
        # The combination never violates; a handful of spot checks
        # proves the engine agrees.
        return [(0, 0), (7, -3), (-150, 260), (1000, -1000)]
    xlo, xhi, ylo, yhi = table.window
    xs = (xlo - 1, xlo, (xlo + xhi) // 2, xhi, xhi + 1)
    ys = (ylo - 1, ylo, (ylo + yhi) // 2, yhi, yhi + 1)
    probes = [(x, y) for x in xs for y in ys]
    probes.append((0, 0))
    for _ in range(extra):
        probes.append((
            rng.randint(xlo - 20, xhi + 20),
            rng.randint(ylo - 20, yhi + 20),
        ))
    return probes


def _sweep_node(tech) -> int:
    """Assert kernel == engine over every combination; return #probes."""
    engine = DrcEngine(tech)
    rng = random.Random(20200720)  # DAC'20 -- deterministic sweep
    names = [via.name for via in tech.vias]
    checked = 0
    for name_a in names:
        via_a = tech.via(name_a)
        for name_b in names:
            via_b = tech.via(name_b)
            for same_net in (False, True):
                table = build_pair_table(tech, via_a, via_b, same_net)
                for dx, dy in _probes(table, rng, SWEEP):
                    expected = not engine.check_via_pair(
                        via_a, (0, 0), via_b, (dx, dy), same_net=same_net
                    )
                    got = table.clean(dx, dy)
                    assert got == expected, (
                        f"{name_a} vs {name_b} same_net={same_net} "
                        f"at d=({dx}, {dy}): kernel="
                        f"{'clean' if got else 'dirty'}, engine="
                        f"{'clean' if expected else 'dirty'}"
                    )
                    checked += 1
    return checked


class TestEquivalence:
    def test_n45_every_pair_matches_engine(self, n45):
        assert _sweep_node(n45) > 0

    def test_n32_every_pair_matches_engine(self, n32):
        assert _sweep_node(n32) > 0

    def test_n14_every_pair_matches_engine(self, n14):
        assert _sweep_node(n14) > 0

    def test_translation_invariance_against_absolute_engine(self, n45):
        """The same displacement at shifted origins keeps the verdict."""
        engine = DrcEngine(n45)
        via = n45.via("V12_P")
        table = build_pair_table(n45, via, via, False)
        xlo, xhi, ylo, yhi = table.window
        rng = random.Random(7)
        for _ in range(8 + SWEEP):
            dx = rng.randint(xlo - 10, xhi + 10)
            dy = rng.randint(ylo - 10, yhi + 10)
            ox = rng.randint(-50000, 50000)
            oy = rng.randint(-50000, 50000)
            expected = not engine.check_via_pair(
                via, (ox, oy), via, (ox + dx, oy + dy)
            )
            assert table.clean(dx, dy) == expected

    def test_compiled_tables_are_pinned(self, n45, n32, n14):
        """Every compiled window and test set matches the pinned digest.

        The sweeps above sample verdicts; this pins the compiled form
        itself -- each table's quick-reject window and its test records
        (order-free) -- for every ordered via pair of every node preset.
        """
        digest = hashlib.sha256()
        for tech in (n45, n32, n14):
            for via_a in tech.vias:
                for via_b in tech.vias:
                    for same_net in (False, True):
                        table = build_pair_table(tech, via_a, via_b, same_net)
                        digest.update(repr((
                            tech.name, via_a.name, via_b.name, same_net,
                            table.window, sorted(table.tests, key=repr),
                        )).encode())
        assert digest.hexdigest() == PAIR_TABLES_SHA256

    def test_same_net_tables_hold_only_cut_tests(self, n45):
        """Same-net pairs skip metal/EOL; only the cut check remains."""
        for via_a in n45.vias:
            for via_b in n45.vias:
                table = build_pair_table(n45, via_a, via_b, True)
                assert all(test[0] == CUT for test in table.tests)


class TestModes:
    def test_modes_tuple(self):
        assert PAIRCHECK_MODES == ("kernel", "engine", "verify")

    def test_invalid_mode_rejected(self, n45):
        with pytest.raises(ValueError):
            PairKernel(n45, mode="bogus")
        with pytest.raises(ValueError):
            PaafConfig(paircheck_mode="bogus")

    def test_engine_mode_builds_no_tables(self, n45, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("engine mode consulted a compiled table")

        # Engine mode neither compiles a table nor probes one.
        monkeypatch.setattr(pairkernel, "build_pair_table", refuse)
        monkeypatch.setattr(DisplacementTable, "clean", refuse)
        kernel = PairKernel(n45, mode="engine")
        # Same displacement the engine suite pins as clean / dirty.
        assert kernel.pair_clean("V12_P", 0, 0, "V12_P", 0, 290)
        assert not kernel.pair_clean("V12_P", 0, 0, "V12_P", 0, 140)
        verdict = kernel.table("V12_P", "V12_P")
        assert isinstance(verdict, EnginePairVerdict)
        assert kernel.stats()["pairkernel.built"] == 0

    def test_verify_mode_passes_end_to_end(self, n45):
        kernel = PairKernel(n45, mode="verify")
        verdict = kernel.table("V12_P", "V12_S")
        assert isinstance(verdict, VerifiedTable)
        rng = random.Random(11)
        xlo, xhi, ylo, yhi = verdict.table.window
        for _ in range(16 + SWEEP):
            dx = rng.randint(xlo - 10, xhi + 10)
            dy = rng.randint(ylo - 10, yhi + 10)
            kernel.pair_clean("V12_P", 100, 200, "V12_S", 100 + dx, 200 + dy)

    def test_verify_mode_raises_on_divergence(self, n45):
        kernel = PairKernel(n45, mode="verify")
        # Poison the compiled table the verdict wraps: an empty table
        # claims every displacement is clean, which the engine refutes
        # at d=(0, 140).
        verdict = kernel.table("V12_P", "V12_P")
        verdict.table = DisplacementTable(None, (), ())
        with pytest.raises(PairCheckMismatch):
            kernel.pair_clean("V12_P", 0, 0, "V12_P", 0, 140)

    def test_every_combination_builds_once(self, n45):
        kernel = PairKernel(n45)
        names = [via.name for via in n45.vias]
        expected = 2 * len(names) ** 2
        for _ in range(2):
            # The second pass hits the cache; nothing new is built.
            for name_a in names:
                for name_b in names:
                    kernel.table(name_a, name_b, False)
                    kernel.table(name_a, name_b, True)
            assert len(kernel.tables) == expected
            assert kernel.stats()["pairkernel.built"] == expected

    def test_stats_shape(self, n45):
        kernel = PairKernel(n45)
        kernel.table("V12_P", "V12_P")
        stats = kernel.stats()
        assert stats == {
            "pairkernel.mode": "kernel",
            "pairkernel.built": 1,
        }


def _ap(x, y, vias=("V12_P",)):
    return AccessPoint(
        x=x, y=y, layer_name="M1",
        pref_type=CoordType(0), nonpref_type=CoordType(0),
        valid_vias=list(vias), planar_dirs=["E"] if not vias else [],
    )


class _ExplodingKernel:
    def pair_clean(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("kernel consulted for a planar pair")


class TestShortCircuit:
    def test_planar_pairs_never_reach_the_kernel(self, n45):
        generator = AccessPatternGenerator(
            n45, DrcEngine(n45),
            kernel=_ExplodingKernel(),
            akernel=ArrayKernel(make_simple_design(n45)),
        )
        planar = _ap(0, 0, vias=())
        via_ap = _ap(400, 0)
        with collecting() as prof:
            assert generator.aps_compatible(planar, via_ap)
            assert generator.aps_compatible(via_ap, planar)
            assert generator.aps_compatible(planar, planar)
        assert prof.counters["pairkernel.query"] == 0


class TestEndToEndModes:
    def _access_snapshot(self, node, mode):
        design = make_simple_design(node, num_instances=3)
        config = PaafConfig(paircheck_mode=mode)
        result = PinAccessFramework(design, config).run()
        snapshot = {
            key: (ap.x, ap.y, ap.primary_via)
            for key, ap in result.access_map().items()
        }
        return snapshot, result

    def test_modes_are_bit_identical(self, n45):
        reference, ref_result = self._access_snapshot(n45, "engine")
        assert reference  # the design produces real access
        for mode in ("kernel", "verify"):
            snapshot, result = self._access_snapshot(n45, mode)
            assert snapshot == reference
            assert result.stats["pairkernel.mode"] == mode

    def test_kernel_stats_reported(self, n45):
        _, result = self._access_snapshot(n45, "kernel")
        # Tables compile on first use: the stats count what the run built.
        built = result.stats["pairkernel.built"]
        assert 0 < built < 2 * len(n45.vias) ** 2
        assert "pairkernel.tables" not in result.stats
