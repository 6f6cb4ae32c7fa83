"""Tests for incremental pin access maintenance."""

import sys
import threading
from collections import Counter

import pytest

from repro.bench import build_testcase
from repro.core import (
    PaafConfig,
    PinAccessFramework,
    PinAccessOracle,
    evaluate_failed_pins,
)
from repro.core.arraykernel import EngineVerdict
from repro.drc.engine import DrcEngine
from repro.geom.point import Point


@pytest.fixture
def design():
    return build_testcase("ispd18_test1", scale=0.01)


def free_site(design, row_y):
    """Find an x where a cell of 6 sites fits with clearance."""
    site_w = design.tech.site_width
    occupied = sorted(
        (i.location.x, i.bbox.xhi)
        for i in design.instances.values()
        if i.location.y == row_y
    )
    x = design.core_origin.x
    for start, end in occupied:
        if start - x >= 10 * site_w:
            return x + 2 * site_w
        x = max(x, end)
    return x + 2 * site_w


class TestIncremental:
    def test_analyze_matches_full(self, design):
        oracle = PinAccessOracle(design)
        full = PinAccessFramework(design).run()
        inc_map = {
            k: (a.x, a.y) for k, a in oracle.snapshot.access_map().items()
        }
        full_map = {k: (a.x, a.y) for k, a in full.access_map().items()}
        assert inc_map == full_map

    def test_move_same_row_stays_clean(self, design):
        oracle = PinAccessOracle(design)
        inst = next(iter(design.instances.values()))
        target = Point(
            free_site(design, inst.location.y), inst.location.y
        )
        oracle.move_instance(inst.name, target.x, target.y)
        failed = evaluate_failed_pins(design, oracle.snapshot.access_map())
        assert failed == []
        # The moved instance's APs follow its new placement.
        moved_ap = oracle.snapshot.access_map()[
            (inst.name, inst.master.signal_pins()[0].name)
        ]
        assert inst.bbox.xlo <= moved_ap.x <= inst.bbox.xhi

    def test_move_matches_full_reanalysis(self, design):
        oracle = PinAccessOracle(design)
        inst = list(design.instances.values())[3]
        target = Point(free_site(design, inst.location.y), inst.location.y)
        oracle.move_instance(inst.name, target.x, target.y)

        # A from-scratch analysis of the mutated design agrees on every
        # pin's accessibility.
        full = PinAccessFramework(design).run()
        inc_failed = set(
            evaluate_failed_pins(design, oracle.snapshot.access_map())
        )
        full_failed = set(evaluate_failed_pins(design, full.access_map()))
        assert inc_failed == full_failed == set()

    def test_move_across_rows(self, design):
        oracle = PinAccessOracle(design)
        rows = sorted({i.location.y for i in design.instances.values()})
        assert len(rows) >= 2
        inst = next(
            i
            for i in design.instances.values()
            if i.location.y == rows[0]
        )
        target = Point(free_site(design, rows[1]), rows[1])
        # Keep the orientation consistent with the row parity by moving
        # two rows when available.
        if len(rows) >= 3:
            target = Point(free_site(design, rows[2]), rows[2])
        oracle.move_instance(inst.name, target.x, target.y)
        failed = evaluate_failed_pins(design, oracle.snapshot.access_map())
        assert failed == []

    def test_cached_signature_reused(self, design):
        oracle = PinAccessOracle(design)
        signatures_before = len(oracle._ua_by_signature)
        inst = next(iter(design.instances.values()))
        # Move by exactly the track LCM: same signature class.
        target = Point(
            free_site(design, inst.location.y), inst.location.y
        )
        oracle.move_instance(inst.name, target.x, target.y)
        # Same-parity move on an aligned design: no new signature
        # unless the upper-layer offsets changed.
        assert len(oracle._ua_by_signature) <= signatures_before + 1

    def test_moved_representative_follows_placement(self, design):
        """Moving a signature class's own representative must move its
        answers.

        Regression test: translations used to be computed against the
        representative's *live* location, so moving the representative
        within its signature class (e.g. by a whole number of sites
        that lands on the same track-offset class) produced a zero
        translation and answers pinned to the old placement.
        """
        oracle = PinAccessOracle(design)
        full0 = PinAccessFramework(design).run()
        # Representatives are the first member of each unique
        # instance: pick one and move it within its own row.
        rep = next(
            ua.unique_instance.representative
            for ua in full0.unique_accesses
        )
        site = design.tech.site_width
        target = Point(rep.location.x + 4 * site, rep.location.y)
        oracle.move_instance(rep.name, target.x, target.y)
        # Every selected AP of the moved instance sits in its new bbox
        # and matches a from-scratch analysis exactly.
        full = PinAccessFramework(design).run()
        full_map = full.access_map()
        for (inst_name, pin_name), ap in (
            oracle.snapshot.access_map().items()
        ):
            if inst_name != rep.name:
                continue
            assert rep.bbox.xlo <= ap.x <= rep.bbox.xhi
            want = full_map[(inst_name, pin_name)]
            assert (ap.x, ap.y) == (want.x, want.y)

    def test_macro_move_matches_full_reanalysis(self):
        # A macro joins no row: its own singleton cluster is re-selected.
        design = build_testcase("ispd18_test3", scale=0.004)
        oracle = PinAccessOracle(design)
        macro = next(
            i for i in design.instances.values() if i.master.is_macro
        )
        site = design.tech.site_width
        target = Point(macro.location.x - 2 * site, macro.location.y)
        oracle.move_instance(macro.name, target.x, target.y)
        full = PinAccessFramework(design).run()
        assert oracle.snapshot.access_map() == full.access_map()

    def test_repeated_moves_stay_consistent(self, design):
        oracle = PinAccessOracle(design)
        insts = list(design.instances.values())[:4]
        for inst in insts:
            target = Point(
                free_site(design, inst.location.y), inst.location.y
            )
            oracle.move_instance(inst.name, target.x, target.y)
            access = oracle.snapshot.access_map()
            assert evaluate_failed_pins(design, access) == []


class TestMovePath:
    """Moves run the framework's Step 1-3 path on the configured backend.

    The moves shift instances by one site and back, so they re-select
    whole clusters (Step 3) and land on new signature classes (Step 1).
    """

    def probe_moves(self, design, monkeypatch, config):
        """Bounce four cells; count engine calls and engine verdicts."""
        oracle = PinAccessOracle(design, config)
        signatures = len(oracle._ua_by_signature)
        calls = Counter()
        for cls, name in (
            (DrcEngine, "check_via_placement"),
            (EngineVerdict, "violations"),
        ):

            def counted(*args, _original=getattr(cls, name), _key=cls, **kw):
                calls[_key] += 1
                return _original(*args, **kw)

            monkeypatch.setattr(cls, name, counted)
        kernel, akernel = oracle.framework.kernel, oracle.framework.akernel
        built = (len(kernel.tables), len(akernel.tables))
        candidates = akernel.candidates
        site = design.tech.site_width
        for inst in list(design.instances.values())[:4]:
            home = inst.location
            oracle.move_instance(inst.name, home.x + site, home.y)
            oracle.move_instance(inst.name, home.x, home.y)
        assert len(oracle._ua_by_signature) > signatures
        # Moves reuse the analysis' kernels: no table is compiled.
        assert (len(kernel.tables), len(akernel.tables)) == built
        return calls, akernel, akernel.candidates - candidates

    def test_default_moves_run_the_array_kernel(self, design, monkeypatch):
        calls, _, candidates = self.probe_moves(
            design, monkeypatch, PaafConfig()
        )
        assert not calls
        assert candidates > 0

    def test_engine_mode_moves_probe_the_engine(self, design, monkeypatch):
        calls, akernel, candidates = self.probe_moves(
            design, monkeypatch, PaafConfig(apcheck_mode="engine")
        )
        # The moves' Step 1 and 3 verdicts are the engine's (memoized by
        # displacement, so they may not need to call it again), and no
        # table was ever compiled for them.
        assert calls[EngineVerdict] > 0
        assert candidates > 0
        verdicts = list(akernel.instance_tables.values()) + [
            verdict
            for tables in akernel.tables.values()
            for verdict in tables.site.values()
        ]
        assert verdicts
        assert all(isinstance(v, EngineVerdict) for v in verdicts)
        assert akernel.stats()["arraykernel.built"] == 0


class TestConcurrentMoves:
    def test_analyzers_in_parallel_threads_stay_exact(self):
        """Moves on separate designs from separate threads -- the
        daemon's sessions -- each run on their own worker state."""
        oracles = [
            PinAccessOracle(build_testcase(name, scale=0.004))
            for name in ("ispd18_test1", "ispd18_test2", "ispd18_test3")
        ]
        errors = []

        def bounce(oracle):
            try:
                site = oracle.design.tech.site_width
                for inst in list(oracle.design.instances.values())[:8]:
                    home = inst.location
                    oracle.move_instance(inst.name, home.x + site, home.y)
                    oracle.move_instance(inst.name, home.x, home.y)
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=bounce, args=(oracle,))
                for oracle in oracles
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for oracle in oracles:
            full = PinAccessFramework(oracle.design).run()
            assert oracle.snapshot.access_map() == full.access_map()
