"""Tests for the jobs knob, the hot-path profiler and Step 3's passes.

``effective_jobs`` sizes the ``repro compare run -j`` process pool.
One analysis runs in one process: Step 3 is one pass of the cluster DP
over every cluster of the design, and a placement move re-runs it over
the clusters of the components the move changed.
"""

import gc

import pytest

from repro.bench import build_testcase
from repro.core import PinAccessFramework, PinAccessOracle
from repro.db.design import row_chunks
from repro.perf.parallel import effective_jobs
from repro.obs.metrics import collecting, tick

from tests.conftest import one_site_moves


def cluster_components(clusters: list) -> list:
    """Group cluster indices into instance-sharing components.

    Two clusters belong to the same component when they share an
    instance (a multi-height cell is a member of every row it covers).
    Components are returned as sorted index lists, ordered by their
    first cluster.  A component may skip indices (clusters 0 and 2),
    so component order is not cluster order.
    """
    parent = list(range(len(clusters)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    owner = {}
    for ci, cluster in enumerate(clusters):
        for inst in cluster:
            prev = owner.get(inst.name)
            if prev is None:
                owner[inst.name] = ci
            else:
                parent[find(ci)] = find(prev)
    components = {}
    for ci in range(len(clusters)):
        components.setdefault(find(ci), []).append(ci)
    return sorted(
        (sorted(members) for members in components.values()),
        key=lambda members: members[0],
    )


class TestParallelMap:
    """``effective_jobs``: the one helper left in ``repro.perf.parallel``."""

    def test_effective_jobs(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(1) == 1
        assert effective_jobs(0) >= 1
        assert effective_jobs(None) >= 1


class TestProfiler:
    def test_tick_inactive_is_noop(self):
        tick("nothing")  # must not raise without an active registry

    def test_profiled_collects_and_restores(self):
        with collecting() as prof:
            tick("test.a")
            tick("test.a", 2)
            with prof.time("test.t"):
                pass
        assert prof.counters["test.a"] == 3
        assert prof.timers["test.t"] >= 0
        tick("test.a")  # deactivated again
        assert prof.counters["test.a"] == 3


def _fingerprint(result):
    """Everything the acceptance criteria compare, as one structure."""
    aps = [
        {
            pin: [(ap.x, ap.y, ap.primary_via, tuple(ap.planar_dirs))
                  for ap in ap_list]
            for pin, ap_list in ua.aps_by_pin.items()
        }
        for ua in result.unique_accesses
    ]
    costs = [[p.cost for p in ua.patterns] for ua in result.unique_accesses]
    access = {
        key: (ap.x, ap.y, ap.primary_via)
        for key, ap in result.access_map().items()
    }
    return {
        "aps": aps,
        "costs": costs,
        "access": access,
        "conflicts": sorted(result.selection.conflicts),
        "total_aps": result.total_access_points,
        "failed": sorted(result.failed_pins()),
    }


@pytest.fixture(scope="module")
def test1():
    return build_testcase("ispd18_test1", scale=0.004)


@pytest.fixture(scope="module")
def mh_design():
    return build_testcase(
        "ispd18_test1", scale=0.008, multi_height_fraction=0.1
    )


class TestFrameworkDeterminism:
    def test_multiheight_components_equivalent(self, mh_design):
        """A pass over one component's clusters is the full pass, cut.

        Moves rely on this: re-running Step 3 over the clusters of one
        component (clusters linked by multi-height cells) gives the
        full pass's selection, selection order and conflicts for that
        component's instances.
        """
        framework = PinAccessFramework(mh_design)
        result = framework.run()
        clusters = mh_design.row_clusters()
        components = cluster_components(clusters)
        assert any(len(component) > 1 for component in components)
        placements = result.placements()
        full = result.selection
        for component in components:
            part = framework.select_patterns(
                [clusters[ci] for ci in component], placements
            )
            names = {inst.name for ci in component for inst in clusters[ci]}
            assert list(part.selection) == [
                name for name in full.selection if name in names
            ]
            assert part.selection == {
                name: sel
                for name, sel in full.selection.items()
                if name in names
            }
            assert part.conflicts == [
                conflict for conflict in full.conflicts
                if conflict[0] in names
            ]

    def test_move_reselects_the_components_it_touched(
        self, mh_design, monkeypatch
    ):
        """A move's Step 3 pass covers exactly the components it changed.

        Its partial selection lists, in cluster order, the instances
        of every component (union-find above) holding the moved
        instance or one of its cluster-mates from before the move --
        not every component with a cluster in a row the move touched.
        """
        oracle = PinAccessOracle(mh_design)
        passes = []
        select = oracle.framework.select_patterns

        def recorded_select(clusters, placements):
            passes.append(select(clusters, placements))
            return passes[-1]

        monkeypatch.setattr(
            oracle.framework, "select_patterns", recorded_select
        )
        walked = narrowed = 0
        for inst, target in one_site_moves(mh_design)[:12]:
            rows = set(mh_design.rows_of(inst))
            mates = {
                member.name
                for cluster in mh_design.row_clusters()
                if any(member is inst for member in cluster)
                for member in cluster
            }
            oracle.move_instance(inst.name, target.x, target.y)
            partial = passes[-1]
            rows.update(mh_design.rows_of(inst))
            clusters = mh_design.row_clusters()
            touched = sorted(
                ci
                for component in cluster_components(clusters)
                if any(
                    member.name in mates
                    for ci in component
                    for member in clusters[ci]
                )
                for ci in component
            )
            expected = list(
                dict.fromkeys(
                    member.name for ci in touched for member in clusters[ci]
                )
            )
            assert list(partial.selection) == expected, inst.name
            walked += any(
                len(mh_design.rows_of(mh_design.instance(name))) > 1
                for name in expected
            )
            by_row, _ = mh_design.row_members()
            in_rows = sum(len(row_chunks(by_row[y])) for y in rows)
            narrowed += len(touched) < in_rows
        assert walked
        assert narrowed

    def test_rerun_after_gc_equals_a_fresh_framework(self, mh_design):
        """A framework's second run answers from the verdicts it kept.

        The first result is dropped and collected before the second
        run, so the patterns behind the kept verdicts are gone: the
        table must name them by value.
        """
        framework = PinAccessFramework(mh_design)
        framework.run()
        gc.collect()
        held = len(framework.selector.verdicts)
        second = framework.run()
        assert len(framework.selector.verdicts) == held
        assert (
            second.fingerprint()
            == PinAccessFramework(mh_design).run().fingerprint()
        )

    def test_timings_and_stats_populated(self, test1):
        result = PinAccessFramework(test1).run()
        assert set(result.timings) == {"step1", "step2", "step3", "total"}
        assert (
            result.stats["paaf.unique_instances"]
            == len(result.unique_accesses)
        )
        assert (
            result.stats["paaf.step12_tasks"] == len(result.unique_accesses)
        )
