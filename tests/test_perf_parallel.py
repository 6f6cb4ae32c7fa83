"""Tests for the jobs knob, the hot-path profiler and Step 3's merge.

``effective_jobs`` sizes the ``repro compare run -j`` process pool.
One analysis runs in one process: Step 3 runs once per cluster
component and merges back in cluster order, so its selection equals
one pass of the cluster DP over every cluster of the design.
"""

import pytest

from repro.bench import build_testcase
from repro.core import PinAccessFramework
from repro.core.cluster import ClusterPatternSelector, SelectedAccess
from repro.perf.parallel import effective_jobs
from repro.obs.metrics import collecting, tick


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
        """Clusters linked by multi-height cells keep pinning intact.

        Step 3 runs per component and merges in cluster order; the
        result equals one pass of the cluster DP over every cluster.
        """
        framework = PinAccessFramework(mh_design)
        result = framework.run()
        assert (
            result.stats["paaf.cluster_components"]
            < result.stats["paaf.clusters"]
        )
        candidates = {}
        aps = {}
        for ua in result.unique_accesses:
            for member in ua.unique_instance.members:
                dx, dy = ua.unique_instance.translation_to(member)
                candidates[member.name] = [
                    SelectedAccess(inst=member, pattern=p, dx=dx, dy=dy)
                    for p in ua.patterns
                ]
                aps[member.name] = ua.aps_by_pin
        whole = ClusterPatternSelector(
            mh_design,
            framework.config,
            kernel=framework.kernel,
            akernel=framework.akernel,
        ).select(candidates, lambda inst, pin: aps[inst].get(pin, []))
        assert list(whole.selection) == list(result.selection.selection)
        assert whole.selection == result.selection.selection
        assert whole.conflicts == result.selection.conflicts

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
