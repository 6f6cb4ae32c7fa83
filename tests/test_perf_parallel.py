"""Tests for the parallel executor and serial/parallel determinism.

The executor contract: ``jobs=1`` runs the identical code path
serially; ``jobs>1`` fans out to worker processes; results always come
back in task order.  The framework contract built on it: a
``PinAccessFramework.run(jobs=N)`` is bit-identical to the serial run
for any N -- same AP coordinates, same pattern costs, same selection,
same Table II/III metrics.
"""

import pytest

from repro.bench import build_testcase
from repro.core import PinAccessFramework, evaluate_failed_pins
from repro.perf.parallel import effective_jobs, parallel_map
from repro.obs.metrics import MetricsRegistry, collecting, tick

# Module-level so they are picklable by worker processes.


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError("task 3 exploded")
    return x


_INIT = {}


def _init(value):
    _INIT["value"] = value


def _read_init(_):
    return _INIT.get("value")


class TestParallelMap:
    def test_serial_preserves_order(self):
        outcome = parallel_map(_square, [3, 1, 2], jobs=1)
        assert outcome.results == [9, 1, 4]
        assert outcome.jobs_used == 1
        assert not outcome.fellback

    def test_parallel_preserves_order(self):
        outcome = parallel_map(_square, list(range(20)), jobs=2)
        assert outcome.results == [x * x for x in range(20)]

    def test_single_task_stays_serial(self):
        outcome = parallel_map(_square, [7], jobs=4)
        assert outcome.results == [49]
        assert outcome.jobs_used == 1

    def test_serial_runs_initializer_locally(self):
        _INIT.clear()
        outcome = parallel_map(
            _read_init, [None], jobs=1, initializer=_init, initargs=(42,)
        )
        assert outcome.results == [42]

    def test_parallel_runs_initializer_per_worker(self):
        outcome = parallel_map(
            _read_init,
            [None] * 6,
            jobs=2,
            initializer=_init,
            initargs=("shared",),
        )
        if not outcome.fellback:
            assert outcome.results == ["shared"] * 6

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_boom, [1, 2, 3], jobs=1)

    def test_parallel_exception_propagates(self):
        with pytest.raises(ValueError):
            parallel_map(_boom, [1, 2, 3, 4], jobs=2)

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

    def test_merge_snapshot(self):
        prof = MetricsRegistry()
        prof.incr("test.x", 5)
        prof.merge({
            "counters": {"test.x": 2, "test.y": 1},
            "timers": {"test.t": 0.5},
        })
        assert prof.counters == {"test.x": 7, "test.y": 1}
        assert prof.timers["test.t"] == 0.5


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
    def test_jobs_equivalence(self, test1):
        serial = PinAccessFramework(test1).run(jobs=1)
        reference = _fingerprint(serial)
        for jobs in (2, 4):
            parallel = PinAccessFramework(test1).run(jobs=jobs)
            assert _fingerprint(parallel) == reference, f"jobs={jobs}"

    def test_jobs_equivalence_table_metrics(self, test1):
        serial = PinAccessFramework(test1).run(jobs=1)
        parallel = PinAccessFramework(test1).run(jobs=2)
        assert parallel.count_dirty_aps() == serial.count_dirty_aps()
        assert evaluate_failed_pins(
            test1, parallel.access_map()
        ) == evaluate_failed_pins(test1, serial.access_map())

    def test_multiheight_components_equivalent(self, mh_design):
        """Clusters linked by multi-height cells keep pinning intact."""
        serial = PinAccessFramework(mh_design).run(jobs=1)
        parallel = PinAccessFramework(mh_design).run(jobs=2)
        assert (
            serial.stats["paaf.cluster_components"]
            < serial.stats["paaf.clusters"]
        )
        assert _fingerprint(parallel) == _fingerprint(serial)

    def test_timings_and_stats_populated(self, test1):
        result = PinAccessFramework(test1).run(jobs=2)
        assert set(result.timings) == {"step1", "step2", "step3", "total"}
        assert (
            result.stats["paaf.unique_instances"]
            == len(result.unique_accesses)
        )
        assert (
            result.stats["paaf.step12_tasks"] == len(result.unique_accesses)
        )
