"""Tests for the repro.obs observability stack.

Unit coverage for the three sinks (metrics registry, tracer, event
log) plus the framework-level contracts the ISSUE pins down:

- the ``domain.sub.name`` naming convention is enforced on metric
  names and audited over ``result.stats``;
- sinks are context-local (:mod:`contextvars`), so concurrent
  activations in threads cannot cross-contaminate -- the regression
  the old module-global ``Profiler._ACTIVE`` invited;
- a ``jobs=4`` run merges worker metrics/spans/events into exactly
  the stream a ``jobs=1`` run produces, and worker spans re-parent
  under the correct step span;
- enabling observability never changes the algorithmic result, nor
  the code path that computes it.
"""

import json
import threading
from collections import Counter

import pytest

from repro.bench import build_case, build_testcase
from repro.core import PinAccessFramework
from repro.core.apgen import AccessPointGenerator
from repro.core.config import PaafConfig
from repro.core.dpgraph import FlatDp, LayeredDpGraph
from repro.drc.pairkernel import PairKernel
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.collect import Collector
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
    stats_name_violations,
    validate_name,
)
from repro.obs.trace import Tracer, chrome_trace, span, summarize


class TestNamingContract:
    def test_valid_names(self):
        for name in ("a.b", "drc.check.via_placement", "apgen.reject.m1"):
            assert validate_name(name) == name

    @pytest.mark.parametrize(
        "name",
        ["single", "Bad.Name", "a..b", "a.b.", ".a.b", "a.b-c", "a b.c", ""],
    )
    def test_invalid_names_raise(self, name):
        with pytest.raises(ValueError):
            validate_name(name)

    def test_registry_enforces_on_first_use(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.incr("nodots")
        with pytest.raises(ValueError):
            registry.set_gauge("x", 1)
        with pytest.raises(ValueError):
            registry.observe("Hist", 1.0)
        registry.incr("test.ok")  # and caches the check
        registry.incr("test.ok")
        assert registry.counters["test.ok"] == 2

    def test_stats_violations_empty_for_conforming_payload(self):
        stats = {
            "paaf.unique_instances": 4,
            "metrics.counters": {"drc.check.via_pair": 7},
            "obs.trace": {"spans": 3, "top": 1},
        }
        assert stats_name_violations(stats) == []

    def test_stats_violations_flag_offenders(self):
        stats = {
            "unique_instances": 4,  # single segment at top level
            "paaf.ok": {"BadKey": 1},  # bad nested key
        }
        bad = stats_name_violations(stats)
        assert "unique_instances" in bad
        assert "paaf.ok.BadKey" in bad


class TestHistogram:
    def test_observe_and_summary(self):
        hist = Histogram()
        for value in (0.5, 2.0, 2.0, 100.0):
            hist.observe(value)
        assert hist.total == 4
        assert hist.sum == pytest.approx(104.5)
        assert hist.min == 0.5 and hist.max == 100.0
        summary = hist.summary()
        assert summary["count"] == 4 and summary["max"] == 100.0

    def test_merge_roundtrip(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        b.observe(8.0)
        b.observe(0.001)
        a.merge(b.snapshot())
        assert a.total == 3
        assert a.min == 0.001 and a.max == 8.0
        assert sum(a.counts) == 3

    def test_merge_rejects_different_buckets(self):
        a = Histogram()
        b = Histogram(bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            a.merge(b.snapshot())


class TestRegistry:
    def _populated(self):
        registry = MetricsRegistry()
        registry.incr("test.hits", 3)
        registry.add_time("test.step", 0.25)
        registry.set_gauge("test.jobs", 4)
        registry.observe("test.latency", 0.5)
        registry.observe("test.latency", 4.0)
        return registry

    def test_merge_covers_all_families(self):
        parent = self._populated()
        parent.merge(self._populated().snapshot())
        assert parent.counters["test.hits"] == 6
        assert parent.timers["test.step"] == pytest.approx(0.5)
        assert parent.gauges["test.jobs"] == 4
        assert parent.histograms["test.latency"].total == 4

    def test_prometheus_roundtrip(self):
        text = render_prometheus(self._populated())
        samples = parse_prometheus(text)
        assert samples["test_hits_total"] == [(None, 3.0)]
        assert samples["test_step_seconds_total"][0][1] == pytest.approx(0.25)
        assert samples["test_jobs"] == [(None, 4.0)]
        # Histogram buckets are cumulative and close at +Inf == count.
        buckets = samples["test_latency_bucket"]
        assert buckets[-1] == ('{le="+Inf"}', 2.0)
        assert [v for _, v in buckets] == sorted(v for _, v in buckets)
        assert samples["test_latency_count"] == [(None, 2.0)]

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a metric line !!!\n")
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE foo sideways\nfoo 1\n")


class TestTracer:
    def test_span_is_noop_without_tracer(self):
        assert obs_trace.active_tracer() is None
        with span("test.noop") as record:
            assert record is None

    def test_nesting_parents(self):
        tracer = obs_trace.activate(Tracer())
        try:
            with span("test.outer") as outer:
                with span("test.inner", k=1) as inner:
                    assert inner["parent"] == outer["id"]
            assert outer["parent"] is None
            assert tracer.spans[1]["attrs"] == {"k": 1}
            assert tracer.spans[1]["dur"] >= 0.0
        finally:
            obs_trace.deactivate()

    def test_limit_drops(self):
        tracer = obs_trace.activate(Tracer(limit=2))
        try:
            with span("test.a"), span("test.b"):
                with span("test.c") as dropped:
                    assert dropped is None
            assert len(tracer.spans) == 2
            assert tracer.dropped == 1
        finally:
            obs_trace.deactivate()

    def test_adopt_rebases_and_reparents(self):
        worker = Tracer()
        root = worker.begin("test.task", {}, None)
        child = worker.begin("test.child", {}, root["id"])
        worker.end(child)
        worker.end(root)

        parent = Tracer()
        step = parent.begin("test.step", {}, None)
        parent.end(step)
        adopted = parent.adopt(worker.snapshot(), parent=step["id"])
        assert adopted == 2
        by_name = {record["name"]: record for record in parent.spans}
        assert by_name["test.task"]["parent"] == step["id"]
        assert by_name["test.child"]["parent"] == by_name["test.task"]["id"]
        ids = [record["id"] for record in parent.spans]
        assert len(ids) == len(set(ids))
        assert by_name["test.task"]["tid"] == 1

    def test_swap_clears_current_span(self):
        """A swapped-in tracer must start a fresh parent stack.

        Workers fork (or, at jobs=1, run in-process) while the parent
        is inside its step span; an inherited current-span id would
        reference the parent's tracer and corrupt re-parenting.
        """
        obs_trace.activate(Tracer())
        try:
            with span("test.outer"):
                task_tracer = Tracer()
                token = obs_trace.swap(task_tracer)
                try:
                    with span("test.task") as record:
                        assert record["parent"] is None
                finally:
                    obs_trace.restore(token)
                # Back on the original tracer, nesting is intact.
                with span("test.back") as back:
                    assert back["parent"] is not None
        finally:
            obs_trace.deactivate()

    def test_chrome_export_and_summary(self):
        tracer = Tracer()
        for _ in range(3):
            record = tracer.begin("test.work", {"k": 1}, None)
            tracer.end(record)
        doc = chrome_trace(tracer)
        assert len(doc["traceEvents"]) == 3
        event = doc["traceEvents"][0]
        assert event["ph"] == "X" and event["args"] == {"k": 1}
        json.dumps(doc)  # must be serializable as-is
        summary = summarize(tracer)
        assert summary["spans"] == 3 and summary["dropped"] == 0
        assert summary["top"][0]["name"] == "test.work"
        assert summary["top"][0]["count"] == 3


class TestEvents:
    def test_emit_noop_without_log(self):
        obs_events.emit("test.kind", x=1)  # must not raise

    def test_jsonl_roundtrip(self, tmp_path):
        log = obs_events.EventLog()
        log.emit("ap.reject", inst="u1", pin="A", rule="metal-spacing")
        log.emit("cluster.selected", inst="u1", cost=0)
        path = str(tmp_path / "events.jsonl")
        obs_events.write_jsonl(path, log.events)
        assert obs_events.read_jsonl(path) == log.events

    def test_read_rejects_bad_streams(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": "something/else", "events": 0}\n')
        with pytest.raises(ValueError, match="schema"):
            obs_events.read_jsonl(path)
        with open(path, "w") as handle:
            handle.write(
                '{"schema": "%s", "events": 2}\n{"kind": "x"}\n'
                % obs_events.EVENTS_SCHEMA
            )
        with pytest.raises(ValueError, match="declares 2"):
            obs_events.read_jsonl(path)
        with open(path, "w") as handle:
            handle.write(
                '{"schema": "%s", "events": 1}\n{"nokind": 1}\n'
                % obs_events.EVENTS_SCHEMA
            )
        with pytest.raises(ValueError, match="kind"):
            obs_events.read_jsonl(path)


class TestContextIsolation:
    """Sinks are context-local; concurrent activations cannot mix.

    Regression for the module-global ``Profiler._ACTIVE``: two threads
    profiling at once used to write into whichever registry was
    installed last.
    """

    def test_threads_keep_separate_registries(self):
        barrier = threading.Barrier(2)
        results = {}

        def work(name):
            with obs_metrics.collecting() as registry:
                barrier.wait()  # both threads are now inside collecting()
                for _ in range(5):
                    obs_metrics.tick(f"test.{name}")
                barrier.wait()  # neither exits before both have ticked
                results[name] = dict(registry.counters)

        threads = [
            threading.Thread(target=work, args=(name,))
            for name in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["left"] == {"test.left": 5}
        assert results["right"] == {"test.right": 5}
        assert obs_metrics.active_registry() is None

    def test_threads_keep_separate_tracers(self):
        barrier = threading.Barrier(2)
        results = {}

        def work(name):
            tracer = Tracer()
            token = obs_trace.swap(tracer)
            try:
                barrier.wait()
                with span(f"test.{name}"):
                    barrier.wait()
                results[name] = [record["name"] for record in tracer.spans]
            finally:
                obs_trace.restore(token)

        threads = [
            threading.Thread(target=work, args=(name,))
            for name in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["left"] == ["test.left"]
        assert results["right"] == ["test.right"]


class TestCollector:
    def test_disabled_collector_is_inert(self):
        collector = Collector.from_config(PaafConfig())
        assert not collector.enabled
        assert collector.snapshot() is None

    def test_from_config_flag_mapping(self):
        config = PaafConfig(trace_out="/tmp/t.json", explain=True)
        collector = Collector.from_config(config)
        assert collector.tracer is not None
        assert collector.log is not None
        assert collector.registry is None
        assert Collector.from_config(
            PaafConfig(metrics_out="/tmp/m.prom")
        ).registry is not None


# -- framework-level contracts ------------------------------------------------


@pytest.fixture(scope="module")
def test1():
    return build_testcase("ispd18_test1", scale=0.004)


def _obs_config():
    return PaafConfig(profile=True, trace=True, explain=True)


@pytest.fixture(scope="module")
def obs_serial(test1):
    return PinAccessFramework(test1, _obs_config()).run(jobs=1)


@pytest.fixture(scope="module")
def obs_parallel(test1):
    return PinAccessFramework(test1, _obs_config()).run(jobs=4)


def _access_snapshot(result):
    return {
        key: (ap.x, ap.y, ap.primary_via)
        for key, ap in result.access_map().items()
    }


class TestFrameworkObservability:
    def test_obs_does_not_change_the_result(self, test1, obs_serial):
        plain = PinAccessFramework(test1).run(jobs=1)
        assert _access_snapshot(obs_serial) == _access_snapshot(plain)
        assert plain.trace is None and plain.events is None
        assert "metrics.counters" not in plain.stats

    def test_cross_process_merge_identical(self, obs_serial, obs_parallel):
        assert (
            obs_serial.stats["metrics.counters"]
            == obs_parallel.stats["metrics.counters"]
        )
        assert obs_serial.events.events == obs_parallel.events.events
        # Value histograms (not wall-clock ones) match bucket for
        # bucket; timing histograms only agree on sample count.
        for name in ("apgen.aps_per_pin", "patterngen.edge_cost"):
            serial = obs_serial.metrics.histograms[name]
            parallel = obs_parallel.metrics.histograms[name]
            assert serial.counts == parallel.counts
            assert serial.sum == pytest.approx(parallel.sum)
        assert sorted(obs_serial.metrics.timers) == sorted(
            obs_parallel.metrics.timers
        )

    @pytest.mark.parametrize("mode", ["serial", "parallel"])
    def test_worker_spans_reparent_under_step_spans(
        self, mode, obs_serial, obs_parallel
    ):
        result = obs_serial if mode == "serial" else obs_parallel
        spans = result.trace.spans
        by_id = {record["id"]: record for record in spans}
        assert len(by_id) == len(spans)  # adopted ids stay unique
        step12 = [r for r in spans if r["name"] == "paaf.step12"]
        step3 = [r for r in spans if r["name"] == "paaf.step3"]
        assert len(step12) == 1 and len(step3) == 1
        tasks12 = [r for r in spans if r["name"] == "step12.unique"]
        tasks3 = [r for r in spans if r["name"] == "step3.component"]
        assert tasks12 and tasks3
        assert all(r["parent"] == step12[0]["id"] for r in tasks12)
        assert all(r["parent"] == step3[0]["id"] for r in tasks3)
        # Leaf spans nest under their task, not under the run root.
        pins = [r for r in spans if r["name"] == "step1.pin"]
        assert pins
        assert all(
            by_id[r["parent"]]["name"] == "step12.unique" for r in pins
        )

    def test_stats_obey_naming_contract(self, obs_parallel, test1):
        assert stats_name_violations(obs_parallel.stats) == []
        plain = PinAccessFramework(test1).run(jobs=1)
        assert stats_name_violations(plain.stats) == []

    def test_stats_carry_obs_summaries(self, obs_parallel):
        trace_stats = obs_parallel.stats["obs.trace"]
        assert trace_stats["spans"] == len(obs_parallel.trace.spans)
        assert trace_stats["dropped"] == 0
        assert trace_stats["top"]
        assert obs_parallel.stats["obs.events"]["count"] == len(
            obs_parallel.events
        )
        assert obs_parallel.stats["metrics.gauges"]["paaf.jobs"] == 4

    def test_output_files(self, test1, tmp_path):
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        events_path = tmp_path / "events.jsonl"
        config = PaafConfig(
            trace_out=str(trace_path),
            metrics_out=str(prom_path),
            explain=str(events_path),
        )
        result = PinAccessFramework(test1, config).run(jobs=1)
        doc = json.loads(trace_path.read_text())
        assert len(doc["traceEvents"]) == len(result.trace.spans)
        samples = parse_prometheus(prom_path.read_text())
        assert samples["apgen_accept_total"][0][1] == float(
            result.metrics.counters["apgen.accept"]
        )
        events = obs_events.read_jsonl(str(events_path))
        assert events == result.events.events


# Step 1 candidates, Step 3 via-vs-instance checks and Step 2 DP solves
# the array kernels counted: equal counts mean the same path ran.
_WORK_COUNTERS = (
    "arraykernel.candidates",
    "arraykernel.filtered",
    "arraykernel.dp_solves",
    "arraykernel.minstep_engine",
)

# The calls that used to depend on whether a sink was active: Step 1's
# per-point validation (skipped by the fast reject), the pair-kernel
# method (skipped by inlined table probes) and the two DP solvers.
_PATH_CALLS = (
    (AccessPointGenerator, "_validate_array"),
    (PairKernel, "pair_clean"),
    (FlatDp, "solve"),
    (LayeredDpGraph, "solve"),
)


def _count_calls(monkeypatch) -> Counter:
    calls = Counter()
    for cls, name in _PATH_CALLS:
        key = f"{cls.__name__}.{name}"

        def counted(*args, _original=getattr(cls, name), _key=key, **kw):
            calls[_key] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(cls, name, counted)
    return calls


class TestSinksLeaveThePathUnchanged:
    @pytest.mark.parametrize(
        "case", [("ispd18_test1", 0.004), ("pinzoo_hostile", 1)]
    )
    def test_same_path_with_and_without_sinks(self, case, monkeypatch):
        calls = _count_calls(monkeypatch)
        design = build_case(*case)
        runs = {}
        serial_calls = {}
        for jobs in (1, 2):
            for config in (PaafConfig(), _obs_config()):
                calls.clear()
                result = PinAccessFramework(design, config).run(jobs=jobs)
                work = {name: result.stats[name] for name in _WORK_COUNTERS}
                runs[(jobs, config.explain)] = (
                    result.fingerprint().digest,
                    work,
                )
                if jobs == 1:
                    serial_calls[config.explain] = dict(calls)
                if result.metrics is not None:
                    # The registry reads the kernels' own counters.
                    counters = result.metrics.counters
                    for name in _WORK_COUNTERS[:2]:
                        assert counters[name] == work[name]
        reference = runs[(1, False)]
        assert reference[1]["arraykernel.candidates"] > 0
        assert reference[1]["arraykernel.dp_solves"] > 0
        for key, run in runs.items():
            assert run == reference, key
        assert serial_calls[True] == serial_calls[False]
        assert serial_calls[False]["FlatDp.solve"] == (
            reference[1]["arraykernel.dp_solves"]
        )
