"""Tests for the serving telemetry stack.

Covers the full ISSUE-9 surface: trace-context propagation on the
wire (including old-peer compatibility in both directions), the
stitched client+server span tree over a real Unix socket, windowed
RED telemetry and SLO state transitions (including recovery), the
``repro.serve.access/v1`` log with sampling / error / slow-spool
semantics, the HTTP export sidecar, and the ``repro query --timing``
/ ``repro top`` CLI surfaces.
"""

import dataclasses
import io
import json
import socket as socketlib
import urllib.request

import pytest

from repro.cli import main
from repro.obs.accesslog import (
    ACCESS_SCHEMA,
    AccessLog,
    read_access_log,
)
from repro.obs.metrics import parse_prometheus
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    Objective,
    RedWindow,
    SloTable,
    objectives_from_json,
)
from repro.serve import (
    DesignSession,
    HttpExport,
    OracleClient,
    OracleServer,
    ServeTelemetry,
    render_server_metrics,
)
from repro.serve import protocol
from repro.serve.protocol import (
    QueryRequest,
    encode_frame,
    frame_trace_id,
    parse_request,
    read_frame,
    read_frame_ex,
    stamp_trace,
)

from tests.conftest import make_simple_design


@pytest.fixture(scope="module")
def served(n45):
    """One analyzed simple design reused across the daemon tests."""
    design = make_simple_design(n45)
    return design, DesignSession("simple", design)


def start_server(tmp_path, session, **kw):
    path = str(tmp_path / "pao.sock")
    server = OracleServer(("unix", path), **kw)
    server.add_session(session)
    server.start()
    return server, ("unix", path)


# -- trace context on the wire ------------------------------------------------


class TestTraceContext:
    def query_frame(self):
        request = QueryRequest(design=None, instance="u0", pin="A")
        request.req_id = 1
        return request.to_wire()

    def test_stamp_and_extract_roundtrip(self):
        frame = stamp_trace(self.query_frame(), "abc123")
        obj = read_frame(io.BytesIO(encode_frame(frame)))
        assert frame_trace_id(obj) == "abc123"

    def test_unstamped_frame_has_no_trace(self):
        assert frame_trace_id(self.query_frame()) is None

    @pytest.mark.parametrize(
        "context", ["abc", 7, {}, {"id": ""}, {"id": 5}, ["abc"]]
    )
    def test_malformed_trace_context_ignored(self, context):
        frame = self.query_frame()
        frame[protocol.TRACE_FIELD] = context
        assert frame_trace_id(frame) is None

    def test_old_server_parses_stamped_frame(self):
        # v1 compatibility: parse_request ignores unknown fields, so
        # a tracing client interoperates with a pre-trace server.
        frame = stamp_trace(self.query_frame(), "abc123")
        request = parse_request(frame)
        assert request.op == "query"
        assert request.instance == "u0"

    def test_read_frame_ex_counts_wire_bytes(self):
        blob = encode_frame(self.query_frame())
        obj, nbytes = read_frame_ex(io.BytesIO(blob))
        assert obj["op"] == "query"
        assert nbytes == len(blob)

    def test_read_frame_ex_clean_eof(self):
        assert read_frame_ex(io.BytesIO(b"")) == (None, 0)


# -- RED windows --------------------------------------------------------------


class TestRedWindow:
    def test_counts_and_quantiles(self):
        red = RedWindow()
        for ms in (1.0, 2.0, 3.0, 4.0):
            red.observe(ms / 1e3, now=1000.0)
        red.observe(0.010, error=True, now=1000.0)
        snap = red.snapshot(now=1000.0)
        assert snap["count"] == 5
        assert snap["errors"] == 1
        assert snap["window_requests"] == 5
        assert snap["error_rate"] == pytest.approx(0.2)
        assert snap["p50_ms"] == pytest.approx(3.0)
        assert snap["p99_ms"] == pytest.approx(10.0)

    def test_burst_ages_out_of_the_window(self):
        red = RedWindow(window_seconds=60)
        for _ in range(10):
            red.observe(0.5, error=True, now=100.0)
        hot = red.snapshot(now=100.0)
        assert hot["window_errors"] == 10
        assert hot["error_rate"] == pytest.approx(1.0)
        # 200 s later the per-second buckets have all lapsed: the
        # windowed rates recover while lifetime totals persist.
        cold = red.snapshot(now=300.0)
        assert cold["window_requests"] == 0
        assert cold["error_rate"] == 0.0
        assert cold["count"] == 10
        assert cold["errors"] == 10

    def test_qps_uses_elapsed_not_window(self):
        red = RedWindow(window_seconds=60)
        for _ in range(30):
            red.observe(0.001, now=1000.0)
        # All 30 requests landed within ~1 s of first traffic; qps
        # must not be divided by the full 60 s window.
        assert red.snapshot(now=1000.5)["qps"] == pytest.approx(30.0)

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            RedWindow(window_seconds=0)


# -- objectives and the SLO table ---------------------------------------------


class TestObjectives:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown signal"):
            Objective("x", "query", "p42_ms", 1.0)
        with pytest.raises(ValueError, match="threshold"):
            Objective("x", "query", "p99_ms", 0.0)
        with pytest.raises(ValueError, match="degraded_ratio"):
            Objective("x", "query", "p99_ms", 1.0, degraded_ratio=1.5)

    def test_from_json(self):
        rows = [
            {"name": "q", "op": "query", "signal": "p99_ms",
             "threshold": 2.5},
            {"name": "e", "op": "*", "signal": "error_rate",
             "threshold": 0.01, "degraded_ratio": 0.5},
        ]
        objectives = objectives_from_json(rows)
        assert [o.name for o in objectives] == ["q", "e"]
        assert objectives[1].degraded_ratio == 0.5

    def test_from_json_errors_name_the_row(self):
        with pytest.raises(ValueError, match="objective 0"):
            objectives_from_json([{"name": "q"}])
        with pytest.raises(ValueError, match="objective 1"):
            objectives_from_json(
                [{"name": "q", "op": "query", "signal": "p99_ms",
                  "threshold": 1.0}, "nope"]
            )

    def test_duplicate_names_rejected(self):
        objective = Objective("q", "query", "p99_ms", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            SloTable((objective, objective))


class TestSloTransitions:
    def table(self):
        return SloTable(
            (Objective("query_p99", "query", "p99_ms", 10.0),)
        )

    def red(self, *samples_ms, window_samples=1024):
        red = RedWindow(window_samples=window_samples)
        for ms in samples_ms:
            red.observe(ms / 1e3, now=1000.0)
        return {"query": red.snapshot(now=1000.0)}

    def test_ok_degraded_breached_recovered(self):
        table = self.table()
        # No traffic at all: every objective is vacuously ok.
        idle = table.evaluate({})
        assert idle["state"] == "ok"
        assert idle["objectives"][0]["value"] is None

        assert table.evaluate(self.red(1.0))["state"] == "ok"
        # >= 0.8 * threshold enters the early-warning band.
        assert table.evaluate(self.red(9.0))["state"] == "degraded"

        hot = table.evaluate(self.red(15.0))
        assert hot["state"] == "breached"
        assert hot["breached"] == ["query_p99"]
        assert hot["objectives"][0]["value"] == pytest.approx(15.0)

        # Recovery: the slow sample falls out of a small sliding
        # window once healthy traffic pushes it past capacity.
        red = RedWindow(window_samples=4)
        red.observe(0.015, now=1000.0)
        for _ in range(4):
            red.observe(0.001, now=1000.0)
        cured = table.evaluate({"query": red.snapshot(now=1000.0)})
        assert cured["state"] == "ok"

    def test_wildcard_error_rate_sums_ops(self):
        table = SloTable(
            (Objective("errors", "*", "error_rate", 0.05),)
        )
        a = RedWindow()
        b = RedWindow()
        for _ in range(99):
            a.observe(0.001, now=1000.0)
        b.observe(0.001, error=True, now=1000.0)
        red = {
            "query": a.snapshot(now=1000.0),
            "move": b.snapshot(now=1000.0),
        }
        # 1 error / 100 requests across both ops = 1%, under 4%
        # (0.8 * 5%) so still ok; per-op it would read 100%.
        assert table.evaluate(red)["state"] == "ok"
        for _ in range(9):
            b.observe(0.001, error=True, now=1000.0)
        red["move"] = b.snapshot(now=1000.0)
        assert table.evaluate(red)["state"] == "breached"

    def test_wildcard_quantile_takes_worst_op(self):
        table = SloTable((Objective("p99", "*", "p99_ms", 10.0),))
        report = table.evaluate(
            {
                "query": {"p99_ms": 1.0},
                "move_instance": {"p99_ms": 25.0},
            }
        )
        assert report["state"] == "breached"
        assert report["objectives"][0]["value"] == pytest.approx(25.0)

    def test_report_schema(self):
        report = SloTable(DEFAULT_OBJECTIVES).evaluate({})
        assert report["schema"] == "repro.obs.slo/v1"
        assert {row["name"] for row in report["objectives"]} == {
            o.name for o in DEFAULT_OBJECTIVES
        }


# -- the access log -----------------------------------------------------------


def entry(**kw):
    base = {
        "op": "query",
        "outcome": "ok",
        "bytes_in": 100,
        "bytes_out": 200,
        "queue_ms": 0.01,
        "handle_ms": 0.5,
        "total_ms": 0.6,
    }
    base.update(kw)
    return base


class TestAccessLog:
    def test_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(str(path)) as log:
            assert log.record(entry()) is True
        records = read_access_log(str(path))
        assert len(records) == 1
        assert records[0]["why"] == "sample"
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == ACCESS_SCHEMA

    def test_head_sampling(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(str(path), sample_every=3) as log:
            written = [log.record(entry()) for _ in range(9)]
        assert written.count(True) == 3
        assert log.sampled_out == 6
        records = read_access_log(str(path))
        assert [r["why"] for r in records] == ["sample"] * 3

    def test_errors_and_slow_bypass_sampling(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(
            str(path), sample_every=1000, slow_ms=50.0
        ) as log:
            log.record(entry())  # the one sampled-in request
            log.record(entry())  # sampled out
            log.record(entry(outcome="unknown_pin"))
            log.record(entry(total_ms=75.0))
            # Error outranks slow when both apply.
            log.record(entry(outcome="server_error", total_ms=75.0))
        whys = [r["why"] for r in read_access_log(str(path))]
        assert whys == ["sample", "error", "slow", "error"]

    def test_slow_requests_spool_their_trace(self, tmp_path):
        path = tmp_path / "access.jsonl"
        spool = tmp_path / "spool"
        with AccessLog(
            str(path), slow_ms=50.0, spool_dir=str(spool)
        ) as log:
            doc = {"traceEvents": [{"name": "serve.request"}]}
            log.record(
                entry(total_ms=75.0, trace="abc123"),
                trace_doc=lambda: doc,
            )
        assert log.spooled == 1
        (record,) = [
            r for r in read_access_log(str(path)) if r["why"] == "slow"
        ]
        assert "abc123" in record["spool"]
        with open(record["spool"]) as handle:
            assert json.load(handle) == doc

    def test_fast_requests_never_build_the_trace_doc(self, tmp_path):
        def boom():
            raise AssertionError("trace_doc built on the fast path")

        with AccessLog(
            str(tmp_path / "a.jsonl"),
            slow_ms=50.0,
            spool_dir=str(tmp_path / "spool"),
        ) as log:
            assert log.record(entry(), trace_doc=boom) is True

    def test_append_keeps_single_header(self, tmp_path):
        path = tmp_path / "access.jsonl"
        with AccessLog(str(path)) as log:
            log.record(entry())
        with AccessLog(str(path)) as log:
            log.record(entry())
        assert len(read_access_log(str(path))) == 2

    def test_reader_rejects_bad_streams(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_access_log(str(empty))
        gapped = tmp_path / "gapped.jsonl"
        with AccessLog(str(gapped)):
            pass
        with open(gapped, "a") as handle:
            handle.write(json.dumps({"op": "query"}) + "\n")
        with pytest.raises(ValueError, match="missing fields"):
            read_access_log(str(gapped))

    def test_rejects_degenerate_sampling(self, tmp_path):
        with pytest.raises(ValueError):
            AccessLog(str(tmp_path / "a.jsonl"), sample_every=0)


# -- stitched tracing over a real socket --------------------------------------


class TestStitchedTrace:
    def test_one_request_one_track(self, tmp_path, served):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            with OracleClient(addr, trace=True) as client:
                client.query("u0", "A")
        finally:
            server.stop()

        spans = client.tracer.snapshot()
        by_name = {s["name"]: s for s in spans}
        root = by_name["client.request"]
        assert root["parent"] is None
        trace_id = root["attrs"]["trace"]
        assert client.last_timing["trace"] == trace_id

        # Client phases and the adopted server root all hang off the
        # request span.
        for name in ("client.serialize", "client.wait", "client.parse",
                     "serve.request"):
            assert by_name[name]["parent"] == root["id"], name
        # The daemon observed the same trace id the client stamped.
        assert by_name["serve.request"]["attrs"]["trace"] == trace_id
        # Server-side children survived adoption with their nesting.
        srv = by_name["serve.request"]
        assert by_name["serve.parse"]["parent"] == srv["id"]
        assert by_name["serve.answer"]["parent"] == srv["id"]

        # Everything sits on one Chrome track: the adopted spans are
        # forced onto the client's own track 0.
        assert {s.get("tid", 0) for s in spans} == {0}
        # The shifted server interval nests inside the client's wait.
        wait = by_name["client.wait"]
        assert srv["t0"] >= wait["t0"]
        assert srv["t0"] + srv["dur"] <= wait["t0"] + wait["dur"]

        timing = client.last_timing
        assert timing["op"] == "query"
        for key in ("dial_ms", "total_ms", "serialize_ms", "wait_ms",
                    "parse_ms", "server_ms"):
            assert timing[key] is not None, key
        assert timing["server_ms"] <= timing["wait_ms"]

    def test_untraced_client_gets_no_span_echo(self, tmp_path, served):
        # An old (or simply untraced) client must not pay for span
        # serialization: the response carries no trace field.
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            request = QueryRequest(design=None, instance="u0", pin="A")
            request.req_id = 1
            sock = socketlib.socket(
                socketlib.AF_UNIX, socketlib.SOCK_STREAM
            )
            sock.connect(addr[1])
            sock.sendall(encode_frame(request.to_wire()))
            response = read_frame(sock.makefile("rb"))
            sock.close()
            assert response["ok"] is True
            assert protocol.TRACE_FIELD not in response
        finally:
            server.stop()

    def test_traced_client_against_plain_server(self, tmp_path, served):
        # The other compatibility direction: a tracing client against
        # a daemon without telemetry still works, just without the
        # server-side half of the timeline.
        _, session = served
        server, addr = start_server(tmp_path, session)
        try:
            with OracleClient(addr, trace=True) as client:
                answer = client.query("u0", "A")
        finally:
            server.stop()
        assert answer["instance"] == "u0"
        assert client.last_timing["server_ms"] is None
        names = {s["name"] for s in client.tracer.snapshot()}
        assert "client.wait" in names
        assert "serve.request" not in names


# -- telemetry end to end -----------------------------------------------------


class TestServeTelemetry:
    def test_red_and_slo_surface_in_stats_and_health(
        self, tmp_path, served
    ):
        _, session = served
        # The default objectives with every latency threshold at a
        # minute: a slow host cannot push one wall-clocked query past
        # them, so the state is "ok" by construction.  The degraded,
        # breached and recovered transitions have their own tests.
        objectives = tuple(
            o
            if o.signal == "error_rate"
            else dataclasses.replace(o, threshold=60000.0)
            for o in DEFAULT_OBJECTIVES
        )
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry(objectives)
        )
        try:
            with OracleClient(addr) as client:
                client.query("u0", "A")
                client.query_batch([("u0", "A"), ("u0", "Z")])
                stats = client.stats()
                health = client.health()
        finally:
            server.stop()
        red = stats["red"]
        assert red["query"]["count"] == 1
        assert red["query_batch"]["count"] == 1
        assert red["query"]["p50_ms"] is not None
        slo = health["slo"]
        assert slo["schema"] == "repro.obs.slo/v1"
        assert slo["state"] == "ok"
        assert slo["breached"] == []

    def test_forced_breach_names_the_objective(self, tmp_path, served):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            with OracleClient(addr) as client:
                client.query("u0", "A")
                for _ in range(3):
                    with pytest.raises(KeyError):
                        client.query("ghost", "A")
                health = client.health()
        finally:
            server.stop()
        slo = health["slo"]
        assert slo["state"] == "breached"
        assert "error_rate" in slo["breached"]
        row = {
            r["name"]: r for r in slo["objectives"]
        }["error_rate"]
        assert row["state"] == "breached"
        assert row["value"] >= row["threshold"]

    def test_slo_recovers_after_bad_window(self):
        # Direct transition walk on the bundle: a slow burst breaches
        # the latency objective, healthy traffic evicts it.
        telemetry = ServeTelemetry(window_samples=8)
        telemetry.observe("query", 0.0001, error=False)
        assert telemetry.slo_report()["state"] == "ok"
        telemetry.observe("query", 0.0009, error=False)
        assert telemetry.slo_report()["state"] == "degraded"
        telemetry.observe("query", 0.005, error=False)
        report = telemetry.slo_report()
        assert report["state"] == "breached"
        assert report["breached"] == ["query_p99_ms"]
        for _ in range(8):
            telemetry.observe("query", 0.0001, error=False)
        assert telemetry.slo_report()["state"] == "ok"

    def test_access_log_records_real_requests(self, tmp_path, served):
        _, session = served
        log_path = tmp_path / "access.jsonl"
        spool_dir = tmp_path / "spool"
        telemetry = ServeTelemetry(
            access_log=AccessLog(
                str(log_path),
                slow_ms=0.0,  # everything is "slow": spool every trace
                spool_dir=str(spool_dir),
            )
        )
        server, addr = start_server(
            tmp_path, session, telemetry=telemetry
        )
        try:
            with OracleClient(addr, trace=True) as client:
                client.query("u0", "A")
                with pytest.raises(KeyError):
                    client.query("u0", "NOPE")
        finally:
            server.stop()

        records = read_access_log(str(log_path))
        assert [r["op"] for r in records] == ["query", "query"]
        assert [r["outcome"] for r in records] == ["ok", "unknown_pin"]
        assert records[0]["why"] == "slow"
        assert records[1]["why"] == "error"
        for record in records:
            assert record["bytes_in"] > 0
            assert record["bytes_out"] > 0
            assert record["total_ms"] >= record["handle_ms"]
            assert record["queue_ms"] >= 0.0
            assert record["design"] == "simple"
            assert record["trace"]
        # The slow ok request spooled its stitched server trace.
        with open(records[0]["spool"]) as handle:
            doc = json.load(handle)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "serve.request" in names


# -- Prometheus exposition and the HTTP sidecar -------------------------------

RED_FAMILIES = (
    "serve_red_requests_total",
    "serve_red_errors_total",
    "serve_red_qps",
    "serve_red_latency_ms",
    "serve_slo_state",
    "serve_slo_objective_state",
    "serve_session_generation",
    "serve_session_answers",
    "serve_session_cache_entries",
)


class TestMetricsAndHttp:
    def test_exposition_parses_with_red_families(
        self, tmp_path, served
    ):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            with OracleClient(addr) as client:
                client.query("u0", "A")
                samples = parse_prometheus(client.metrics())
        finally:
            server.stop()
        for family in RED_FAMILIES:
            assert family in samples, family
        labels, _ = samples["serve_red_requests_total"][0]
        assert 'op="query"' in labels
        quantiles = {
            labels for labels, _ in samples["serve_red_latency_ms"]
        }
        for q in ("0.5", "0.95", "0.99"):
            assert any(f'quantile="{q}"' in s for s in quantiles), q

    def test_http_sidecar_routes(self, tmp_path, served):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        http = HttpExport(server).start()
        base = f"http://{http.host}:{http.port}"
        try:
            with OracleClient(addr) as client:
                client.query("u0", "A")

            with urllib.request.urlopen(f"{base}/metrics") as reply:
                assert reply.status == 200
                assert reply.headers["Content-Type"].startswith(
                    "text/plain"
                )
                body = reply.read().decode("utf-8")
            samples = parse_prometheus(body)
            for family in RED_FAMILIES:
                assert family in samples, family

            with urllib.request.urlopen(f"{base}/healthz") as reply:
                assert reply.status == 200
                health = json.load(reply)
            assert health["status"] == "ok"
            assert health["slo"]["state"] in ("ok", "degraded",
                                              "breached")

            with urllib.request.urlopen(f"{base}/slo.json") as reply:
                slo = json.load(reply)
            assert slo["schema"] == "repro.obs.slo/v1"

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404
            err.value.close()
        finally:
            http.stop()
            server.stop()

    def test_healthz_503_while_draining(self, tmp_path, served):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        http = HttpExport(server).start()
        try:
            server.stop(drain=False)
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{http.host}:{http.port}/healthz"
                )
            assert err.value.code == 503
            assert json.load(err.value)["status"] == "draining"
        finally:
            http.stop()
            server.stop()

    def test_slo_json_404_without_telemetry(self, tmp_path, served):
        _, session = served
        server, _ = start_server(tmp_path, session)
        http = HttpExport(server).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{http.host}:{http.port}/slo.json"
                )
            assert err.value.code == 404
            err.value.close()
            # /metrics still serves the registry + session gauges.
            with urllib.request.urlopen(
                f"http://{http.host}:{http.port}/metrics"
            ) as reply:
                samples = parse_prometheus(reply.read().decode())
            assert "serve_session_generation" in samples
            assert "serve_red_requests_total" not in samples
        finally:
            http.stop()
            server.stop()

    def test_render_server_metrics_without_traffic(
        self, tmp_path, served
    ):
        _, session = served
        server, _ = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            samples = parse_prometheus(render_server_metrics(server))
        finally:
            server.stop()
        # No traffic yet: RED series are absent, SLO gauges present.
        assert "serve_slo_state" in samples
        assert samples["serve_slo_state"][0][1] == 0.0


# -- CLI: query --timing and repro top ----------------------------------------


class TestCliSurfaces:
    def test_query_timing_human(self, tmp_path, served, capsys):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            code = main(
                ["query", "u0/A", "--socket", addr[1], "--timing"]
            )
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "timing [" in out
        assert "wait=" in out
        assert "server=" in out

    def test_query_timing_json(self, tmp_path, served, capsys):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            code = main(
                ["query", "u0/A", "u0/Z", "--socket", addr[1],
                 "--timing", "--json"]
            )
        finally:
            server.stop()
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        for row in payload:
            assert row["answer"]["instance"] == "u0"
            assert row["timing"]["wait_ms"] is not None
            assert row["timing"]["server_ms"] is not None

    def test_query_timing_against_plain_server(
        self, tmp_path, served, capsys
    ):
        # No telemetry on the daemon: the server phase renders as "-".
        _, session = served
        server, addr = start_server(tmp_path, session)
        try:
            code = main(
                ["query", "u0/A", "--socket", addr[1], "--timing"]
            )
        finally:
            server.stop()
        assert code == 0
        assert "server=-" in capsys.readouterr().out

    def test_top_renders_red_and_breaches(
        self, tmp_path, served, capsys
    ):
        _, session = served
        server, addr = start_server(
            tmp_path, session, telemetry=ServeTelemetry()
        )
        try:
            with OracleClient(addr) as client:
                client.query("u0", "A")
                for _ in range(3):
                    with pytest.raises(KeyError):
                        client.query("ghost", "A")
            code = main(
                ["top", addr[1], "--iterations", "1", "--no-clear"]
            )
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "slo=breached" in out
        assert "breached: error_rate" in out
        assert "Per-op RED" in out
        assert "query" in out
        assert "Sessions" in out

    def test_top_without_telemetry_hints(
        self, tmp_path, served, capsys
    ):
        _, session = served
        server, addr = start_server(tmp_path, session)
        try:
            code = main(
                ["top", addr[1], "--iterations", "1", "--no-clear"]
            )
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "slo=n/a" in out
        assert "no RED telemetry" in out
