"""Tests for the daemon's wire tracing and metrics exposition.

Covers trace-context propagation on the wire (including old-peer
compatibility in both directions), the stitched client+server span
tree over a real Unix socket, a tracing server answering untraced
requests exactly like a plain one, the ``metrics`` op's Prometheus
exposition, and the ``repro query --timing`` CLI surface.
"""

import io
import json
import socket as socketlib

import pytest

from repro.cli import main
from repro.core.oracle import PinAccessOracle, UnknownPinError
from repro.obs.metrics import parse_prometheus
from repro.serve import OracleClient, OracleServer
from repro.serve import protocol
from repro.serve.protocol import (
    QueryRequest,
    encode_frame,
    frame_trace_id,
    parse_request,
    read_frame,
    stamp_trace,
)

from tests.conftest import make_simple_design


@pytest.fixture(scope="module")
def served(n45):
    """One analyzed simple design reused across the daemon tests."""
    design = make_simple_design(n45)
    return design, PinAccessOracle(design)


def start_server(tmp_path, oracle, **kw):
    path = str(tmp_path / "pao.sock")
    server = OracleServer(("unix", path), **kw)
    server.add_session("simple", oracle)
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


# -- stitched tracing over a real socket --------------------------------------


class TestStitchedTrace:
    def test_one_request_one_track(self, tmp_path, served):
        _, oracle = served
        server, addr = start_server(tmp_path, oracle, trace=True)
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
        _, oracle = served
        server, addr = start_server(tmp_path, oracle, trace=True)
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

    def test_untraced_requests_match_a_plain_server(
        self, tmp_path, served
    ):
        # --telemetry changes nothing for a request without a trace
        # context: no trace field in any reply, the same reply keys,
        # and each request is counted and timed once, as on a plain
        # server.
        _, oracle = served
        frames = [
            {"op": "metrics"},
            {"op": "query", "instance": "u0", "pin": "A"},
            {"op": "query_batch", "pins": [["u0", "A"], ["u0", "Z"]]},
            {"op": "query", "instance": "u0", "pin": "NOPE"},
            {"op": "bogus"},
            {"op": "stats"},
            {"op": "health"},
            {"op": "metrics"},
        ]
        runs = {}
        for trace in (False, True):
            server, addr = start_server(tmp_path, oracle, trace=trace)
            try:
                sock = socketlib.socket(
                    socketlib.AF_UNIX, socketlib.SOCK_STREAM
                )
                sock.connect(addr[1])
                rfile = sock.makefile("rb")
                replies = []
                for req_id, frame in enumerate(frames, start=1):
                    frame = dict(frame, v=protocol.PROTOCOL, id=req_id)
                    sock.sendall(encode_frame(frame))
                    replies.append(read_frame(rfile))
                rfile.close()
                sock.close()
            finally:
                server.stop()
            histograms = {
                name: hist.total
                for name, hist in server.registry.histograms.items()
            }
            runs[trace] = (replies, server.registry.counters, histograms)

        plain, traced = runs[False], runs[True]
        for want, got in zip(plain[0], traced[0]):
            assert protocol.TRACE_FIELD not in got
            assert got.keys() == want.keys()
            assert got["ok"] == want["ok"]
            if got["ok"]:
                assert got["result"].keys() == want["result"].keys()
            else:
                assert got["error"]["code"] == want["error"]["code"]
        assert traced[1] == plain[1]
        assert traced[2] == plain[2]
        assert traced[1]["serve.request.query"] == 2
        assert traced[1]["serve.error.unknown_pin"] == 1
        assert traced[1]["serve.error.unknown_op"] == 1
        assert traced[2]["serve.latency.query"] == 2

        stats = traced[0][5]["result"]
        assert set(stats) == {"uptime_seconds", "sessions", "counters"}
        traced_metrics = parse_prometheus(traced[0][7]["result"]["text"])
        plain_metrics = parse_prometheus(plain[0][7]["result"]["text"])
        assert traced_metrics.keys() == plain_metrics.keys()

    def test_traced_client_against_plain_server(self, tmp_path, served):
        # The other compatibility direction: a tracing client against
        # a daemon without telemetry still works, just without the
        # server-side half of the timeline.
        _, oracle = served
        server, addr = start_server(tmp_path, oracle)
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


# -- metrics exposition -------------------------------------------------------


SESSION_GAUGES = (
    "serve_session_generation",
    "serve_session_answers",
    "serve_session_cache_entries",
)


def first_request(addr, frame):
    """Send ``frame`` as a connection's first request; return the reply."""
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.connect(addr[1])
    rfile = sock.makefile("rb")
    try:
        sock.sendall(encode_frame(dict(frame, v=protocol.PROTOCOL, id=1)))
        return read_frame(rfile)
    finally:
        rfile.close()
        sock.close()


class TestMetricsAndHttp:
    """The ``metrics`` op is the daemon's one Prometheus scrape surface."""

    def test_exposition_parses_with_red_families(self, tmp_path, served):
        # Rate, errors and duration per op come from the registry's
        # request counters, error counters and latency histograms.
        _, oracle = served
        server, addr = start_server(tmp_path, oracle, trace=True)
        try:
            with OracleClient(addr) as client:
                client.query("u0", "A")
                client.query_batch([("u0", "A"), ("u0", "Z")])
                with pytest.raises(UnknownPinError):
                    client.query("u0", "NOPE")
                samples = parse_prometheus(client.metrics())
        finally:
            server.stop()
        for family in (
            "serve_request_query_total",
            "serve_request_query_batch_total",
            "serve_error_unknown_pin_total",
            "serve_latency_query_count",
            "serve_latency_query_batch_count",
            *SESSION_GAUGES,
        ):
            assert family in samples, family
        assert samples["serve_request_query_total"] == [(None, 2.0)]
        assert samples["serve_error_unknown_pin_total"] == [(None, 1.0)]
        buckets = samples["serve_latency_query_bucket"]
        assert buckets[-1] == ('{le="+Inf"}', 2.0)
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)

    def test_render_server_metrics_without_traffic(self, tmp_path, served):
        # The first request renders before it is counted: only the
        # per-design gauges are there.
        _, oracle = served
        server, addr = start_server(tmp_path, oracle, trace=True)
        try:
            reply = first_request(addr, {"op": "metrics"})
        finally:
            server.stop()
        assert reply["ok"] is True
        assert reply["result"]["content_type"].startswith("text/plain")
        samples = parse_prometheus(reply["result"]["text"])
        assert set(samples) == set(SESSION_GAUGES)
        stats = oracle.stats()
        for metric, key in zip(
            SESSION_GAUGES, ("generation", "served_pins", "cache_entries")
        ):
            assert samples[metric] == [('{design="simple"}', stats[key])]

    def test_slo_json_404_without_telemetry(self, tmp_path, served):
        # A daemon without telemetry still serves the full exposition,
        # and its health reply carries no objectives block.
        _, oracle = served
        server, addr = start_server(tmp_path, oracle)
        try:
            with OracleClient(addr) as client:
                client.query("u0", "A")
                health = client.health()
                samples = parse_prometheus(client.metrics())
        finally:
            server.stop()
        assert set(health) == {
            "status", "protocol", "uptime_seconds", "sessions"
        }
        assert health["status"] == "ok"
        assert health["protocol"] == "repro.serve/v1"
        assert health["sessions"] == ["simple"]
        for family in (
            "serve_request_query_total",
            "serve_request_health_total",
            "serve_latency_query_count",
            *SESSION_GAUGES,
        ):
            assert family in samples, family


# -- CLI: query --timing -----------------------------------------------------


class TestCliSurfaces:
    def test_query_timing_human(self, tmp_path, served, capsys):
        _, oracle = served
        server, addr = start_server(tmp_path, oracle, trace=True)
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
        _, oracle = served
        server, addr = start_server(tmp_path, oracle, trace=True)
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
        _, oracle = served
        server, addr = start_server(tmp_path, oracle)
        try:
            code = main(
                ["query", "u0/A", "--socket", addr[1], "--timing"]
            )
        finally:
            server.stop()
        assert code == 0
        assert "server=-" in capsys.readouterr().out
