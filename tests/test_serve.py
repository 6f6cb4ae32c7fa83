"""Tests for repro.serve: protocol, daemon, client, concurrency.

The end-to-end sections run a real :class:`OracleServer` on a Unix
socket inside the test process (threads, not subprocesses) so the
reader-writer discipline is exercised against the very design object
the parity oracles analyze.  One CLI test drives ``repro serve`` /
``repro query`` as actual subprocesses.
"""

import copy
import gc
import io
import itertools
import json
import os
import random
import re
import struct
import subprocess
import sys
import threading
import time
import warnings

import pytest

from repro.bench import build_testcase
from repro.bench.pinzoo import build_pinzoo
from repro.core import UnknownInstanceError, UnknownPinError
from repro.core.oracle import PinAccessOracle
from repro.serve import (
    ConnectionFailed,
    OracleClient,
    OracleServer,
    ServerError,
    Snapshot,
    parse_address,
)
from repro.serve import protocol
from repro.serve.protocol import (
    FrameError,
    answer_to_wire,
    encode_frame,
    error_envelope,
    ok_envelope,
    parse_request,
    read_frame,
    render_answer,
)

from tests.conftest import make_simple_design, one_site_moves
from tests.test_incremental_properties import legal_moves


# -- protocol ----------------------------------------------------------------


class TestFrames:
    def roundtrip(self, obj):
        return read_frame(io.BytesIO(encode_frame(obj)))

    def test_roundtrip(self):
        obj = {"v": protocol.PROTOCOL, "id": 7, "op": "health"}
        assert self.roundtrip(obj) == obj

    def test_roundtrip_unicode_and_nesting(self):
        obj = {"v": protocol.PROTOCOL, "pins": [["uü", "Ω"]], "n": None}
        assert self.roundtrip(obj) == obj

    def test_clean_eof_returns_none(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_truncated_header_rejected(self):
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_payload_rejected(self):
        blob = encode_frame({"a": 1})[:-2]
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(blob))

    def test_zero_length_rejected(self):
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(struct.pack(">I", 0)))

    def test_oversized_declared_length_rejected(self):
        blob = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"x"
        with pytest.raises(FrameError) as err:
            read_frame(io.BytesIO(blob))
        assert err.value.code == protocol.E_OVERSIZED_FRAME

    def test_oversized_payload_refused_on_encode(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_non_json_payload_rejected(self):
        blob = struct.pack(">I", 4) + b"\xff\xfe\x00\x01"
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(blob))

    def test_non_object_payload_rejected(self):
        payload = b"[1,2,3]"
        blob = struct.pack(">I", len(payload)) + payload
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(blob))

    def test_fuzzed_random_bytes_never_crash(self):
        import random

        rng = random.Random(1234)
        for _ in range(200):
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 64))
            )
            try:
                read_frame(io.BytesIO(blob))
            except FrameError:
                pass  # rejection is the contract; crashes are not


class TestParseRequest:
    def wire(self, **kw):
        body = {"v": protocol.PROTOCOL, "id": 1}
        body.update(kw)
        return body

    def test_query_roundtrip(self):
        req = parse_request(
            self.wire(op="query", instance="u0", pin="A", design=None)
        )
        assert (req.instance, req.pin, req.design) == ("u0", "A", None)
        assert parse_request(req.to_wire()).to_wire() == req.to_wire()

    def test_batch_roundtrip(self):
        req = parse_request(
            self.wire(op="query_batch", pins=[["u0", "A"], ["u1", "Z"]])
        )
        assert req.pins == [("u0", "A"), ("u1", "Z")]

    def test_bad_version_rejected(self):
        with pytest.raises(protocol.BadRequest) as err:
            parse_request({"v": "repro.serve/v99", "op": "health"})
        assert err.value.code == protocol.E_UNSUPPORTED_VERSION

    def test_unknown_op_rejected(self):
        with pytest.raises(protocol.BadRequest) as err:
            parse_request(self.wire(op="drop_tables"))
        assert err.value.code == protocol.E_UNKNOWN_OP

    @pytest.mark.parametrize(
        "body",
        [
            {"op": "query", "instance": "", "pin": "A"},
            {"op": "query", "instance": "u0"},
            {"op": "query", "instance": "u0", "pin": 3},
            {"op": "query_batch", "pins": "u0/A"},
            {"op": "query_batch", "pins": [["u0"]]},
            {"op": "query_batch", "pins": [["u0", ""]]},
            {"op": "move_instance", "instance": "u0", "x": "a", "y": 0},
            {"op": "move_instance", "instance": "u0", "x": True, "y": 0},
            {"op": "load_design", "design": "d", "lef": "x"},
            {"id": "seven", "op": "health"},
        ],
    )
    def test_malformed_fields_rejected(self, body):
        with pytest.raises(protocol.BadRequest):
            parse_request(self.wire(**body))

    def test_batch_pin_cap(self):
        pins = [["u", "A"]] * (protocol.MAX_BATCH_PINS + 1)
        with pytest.raises(protocol.BadRequest):
            parse_request(self.wire(op="query_batch", pins=pins))

    def test_envelopes(self):
        ok = ok_envelope(3, {"x": 1})
        assert ok["ok"] and ok["id"] == 3 and ok["v"] == protocol.PROTOCOL
        err = error_envelope(4, "bad_request", "nope")
        assert not err["ok"] and err["error"]["code"] == "bad_request"


class TestParseAddress:
    def test_forms(self):
        assert parse_address("unix:/run/pao.sock") == (
            "unix", "/run/pao.sock",
        )
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        # A colon-free token is a (relative) socket path: a bare host
        # without a port is never a valid endpoint.
        assert parse_address("pao.sock") == ("unix", "pao.sock")
        assert parse_address("localhost:9000") == (
            "tcp", "localhost", 9000,
        )
        assert parse_address("tcp:0.0.0.0:80") == ("tcp", "0.0.0.0", 80)

    @pytest.mark.parametrize("bad", ["unix:", "host:http", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


# -- typed error hierarchy ----------------------------------------------------


class TestErrorHierarchy:
    def test_subclasses_keyerror(self):
        assert issubclass(UnknownInstanceError, KeyError)
        assert issubclass(UnknownPinError, KeyError)

    def test_oracle_raises_typed(self, simple_design):
        oracle = PinAccessOracle(simple_design)
        with pytest.raises(UnknownInstanceError):
            oracle.query("ghost", "A")
        with pytest.raises(KeyError):  # backward compatible
            oracle.query("ghost", "A")
        # Non-strict: unknown pin of a known instance answers empty.
        assert not oracle.query("u0", "NOPE").accessible
        with pytest.raises(UnknownPinError):
            oracle.query("u0", "NOPE", strict=True)

    def test_incremental_raises_typed(self, simple_design):
        oracle = PinAccessOracle(simple_design)
        with pytest.raises(UnknownInstanceError):
            oracle.move_instance("ghost", 0, 0)

    def test_wire_errors_keep_their_names(self, tmp_path, simple_design):
        """Over the wire, a lookup error names what was asked and reads
        exactly as the in-process one."""
        oracle = PinAccessOracle(simple_design)
        server, addr = start_server(tmp_path, {"simple": oracle})
        try:
            with OracleClient(addr) as client:
                cases = [
                    (
                        lambda: client.query("u0", "NOPE"),
                        lambda: oracle.query("u0", "NOPE", strict=True),
                    ),
                    (
                        lambda: client.query("ghost", "A"),
                        lambda: oracle.query("ghost", "A"),
                    ),
                    (
                        lambda: client.query_batch(
                            [("u0", "A"), ("u1", "NOPE"), ("u0", "Z")]
                        ),
                        lambda: oracle.query("u1", "NOPE", strict=True),
                    ),
                    (
                        lambda: client.move_instance("ghost", 0, 0),
                        lambda: oracle.move_instance("ghost", 0, 0),
                    ),
                ]
                for wire, local in cases:
                    with pytest.raises(KeyError) as want:
                        local()
                    with pytest.raises(type(want.value)) as got:
                        wire()
                    assert str(got.value) == str(want.value)
                    assert got.value.args == want.value.args
                    assert (
                        got.value.instance_name == want.value.instance_name
                    )
                    assert getattr(got.value, "pin_name", None) == getattr(
                        want.value, "pin_name", None
                    )
        finally:
            server.stop()

    def test_reworded_wire_errors_keep_their_class(self):
        """An envelope whose text no asked name reproduces (a server
        that words it differently) still raises the class its code
        names: from the asked names when the request asks one pin."""
        from repro.serve.client import _typed_error

        reworded = "no such thing"
        query = protocol.QueryRequest(instance="u0", pin="NOPE")
        error = _typed_error(protocol.E_UNKNOWN_PIN, reworded, query)
        assert isinstance(error, UnknownPinError)
        assert (error.instance_name, error.pin_name) == ("u0", "NOPE")
        move = protocol.MoveInstanceRequest(instance="ghost", x=0, y=0)
        error = _typed_error(protocol.E_UNKNOWN_INSTANCE, reworded, move)
        assert isinstance(error, UnknownInstanceError)
        assert error.instance_name == "ghost"
        batch = protocol.QueryBatchRequest(pins=[("u0", "A"), ("u1", "B")])
        for code, kind in (
            (protocol.E_UNKNOWN_PIN, UnknownPinError),
            (protocol.E_UNKNOWN_INSTANCE, UnknownInstanceError),
        ):
            assert isinstance(_typed_error(code, reworded, batch), kind)
        assert _typed_error(protocol.E_BAD_REQUEST, reworded, query) is None


class TestClientDial:
    def test_failed_dials_close_their_sockets(self, tmp_path):
        missing = tmp_path / "absent.sock"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client = OracleClient(
                f"unix:{missing}", connect_retries=3, backoff=0.001
            )
            with pytest.raises(ConnectionFailed):
                client.connect()
            gc.collect()
        leaked = [w for w in caught if w.category is ResourceWarning]
        assert leaked == []

    def test_refused_set_up_closes_the_connection(self, tmp_path):
        """A set-up error after the dial (here a negative timeout)
        leaves no half-open connection: the socket is closed, and a
        later call dials again and fails the same way."""
        server, addr = start_server(tmp_path)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                client = OracleClient(addr, timeout=-1)
                with pytest.raises(ValueError):
                    client.connect()
                assert client._sock is None
                assert client._rfile is client._wfile is None
                with pytest.raises(ValueError):
                    client.health()
                del client
                gc.collect()
        finally:
            server.stop()
        leaked = [w for w in caught if w.category is ResourceWarning]
        assert leaked == []


# -- end-to-end daemon --------------------------------------------------------


def start_server(tmp_path, sessions=None, **kw):
    path = str(tmp_path / "pao.sock")
    server = OracleServer(("unix", path), sessions=sessions, **kw)
    server.start()
    return server, ("unix", path)


def all_pins(design):
    return [
        (inst.name, pin.name)
        for inst in design.instances.values()
        for pin in inst.master.signal_pins()
    ]


@pytest.fixture(scope="module")
def served():
    """One analyzed ispd18 design behind a module-scoped daemon."""
    design = build_testcase("ispd18_test1", scale=0.01)
    oracle = PinAccessOracle(design)
    return design, oracle


class TestEndToEnd:
    def test_thousand_pin_batch_matches_oracle(self, tmp_path, served):
        design, hosted = served
        server, addr = start_server(tmp_path, {"t1": hosted})
        try:
            # A second, in-process oracle over the very same design.
            oracle = PinAccessOracle(design)
            pins = all_pins(design)
            batch = [pins[i % len(pins)] for i in range(1000)]
            with OracleClient(addr) as client:
                answers = client.query_batch(batch, chunk_size=1000)
            assert len(answers) == 1000
            gen = hosted.snapshot.generation
            for (inst, pin), got in zip(batch, answers):
                expect = answer_to_wire(oracle.query(inst, pin), gen)
                assert got == expect
        finally:
            server.stop()

    def test_single_query_and_errors(self, tmp_path, served):
        design, oracle = served
        server, addr = start_server(tmp_path, {"t1": oracle})
        try:
            with OracleClient(addr) as client:
                inst, pin = all_pins(design)[0]
                answer = client.query(inst, pin)
                assert answer["instance"] == inst
                assert answer["accessible"] in (True, False)
                with pytest.raises(UnknownInstanceError):
                    client.query("ghost", "A")
                with pytest.raises(UnknownPinError):
                    client.query(inst, "NOPE")
                with pytest.raises(ServerError) as err:
                    client.query(inst, pin, design="nope")
                assert err.value.code == protocol.E_UNKNOWN_DESIGN
                health = client.health()
                assert health["status"] == "ok"
                assert health["sessions"] == ["t1"]
        finally:
            server.stop()

    def test_stats_and_metrics(self, tmp_path, served):
        from repro.obs.metrics import parse_prometheus

        design, oracle = served
        server, addr = start_server(tmp_path, {"t1": oracle})
        try:
            with OracleClient(addr) as client:
                client.query(*all_pins(design)[0])
                stats = client.stats()
                assert "t1" in stats["sessions"]
                assert stats["sessions"]["t1"]["served_pins"] > 0
                assert stats["counters"]["serve.request.query"] >= 1
                samples = parse_prometheus(client.metrics())
                assert "serve_request_query_total" in samples
                assert "serve_latency_query_bucket" in samples
        finally:
            server.stop()

    def test_malformed_frame_answered_then_closed(self, tmp_path, served):
        import socket as socketlib

        _, oracle = served
        server, addr = start_server(tmp_path, {"t1": oracle})
        try:
            sock = socketlib.socket(
                socketlib.AF_UNIX, socketlib.SOCK_STREAM
            )
            sock.connect(addr[1])
            sock.sendall(struct.pack(">I", 8) + b"notjson!")
            rfile = sock.makefile("rb")
            response = read_frame(rfile)
            assert response["ok"] is False
            assert response["error"]["code"] == protocol.E_MALFORMED_FRAME
            assert rfile.read(1) == b""  # server hung up
            sock.close()
        finally:
            server.stop()

    def test_handler_releases_its_descriptor(
        self, tmp_path, served, monkeypatch
    ):
        """A handler that ends closes its socket's descriptor at once,
        even while something still holds its file objects."""
        import socket as socketlib

        _, oracle = served
        server, addr = start_server(tmp_path, {"t1": oracle})
        held = []
        server_read = protocol.read_frame

        def holding_read(rfile):
            held.append(rfile)
            return server_read(rfile)

        monkeypatch.setattr(protocol, "read_frame", holding_read)
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(10)
        rfile = sock.makefile("rb")
        try:
            sock.connect(addr[1])
            sock.sendall(struct.pack(">I", 8) + b"notjson!")
            assert read_frame(rfile)["ok"] is False
            # Held file objects must not keep the connection open: the
            # hang-up reaches the client as EOF, not as a timeout.
            assert rfile.read(1) == b""
            assert held
        finally:
            rfile.close()
            sock.close()
            server.stop()


def four_sites_right(design) -> list:
    inst = list(design.instances.values())[3]
    site = design.tech.site_width
    return [(inst.name, inst.location.x + 4 * site, inst.location.y)]


def beside_double_height(design) -> list:
    """The first six one-site moves next to double-height cells, each
    followed by its move back."""
    edits = []
    for inst, target in one_site_moves(design)[:6]:
        edits.append((inst.name, target.x, target.y))
        edits.append((inst.name, inst.location.x, inst.location.y))
    return edits


class TestMoveInstance:
    """Edits through the daemon equal a from-scratch re-analysis."""

    def fresh_oracle(self):
        design = build_testcase("ispd18_test1", scale=0.01)
        return design, PinAccessOracle(design)

    def test_move_requery_equals_full_reanalysis(self, tmp_path):
        t1 = build_testcase("ispd18_test1", scale=0.01)
        mh = build_testcase(
            "ispd18_test1", scale=0.008, multi_height_fraction=0.1
        )
        cases = {
            "t1": (t1, four_sites_right),
            "mh": (mh, beside_double_height),
        }
        server, addr = start_server(tmp_path)
        for name, (design, _) in cases.items():
            server.add_session(name, PinAccessOracle(design))
        try:
            with OracleClient(addr) as client:
                for name, (design, plan) in cases.items():
                    pins = all_pins(design)
                    for generation, edit in enumerate(plan(design), 1):
                        moved = client.move_instance(*edit, design=name)
                        assert moved["generation"] == generation
                        answers = client.query_batch(pins, design=name)
                        # A from-scratch analysis of the edited design
                        # must agree pin for pin, bit for bit, over the
                        # wire.
                        oracle = PinAccessOracle(design)
                        for (inst_name, pin), got in zip(pins, answers):
                            expect = answer_to_wire(
                                oracle.query(inst_name, pin), generation
                            )
                            assert got == expect, (name, edit)
        finally:
            server.stop()

    def test_move_is_visible_and_stamped(self, tmp_path):
        design, oracle = self.fresh_oracle()
        server, addr = start_server(tmp_path, {"t1": oracle})
        try:
            inst = next(
                i
                for i in design.instances.values()
                if any(
                    oracle.query(i.name, p.name).selected
                    for p in i.master.signal_pins()
                )
            )
            pin = next(
                p.name
                for p in inst.master.signal_pins()
                if oracle.query(inst.name, p.name).selected
            )
            site = design.tech.site_width
            with OracleClient(addr) as client:
                before = client.query(inst.name, pin)
                client.move_instance(
                    inst.name,
                    inst.location.x + 6 * site,
                    inst.location.y,
                )
                after = client.query(inst.name, pin)
            assert before["generation"] == 0
            assert after["generation"] == 1
            assert (
                after["selected"]["x"]
                == before["selected"]["x"] + 6 * site
            )
        finally:
            server.stop()


class TestMoveReply:
    def test_update_seconds_are_the_moves_own(self, tmp_path, monkeypatch):
        """A move's reply reports its own update time.

        A second writer moves another instance the moment the first
        move releases the oracle's write lock, before the server builds
        the first reply; the reply must still carry the first move's
        ``update_seconds``, not the second's.
        """
        design = build_testcase("ispd18_test1", scale=0.004)
        oracle = PinAccessOracle(design)
        first, second = list(design.instances.values())[3:5]
        site = design.tech.site_width
        target = (first.name, first.location.x + 4 * site, first.location.y)

        own = []
        select = oracle.framework.selector.select

        def slow_select(*args):
            time.sleep(0.02)
            return select(*args)

        oracle_move = oracle.move_instance

        def move_then_interleave(name, x, y):
            out = oracle_move(name, x, y)
            own.append(oracle.last_update_seconds)
            # The lock is free again: a second, slower writer gets in.
            monkeypatch.setattr(
                oracle.framework.selector, "select", slow_select
            )
            oracle_move(
                second.name, second.location.x + site, second.location.y
            )
            own.append(oracle.last_update_seconds)
            return out

        monkeypatch.setattr(oracle, "move_instance", move_then_interleave)
        server, addr = start_server(tmp_path, {"t1": oracle})
        try:
            with OracleClient(addr) as client:
                reply = client.move_instance(*target)
        finally:
            server.stop()
        assert reply["generation"] == 1
        assert len(own) == 2
        assert round(own[0], 6) != round(own[1], 6)
        assert reply["update_seconds"] == round(own[0], 6)


class TestSessionStats:
    """Reads while a move is held inside its snapshot build: the
    analysis is repaired, the next snapshot not yet published."""

    def hold_move(self, monkeypatch, oracle, inst):
        """Move ``inst`` one site right; return once the move is held.

        Returns ``(release, mover, replies)``: setting ``release`` lets
        the move publish, and ``replies`` then holds its reply.
        """
        inside, release = threading.Event(), threading.Event()
        build = Snapshot.next

        def held_next(snap, partial):
            inside.set()
            release.wait(timeout=10)
            return build(snap, partial)

        monkeypatch.setattr(Snapshot, "next", held_next)
        site = oracle.design.tech.site_width
        target = (inst.name, inst.location.x + site, inst.location.y)
        replies = []
        mover = threading.Thread(
            target=lambda: replies.append(oracle.move_instance(*target))
        )
        mover.start()
        assert inside.wait(timeout=10)
        return release, mover, replies

    def test_stats_come_from_one_published_state(self, monkeypatch):
        """Stats never mix a move in flight with the published state:
        ``moves``, ``generation`` and ``last_update_seconds`` all
        belong to one published generation."""
        design = build_testcase("ispd18_test1", scale=0.004)
        oracle = PinAccessOracle(design)
        inst = list(design.instances.values())[3]
        release, mover, replies = self.hold_move(monkeypatch, oracle, inst)
        seen = []
        reader = threading.Thread(target=lambda: seen.append(oracle.stats()))
        try:
            reader.start()
            reader.join(timeout=0.2)  # let it read while the move is held
        finally:
            release.set()
            mover.join(timeout=10)
            reader.join(timeout=10)
        assert not mover.is_alive()
        assert not reader.is_alive()
        [(generation, update_seconds)] = replies
        [stats] = seen
        assert stats["moves"] == stats["generation"]
        assert (stats["generation"], stats["last_update_seconds"]) in {
            (0, 0.0),
            (generation, round(update_seconds, 6)),
        }

    def test_queries_do_not_wait_behind_stats(self, tmp_path, monkeypatch):
        """A stats request waiting for a held move holds up no query:
        queries still answer from the published generation 0."""
        design = build_testcase("ispd18_test1", scale=0.004)
        oracle = PinAccessOracle(design)
        inst = list(design.instances.values())[3]
        pin = inst.master.signal_pins()[0].name
        server, addr = start_server(tmp_path, {"t1": oracle})
        release, mover, _ = self.hold_move(monkeypatch, oracle, inst)
        stats, answers = [], []

        def ask(out, call):
            with OracleClient(addr) as client:
                out.append(call(client))

        statter = threading.Thread(
            target=ask, args=(stats, lambda client: client.stats())
        )
        querier = threading.Thread(
            target=ask,
            args=(answers, lambda client: client.query(inst.name, pin)),
        )
        try:
            statter.start()
            statter.join(timeout=0.2)  # let it wait for the held move
            querier.start()
            querier.join(timeout=5)
            assert not stats
            assert [answer["generation"] for answer in answers] == [0]
        finally:
            release.set()
            for thread in (mover, statter, querier):
                if thread.ident is not None:
                    thread.join(timeout=10)
            server.stop()
        assert not any(t.is_alive() for t in (mover, statter, querier))
        assert stats[0]["sessions"]["t1"]["moves"] == 1


def every_answer(snap) -> dict:
    """Return ``(instance, pin) -> answer`` over ``snap``'s pin universe."""
    return {
        (inst, pin): snap.query(inst, pin)
        for inst, pins in snap.pins_by_inst.items()
        for pin in pins
    }


class TestRenderAnswer:
    """``render_answer`` equals the reference rendering byte for byte."""

    @staticmethod
    def assert_renders_alike(snap) -> int:
        for (inst, pin), answer in every_answer(snap).items():
            want = encode_frame(answer_to_wire(answer, snap.generation))
            assert encode_frame(render_answer(snap, inst, pin)) == want
        return sum(
            not answer.accessible for answer in every_answer(snap).values()
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_testcase(
                "ispd18_test1", scale=0.004, multi_height_fraction=0.1
            ),
            lambda: build_pinzoo("pinzoo_hostile", 1.0),
            lambda: build_testcase("ispd18_test9", scale=0.002),
        ],
        ids=["ispd18_test1@0.004", "pinzoo_hostile@1", "ispd18_test9@0.002"],
    )
    def test_every_pin_after_seeded_moves(self, build):
        design = build()
        oracle = PinAccessOracle(design)
        if design.name.startswith("ispd18_test9"):
            # Step 3's repair pass moved a pin here: the selection's
            # pattern is none of its unique access's patterns.
            assert repaired_pins(oracle.snapshot)
        home = {name: i.location for name, i in design.instances.items()}
        rng = random.Random(7)
        inaccessible = self.assert_renders_alike(oracle.snapshot)
        for _ in range(6):
            moves = legal_moves(design, home)
            kind = rng.choice([k for k in moves if moves[k]])
            name, target = rng.choice(moves[kind])
            oracle.move_instance(name, target.x, target.y)
            inaccessible += self.assert_renders_alike(oracle.snapshot)
        if design.name.startswith("pinzoo_hostile"):
            assert inaccessible > 0

    def test_repaired_pin_and_errors(self):
        """A pin Step 3 repaired renders its Step 1 point, in design
        coordinates; unknown names raise as ``Snapshot.query`` does."""
        design = build_testcase("ispd18_test9", scale=0.002)
        snap = PinAccessOracle(design).snapshot
        name, pin, index = repaired_pins(snap)[0]
        held = snap.selection[name]
        alt = held.unique_access.aps_by_pin[pin][index]
        dp_pattern = held.unique_access.patterns[held.key[1]]
        assert dp_pattern.aps[pin] is not alt
        got = render_answer(snap, name, pin)
        assert (got["selected"]["x"], got["selected"]["y"]) == (
            alt.x + held.dx,
            alt.y + held.dy,
        )
        assert got["selected"] in got["alternatives"]
        self.assert_renders_alike(snap)
        with pytest.raises(UnknownInstanceError):
            render_answer(snap, "ghost", pin)
        with pytest.raises(UnknownPinError):
            render_answer(snap, name, "NOPE")


def repaired_pins(snap) -> list:
    """Return ``(instance, pin, index)`` of each pin Step 3 repaired.

    A repaired selection's pattern is none of its unique access's
    patterns, and its key names each repair, in order, as ``(pin,
    index)`` into the pin's Step 1 points.
    """
    return [
        (name, pin, index)
        for name, selected in snap.selection.items()
        if selected.pattern is not None
        and selected.pattern not in selected.unique_access.patterns
        for pin, index in dict(selected.key[2:]).items()
    ]


class TestSnapshotImmutability:
    def test_held_snapshot_survives_later_moves(self):
        """Copy-on-write never edits an entry an older snapshot shares.

        A reader holding generation 1 must keep its answers -- every
        pin's selected access point and alternatives, and the pin
        universe -- while later moves publish generations that share
        entries with it.
        """
        design = build_testcase(
            "ispd18_test1", scale=0.008, multi_height_fraction=0.1
        )
        oracle = PinAccessOracle(design)
        moves = one_site_moves(design)[:5]
        inst, target = moves[0]
        oracle.move_instance(inst.name, target.x, target.y)
        held = oracle.snapshot
        assert held.generation == 1
        before = copy.deepcopy(every_answer(held))
        pins_before = copy.deepcopy(held.pins_by_inst)
        for inst, target in moves[1:]:
            oracle.move_instance(inst.name, target.x, target.y)
        assert every_answer(held) == before
        assert held.pins_by_inst == pins_before
        assert oracle.snapshot.generation == 5
        now = every_answer(oracle.snapshot)
        assert any(now[k].selected != before[k].selected for k in before)
        assert any(
            now[k].alternatives != before[k].alternatives for k in before
        )

    def test_move_shares_untouched_entries(self, monkeypatch):
        """A move's snapshot shares, by identity, every entry it kept:
        each selection the move did not re-select, and the pin
        universe."""
        design = build_testcase(
            "ispd18_test1", scale=0.008, multi_height_fraction=0.1
        )
        oracle = PinAccessOracle(design)
        reselected = []
        select = oracle.framework.selector.select

        def recorded_select(clusters, placements):
            partial = select(clusters, placements)
            reselected.append(set(partial.selection))
            return partial

        monkeypatch.setattr(
            oracle.framework.selector, "select", recorded_select
        )
        for inst, target in one_site_moves(design)[:5]:
            before = oracle.snapshot
            oracle.move_instance(inst.name, target.x, target.y)
            after = oracle.snapshot
            again = reselected[-1]
            assert inst.name in again
            assert len(again) < len(after.selection)
            assert after.pins_by_inst is before.pins_by_inst
            assert after.selection.keys() == before.selection.keys()
            for name, selected in after.selection.items():
                shared = selected is before.selection[name]
                assert shared == (name not in again), name


class TestConcurrency:
    def test_no_torn_reads_across_moves(self, tmp_path):
        """Concurrent batches never mix pre- and post-move answers.

        A writer bounces one instance between two placements while
        reader threads hammer batch queries.  Every batch must (a)
        carry a single generation and (b) equal, pin for pin, the
        sequential reference answers for that generation's placement.
        """
        design = build_testcase("ispd18_test1", scale=0.01)
        oracle = PinAccessOracle(design)
        inst = list(design.instances.values())[3]
        site = design.tech.site_width
        x0, y0 = inst.location.x, inst.location.y
        x1 = x0 + 4 * site

        # Sequential reference: wire answers at placement A (even
        # generations) and placement B (odd generations).
        pins = all_pins(design)
        reference = {}
        oracle0 = PinAccessOracle(design)
        reference[0] = {
            (i, p): answer_to_wire(oracle0.query(i, p), 0)
            for i, p in pins
        }
        oracle.move_instance(inst.name, x1, y0)
        oracle1 = PinAccessOracle(design)
        reference[1] = {
            (i, p): answer_to_wire(oracle1.query(i, p), 0)
            for i, p in pins
        }
        oracle.move_instance(inst.name, x0, y0)  # back to A (gen 2)

        server, addr = start_server(tmp_path, {"t1": oracle}, max_clients=16)
        failures = []
        stop = threading.Event()

        def reader():
            try:
                with OracleClient(addr) as client:
                    while not stop.is_set():
                        answers = client.query_batch(
                            pins, chunk_size=len(pins)
                        )
                        gens = {a["generation"] for a in answers}
                        if len(gens) != 1:
                            failures.append(f"torn batch: {gens}")
                            return
                        gen = gens.pop()
                        expect = reference[gen % 2]
                        for (i, p), got in zip(pins, answers):
                            want = dict(expect[(i, p)])
                            want["generation"] = gen
                            if got != want:
                                failures.append(
                                    f"gen {gen} mismatch at {i}/{p}"
                                )
                                return
            except Exception as exc:  # noqa: BLE001 -- report, don't hang
                failures.append(f"reader crashed: {exc!r}")

        def writer():
            try:
                with OracleClient(addr) as client:
                    for move in range(10):
                        x = x1 if move % 2 == 0 else x0
                        client.move_instance(inst.name, x, y0)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"writer crashed: {exc!r}")
            finally:
                stop.set()

        # Snapshots share entries across generations, so switch threads
        # often enough for a reader to land mid-publication.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader) for _ in range(4)
            ]
            writer_thread = threading.Thread(target=writer)
            for thread in threads:
                thread.start()
            writer_thread.start()
            writer_thread.join(timeout=60)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not writer_thread.is_alive()
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[0]
            assert oracle.snapshot.generation == 12  # 2 setup + 10
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            server.stop()

    def test_overload_backpressure(self, tmp_path, served):
        _, oracle = served
        server, addr = start_server(tmp_path, {"t1": oracle}, max_clients=0)
        try:
            with pytest.raises((ServerError, ConnectionError)) as err:
                with OracleClient(addr, connect_retries=1) as client:
                    client.health()
            if isinstance(err.value, ServerError):
                assert err.value.code == protocol.E_OVERLOADED
        finally:
            server.stop()


class TestShutdown:
    def test_shutdown_op_drains_and_unlinks(self, tmp_path):
        design = make_simple_design(__import__(
            "repro.tech", fromlist=["make_n45"]
        ).make_n45())
        oracle = PinAccessOracle(design)
        server, addr = start_server(tmp_path, {"simple": oracle})
        with OracleClient(addr) as client:
            assert client.shutdown() == {"draining": True}
        server._drained.wait(timeout=10)
        assert not server.running
        assert not os.path.exists(addr[1])

    def test_health_says_draining_while_draining(self, tmp_path):
        design = make_simple_design(__import__(
            "repro.tech", fromlist=["make_n45"]
        ).make_n45())
        oracle = PinAccessOracle(design)
        server, addr = start_server(tmp_path, {"simple": oracle})
        # Hold one health request inside its handler until the drain
        # has begun; the drain lets it finish and it must say so.
        entered, release = threading.Event(), threading.Event()
        health_op = server._op_health

        def held_health(request):
            entered.set()
            release.wait(timeout=10)
            return health_op(request)

        server._op_health = held_health
        replies = []
        with OracleClient(addr) as client:
            asker = threading.Thread(
                target=lambda: replies.append(client.health())
            )
            asker.start()
            assert entered.wait(timeout=10)
            drain = threading.Thread(target=server.stop)
            drain.start()
            assert server._stop.wait(timeout=10)
            release.set()
            asker.join(timeout=10)
        drain.join(timeout=10)
        assert [r["status"] for r in replies] == ["draining"]
        assert replies[0]["sessions"] == ["simple"]
        assert not server.running

    def test_frame_read_while_draining_is_refused(
        self, tmp_path, monkeypatch
    ):
        """A request that arrives once the drain has begun is answered
        ``shutting_down`` and its connection closed, even on a
        connection opened before the drain."""
        import socket as socketlib

        design = make_simple_design(__import__(
            "repro.tech", fromlist=["make_n45"]
        ).make_n45())
        oracle = PinAccessOracle(design)
        server, addr = start_server(tmp_path, {"simple": oracle})
        # The drain starts only once the handler waits in its second
        # read, so the second request is read after the drain began.
        calls, reading = itertools.count(1), threading.Event()
        server_read = protocol.read_frame

        def counted_read(rfile):
            if next(calls) == 2:
                reading.set()
            return server_read(rfile)

        monkeypatch.setattr(protocol, "read_frame", counted_read)
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        rfile = sock.makefile("rb")
        drain = threading.Thread(target=server.stop)

        def health(req_id):
            frame = {"v": protocol.PROTOCOL, "id": req_id, "op": "health"}
            sock.sendall(encode_frame(frame))
            return read_frame(rfile)

        try:
            sock.connect(addr[1])
            assert health(1)["result"]["status"] == "ok"
            assert reading.wait(timeout=10)
            drain.start()
            assert server._stop.wait(timeout=10)
            response = health(2)
            assert response["ok"] is False
            assert response["id"] == 2
            assert response["error"]["code"] == protocol.E_SHUTTING_DOWN
            assert rfile.read(1) == b""  # server hung up
        finally:
            rfile.close()
            sock.close()
            server.stop()
            if drain.ident is not None:
                drain.join(timeout=10)
        assert not drain.is_alive()
        assert not server.running

    def test_stop_is_idempotent(self, tmp_path):
        design = make_simple_design(__import__(
            "repro.tech", fromlist=["make_n45"]
        ).make_n45())
        oracle = PinAccessOracle(design)
        server, addr = start_server(tmp_path, {"simple": oracle})
        server.stop()
        server.stop()
        assert not server.running

    def test_stop_joins_a_handler_only_once_started(
        self, tmp_path, monkeypatch
    ):
        """A stop() that lands while the accept loop is starting a
        connection's handler waits for the start, then drains."""
        server, addr = start_server(tmp_path)
        starting, release = threading.Event(), threading.Event()
        start = threading.Thread.start

        def held_start(thread):
            if thread.name == "pao-conn":
                starting.set()
                release.wait(timeout=10)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", held_start)
        errors = []

        def stop():
            try:
                server.stop()
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        with OracleClient(addr):
            assert starting.wait(timeout=10)
            stopper = threading.Thread(target=stop, name="stopper")
            stopper.start()
            stopper.join(timeout=0.2)  # let stop() meet the handler
            release.set()
            stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert errors == []
        assert not server.running


class TestWarmStart:
    def test_restart_is_cache_load_not_reanalysis(self, tmp_path):
        cache_dir = str(tmp_path / "apcache")
        from repro.core import PaafConfig

        design = build_testcase("ispd18_test1", scale=0.01)
        cold = PinAccessOracle(design, PaafConfig(cache_dir=cache_dir))
        cold_stats = dict(
            cold.framework.cache.stats()
        )
        assert cold_stats["apcache.store"] > 0

        # "Restart": a fresh process would do exactly this.
        design2 = build_testcase("ispd18_test1", scale=0.01)
        warm = PinAccessOracle(design2, PaafConfig(cache_dir=cache_dir))
        warm_stats = warm.framework.cache.stats()
        assert warm_stats["apcache.miss"] == 0
        assert warm_stats["apcache.hit"] > 0
        assert warm.framework.cache.entry_count() > 0
        # Same answers either way.
        assert {
            k: (a.x, a.y) for k, a in warm.snapshot.access_map().items()
        } == {
            k: (a.x, a.y) for k, a in cold.snapshot.access_map().items()
        }


# -- CLI ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def lefdef_pair(tmp_path_factory):
    from repro.lefdef import write_def, write_lef

    design = build_testcase("ispd18_test1", scale=0.004)
    root = tmp_path_factory.mktemp("serve-cli")
    lef = root / "t1.lef"
    def_path = root / "t1.def"
    lef.write_text(
        write_lef(design.tech, list(design.masters.values()))
    )
    def_path.write_text(write_def(design))
    return design, str(lef), str(def_path)


class TestLoadDesignWire:
    def test_malformed_inputs_are_bad_requests(self, tmp_path, lefdef_pair):
        """A LEF or DEF the parsers reject is the client's error, as an
        unreadable path is: ``bad_request`` naming the file."""
        _, lef, def_path = lefdef_pair
        bad = {}
        for path, block in (
            (lef, r"^LAYER (\S+)\n.*?^END \1\n"),
            (def_path, r"^- net_\S+ \(.*?;\n"),
        ):
            with open(path) as handle:
                text = handle.read()
            match = re.search(block, text, re.M | re.S)
            bad[path] = str(tmp_path / ("dup" + os.path.splitext(path)[1]))
            with open(bad[path], "w") as handle:
                handle.write(text[: match.end()] + match[0])
                handle.write(text[match.end():])
        orient = str(tmp_path / "orient.def")
        with open(def_path) as handle:
            text, count = re.subn(
                r"^(- inst_\S+ \S+ \+ PLACED \( \d+ \d+ \) )\w+( ;)$",
                r"\1Q\2", handle.read(), count=1, flags=re.M,
            )
        assert count == 1
        with open(orient, "w") as handle:
            handle.write(text)
        tracks = str(tmp_path / "tracks.def")
        with open(def_path) as handle:
            text, count = re.subn(
                r"^(TRACKS \S+ -?\d+ DO \d+ STEP )\d+( LAYER (\S+) ;)$",
                r"\g<1>0\2", handle.read(), count=1, flags=re.M,
            )
        assert count == 1
        with open(tracks, "w") as handle:
            handle.write(text)
        server, addr = start_server(tmp_path)
        try:
            with OracleClient(addr) as client:
                for inputs, message in (
                    ((bad[lef], def_path), f"{bad[lef]}: duplicate layer"),
                    ((lef, bad[def_path]), f"{bad[def_path]}: duplicate net"),
                    (
                        (lef, orient),
                        f"{orient}: expected an orientation, got 'Q'",
                    ),
                    (
                        (lef, tracks),
                        f"{tracks}: TRACKS on M1: track step must be "
                        f"positive",
                    ),
                    ((lef, def_path + ".gone"), "cannot read design inputs"),
                ):
                    with pytest.raises(ServerError) as info:
                        client.load_design("d", *inputs)
                    assert info.value.code == "bad_request"
                    assert info.value.message.startswith(message)
                assert client.health()["sessions"] == []
        finally:
            server.stop()

    def test_old_client_jobs_key_is_ignored(self, tmp_path, lefdef_pair):
        """A ``load_design`` frame from an older client carries ``jobs``.

        The server accepts and ignores the key: the design loads and
        answers exactly like one loaded by a frame without it.
        """
        import socket as socketlib

        design, lef, def_path = lefdef_pair
        server, addr = start_server(tmp_path)
        try:
            sock = socketlib.socket(
                socketlib.AF_UNIX, socketlib.SOCK_STREAM
            )
            sock.connect(addr[1])
            frame = {
                "v": protocol.PROTOCOL,
                "id": 1,
                "op": "load_design",
                "design": "old",
                "lef": lef,
                "def": def_path,
                "cache_dir": None,
                "jobs": 2,
            }
            sock.sendall(encode_frame(frame))
            response = read_frame(sock.makefile("rb"))
            sock.close()
            assert response["ok"] is True
            assert response["result"]["loaded"] is True
            pins = all_pins(design)
            with OracleClient(addr) as client:
                client.load_design("new", lef, def_path)
                old = client.query_batch(pins, design="old")
                new = client.query_batch(pins, design="new")
            assert old == new
        finally:
            server.stop()


class TestCli:
    def test_serve_and_query_subprocess(self, tmp_path, lefdef_pair):
        design, lef, def_path = lefdef_pair
        sock = str(tmp_path / "pao.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        )
        log_path = tmp_path / "serve.log"
        # The daemon writes to its own copy of the descriptor; a file
        # instead of an unread pipe cannot fill up or leak.
        with open(log_path, "w") as log:
            daemon = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--lef", lef, "--def", def_path, "--socket", sock,
                ],
                cwd=os.path.dirname(os.path.dirname(__file__)),
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            # The client library's dial retry covers daemon startup.
            with OracleClient(
                ("unix", sock), connect_retries=120, backoff=0.25,
                max_backoff=0.25,
            ) as client:
                names = client.health()["sessions"]
                assert len(names) == 1

            def run_query(*args):
                return subprocess.run(
                    [sys.executable, "-m", "repro", "query",
                     "--socket", sock, *args],
                    cwd=os.path.dirname(os.path.dirname(__file__)),
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=120,
                )

            inst = next(iter(design.instances.values()))
            pin = inst.master.signal_pins()[0].name
            result = run_query(f"{inst.name}/{pin}", "--json")
            assert result.returncode in (0, 1), result.stderr
            answers = json.loads(result.stdout)
            assert answers[0]["instance"] == inst.name

            result = run_query("--health")
            assert result.returncode == 0
            assert "status=ok" in result.stdout

            result = run_query("--metrics")
            assert result.returncode == 0
            assert "serve_request_query_batch_total" in result.stdout

            result = run_query("--shutdown")
            assert result.returncode == 0
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        output = log_path.read_text()
        assert "serving " in output
        assert "drained, exiting" in output

    def test_query_requires_action(self):
        from repro.cli import main

        assert main(["query", "--socket", "/tmp/x.sock"]) == 2

    def test_endpoint_validation(self):
        from repro.cli import main

        assert (
            main(["query", "--health", "--socket", "/tmp/x",
                  "--port", "1"])
            == 2
        )
        assert main(["query", "--health"]) == 2
