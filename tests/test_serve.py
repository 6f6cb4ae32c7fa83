"""Tests for repro.serve: protocol, daemon, client, concurrency.

The end-to-end sections run a real :class:`OracleServer` on a Unix
socket inside the test process (threads, not subprocesses) so the
reader-writer discipline is exercised against the very design object
the parity oracles analyze.  One CLI test drives ``repro serve`` /
``repro query`` as actual subprocesses.
"""

import copy
import io
import json
import os
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.bench import build_testcase
from repro.core import (
    PinAccessFramework,
    UnknownInstanceError,
    UnknownPinError,
)
from repro.core.oracle import PinAccessOracle
from repro.serve import (
    DesignSession,
    OracleClient,
    OracleServer,
    ServerError,
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
)

from tests.conftest import make_simple_design, one_site_moves


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
        with pytest.raises(UnknownInstanceError):
            oracle.signature_of("ghost")

    def test_incremental_raises_typed(self, simple_design):
        from repro.core import IncrementalPinAccess
        from repro.geom.point import Point

        inc = IncrementalPinAccess(simple_design)
        inc.analyze()
        with pytest.raises(UnknownInstanceError):
            inc.move_instance("ghost", Point(0, 0))


# -- end-to-end daemon --------------------------------------------------------


def start_server(tmp_path, session=None, **kw):
    path = str(tmp_path / "pao.sock")
    server = OracleServer(("unix", path), **kw)
    if session is not None:
        server.add_session(session)
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
    session = DesignSession("t1", design)
    return design, session


class TestEndToEnd:
    def test_thousand_pin_batch_matches_oracle(self, tmp_path, served):
        design, session = served
        server, addr = start_server(tmp_path, session)
        try:
            # The in-process oracle over the very same analysis.
            oracle = PinAccessOracle(design, result=None)
            pins = all_pins(design)
            batch = [pins[i % len(pins)] for i in range(1000)]
            with OracleClient(addr) as client:
                answers = client.query_batch(batch, chunk_size=1000)
            assert len(answers) == 1000
            gen = session.snapshot.generation
            for (inst, pin), got in zip(batch, answers):
                expect = answer_to_wire(oracle.query(inst, pin), gen)
                assert got == expect
        finally:
            server.stop()

    def test_single_query_and_errors(self, tmp_path, served):
        design, session = served
        server, addr = start_server(tmp_path, session)
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

        design, session = served
        server, addr = start_server(tmp_path, session)
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

        _, session = served
        server, addr = start_server(tmp_path, session)
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

    def fresh_session(self):
        design = build_testcase("ispd18_test1", scale=0.01)
        return design, DesignSession("t1", design)

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
            server.add_session(DesignSession(name, design))
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
                        oracle = PinAccessOracle(
                            design, result=PinAccessFramework(design).run()
                        )
                        for (inst_name, pin), got in zip(pins, answers):
                            expect = answer_to_wire(
                                oracle.query(inst_name, pin), generation
                            )
                            assert got == expect, (name, edit)
        finally:
            server.stop()

    def test_move_is_visible_and_stamped(self, tmp_path):
        design, session = self.fresh_session()
        server, addr = start_server(tmp_path, session)
        try:
            inst = next(
                i
                for i in design.instances.values()
                if any(
                    session.snapshot.access.get((i.name, p.name))
                    for p in i.master.signal_pins()
                )
            )
            pin = next(
                p.name
                for p in inst.master.signal_pins()
                if session.snapshot.access.get((inst.name, p.name))
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
        move releases the session write lock, before the server builds
        the first reply; the reply must still carry the first move's
        ``update_seconds``, not the second's.
        """
        design = build_testcase("ispd18_test1", scale=0.004)
        session = DesignSession("t1", design)
        first, second = list(design.instances.values())[3:5]
        site = design.tech.site_width
        target = (first.name, first.location.x + 4 * site, first.location.y)

        own = []
        inc_move = session.inc.move_instance

        def recorded_move(name, location):
            partial = inc_move(name, location)
            own.append(session.inc.last_update_seconds)
            return partial

        monkeypatch.setattr(session.inc, "move_instance", recorded_move)
        select = session.inc.framework.select_patterns

        def slow_select(*args):
            time.sleep(0.02)
            return select(*args)

        session_move = session.move_instance

        def move_then_interleave(name, x, y):
            out = session_move(name, x, y)
            # The lock is free again: a second, slower writer gets in.
            monkeypatch.setattr(
                session.inc.framework, "select_patterns", slow_select
            )
            session_move(
                second.name, second.location.x + site, second.location.y
            )
            return out

        monkeypatch.setattr(session, "move_instance", move_then_interleave)
        server, addr = start_server(tmp_path, session)
        try:
            with OracleClient(addr) as client:
                reply = client.move_instance(*target)
        finally:
            server.stop()
        assert reply["generation"] == 1
        assert len(own) == 2
        assert round(own[0], 6) != round(own[1], 6)
        assert reply["update_seconds"] == round(own[0], 6)


class TestSnapshotImmutability:
    def test_held_snapshot_survives_later_moves(self):
        """Copy-on-write never edits an entry an older snapshot shares.

        A reader holding generation 1 must keep its answers -- the
        access map, every alternatives list and the pin universe --
        while later moves publish generations that share entries
        with it.
        """
        design = build_testcase(
            "ispd18_test1", scale=0.008, multi_height_fraction=0.1
        )
        session = DesignSession("mh", design)
        moves = one_site_moves(design)[:5]
        inst, target = moves[0]
        session.move_instance(inst.name, target.x, target.y)
        held = session.snapshot
        assert held.generation == 1
        before = copy.deepcopy(
            (held.access, held.alternatives, held.pins_by_inst)
        )
        for inst, target in moves[1:]:
            session.move_instance(inst.name, target.x, target.y)
        assert (held.access, held.alternatives, held.pins_by_inst) == before
        assert session.snapshot.generation == 5
        assert session.snapshot.access != held.access
        assert session.snapshot.alternatives != held.alternatives


class TestConcurrency:
    def test_no_torn_reads_across_moves(self, tmp_path):
        """Concurrent batches never mix pre- and post-move answers.

        A writer bounces one instance between two placements while
        reader threads hammer batch queries.  Every batch must (a)
        carry a single generation and (b) equal, pin for pin, the
        sequential reference answers for that generation's placement.
        """
        design = build_testcase("ispd18_test1", scale=0.01)
        session = DesignSession("t1", design)
        inst = list(design.instances.values())[3]
        site = design.tech.site_width
        x0, y0 = inst.location.x, inst.location.y
        x1 = x0 + 4 * site

        # Sequential reference: wire answers at placement A (even
        # generations) and placement B (odd generations).
        pins = all_pins(design)
        reference = {}
        oracle0 = PinAccessOracle(design, result=None)
        reference[0] = {
            (i, p): answer_to_wire(oracle0.query(i, p), 0)
            for i, p in pins
        }
        session.move_instance(inst.name, x1, y0)
        oracle1 = PinAccessOracle(
            design, result=PinAccessFramework(design).run()
        )
        reference[1] = {
            (i, p): answer_to_wire(oracle1.query(i, p), 0)
            for i, p in pins
        }
        session.move_instance(inst.name, x0, y0)  # back to A (gen 2)

        server, addr = start_server(tmp_path, session, max_clients=16)
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
            assert session.snapshot.generation == 12  # 2 setup + 10
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            server.stop()

    def test_overload_backpressure(self, tmp_path, served):
        _, session = served
        server, addr = start_server(tmp_path, session, max_clients=0)
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
        session = DesignSession("simple", design)
        server, addr = start_server(tmp_path, session)
        with OracleClient(addr) as client:
            assert client.shutdown() == {"draining": True}
        server._drained.wait(timeout=10)
        assert not server.running
        assert not os.path.exists(addr[1])

    def test_stop_is_idempotent(self, tmp_path):
        design = make_simple_design(__import__(
            "repro.tech", fromlist=["make_n45"]
        ).make_n45())
        session = DesignSession("simple", design)
        server, addr = start_server(tmp_path, session)
        server.stop()
        server.stop()
        assert not server.running


class TestWarmStart:
    def test_restart_is_cache_load_not_reanalysis(self, tmp_path):
        cache_dir = str(tmp_path / "apcache")
        from repro.core import PaafConfig

        design = build_testcase("ispd18_test1", scale=0.01)
        cold = DesignSession(
            "t1", design, PaafConfig(cache_dir=cache_dir)
        )
        cold_stats = dict(
            cold.inc.framework.cache.stats()
        )
        assert cold_stats["apcache.store"] > 0

        # "Restart": a fresh process would do exactly this.
        design2 = build_testcase("ispd18_test1", scale=0.01)
        warm = DesignSession(
            "t1", design2, PaafConfig(cache_dir=cache_dir)
        )
        warm_stats = warm.inc.framework.cache.stats()
        assert warm_stats["apcache.miss"] == 0
        assert warm_stats["apcache.hit"] > 0
        assert warm.inc.framework.cache.entry_count() > 0
        # Same answers either way.
        assert {
            k: (a.x, a.y) for k, a in warm.inc.access_map().items()
        } == {
            k: (a.x, a.y) for k, a in cold.inc.access_map().items()
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
    def test_old_client_jobs_key_is_ignored(self, tmp_path, lefdef_pair):
        """A ``load_design`` frame from an older client carries ``jobs``.

        The server accepts and ignores the key: the session loads and
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
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--lef", lef, "--def", def_path, "--socket", sock,
            ],
            cwd=os.path.dirname(os.path.dirname(__file__)),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
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
