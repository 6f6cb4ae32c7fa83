"""The pin access daemon: analyze once, serve queries forever after.

:class:`OracleServer` hosts named
:class:`~repro.core.oracle.PinAccessOracle` objects behind the
``repro.serve/v1`` protocol on a TCP or Unix-domain socket.  One
thread accepts connections; each connection gets a handler thread
that loops read-frame / dispatch / write-frame until the peer closes,
a frame error forces a close, or the server drains.

Operational discipline:

* **Backpressure** -- at most ``max_clients`` concurrent connections;
  excess connections receive an ``overloaded`` error envelope and are
  closed instead of queueing unboundedly.
* **Timeouts** -- per-connection socket timeouts bound both idle reads
  and response writes, so a stalled peer cannot pin a handler thread.
* **Graceful drain** -- ``stop()`` (also wired to SIGTERM/SIGINT via
  :meth:`install_signal_handlers`, and to the ``shutdown`` op) closes
  the listener, lets in-flight requests finish up to
  ``drain_seconds``, then closes lingering connections.  A frame read
  once the drain has begun is answered ``shutting_down`` and its
  connection closed.  A drained server leaves ``serve_forever`` with
  exit code 0.
* **Warm start** -- designs are loaded through a
  :class:`~repro.core.config.PaafConfig` whose ``cache_dir`` points at
  the persistent AP cache, so a daemon restart costs a cache load, not
  a re-analysis (the ``apcache.*`` counters land in ``stats``).
* **Observability** -- every request is counted and timed once:
  it ticks ``serve.request.<op>``, failures tick
  ``serve.error.<code>``, its latency lands in the
  ``serve.latency.<op>`` histogram, and the ``metrics`` op exposes
  the whole registry in Prometheus text format (the same renderer as
  ``repro analyze --metrics-out``).  With ``trace=True`` (``repro
  serve --telemetry``) a request that carries a trace context is
  answered with the server's span buffer, so it stitches into one
  cross-process trace (see ``docs/SERVING.md``); an untraced request
  takes the same path as on a plain server.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Optional

from repro.core.config import PaafConfig
from repro.core.oracle import (
    PinAccessOracle,
    UnknownInstanceError,
    UnknownPinError,
)
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    MetricsRegistry,
    prom_label_value,
    render_prometheus,
)
from repro.serve import protocol
from repro.serve.protocol import (
    E_OVERLOADED,
    E_SERVER_ERROR,
    E_SHUTTING_DOWN,
    E_UNKNOWN_DESIGN,
    E_UNKNOWN_INSTANCE,
    E_UNKNOWN_PIN,
    FrameError,
    ProtocolError,
    error_envelope,
    ok_envelope,
    render_answer,
)


class OracleServer:
    """A threaded ``repro.serve/v1`` daemon over TCP or Unix sockets."""

    def __init__(
        self,
        address: tuple,
        sessions: dict = None,
        max_clients: int = 32,
        request_timeout: float = 30.0,
        drain_seconds: float = 5.0,
        allow_load: bool = True,
        trace: bool = False,
    ):
        self.address = address
        self.sessions = dict(sessions or {})
        self.max_clients = max_clients
        self.request_timeout = request_timeout
        self.drain_seconds = drain_seconds
        self.allow_load = allow_load
        self.registry = MetricsRegistry()
        self.trace = trace
        self._metrics_lock = threading.Lock()
        self._sessions_lock = threading.Lock()
        self._stop = threading.Event()
        self._drained = threading.Event()
        self._listener = None
        self._accept_thread = None
        self._handlers = set()
        self._handlers_lock = threading.Lock()
        self._conns = set()
        self._conns_lock = threading.Lock()
        self._started = time.monotonic()
        self.bound_address = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind, listen and start accepting in a background thread."""
        kind = self.address[0]
        if kind == "unix":
            path = self.address[1]
            if os.path.exists(path):
                # A stale socket file from a crashed daemon; a live one
                # would make bind() fail anyway, so probing is moot.
                os.unlink(path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self.bound_address = ("unix", path)
        elif kind == "tcp":
            _, host, port = self.address
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            self.bound_address = ("tcp",) + listener.getsockname()[:2]
        else:
            raise ValueError(f"unknown address kind {kind!r}")
        listener.listen(min(self.max_clients, 128))
        listener.settimeout(0.2)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pao-accept", daemon=True
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Block until the server is stopped and fully drained."""
        if self._listener is None:
            self.start()
        self._drained.wait()

    def stop(self, drain: bool = True) -> None:
        """Initiate shutdown; with ``drain``, let in-flight work finish."""
        if self._stop.is_set():
            return
        self._stop.set()
        deadline = time.monotonic() + (self.drain_seconds if drain else 0.0)
        with self._handlers_lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        # Anything still connected past the drain window is cut off.
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            _close_quietly(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        if self._listener is not None:
            _close_quietly(self._listener)
            self._listener = None
        if self.bound_address and self.bound_address[0] == "unix":
            try:
                os.unlink(self.bound_address[1])
            except OSError:
                pass
        self._drained.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

        def _handle(signum, frame):
            # stop() joins handler threads; do that off the signal
            # frame so an in-flight handler never deadlocks on us.
            threading.Thread(
                target=self.stop, name="pao-drain", daemon=True
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    @property
    def running(self) -> bool:
        """True between ``start()`` and the end of drain."""
        return self._listener is not None and not self._drained.is_set()

    # -- sessions ------------------------------------------------------------

    def add_session(self, name: str, oracle: PinAccessOracle) -> None:
        """Serve a preloaded oracle as ``name`` (the CLI's startup path)."""
        with self._sessions_lock:
            self.sessions[name] = oracle

    def _session_items(self) -> list:
        """Return ``(name, oracle)`` pairs, sorted by name.

        Callers read each oracle's stats after the sessions lock is
        released: ``stats()`` waits for a move in flight, and
        ``_session_for`` must not wait behind it.
        """
        with self._sessions_lock:
            return sorted(self.sessions.items())

    def _session_for(self, name: Optional[str]) -> tuple:
        """Return ``(name, oracle)`` of the design a request names."""
        with self._sessions_lock:
            if name is None:
                if len(self.sessions) == 1:
                    return next(iter(self.sessions.items()))
                raise ProtocolError(
                    "request names no design and the server hosts "
                    f"{len(self.sessions)} sessions",
                    code=E_UNKNOWN_DESIGN,
                )
            oracle = self.sessions.get(name)
        if oracle is None:
            raise ProtocolError(
                f"no loaded design named {name!r}", code=E_UNKNOWN_DESIGN
            )
        return name, oracle

    # -- accept / handler loops ----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._handlers_lock:
                active = len(self._handlers)
            if active >= self.max_clients:
                self._tick("serve.reject.overloaded")
                self._refuse(conn, E_OVERLOADED, "server at max_clients")
                continue
            if self._stop.is_set():
                self._refuse(conn, E_SHUTTING_DOWN, "server is draining")
                break
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="pao-conn",
                daemon=True,
            )
            with self._handlers_lock:
                self._handlers.add(thread)
            with self._conns_lock:
                self._conns.add(conn)
            thread.start()

    def _refuse(self, conn, code: str, message: str, req_id: int = 0) -> None:
        try:
            conn.settimeout(1.0)
            conn.sendall(
                protocol.encode_frame(error_envelope(req_id, code, message))
            )
        except OSError:
            pass
        _close_quietly(conn)

    def _handle_connection(self, conn) -> None:
        rfile = wfile = None
        try:
            conn.settimeout(self.request_timeout)
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            while not self._stop.is_set():
                try:
                    frame = protocol.read_frame(rfile)
                except FrameError as exc:
                    self._tick(f"serve.error.{exc.code}")
                    _send_quietly(wfile, error_envelope(0, exc.code, str(exc)))
                    break
                except (socket.timeout, OSError):
                    break
                if frame is None:
                    break
                if self._stop.is_set():
                    # Read after the drain began: no new work starts.
                    message = "server is draining"
                    req_id = _frame_id(frame)
                    self._refuse(conn, E_SHUTTING_DOWN, message, req_id)
                    break
                blob, hangup = self._dispatch(frame)
                try:
                    wfile.write(blob)
                    wfile.flush()
                except OSError:
                    break
                if hangup:
                    break
        finally:
            # The file objects hold the socket's descriptor open until
            # they are closed too; close them first, then the socket.
            for stream in (wfile, rfile, conn):
                if stream is not None:
                    _close_quietly(stream)
            with self._conns_lock:
                self._conns.discard(conn)
            with self._handlers_lock:
                self._handlers.discard(threading.current_thread())

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, frame: dict) -> tuple:
        """Answer one decoded frame.

        Returns ``(blob, hangup)``: the encoded response frame and
        whether to close the connection after writing it.
        """
        t0 = time.perf_counter()
        op = frame.get("op")
        op_label = op if isinstance(op, str) and op.isidentifier() else "bad"
        hangup = False
        trace_id = None
        req_tracer = None
        token = None
        if self.trace:
            trace_id = protocol.frame_trace_id(frame)
            if trace_id is not None:
                req_tracer = obs_trace.Tracer()
                token = obs_trace.swap(req_tracer)
        try:
            try:
                with obs_trace.span(
                    "serve.request", op=op_label, trace=trace_id or ""
                ):
                    with obs_trace.span("serve.parse"):
                        request = protocol.parse_request(frame)
                    with obs_trace.span("serve.answer", op=request.op):
                        handler = getattr(self, f"_op_{request.op}")
                        result = handler(request)
                response = ok_envelope(request.req_id, result)
                if isinstance(request, protocol.ShutdownRequest):
                    hangup = True
            except ProtocolError as exc:
                self._tick(f"serve.error.{exc.code}")
                response = error_envelope(
                    _frame_id(frame), exc.code, str(exc)
                )
            except UnknownInstanceError as exc:
                self._tick(f"serve.error.{E_UNKNOWN_INSTANCE}")
                response = error_envelope(
                    _frame_id(frame), E_UNKNOWN_INSTANCE, str(exc)
                )
            except UnknownPinError as exc:
                self._tick(f"serve.error.{E_UNKNOWN_PIN}")
                response = error_envelope(
                    _frame_id(frame), E_UNKNOWN_PIN, str(exc)
                )
            except Exception as exc:  # noqa: BLE001 -- the envelope boundary
                self._tick(f"serve.error.{E_SERVER_ERROR}")
                response = error_envelope(
                    _frame_id(frame),
                    E_SERVER_ERROR,
                    f"{type(exc).__name__}: {exc}",
                )
        finally:
            if token is not None:
                obs_trace.restore(token)
        self._observe(op_label, time.perf_counter() - t0)
        if req_tracer is not None:
            response[protocol.TRACE_FIELD] = {
                "id": trace_id,
                "spans": req_tracer.snapshot(),
            }
        try:
            blob = protocol.encode_frame(response)
        except FrameError as exc:
            self._tick(f"serve.error.{exc.code}")
            blob = protocol.encode_frame(
                error_envelope(_frame_id(frame), exc.code, str(exc))
            )
        return blob, hangup

    # -- operations ----------------------------------------------------------

    def _op_load_design(self, request) -> dict:
        if not self.allow_load:
            raise ProtocolError(
                "this server does not accept load_design",
                code=protocol.E_BAD_REQUEST,
            )
        from repro.lefdef.def_parser import DefParseError, parse_def
        from repro.lefdef.lef_parser import LefParseError, parse_lef

        with self._sessions_lock:
            if request.design in self.sessions:
                oracle = self.sessions[request.design]
                return {
                    "design": request.design,
                    "loaded": False,
                    "generation": oracle.snapshot.generation,
                }
        try:
            with open(request.lef) as handle:
                lef_text = handle.read()
            with open(request.def_path) as handle:
                def_text = handle.read()
        except OSError as exc:
            raise ProtocolError(
                f"cannot read design inputs: {exc}",
                code=protocol.E_BAD_REQUEST,
            ) from exc
        try:
            tech, masters = parse_lef(lef_text)
        except LefParseError as exc:
            raise ProtocolError(
                f"{request.lef}: {exc}", code=protocol.E_BAD_REQUEST
            ) from exc
        try:
            design = parse_def(def_text, tech, masters)
        except DefParseError as exc:
            raise ProtocolError(
                f"{request.def_path}: {exc}", code=protocol.E_BAD_REQUEST
            ) from exc
        config = PaafConfig(cache_dir=request.cache_dir)
        oracle = PinAccessOracle(design, config)
        self.add_session(request.design, oracle)
        return {
            "design": request.design,
            "loaded": True,
            "generation": oracle.snapshot.generation,
            "analyze_seconds": round(oracle.analyze_seconds, 6),
        }

    def _op_query(self, request) -> dict:
        name, oracle = self._session_for(request.design)
        return {
            "design": name,
            "answer": render_answer(
                oracle.snapshot, request.instance, request.pin
            ),
        }

    def _op_query_batch(self, request) -> dict:
        name, oracle = self._session_for(request.design)
        snap = oracle.snapshot
        return {
            "design": name,
            "generation": snap.generation,
            "answers": [
                render_answer(snap, inst, pin) for inst, pin in request.pins
            ],
        }

    def _op_move_instance(self, request) -> dict:
        name, oracle = self._session_for(request.design)
        generation, update_seconds = oracle.move_instance(
            request.instance, request.x, request.y
        )
        self._tick("serve.moves.applied")
        return {
            "design": name,
            "generation": generation,
            "update_seconds": round(update_seconds, 6),
        }

    def _op_stats(self, request) -> dict:
        sessions = {
            name: oracle.stats() for name, oracle in self._session_items()
        }
        with self._metrics_lock:
            counters = dict(self.registry.counters)
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "sessions": sessions,
            "counters": counters,
        }

    def _op_health(self, request) -> dict:
        with self._sessions_lock:
            names = sorted(self.sessions)
        return {
            "status": "draining" if self._stop.is_set() else "ok",
            "protocol": protocol.PROTOCOL,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "sessions": names,
        }

    def _op_metrics(self, request) -> dict:
        """Render the registry families, then per-session gauges."""
        with self._metrics_lock:
            text = render_prometheus(self.registry)
        lines = [text.rstrip("\n")] if text.strip() else []
        stats = {
            name: oracle.stats() for name, oracle in self._session_items()
        }
        for metric, key in (
            ("serve_session_generation", "generation"),
            ("serve_session_answers", "served_pins"),
            ("serve_session_cache_entries", "cache_entries"),
        ):
            lines.append(f"# TYPE {metric} gauge")
            for name, row in stats.items():
                label = prom_label_value(name)
                lines.append(f'{metric}{{design="{label}"}} {row[key]}')
        return {
            "content_type": "text/plain; version=0.0.4",
            "text": "\n".join(lines) + "\n",
        }

    def _op_shutdown(self, request) -> dict:
        # Acknowledge first; the drain starts on a helper thread so
        # this handler can still flush its response frame.
        threading.Thread(
            target=self.stop, name="pao-drain", daemon=True
        ).start()
        return {"draining": True}

    # -- metrics helpers -----------------------------------------------------

    def _tick(self, name: str) -> None:
        with self._metrics_lock:
            self.registry.incr(name)

    def _observe(self, op_label: str, seconds: float) -> None:
        with self._metrics_lock:
            self.registry.incr(f"serve.request.{op_label}")
            self.registry.observe(f"serve.latency.{op_label}", seconds)


def _frame_id(frame: dict) -> int:
    """Best-effort correlation id of a possibly malformed frame."""
    req_id = frame.get("id", 0)
    if isinstance(req_id, bool) or not isinstance(req_id, int):
        return 0
    return req_id


def _close_quietly(closable) -> None:
    try:
        closable.close()
    except OSError:
        pass


def _send_quietly(wfile, obj: dict) -> None:
    try:
        protocol.write_frame(wfile, obj)
    except (FrameError, OSError):
        pass
