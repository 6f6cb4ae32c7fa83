"""The pin access daemon: analyze once, serve queries forever after.

:class:`OracleServer` hosts named :class:`~repro.serve.session.DesignSession`
objects behind the ``repro.serve/v1`` protocol on a TCP or Unix-domain
socket.  One thread accepts connections; each connection gets a
handler thread that loops read-frame / dispatch / write-frame until
the peer closes, a frame error forces a close, or the server drains.

Operational discipline:

* **Backpressure** -- at most ``max_clients`` concurrent connections;
  excess connections receive an ``overloaded`` error envelope and are
  closed instead of queueing unboundedly.
* **Timeouts** -- per-connection socket timeouts bound both idle reads
  and response writes, so a stalled peer cannot pin a handler thread.
* **Graceful drain** -- ``stop()`` (also wired to SIGTERM/SIGINT via
  :meth:`install_signal_handlers`, and to the ``shutdown`` op) closes
  the listener, lets in-flight requests finish up to
  ``drain_seconds``, then closes lingering connections.  A drained
  server leaves ``serve_forever`` with exit code 0.
* **Warm start** -- sessions are loaded through a
  :class:`~repro.core.config.PaafConfig` whose ``cache_dir`` points at
  the persistent AP cache, so a daemon restart costs a cache load, not
  a re-analysis (the ``apcache.*`` counters land in ``stats``).
* **Observability** -- every request ticks ``serve.request.<op>``,
  failures tick ``serve.error.<code>``, latencies land in
  ``serve.latency.<op>`` histograms, and the ``metrics`` op exposes
  the whole registry in Prometheus text format (the same renderer as
  ``repro analyze --metrics-out``).  With a :class:`ServeTelemetry`
  attached the daemon additionally tracks per-op RED windows
  (rate / errors / duration quantiles), evaluates a declarative SLO
  table into ``health``, writes the ``repro.serve.access/v1`` log,
  and answers tracing clients with its server-side span buffer so
  each request stitches into one cross-process trace (see
  ``docs/SERVING.md``).  With no telemetry attached the per-request
  overhead is a single ``is None`` test.
"""

from __future__ import annotations

import functools
import os
import signal
import socket
import threading
import time
from typing import Optional

from repro.core.config import PaafConfig
from repro.core.oracle import UnknownInstanceError, UnknownPinError
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    MetricsRegistry,
    prom_label_value,
    render_prometheus,
)
from repro.obs.slo import DEFAULT_OBJECTIVES, RedWindow, SloTable
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
    answer_to_wire,
    error_envelope,
    ok_envelope,
)
from repro.serve.session import DesignSession


class ServeTelemetry:
    """The daemon's optional request-telemetry bundle.

    Owns the per-op :class:`~repro.obs.slo.RedWindow` map, the
    :class:`~repro.obs.slo.SloTable`, the optional
    :class:`~repro.obs.accesslog.AccessLog`, and the ``trace`` switch
    that makes the server echo span buffers to tracing clients.  The
    server holds at most one of these; passing ``telemetry=None``
    (the default) keeps the request path at its untelemetered cost.
    """

    __slots__ = ("slo", "access_log", "trace", "_red", "_window", "_lock")

    def __init__(
        self,
        objectives=DEFAULT_OBJECTIVES,
        access_log=None,
        trace: bool = True,
        window_samples: int = 1024,
        window_seconds: int = 60,
    ):
        self.slo = SloTable(objectives)
        self.access_log = access_log
        self.trace = trace
        self._red = {}
        self._window = (window_samples, window_seconds)
        self._lock = threading.Lock()

    def observe(self, op: str, seconds: float, error: bool) -> None:
        """Feed one request outcome into the op's RED window."""
        with self._lock:
            window = self._red.get(op)
            if window is None:
                samples, span_s = self._window
                window = RedWindow(
                    window_samples=samples, window_seconds=span_s
                )
                self._red[op] = window
            window.observe(seconds, error=error)

    def red_snapshot(self) -> dict:
        """Return ``{op: RED snapshot}`` for every op seen so far."""
        with self._lock:
            return {
                op: window.snapshot()
                for op, window in sorted(self._red.items())
            }

    def slo_report(self, red: dict = None) -> dict:
        """Evaluate the SLO table against current (or given) RED data."""
        return self.slo.evaluate(
            red if red is not None else self.red_snapshot()
        )

    def record(self, entry: dict, trace_doc=None) -> None:
        """Forward one request record to the access log, if any."""
        if self.access_log is not None:
            self.access_log.record(entry, trace_doc=trace_doc)

    def close(self) -> None:
        if self.access_log is not None:
            self.access_log.close()


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
        tracer=None,
        telemetry: Optional[ServeTelemetry] = None,
    ):
        self.address = address
        self.sessions = dict(sessions or {})
        self.max_clients = max_clients
        self.request_timeout = request_timeout
        self.drain_seconds = drain_seconds
        self.allow_load = allow_load
        self.registry = MetricsRegistry()
        self.tracer = tracer
        self.telemetry = telemetry
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
        if self.telemetry is not None:
            self.telemetry.close()
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

    def add_session(self, session: DesignSession) -> None:
        """Register a preloaded session (the CLI's startup path)."""
        with self._sessions_lock:
            self.sessions[session.name] = session

    def _session_for(self, name: Optional[str]) -> DesignSession:
        with self._sessions_lock:
            if name is None:
                if len(self.sessions) == 1:
                    return next(iter(self.sessions.values()))
                raise ProtocolError(
                    "request names no design and the server hosts "
                    f"{len(self.sessions)} sessions",
                    code=E_UNKNOWN_DESIGN,
                )
            session = self.sessions.get(name)
        if session is None:
            raise ProtocolError(
                f"no loaded design named {name!r}", code=E_UNKNOWN_DESIGN
            )
        return session

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

    def _refuse(self, conn, code: str, message: str) -> None:
        try:
            conn.settimeout(1.0)
            conn.sendall(
                protocol.encode_frame(error_envelope(0, code, message))
            )
        except OSError:
            pass
        _close_quietly(conn)

    def _handle_connection(self, conn) -> None:
        if self.tracer is not None:
            obs_trace.swap(self.tracer)
        telemetry = self.telemetry
        try:
            conn.settimeout(self.request_timeout)
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            while not self._stop.is_set():
                try:
                    frame, bytes_in = protocol.read_frame_ex(rfile)
                except FrameError as exc:
                    self._tick(f"serve.error.{exc.code}")
                    _send_quietly(wfile, error_envelope(0, exc.code, str(exc)))
                    break
                except (socket.timeout, OSError):
                    break
                if frame is None:
                    break
                t_recv = time.perf_counter()
                blob, hangup, report = self._dispatch(frame, t_recv=t_recv)
                try:
                    wfile.write(blob)
                    wfile.flush()
                except OSError:
                    break
                if report is not None:
                    entry, trace_doc = report
                    entry["bytes_in"] = bytes_in
                    entry["bytes_out"] = len(blob)
                    entry["total_ms"] = round(
                        (time.perf_counter() - t_recv) * 1e3, 3
                    )
                    telemetry.record(entry, trace_doc=trace_doc)
                if hangup:
                    break
        finally:
            _close_quietly(conn)
            with self._conns_lock:
                self._conns.discard(conn)
            with self._handlers_lock:
                self._handlers.discard(threading.current_thread())

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, frame: dict, t_recv: float = None) -> tuple:
        """Answer one decoded frame.

        Returns ``(blob, hangup, report)``: the encoded response
        frame, whether to close the connection after writing it, and
        -- when the access log is on -- the partially filled log
        entry plus the slow-trace document thunk (the caller
        finishes ``bytes_in`` / ``bytes_out`` / ``total_ms`` after
        the write).  ``t_recv`` is the frame-arrival clock reading;
        the gap to dispatch start is the entry's ``queue_ms``.
        """
        telemetry = self.telemetry
        t0 = time.perf_counter()
        op = frame.get("op")
        op_label = op if isinstance(op, str) and op.isidentifier() else "bad"
        hangup = False
        outcome = "ok"
        request = None
        trace_id = None
        req_tracer = None
        token = None
        if telemetry is not None and telemetry.trace:
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
                outcome = exc.code
                self._tick(f"serve.error.{exc.code}")
                response = error_envelope(
                    _frame_id(frame), exc.code, str(exc)
                )
            except UnknownInstanceError as exc:
                outcome = E_UNKNOWN_INSTANCE
                self._tick(f"serve.error.{E_UNKNOWN_INSTANCE}")
                response = error_envelope(
                    _frame_id(frame), E_UNKNOWN_INSTANCE, str(exc)
                )
            except UnknownPinError as exc:
                outcome = E_UNKNOWN_PIN
                self._tick(f"serve.error.{E_UNKNOWN_PIN}")
                response = error_envelope(
                    _frame_id(frame), E_UNKNOWN_PIN, str(exc)
                )
            except Exception as exc:  # noqa: BLE001 -- the envelope boundary
                outcome = E_SERVER_ERROR
                self._tick(f"serve.error.{E_SERVER_ERROR}")
                response = error_envelope(
                    _frame_id(frame),
                    E_SERVER_ERROR,
                    f"{type(exc).__name__}: {exc}",
                )
        finally:
            if token is not None:
                obs_trace.restore(token)
        dt = time.perf_counter() - t0
        self._observe(op_label, dt)
        report = None
        if telemetry is not None:
            telemetry.observe(op_label, dt, error=outcome != "ok")
            if req_tracer is not None:
                response[protocol.TRACE_FIELD] = {
                    "id": trace_id,
                    "spans": req_tracer.snapshot(),
                }
            if telemetry.access_log is not None:
                design = getattr(request, "design", None)
                if design is None:
                    # The usual single-session daemon: requests omit
                    # the design name, the log still carries it.
                    with self._sessions_lock:
                        if len(self.sessions) == 1:
                            design = next(iter(self.sessions))
                entry = {
                    "op": op_label,
                    "id": _frame_id(frame),
                    "design": design,
                    "trace": trace_id,
                    "outcome": outcome,
                    "queue_ms": round((t0 - t_recv) * 1e3, 3)
                    if t_recv is not None
                    else 0.0,
                    "handle_ms": round(dt * 1e3, 3),
                }
                trace_doc = None
                if req_tracer is not None:
                    trace_doc = functools.partial(
                        obs_trace.chrome_trace, req_tracer
                    )
                report = (entry, trace_doc)
        try:
            blob = protocol.encode_frame(response)
        except FrameError as exc:
            self._tick(f"serve.error.{exc.code}")
            blob = protocol.encode_frame(
                error_envelope(_frame_id(frame), exc.code, str(exc))
            )
        return blob, hangup, report

    # -- operations ----------------------------------------------------------

    def _op_load_design(self, request) -> dict:
        if not self.allow_load:
            raise ProtocolError(
                "this server does not accept load_design",
                code=protocol.E_BAD_REQUEST,
            )
        from repro.lefdef import parse_def, parse_lef

        with self._sessions_lock:
            if request.design in self.sessions:
                session = self.sessions[request.design]
                return {
                    "design": request.design,
                    "loaded": False,
                    "generation": session.snapshot.generation,
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
        tech, masters = parse_lef(lef_text)
        design = parse_def(def_text, tech, masters)
        config = PaafConfig(cache_dir=request.cache_dir)
        session = DesignSession(request.design, design, config)
        self.add_session(session)
        return {
            "design": request.design,
            "loaded": True,
            "generation": session.snapshot.generation,
            "analyze_seconds": round(session.analyze_seconds, 6),
        }

    def _op_query(self, request) -> dict:
        session = self._session_for(request.design)
        snap = session.snapshot
        answer = session.query(request.instance, request.pin, snap=snap)
        return {
            "design": session.name,
            "answer": answer_to_wire(answer, snap.generation),
        }

    def _op_query_batch(self, request) -> dict:
        session = self._session_for(request.design)
        snap = session.snapshot
        answers = session.query_batch(request.pins, snap=snap)
        return {
            "design": session.name,
            "generation": snap.generation,
            "answers": [
                answer_to_wire(a, snap.generation) for a in answers
            ],
        }

    def _op_move_instance(self, request) -> dict:
        session = self._session_for(request.design)
        generation, update_seconds = session.move_instance(
            request.instance, request.x, request.y
        )
        self._tick("serve.moves.applied")
        return {
            "design": session.name,
            "generation": generation,
            "update_seconds": round(update_seconds, 6),
        }

    def _op_stats(self, request) -> dict:
        with self._sessions_lock:
            sessions = {
                name: session.stats()
                for name, session in sorted(self.sessions.items())
            }
        with self._metrics_lock:
            counters = dict(self.registry.counters)
        out = {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "sessions": sessions,
            "counters": counters,
        }
        if self.telemetry is not None:
            out["red"] = self.telemetry.red_snapshot()
        return out

    def _op_health(self, request) -> dict:
        with self._sessions_lock:
            names = sorted(self.sessions)
        out = {
            "status": "draining" if self._stop.is_set() else "ok",
            "protocol": protocol.PROTOCOL,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "sessions": names,
        }
        if self.telemetry is not None:
            out["slo"] = self.telemetry.slo_report()
        return out

    def _op_metrics(self, request) -> dict:
        return {
            "content_type": "text/plain; version=0.0.4",
            "text": render_server_metrics(self),
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


#: Numeric encoding of SLO states for the Prometheus gauges.
_SLO_STATE_VALUE = {"ok": 0, "degraded": 1, "breached": 2}


def render_server_metrics(server: OracleServer) -> str:
    """Render the daemon's full Prometheus exposition.

    The registry families come from
    :func:`~repro.obs.metrics.render_prometheus`; per-session gauges
    are always appended (labelled by design); when telemetry is
    attached, per-op RED series (``serve_red_*`` labelled by op,
    quantiles as a summary) and SLO state gauges follow.  Both the
    ``metrics`` wire op and the HTTP sidecar's ``GET /metrics``
    serve this text; ``parse_prometheus`` validates it.
    """
    with server._metrics_lock:
        text = render_prometheus(server.registry)
    lines = [text.rstrip("\n")] if text.strip() else []
    with server._sessions_lock:
        stats = {
            name: session.stats()
            for name, session in sorted(server.sessions.items())
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
    telemetry = server.telemetry
    if telemetry is not None:
        red = telemetry.red_snapshot()
        for metric, key in (
            ("serve_red_requests_total", "count"),
            ("serve_red_errors_total", "errors"),
        ):
            lines.append(f"# TYPE {metric} counter")
            for op, snap in red.items():
                label = prom_label_value(op)
                lines.append(f'{metric}{{op="{label}"}} {snap[key]}')
        lines.append("# TYPE serve_red_qps gauge")
        for op, snap in red.items():
            label = prom_label_value(op)
            lines.append(f'serve_red_qps{{op="{label}"}} {snap["qps"]}')
        lines.append("# TYPE serve_red_latency_ms summary")
        for op, snap in red.items():
            label = prom_label_value(op)
            for quantile, key in (
                ("0.5", "p50_ms"),
                ("0.95", "p95_ms"),
                ("0.99", "p99_ms"),
            ):
                value = snap.get(key)
                if value is None:
                    continue
                lines.append(
                    f'serve_red_latency_ms{{op="{label}",'
                    f'quantile="{quantile}"}} {value}'
                )
        report = telemetry.slo_report(red)
        lines.append("# TYPE serve_slo_state gauge")
        lines.append(
            f"serve_slo_state {_SLO_STATE_VALUE[report['state']]}"
        )
        lines.append("# TYPE serve_slo_objective_state gauge")
        for row in report["objectives"]:
            label = prom_label_value(row["name"])
            lines.append(
                f'serve_slo_objective_state{{objective="{label}"}} '
                f"{_SLO_STATE_VALUE[row['state']]}"
            )
    return "\n".join(lines) + "\n"


def _frame_id(frame: dict) -> int:
    """Best-effort correlation id of a possibly malformed frame."""
    req_id = frame.get("id", 0)
    if isinstance(req_id, bool) or not isinstance(req_id, int):
        return 0
    return req_id


def _close_quietly(sock) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _send_quietly(wfile, obj: dict) -> None:
    try:
        protocol.write_frame(wfile, obj)
    except (FrameError, OSError):
        pass
