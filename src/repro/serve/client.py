"""Blocking client library for the ``repro.serve/v1`` daemon.

:class:`OracleClient` owns one connection, retries the initial dial
with exponential backoff (daemons take a moment to analyze or
warm-load a design), and exposes one method per protocol operation.
Error envelopes surface as :class:`ServerError` carrying the stable
wire code, with the ``unknown_instance`` / ``unknown_pin`` codes also
mapped back onto the in-process
:class:`~repro.core.oracle.UnknownInstanceError` /
:class:`~repro.core.oracle.UnknownPinError` types -- carrying the
names asked and the in-process text -- so code written against the
oracle migrates to the daemon without changing its ``except``
clauses.

Usage::

    from repro.serve.client import OracleClient

    with OracleClient(("unix", "/run/pao.sock")) as client:
        answer = client.query("u42", "A")
        answers = client.query_batch([("u42", "A"), ("u43", "Z")])
        client.move_instance("u42", x=15200, y=1400)

With ``trace=True`` the client opens a span tree per request
(``client.request`` > serialize / wait / parse), stamps the trace
context into the frame, and -- when the daemon runs with
``--telemetry`` -- adopts the echoed server spans into its own
tracer so the whole request renders as one stitched Chrome-tracing
track.  The two
machines' monotonic clocks share no epoch, so the server spans are
shifted to sit centered inside the client's ``wait`` span: the wait
interval provably brackets the server's handling, and the residue
(network + scheduling) splits evenly around it.  After every traced
call :attr:`OracleClient.last_timing` holds the per-phase breakdown
(the ``repro query --timing`` surface).

The module keeps its imports light (no analysis machinery) so an
embedding placer pays nothing beyond the socket.
"""

from __future__ import annotations

import socket
import time
import uuid
from typing import Optional

from repro.core.oracle import UnknownInstanceError, UnknownPinError
from repro.obs import trace as obs_trace
from repro.serve import protocol
from repro.serve.protocol import (
    E_UNKNOWN_INSTANCE,
    E_UNKNOWN_PIN,
    HealthRequest,
    LoadDesignRequest,
    MetricsRequest,
    MoveInstanceRequest,
    QueryBatchRequest,
    QueryRequest,
    ShutdownRequest,
    StatsRequest,
    parse_address,
)

__all__ = [
    "OracleClient",
    "ServerError",
    "ConnectionFailed",
    "parse_address",
]


class ServerError(Exception):
    """The daemon answered with an error envelope."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ConnectionFailed(ConnectionError):
    """Could not reach the daemon within the retry budget."""


#: Wire error codes that map back onto in-process exception types,
#: built from an ``(instance, pin)`` the request asked.
_TYPED_ERRORS = {
    E_UNKNOWN_INSTANCE: lambda instance, pin: UnknownInstanceError(instance),
    E_UNKNOWN_PIN: UnknownPinError,
}


def _typed_error(code: str, message: str, request):
    """Return the in-process error behind an error envelope, or None.

    The envelope carries only the error's text, so the names come from
    the request.  ``query`` and ``move_instance`` ask one instance (and
    pin): the error is built from those.  A batch asks many: the error
    is the one whose in-process text is the envelope's, and, should
    none match (a server that words it differently), the code's class
    is raised anyway, named by the envelope's text.
    """
    make = _TYPED_ERRORS.get(code)
    if make is None:
        return None
    asked = getattr(request, "pins", None)
    if asked is None:
        instance = getattr(request, "instance", None)
        return make(instance, getattr(request, "pin", None))
    for instance, pin in asked:
        error = make(instance, pin)
        if str(error) == message:
            return error
    return make(message, "?")


def _span_ms(record):
    """A closed span record's duration in milliseconds, or None."""
    if record is None:
        return None
    return round(record["dur"] * 1e3, 3)


class OracleClient:
    """A blocking connection to one pin access daemon."""

    def __init__(
        self,
        address,
        timeout: float = 30.0,
        connect_retries: int = 20,
        backoff: float = 0.05,
        max_backoff: float = 1.0,
        trace: bool = False,
    ):
        if isinstance(address, str):
            address = parse_address(address)
        self.address = address
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.tracer = obs_trace.Tracer() if trace else None
        self.dial_ms = None
        self.last_timing = None
        self._sock = None
        self._rfile = None
        self._wfile = None
        self._next_id = 0

    # -- lifecycle -----------------------------------------------------------

    def connect(self) -> "OracleClient":
        """Dial the daemon, retrying with exponential backoff."""
        if self._sock is not None:
            return self
        t_start = time.perf_counter()
        record = None
        if self.tracer is not None:
            record = self.tracer.begin(
                "client.dial", {"address": str(self.address)}, None
            )
        delay = self.backoff
        last_error = None
        try:
            for _ in range(max(1, self.connect_retries)):
                try:
                    self._sock = self._dial()
                    self._sock.settimeout(self.timeout)
                    self._rfile = self._sock.makefile("rb")
                    self._wfile = self._sock.makefile("wb")
                    self.dial_ms = round(
                        (time.perf_counter() - t_start) * 1e3, 3
                    )
                    return self
                except OSError as exc:
                    self.close()
                    last_error = exc
                    time.sleep(delay)
                    delay = min(delay * 2, self.max_backoff)
                except BaseException:
                    # Set-up refused (a bad timeout, say): a half-open
                    # connection must not outlive the call.
                    self.close()
                    raise
            raise ConnectionFailed(
                f"cannot connect to {self.address!r}: {last_error}"
            )
        finally:
            if record is not None:
                self.tracer.end(record)

    def _dial(self) -> socket.socket:
        if self.address[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.address[1])
            except OSError:
                sock.close()
                raise
            return sock
        if self.address[0] == "tcp":
            _, host, port = self.address
            return socket.create_connection((host, port), timeout=self.timeout)
        raise ValueError(f"unknown address kind {self.address[0]!r}")

    def close(self) -> None:
        """Close the connection (idempotent)."""
        for stream in (self._rfile, self._wfile, self._sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._sock = self._rfile = self._wfile = None

    def __enter__(self) -> "OracleClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- transport -----------------------------------------------------------

    def call(self, request) -> dict:
        """Send one typed request, return the ``result`` object.

        Raises :class:`ServerError` (or the mapped typed exception)
        on an error envelope, :class:`ConnectionError` on transport
        failures.
        """
        if self._sock is None:
            self.connect()
        self._next_id += 1
        request.req_id = self._next_id
        if self.tracer is not None:
            return self._call_traced(request)
        protocol.write_frame(self._wfile, request.to_wire())
        response = protocol.read_frame(self._rfile)
        return self._handle_envelope(response, request)

    def _handle_envelope(self, response, request) -> dict:
        """Unwrap the envelope answering ``request`` or raise its error."""
        if response is None:
            self.close()
            raise ConnectionError("server closed the connection mid-request")
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        code = error.get("code", protocol.E_SERVER_ERROR)
        message = error.get("message", "unspecified error")
        typed = _typed_error(code, message, request)
        if typed is not None:
            raise typed
        raise ServerError(code, message)

    def _call_traced(self, request) -> dict:
        """The traced transport: spans, trace stamp, span adoption."""
        trace_id = uuid.uuid4().hex[:16]
        token = obs_trace.swap(self.tracer)
        root = serialize = wait = parse = None
        response = None
        try:
            with obs_trace.span(
                "client.request", op=request.op, trace=trace_id
            ) as root:
                with obs_trace.span("client.serialize") as serialize:
                    frame = protocol.stamp_trace(
                        request.to_wire(), trace_id
                    )
                    blob = protocol.encode_frame(frame)
                with obs_trace.span("client.wait") as wait:
                    self._wfile.write(blob)
                    self._wfile.flush()
                    response = protocol.read_frame(self._rfile)
                with obs_trace.span("client.parse") as parse:
                    return self._handle_envelope(response, request)
        finally:
            obs_trace.restore(token)
            server_ms = None
            if response is not None and root is not None and wait is not None:
                server_ms = self._adopt_server_spans(response, root, wait)
            self.last_timing = {
                "op": request.op,
                "trace": trace_id,
                "dial_ms": self.dial_ms,
                "total_ms": _span_ms(root),
                "serialize_ms": _span_ms(serialize),
                "wait_ms": _span_ms(wait),
                "parse_ms": _span_ms(parse),
                "server_ms": server_ms,
            }

    def _adopt_server_spans(self, response, root, wait):
        """Stitch the daemon's echoed spans under the request span.

        The server's monotonic clock shares no epoch with ours, but
        the ``wait`` span provably brackets the server's handling,
        so the server tree is shifted to sit centered inside it and
        laid on the client's own Chrome track (track 0).  Returns
        the server root duration in milliseconds, or None.
        """
        context = response.get(protocol.TRACE_FIELD)
        if not isinstance(context, dict):
            return None
        records = context.get("spans")
        if not records:
            return None
        server_root = next(
            (r for r in records if r.get("parent") is None), None
        )
        shift = 0.0
        server_ms = None
        if server_root is not None:
            shift = (
                wait["t0"]
                + (wait["dur"] - server_root["dur"]) / 2.0
                - server_root["t0"]
            )
            server_ms = round(server_root["dur"] * 1e3, 3)
        self.tracer.adopt(records, parent=root["id"], shift=shift, track=0)
        return server_ms

    # -- operations ----------------------------------------------------------

    def load_design(
        self,
        design: str,
        lef: str,
        def_path: str,
        cache_dir: Optional[str] = None,
    ) -> dict:
        """Load a LEF/DEF pair (server-side paths) into a session."""
        return self.call(
            LoadDesignRequest(
                design=design,
                lef=lef,
                def_path=def_path,
                cache_dir=cache_dir,
            )
        )

    def query(
        self, instance: str, pin: str, design: Optional[str] = None
    ) -> dict:
        """Answer one instance pin; returns the wire answer dict."""
        result = self.call(
            QueryRequest(design=design, instance=instance, pin=pin)
        )
        return result["answer"]

    def query_batch(
        self,
        pins: list,
        design: Optional[str] = None,
        chunk_size: int = 1000,
    ) -> list:
        """Answer many pins, chunking into frames of ``chunk_size``.

        Each chunk is answered against one snapshot (its answers share
        a generation); chunks may straddle an edit.
        """
        answers = []
        for start in range(0, len(pins), chunk_size):
            result = self.call(
                QueryBatchRequest(
                    design=design,
                    pins=list(pins[start:start + chunk_size]),
                )
            )
            answers.extend(result["answers"])
        return answers

    def move_instance(
        self, instance: str, x: int, y: int, design: Optional[str] = None
    ) -> dict:
        """Apply a placement edit; returns the new generation info."""
        return self.call(
            MoveInstanceRequest(design=design, instance=instance, x=x, y=y)
        )

    def stats(self) -> dict:
        """Return server + per-session statistics."""
        return self.call(StatsRequest())

    def health(self) -> dict:
        """Liveness probe."""
        return self.call(HealthRequest())

    def metrics(self) -> str:
        """Return the server registry in Prometheus text format."""
        return self.call(MetricsRequest())["text"]

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit."""
        result = self.call(ShutdownRequest())
        self.close()
        return result
