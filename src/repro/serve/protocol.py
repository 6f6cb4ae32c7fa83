"""The ``repro.serve/v1`` wire protocol.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by a UTF-8 JSON object.  Every request carries the protocol
version (``v``), a caller-chosen correlation id (``id``) and an
operation name (``op``); every response echoes the version and id and
is either an ``ok`` envelope wrapping a result object or an ``error``
envelope carrying a stable machine-readable ``code`` plus a human
message.  The codec is symmetric -- the daemon and the client library
share this module -- and self-defending: oversized, truncated or
non-JSON payloads raise :class:`FrameError` before any dispatch.

Request construction and validation live in typed dataclasses
(:class:`QueryRequest` and friends); :func:`parse_request` maps an
incoming frame onto the matching dataclass or raises
:class:`BadRequest` with the error code the server should answer
with.  Error codes mirror the in-process exception taxonomy of
:mod:`repro.core.oracle` (``unknown_instance`` <->
:class:`~repro.core.oracle.UnknownInstanceError`, ...), so a network
client and an in-process caller see the same failure vocabulary.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Optional

#: Protocol identifier every frame carries; version bumps are additive
#: (a v2 daemon keeps answering v1 frames).
PROTOCOL = "repro.serve/v1"

#: Hard payload ceiling: a 1,000-pin batch answer with alternatives is
#: well under 2 MiB; anything near this is a malformed or hostile
#: frame, not traffic.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Cap on pins per ``query_batch`` frame (clients chunk above this).
MAX_BATCH_PINS = 10_000

_HEADER = struct.Struct(">I")

#: Stable error codes of the ``error`` envelope.
E_BAD_REQUEST = "bad_request"
E_UNSUPPORTED_VERSION = "unsupported_version"
E_MALFORMED_FRAME = "malformed_frame"
E_OVERSIZED_FRAME = "oversized_frame"
E_UNKNOWN_OP = "unknown_op"
E_UNKNOWN_DESIGN = "unknown_design"
E_UNKNOWN_INSTANCE = "unknown_instance"
E_UNKNOWN_PIN = "unknown_pin"
E_OVERLOADED = "overloaded"
E_SHUTTING_DOWN = "shutting_down"
E_SERVER_ERROR = "server_error"


class ProtocolError(Exception):
    """Base class of wire-level failures; carries the envelope code."""

    code = E_SERVER_ERROR

    def __init__(self, message: str, code: str = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class FrameError(ProtocolError):
    """The byte stream is not a well-formed frame; close after reply."""

    code = E_MALFORMED_FRAME


class BadRequest(ProtocolError):
    """The frame decoded but is not a valid request."""

    code = E_BAD_REQUEST


# -- addresses ----------------------------------------------------------------


def parse_address(text: str) -> tuple:
    """Parse an endpoint into ``("unix", path)``/``("tcp", host, port)``.

    Accepted forms: ``unix:/run/pao.sock``, a bare filesystem path
    (anything containing ``/``, or any colon-free token -- a bare
    host without a port is never a valid endpoint), ``tcp:host:port``
    and ``host:port``.
    """
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError("empty unix socket path")
        return ("unix", path)
    if text.startswith("tcp:"):
        text = text[len("tcp:"):]
    elif "/" in text or ":" not in text:
        if not text:
            raise ValueError("empty address")
        return ("unix", text)
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cannot parse address {text!r}: expected unix:PATH, a "
            "filesystem path, or HOST:PORT"
        )
    try:
        return ("tcp", host, int(port))
    except ValueError:
        raise ValueError(
            f"cannot parse address {text!r}: port {port!r} is not an "
            "integer"
        ) from None


# -- frame codec --------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    """Serialize one message into its length-prefixed wire form."""
    payload = json.dumps(
        obj, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit",
            code=E_OVERSIZED_FRAME,
        )
    return _HEADER.pack(len(payload)) + payload


def write_frame(wfile, obj: dict) -> None:
    """Encode ``obj`` and write it to a binary file-like object."""
    wfile.write(encode_frame(obj))
    wfile.flush()


def read_frame(rfile) -> Optional[dict]:
    """Read one frame from a binary file-like object.

    Returns None on a clean EOF at a frame boundary (the peer closed
    between requests).  Raises :class:`FrameError` on a truncated,
    oversized or non-JSON-object payload.
    """
    header = rfile.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise FrameError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit",
            code=E_OVERSIZED_FRAME,
        )
    payload = b""
    while len(payload) < length:
        chunk = rfile.read(length - len(payload))
        if not chunk:
            raise FrameError(
                f"truncated payload: got {len(payload)} of {length} bytes"
            )
        payload += chunk
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"payload is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("payload is not a JSON object")
    return obj


# -- trace context ------------------------------------------------------------
#
# Trace propagation is additive within v1: a tracing client stamps a
# compact ``trace`` object into the request frame and a tracing
# server (``repro serve --telemetry``) echoes its server-side span
# buffer back under the same key in the response.
# :func:`parse_request` reads only the fields it knows, so a v1
# server without tracing ignores the request stamp, and a v1 client
# without tracing ignores the response spans -- old and new peers
# interoperate in both directions.

#: Frame key carrying the trace context (requests) / spans (responses).
TRACE_FIELD = "trace"


def stamp_trace(frame: dict, trace_id: str) -> dict:
    """Stamp a client trace context into a request frame."""
    frame[TRACE_FIELD] = {"id": trace_id}
    return frame


def frame_trace_id(frame: dict) -> Optional[str]:
    """Extract the trace id from a frame, or None if absent/invalid."""
    context = frame.get(TRACE_FIELD)
    if isinstance(context, dict):
        trace_id = context.get("id")
        if isinstance(trace_id, str) and trace_id:
            return trace_id
    return None


# -- typed requests -----------------------------------------------------------


@dataclass
class Request:
    """Base request: correlation id plus optional session name."""

    op = None
    req_id: int = 0

    def to_wire(self) -> dict:
        """Render this request as a frame object."""
        body = {"v": PROTOCOL, "id": self.req_id, "op": self.op}
        body.update(self._fields())
        return body

    def _fields(self) -> dict:
        return {}


@dataclass
class LoadDesignRequest(Request):
    """Load a LEF/DEF pair into a named session (server-side paths).

    Frames from older clients may carry ``jobs``; like any key the
    parser does not read, it is ignored.
    """

    op = "load_design"
    design: str = ""
    lef: str = ""
    def_path: str = ""
    cache_dir: Optional[str] = None

    def _fields(self) -> dict:
        return {
            "design": self.design,
            "lef": self.lef,
            "def": self.def_path,
            "cache_dir": self.cache_dir,
        }


@dataclass
class QueryRequest(Request):
    """Answer one instance pin."""

    op = "query"
    design: Optional[str] = None
    instance: str = ""
    pin: str = ""

    def _fields(self) -> dict:
        return {
            "design": self.design,
            "instance": self.instance,
            "pin": self.pin,
        }


@dataclass
class QueryBatchRequest(Request):
    """Answer many instance pins in one frame (one snapshot)."""

    op = "query_batch"
    design: Optional[str] = None
    pins: list = field(default_factory=list)

    def _fields(self) -> dict:
        return {
            "design": self.design,
            "pins": [[inst, pin] for inst, pin in self.pins],
        }


@dataclass
class MoveInstanceRequest(Request):
    """Move an instance: the session's ``PinAccessOracle`` repairs its
    analysis and publishes the next snapshot."""

    op = "move_instance"
    design: Optional[str] = None
    instance: str = ""
    x: int = 0
    y: int = 0

    def _fields(self) -> dict:
        return {
            "design": self.design,
            "instance": self.instance,
            "x": self.x,
            "y": self.y,
        }


@dataclass
class StatsRequest(Request):
    """Server + per-session statistics."""

    op = "stats"


@dataclass
class HealthRequest(Request):
    """Liveness probe; never touches a session."""

    op = "health"


@dataclass
class MetricsRequest(Request):
    """Prometheus text exposition of the server registry."""

    op = "metrics"


@dataclass
class ShutdownRequest(Request):
    """Ask the daemon to drain and exit."""

    op = "shutdown"


_REQUEST_TYPES = {
    cls.op: cls
    for cls in (
        LoadDesignRequest,
        QueryRequest,
        QueryBatchRequest,
        MoveInstanceRequest,
        StatsRequest,
        HealthRequest,
        MetricsRequest,
        ShutdownRequest,
    )
}


def _require_str(obj: dict, key: str, allow_none: bool = False):
    value = obj.get(key)
    if value is None and allow_none:
        return None
    if not isinstance(value, str) or not value:
        raise BadRequest(f"field {key!r} must be a non-empty string")
    return value


def _require_int(obj: dict, key: str, default=None) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"field {key!r} must be an integer")
    return value


def parse_request(obj: dict) -> Request:
    """Map a decoded frame onto its typed request, validating fields."""
    version = obj.get("v")
    if version != PROTOCOL:
        raise BadRequest(
            f"unsupported protocol version {version!r} "
            f"(this server speaks {PROTOCOL})",
            code=E_UNSUPPORTED_VERSION,
        )
    req_id = obj.get("id", 0)
    if isinstance(req_id, bool) or not isinstance(req_id, int):
        raise BadRequest("field 'id' must be an integer")
    op = obj.get("op")
    cls = _REQUEST_TYPES.get(op)
    if cls is None:
        raise BadRequest(f"unknown op {op!r}", code=E_UNKNOWN_OP)
    if cls is LoadDesignRequest:
        return LoadDesignRequest(
            req_id=req_id,
            design=_require_str(obj, "design"),
            lef=_require_str(obj, "lef"),
            def_path=_require_str(obj, "def"),
            cache_dir=_require_str(obj, "cache_dir", allow_none=True),
        )
    if cls is QueryRequest:
        return QueryRequest(
            req_id=req_id,
            design=_require_str(obj, "design", allow_none=True),
            instance=_require_str(obj, "instance"),
            pin=_require_str(obj, "pin"),
        )
    if cls is QueryBatchRequest:
        pins = obj.get("pins")
        if not isinstance(pins, list):
            raise BadRequest("field 'pins' must be a list")
        if len(pins) > MAX_BATCH_PINS:
            raise BadRequest(
                f"batch of {len(pins)} pins exceeds the "
                f"{MAX_BATCH_PINS}-pin limit"
            )
        parsed = []
        for item in pins:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(isinstance(part, str) and part for part in item)
            ):
                raise BadRequest(
                    "each batch entry must be an [instance, pin] pair "
                    "of non-empty strings"
                )
            parsed.append((item[0], item[1]))
        return QueryBatchRequest(
            req_id=req_id,
            design=_require_str(obj, "design", allow_none=True),
            pins=parsed,
        )
    if cls is MoveInstanceRequest:
        return MoveInstanceRequest(
            req_id=req_id,
            design=_require_str(obj, "design", allow_none=True),
            instance=_require_str(obj, "instance"),
            x=_require_int(obj, "x"),
            y=_require_int(obj, "y"),
        )
    return cls(req_id=req_id)


# -- response envelopes -------------------------------------------------------


def ok_envelope(req_id: int, result: dict) -> dict:
    """Build a success response frame."""
    return {"v": PROTOCOL, "id": req_id, "ok": True, "result": result}


def error_envelope(req_id: int, code: str, message: str) -> dict:
    """Build an error response frame."""
    return {
        "v": PROTOCOL,
        "id": req_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


# -- answer serialization -----------------------------------------------------


def ap_to_wire(ap) -> Optional[dict]:
    """Render an :class:`~repro.core.apgen.AccessPoint` for the wire."""
    if ap is None:
        return None
    return {
        "x": ap.x,
        "y": ap.y,
        "layer": ap.layer_name,
        "pref_type": int(ap.pref_type),
        "nonpref_type": int(ap.nonpref_type),
        "vias": list(ap.valid_vias),
        "planar": [str(d) for d in ap.planar_dirs],
    }


def render_answer(snap, instance_name: str, pin_name: str) -> dict:
    """Render one pin's answer from a published snapshot.

    Equal to ``answer_to_wire(snap.query(instance_name, pin_name),
    snap.generation)``, and raises as ``snap.query`` does, but builds
    no translated access point: each point of the selection's unique
    access is rendered once, held on the unique access, and copied
    with ``x``/``y`` offset by the selection's ``(dx, dy)``.  A repair
    override is already in design coordinates.  The answer shares its
    ``vias`` and ``planar`` lists with that rendering: encode it, do
    not edit it.
    """
    selected = snap.selection_for(instance_name, pin_name)
    dx, dy = selected.dx, selected.dy
    ua = selected.unique_access
    rendered = ua.wire.get(pin_name)
    if rendered is None:
        aps = ua.aps_by_pin.get(pin_name, ())
        rendered = ua.wire[pin_name] = (
            aps, [ap_to_wire(ap) for ap in aps]
        )
    aps, points = rendered
    alternatives = [_offset(point, dx, dy) for point in points]
    chosen = None
    if selected.pattern is not None:
        override = selected.overrides.get(pin_name)
        ap = selected.pattern.aps.get(pin_name)
        if override is not None:
            chosen = ap_to_wire(override)
        elif ap is not None:
            for held, point in zip(aps, points):
                if held is ap:
                    chosen = _offset(point, dx, dy)
                    break
            else:
                chosen = ap_to_wire(ap.translated(dx, dy))
    return {
        "instance": instance_name,
        "pin": pin_name,
        "generation": snap.generation,
        "accessible": chosen is not None or bool(alternatives),
        "selected": chosen,
        "alternatives": alternatives,
    }


def _offset(point: dict, dx: int, dy: int) -> dict:
    """Return a copy of a rendered point moved by ``(dx, dy)``."""
    moved = dict(point)
    moved["x"] += dx
    moved["y"] += dy
    return moved


def ap_from_wire(wire: Optional[dict]):
    """Reconstruct an :class:`~repro.core.apgen.AccessPoint` from the wire.

    Exact inverse of :func:`ap_to_wire`: ``ap_to_wire(ap_from_wire(w))
    == w`` for every well-formed payload, which is what lets a remote
    consumer (the comparator's serve-backed routing flow) assert
    bit-identity against an in-process oracle.
    """
    if wire is None:
        return None
    from repro.core.apgen import AccessPoint
    from repro.core.coords import CoordType

    return AccessPoint(
        x=wire["x"],
        y=wire["y"],
        layer_name=wire["layer"],
        pref_type=CoordType(wire["pref_type"]),
        nonpref_type=CoordType(wire["nonpref_type"]),
        valid_vias=list(wire["vias"]),
        planar_dirs=list(wire["planar"]),
    )


def answer_to_wire(answer, generation: int) -> dict:
    """Render a :class:`~repro.core.oracle.PinAccessAnswer`.

    ``generation`` stamps which published snapshot produced the
    answer; every answer of one batch carries the same generation (the
    torn-read test's observable).
    """
    return {
        "instance": answer.instance_name,
        "pin": answer.pin_name,
        "generation": generation,
        "accessible": answer.accessible,
        "selected": ap_to_wire(answer.selected),
        "alternatives": [ap_to_wire(ap) for ap in answer.alternatives],
    }
