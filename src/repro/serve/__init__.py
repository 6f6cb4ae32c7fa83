"""repro.serve: the pin access oracle as a long-lived service.

The paper's framing is an *oracle* -- analyze once, answer "where can
I land on this pin, legally?" forever after.  In-process that is
:class:`~repro.core.oracle.PinAccessOracle`; this package is the same
contract across a socket, so placement-optimization loops (the
paper's Experiment 2 motivation) query one warm, analyzed design
instead of each paying full import + analysis cost:

* :mod:`repro.serve.protocol` -- the versioned, length-prefixed JSON
  wire protocol (``repro.serve/v1``) with typed requests and stable
  error codes.
* :mod:`repro.serve.session` -- one served design: warm incremental
  analysis behind immutable published snapshots (lock-free reads,
  serialized edits, atomic generation swaps).
* :mod:`repro.serve.server` -- the threaded TCP/Unix-socket daemon:
  backpressure, timeouts, graceful drain, Prometheus metrics, and
  the optional :class:`~repro.serve.server.ServeTelemetry` bundle
  (per-op RED windows, SLO evaluation, access log, wire tracing).
* :mod:`repro.serve.httpexport` -- the stdlib HTTP sidecar exposing
  ``/metrics``, ``/healthz`` and ``/slo.json`` to plain scrapers.
* :mod:`repro.serve.client` -- the blocking client library behind the
  ``repro serve`` / ``repro query`` / ``repro top`` CLI subcommands;
  with ``trace=True`` each request stitches client and server spans
  into one Chrome-tracing track.
"""

from repro.core.oracle import Snapshot
from repro.serve.client import ConnectionFailed, OracleClient, ServerError
from repro.serve.httpexport import HttpExport
from repro.serve.protocol import (
    PROTOCOL,
    BadRequest,
    FrameError,
    ProtocolError,
    parse_address,
)
from repro.serve.server import (
    OracleServer,
    ServeTelemetry,
    render_server_metrics,
)
from repro.serve.session import DesignSession

__all__ = [
    "PROTOCOL",
    "BadRequest",
    "ConnectionFailed",
    "DesignSession",
    "FrameError",
    "HttpExport",
    "OracleClient",
    "OracleServer",
    "ProtocolError",
    "ServeTelemetry",
    "ServerError",
    "Snapshot",
    "parse_address",
    "render_server_metrics",
]
