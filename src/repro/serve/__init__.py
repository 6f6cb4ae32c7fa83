"""repro.serve: the pin access oracle as a long-lived service.

The paper's framing is an *oracle* -- analyze once, answer "where can
I land on this pin, legally?" forever after.  In-process that is
:class:`~repro.core.oracle.PinAccessOracle`; this package serves the
same objects across a socket, so placement-optimization loops (the
paper's Experiment 2 motivation) query and move one warm, analyzed
design instead of each paying full import + analysis cost:

* :mod:`repro.serve.protocol` -- the versioned, length-prefixed JSON
  wire protocol (``repro.serve/v1``) with typed requests and stable
  error codes.
* :mod:`repro.serve.server` -- the threaded TCP/Unix-socket daemon,
  hosting one :class:`~repro.core.oracle.PinAccessOracle` per design:
  backpressure, timeouts, graceful drain, per-op request counters and
  latency histograms in Prometheus form, and (with ``trace=True``)
  server spans echoed to tracing clients.
* :mod:`repro.serve.client` -- the blocking client library behind the
  ``repro serve`` / ``repro query`` CLI subcommands; with
  ``trace=True`` each request stitches client and server spans into
  one Chrome-tracing track.
"""

from repro.core.oracle import Snapshot
from repro.serve.client import ConnectionFailed, OracleClient, ServerError
from repro.serve.protocol import (
    PROTOCOL,
    BadRequest,
    FrameError,
    ProtocolError,
    parse_address,
)
from repro.serve.server import OracleServer

__all__ = [
    "PROTOCOL",
    "BadRequest",
    "ConnectionFailed",
    "FrameError",
    "OracleClient",
    "OracleServer",
    "ProtocolError",
    "ServerError",
    "Snapshot",
    "parse_address",
]
