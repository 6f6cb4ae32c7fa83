"""Lightweight structured tracing: nested spans, Chrome-trace export.

A :class:`Tracer` owns a flat per-process buffer of span records
(plain dicts, so a buffer can travel over the wire: the serve server
echoes its request spans to the client).  :class:`span` is the only
instrumentation primitive: a context manager that, when a tracer is
active in the current context, records a monotonic-clock interval
with parent/child nesting::

    with span("step1.pin", pin=pin.name):
        ...

When no tracer is active the ``with`` costs a single context-variable
load and a ``None`` test -- the same no-op-guard pattern
``repro.obs.metrics.tick`` uses -- so instrumented hot paths do not
regress.

A foreign buffer is stitched into a tree with :meth:`Tracer.adopt`,
which re-bases span ids and re-parents the foreign root spans under a
local span.  The tree exports as Chrome ``chrome://tracing`` /
Perfetto JSON (:func:`write_chrome_trace`) and as a top-N summary for
``result.stats`` (:func:`summarize`).

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import json
import time
from contextvars import ContextVar

#: Soft cap on buffered spans; beyond it spans are counted as dropped
#: rather than recorded (a full trace of the largest golden case is
#: far below this).
DEFAULT_SPAN_LIMIT = 1_000_000


class Tracer:
    """Per-process span buffer with parent/child nesting."""

    __slots__ = ("spans", "limit", "dropped", "_next_id", "_tracks")

    def __init__(self, limit: int = DEFAULT_SPAN_LIMIT):
        self.spans = []
        self.limit = limit
        self.dropped = 0
        self._next_id = 0
        self._tracks = 0

    def begin(self, name: str, attrs: dict, parent) -> dict:
        """Open a span record; returns None if the buffer is full."""
        if len(self.spans) >= self.limit:
            self.dropped += 1
            return None
        span_id = self._next_id
        self._next_id = span_id + 1
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "t0": time.perf_counter(),
            "dur": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        return record

    def end(self, record: dict) -> None:
        """Close a span record opened by :meth:`begin`."""
        record["dur"] = time.perf_counter() - record["t0"]

    def snapshot(self) -> list:
        """Plain-list copy of the buffer, safe to pickle."""
        return [dict(record) for record in self.spans]

    def adopt(
        self, records: list, parent=None, shift: float = 0.0, track=None
    ) -> int:
        """Stitch a foreign :meth:`snapshot` into this tracer's tree.

        Span ids are re-based to stay unique, the foreign root spans
        (``parent is None``) are re-parented under ``parent`` (a span
        id in *this* tracer, e.g. the client's request span), and the
        whole buffer is tagged with a fresh Chrome
        track id.  Returns the number of spans adopted.

        ``shift`` is added to every adopted ``t0``: callers that *can*
        align the foreign clock -- the serve client knows its request
        span brackets the server's handling, so it can center the
        server spans inside its own wait interval -- pass the
        offset here.  ``track`` overrides the fresh Chrome track id;
        the serve client passes its own track so one request's client
        and server spans render as a single stitched timeline.
        """
        if not records:
            return 0
        offset = self._next_id
        if track is None:
            self._tracks += 1
            track = self._tracks
        top = 0
        adopted = 0
        for record in records:
            if len(self.spans) >= self.limit:
                self.dropped += len(records) - adopted
                break
            record = dict(record)
            top = max(top, record["id"])
            record["id"] += offset
            record["t0"] += shift
            if record["parent"] is None:
                record["parent"] = parent
            else:
                record["parent"] += offset
            record["tid"] = track
            self.spans.append(record)
            adopted += 1
        self._next_id = offset + top + 1
        return adopted


# -- context-local activation -------------------------------------------------

_TRACER: ContextVar = ContextVar("repro_obs_tracer", default=None)
_CURRENT: ContextVar = ContextVar("repro_obs_span", default=None)


def active_tracer() -> Tracer:
    """Return the active tracer, or None."""
    return _TRACER.get()


def swap(tracer: Tracer):
    """Install ``tracer``, returning a token for :func:`restore`.

    Also clears the current-span variable: the swapped-in tracer is a
    fresh buffer (a run's or a served request's), so spans opened
    under it must be roots -- any inherited span id would reference
    the *previous* tracer and corrupt re-parenting on adopt.
    """
    return (_TRACER.set(tracer), _CURRENT.set(None))


def restore(token) -> None:
    """Restore the tracer that was active before :func:`swap`."""
    tracer_token, current_token = token
    _CURRENT.reset(current_token)
    _TRACER.reset(tracer_token)


class span:
    """Record a named interval on the active tracer (no-op otherwise).

    ``with span("step2.patterns", inst=name) as rec:`` yields the raw
    span record (or None when tracing is off / the buffer is full);
    callers may add attributes to ``rec["attrs"]`` before the block
    exits.  Nesting is tracked through a context variable, so spans
    opened in different threads or tasks cannot interleave parents.
    """

    __slots__ = ("_name", "_attrs", "_tracer", "_record", "_token")

    def __init__(self, _name: str, **attrs):
        self._name = _name
        self._attrs = attrs

    def __enter__(self):
        tracer = _TRACER.get()
        if tracer is None:
            self._record = None
            return None
        record = tracer.begin(self._name, self._attrs, _CURRENT.get())
        self._tracer = tracer
        self._record = record
        if record is not None:
            self._token = _CURRENT.set(record["id"])
        return record

    def __exit__(self, exc_type, exc, tb):
        record = self._record
        if record is not None:
            _CURRENT.reset(self._token)
            self._tracer.end(record)
        return False


def current_span_id():
    """Return the id of the innermost open span, or None."""
    return _CURRENT.get()


# -- exports ------------------------------------------------------------------


def chrome_trace(tracer: Tracer) -> dict:
    """Render the tracer as a Chrome ``chrome://tracing`` document.

    Complete events (``ph: "X"``) with microsecond timestamps; an
    adopted buffer sits on the track (``tid``) it was adopted to.  Load the
    file in ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    events = []
    for record in tracer.spans:
        events.append(
            {
                "name": record["name"],
                "ph": "X",
                "ts": record["t0"] * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": 0,
                "tid": record.get("tid", 0),
                "args": record["attrs"],
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Tracer) -> None:
    """Write :func:`chrome_trace` JSON to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(tracer), handle)
        handle.write("\n")


def summarize(tracer: Tracer, top: int = 10) -> dict:
    """Aggregate spans by name into a top-N summary for result.stats."""
    totals = {}
    for record in tracer.spans:
        entry = totals.setdefault(record["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += record["dur"]
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1][1], kv[0]))
    return {
        "spans": len(tracer.spans),
        "dropped": tracer.dropped,
        "top": [
            {"name": name, "count": count, "seconds": round(seconds, 6)}
            for name, (count, seconds) in ranked[:top]
        ],
    }
