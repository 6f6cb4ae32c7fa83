"""Opt-in decision-event stream (the "explain log").

Where :mod:`repro.obs.metrics` records *how much* and
:mod:`repro.obs.trace` records *how long*, this module records *why*:
a flat, ordered stream of structured decision events --

- ``ap.reject`` / ``ap.accept`` -- Step 1 candidate outcomes, with
  the DRC rule, the via, and the (t0, t1) coordinate types;
- ``dp.edge.penalized`` -- Step 2 DP edges costed as boundary-used,
  DRC-incompatible, or history-incompatible instead of by AP cost;
- ``pattern.generated`` -- each surviving access pattern;
- ``cluster.conflict`` / ``cluster.repair`` / ``cluster.selected`` --
  Step 3 boundary conflicts, repair overrides, and final picks.

Events are plain JSON-scalar dicts appended to a context-local
:class:`EventLog` (same activation pattern as the registry/tracer:
one context-variable load when disabled).  Steps 1-3 run in one
process in a fixed order, so the stream is deterministic.

The stream persists as JSONL under schema ``repro.obs.events/v1``:
a header object ``{"schema": ..., "events": N}`` followed by one
event per line.  ``repro explain INST/PIN`` replays a stream into a
narrative (see :mod:`repro.obs.explain`).

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import json
from contextvars import ContextVar

EVENTS_SCHEMA = "repro.obs.events/v1"


class EventLog:
    """Ordered buffer of decision events."""

    __slots__ = ("events",)

    def __init__(self):
        self.events = []

    def emit(self, kind: str, **fields) -> None:
        """Append one event; ``fields`` must be JSON-serializable."""
        event = {"kind": kind}
        event.update(fields)
        self.events.append(event)

    def __len__(self):
        return len(self.events)


# -- context-local activation -------------------------------------------------

_LOG: ContextVar = ContextVar("repro_obs_events", default=None)


def active_log() -> EventLog:
    """Return the active event log, or None."""
    return _LOG.get()


def swap(log: EventLog):
    """Install ``log``, returning a token for :func:`restore`."""
    return _LOG.set(log)


def restore(token) -> None:
    """Restore the log that was active before :func:`swap`."""
    _LOG.reset(token)


def emit(kind: str, **fields) -> None:
    """Emit an event to the active log; no-op when none is active."""
    log = _LOG.get()
    if log is not None:
        log.emit(kind, **fields)


# -- JSONL persistence --------------------------------------------------------


def write_jsonl(path: str, events: list) -> None:
    """Write an event stream as ``repro.obs.events/v1`` JSONL."""
    with open(path, "w") as handle:
        header = {"schema": EVENTS_SCHEMA, "events": len(events)}
        handle.write(json.dumps(header) + "\n")
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")


def read_jsonl(path: str) -> list:
    """Read and validate a ``repro.obs.events/v1`` JSONL stream."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty event stream")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}: header is not JSON: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != EVENTS_SCHEMA:
        raise ValueError(
            f"{path}: unsupported schema {schema!r} "
            f"(expected {EVENTS_SCHEMA})"
        )
    events = [json.loads(line) for line in lines[1:]]
    declared = header.get("events")
    if declared is not None and declared != len(events):
        raise ValueError(
            f"{path}: header declares {declared} events, found {len(events)}"
        )
    for index, event in enumerate(events):
        if not isinstance(event, dict) or "kind" not in event:
            raise ValueError(f"{path}: event {index} has no 'kind'")
    return events
