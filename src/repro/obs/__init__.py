"""Structured observability: tracing, metrics and decision telemetry.

The package has four layers (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` -- typed registry of counters, gauges,
  timers and log-scale histograms; enforces the ``domain.sub.name``
  naming contract; exports Prometheus text and the
  ``repro.qa.bench/v1`` envelope.  Subsumes the old ``Profiler``
  counter bag.
* :mod:`repro.obs.trace` -- nested spans with per-process buffers,
  cross-process re-stitching and Chrome ``chrome://tracing`` export.
* :mod:`repro.obs.events` -- opt-in decision-event stream (schema
  ``repro.obs.events/v1``) behind ``PaafConfig.explain``.
* :mod:`repro.obs.collect` / :mod:`repro.obs.explain` -- the
  lifecycle bundle the framework and workers enter, and the
  ``repro explain INST/PIN`` narrative renderer.
* :mod:`repro.obs.slo` / :mod:`repro.obs.accesslog` -- windowed RED
  telemetry with declarative SLO evaluation, and the structured
  ``repro.serve.access/v1`` request log; both feed the serving
  daemon's health surface (see ``docs/SERVING.md``).

All hooks are near-free when disabled: one context-variable load and
a ``None`` test.
"""

from repro.obs.accesslog import ACCESS_SCHEMA, AccessLog, read_access_log
from repro.obs.collect import Collector
from repro.obs.events import EVENTS_SCHEMA, EventLog, active_log, emit
from repro.obs.metrics import (
    MetricsRegistry,
    SlidingQuantiles,
    active_registry,
    observe,
    parse_prometheus,
    render_prometheus,
    stats_name_violations,
    tick,
    timed,
    validate_name,
)
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    SLO_SCHEMA,
    Objective,
    RedWindow,
    SloTable,
)
from repro.obs.trace import Tracer, active_tracer, span

__all__ = [
    "ACCESS_SCHEMA",
    "AccessLog",
    "read_access_log",
    "Collector",
    "EVENTS_SCHEMA",
    "EventLog",
    "active_log",
    "emit",
    "MetricsRegistry",
    "SlidingQuantiles",
    "active_registry",
    "observe",
    "parse_prometheus",
    "render_prometheus",
    "stats_name_violations",
    "tick",
    "timed",
    "validate_name",
    "DEFAULT_OBJECTIVES",
    "SLO_SCHEMA",
    "Objective",
    "RedWindow",
    "SloTable",
    "Tracer",
    "active_tracer",
    "span",
]
