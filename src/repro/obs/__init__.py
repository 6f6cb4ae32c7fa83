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

All hooks are near-free when disabled: one context-variable load and
a ``None`` test.
"""

from repro.obs.collect import Collector
from repro.obs.events import EVENTS_SCHEMA, EventLog, active_log, emit
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    observe,
    parse_prometheus,
    render_prometheus,
    stats_name_violations,
    tick,
    validate_name,
)
from repro.obs.trace import Tracer, active_tracer, span

__all__ = [
    "Collector",
    "EVENTS_SCHEMA",
    "EventLog",
    "active_log",
    "emit",
    "MetricsRegistry",
    "active_registry",
    "observe",
    "parse_prometheus",
    "render_prometheus",
    "stats_name_violations",
    "tick",
    "validate_name",
    "Tracer",
    "active_tracer",
    "span",
]
