"""Bundling of the three observability sinks behind one lifecycle.

A :class:`Collector` owns whichever sinks a
:class:`~repro.core.config.PaafConfig` asks for -- metrics registry
(``profile`` / ``metrics_out``), tracer (``trace`` / ``trace_out``),
event log (``explain``) -- and activates them together as a context
manager.  The framework enters one collector around the whole run,
so every Step 1-3 unit records straight into the run's sinks, in the
order the units run.  Activation is context-local: concurrent runs in
other threads keep their own sinks.
"""

from __future__ import annotations

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace


class Collector:
    """Owns and activates the sinks one run collects into."""

    __slots__ = ("registry", "tracer", "log", "_tokens")

    def __init__(
        self, metrics: bool = False, trace: bool = False, events: bool = False
    ):
        self.registry = _metrics.MetricsRegistry() if metrics else None
        self.tracer = _trace.Tracer() if trace else None
        self.log = _events.EventLog() if events else None
        self._tokens = None

    @classmethod
    def from_config(cls, config) -> "Collector":
        """Build a collector for the config's observability flags."""
        return cls(
            metrics=bool(config.profile or config.metrics_out),
            trace=bool(config.trace or config.trace_out),
            events=bool(config.explain),
        )

    def __enter__(self) -> "Collector":
        tokens = []
        if self.registry is not None:
            tokens.append((_metrics, _metrics.swap(self.registry)))
        if self.tracer is not None:
            tokens.append((_trace, _trace.swap(self.tracer)))
        if self.log is not None:
            tokens.append((_events, _events.swap(self.log)))
        self._tokens = tokens
        return self

    def __exit__(self, exc_type, exc, tb):
        for module, token in reversed(self._tokens or ()):
            module.restore(token)
        self._tokens = None
        return False

    # -- run finalization -----------------------------------------------------

    def finish(self, result, config) -> None:
        """Attach sinks to ``result`` and write the configured outputs.

        Populates ``result.metrics`` / ``result.trace`` /
        ``result.events`` plus the ``metrics.*`` / ``obs.*`` stats
        entries, and writes ``metrics_out`` (Prometheus text),
        ``trace_out`` (Chrome trace JSON) and ``explain`` (when it is
        a path, ``repro.obs.events/v1`` JSONL).
        """
        if self.registry is not None:
            snap = self.registry.snapshot()
            result.stats["metrics.counters"] = snap["counters"]
            result.stats["metrics.timers"] = snap["timers"]
            if snap["gauges"]:
                result.stats["metrics.gauges"] = snap["gauges"]
            if self.registry.histograms:
                result.stats["metrics.histograms"] = {
                    name: hist.summary()
                    for name, hist in self.registry.histograms.items()
                }
            result.metrics = self.registry
            if config.metrics_out:
                _metrics.write_prometheus(config.metrics_out, self.registry)
        if self.tracer is not None:
            result.trace = self.tracer
            result.stats["obs.trace"] = _trace.summarize(self.tracer)
            if config.trace_out:
                _trace.write_chrome_trace(config.trace_out, self.tracer)
        if self.log is not None:
            result.events = self.log
            result.stats["obs.events"] = {"count": len(self.log)}
            if isinstance(config.explain, str):
                _events.write_jsonl(config.explain, self.log.events)
