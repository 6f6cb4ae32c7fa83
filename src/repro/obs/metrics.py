"""Typed metrics registry: counters, gauges, timers and histograms.

The registry is the single sink for every hot-path measurement in the
flow.  It subsumes the original ``Profiler`` counter bag: counters
and timers keep their historical names and semantics, and two new
families are added -- **gauges** (last-write-wins values such as
unique-instance and cluster counts) and **histograms** (fixed
log-scale buckets, e.g. DRC-check latency, APs per pin, DP edge
costs).

Activation is *context-local* (:mod:`contextvars`), not module-global:
nested or concurrent activations -- threads, the span stack of
:mod:`repro.obs.trace` -- cannot cross-contaminate.  When no registry
is active, :func:`tick` and :func:`observe` are a single
context-variable load and a falsy test.

Metric and stat names follow a mandatory ``domain.sub.name``
convention (:data:`NAME_RE`): lowercase dot-separated segments of
``[a-z][a-z0-9_]*`` with at least two segments.  The registry enforces
it on first use of each name; :func:`stats_name_violations` audits a
whole ``PinAccessResult.stats`` payload against the same contract.

Export: :func:`render_prometheus` emits the Prometheus text format
(validated by :func:`parse_prometheus`, the same checker CI uses).

This module imports nothing from the rest of the package so the
lowest layers (``repro.geom``, ``repro.drc``) can depend on it
without cycles.
"""

from __future__ import annotations

import re
import time
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

#: The ``domain.sub.name`` contract: at least two dot-separated
#: lowercase segments, each ``[a-z][a-z0-9_]*``.
NAME_RE = re.compile(r"[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+\Z")

#: One segment of a name (nested stats keys extend their parent).
SEGMENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

#: Default histogram bucket upper bounds: powers of two from 2^-20
#: (~1 microsecond) to 2^20 (~1e6), a fixed log scale every registry
#: shares.
LOG2_BUCKETS = tuple(2.0**e for e in range(-20, 21))


def validate_name(name: str) -> str:
    """Return ``name`` if it obeys the naming contract, else raise."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} violates the 'domain.sub.name' "
            "convention (>= 2 dot-separated [a-z][a-z0-9_]* segments)"
        )
    return name


def stats_name_violations(stats: dict, prefix: str = "") -> list:
    """Audit a stats payload against the naming contract.

    Every top-level key must be a full ``domain.sub.name``; keys of
    nested dicts must either be full names themselves (e.g. counter
    names under ``metrics.counters``) or single segments that extend
    their parent's dotted path.  Returns the offending paths (empty
    means the payload conforms).
    """
    bad = []
    for key, value in stats.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if not isinstance(key, str):
            bad.append(path)
            continue
        if NAME_RE.match(key):
            child_prefix = key
        elif prefix and SEGMENT_RE.match(key):
            child_prefix = path
        else:
            bad.append(path)
            continue
        if isinstance(value, dict):
            bad.extend(stats_name_violations(value, child_prefix))
    return bad


class Histogram:
    """Fixed-bucket log-scale histogram."""

    __slots__ = ("bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, bounds: tuple = LOG2_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        """Plain-dict copy of the buckets and extremes."""
        return {
            "bounds": self.bounds,
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def summary(self) -> dict:
        """Compact JSON form for ``result.stats`` (no bucket vector)."""
        return {
            "count": self.total,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """A typed bag of counters, timers, gauges and histograms.

    This is also the historical ``Profiler``: ``incr`` / ``add_time``
    / ``time`` / ``snapshot`` keep their original semantics.
    """

    __slots__ = ("counters", "timers", "gauges", "histograms", "_checked")

    def __init__(self):
        self.counters = Counter()
        self.timers = {}
        self.gauges = {}
        self.histograms = {}
        self._checked = set()

    def _name(self, name: str) -> str:
        """Validate ``name`` once; later uses are a set lookup."""
        if name not in self._checked:
            validate_name(name)
            self._checked.add(name)
        return name

    # -- counters / timers (the Profiler-compatible surface) ----------------

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[self._name(name)] += n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into timer bucket ``name``."""
        name = self._name(name)
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def time(self, name: str):
        """Context manager accumulating the block's wall time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    # -- gauges / histograms -------------------------------------------------

    def set_gauge(self, name: str, value) -> None:
        """Set gauge ``name`` (last write wins)."""
        self.gauges[self._name(name)] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (log-scale buckets)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[self._name(name)] = Histogram()
        hist.observe(value)

    def snapshot(self) -> dict:
        """Return a plain-dict copy of every family."""
        return {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.snapshot()
                for name, hist in self.histograms.items()
            },
        }


# -- context-local activation -------------------------------------------------

_ACTIVE: ContextVar = ContextVar("repro_obs_registry", default=None)


def active_registry() -> MetricsRegistry:
    """Return the active registry, or None."""
    return _ACTIVE.get()


def swap(registry: MetricsRegistry):
    """Install ``registry``, returning a token for :func:`restore`."""
    return _ACTIVE.set(registry)


def restore(token) -> None:
    """Restore the registry that was active before :func:`swap`."""
    _ACTIVE.reset(token)


def tick(name: str, n: int = 1) -> None:
    """Increment a counter on the active registry; no-op otherwise."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.incr(name, n)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the active registry; else no-op."""
    registry = _ACTIVE.get()
    if registry is not None:
        registry.observe(name, value)


@contextmanager
def collecting(registry: MetricsRegistry = None):
    """Activate a registry for the block, restoring the previous one."""
    registry = registry if registry is not None else MetricsRegistry()
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


# -- Prometheus text format ---------------------------------------------------


def _prom_name(name: str) -> str:
    """Translate a dotted metric name into a Prometheus identifier."""
    return name.replace(".", "_").replace("-", "_")


def prom_label_value(value) -> str:
    """Escape a value for use inside a Prometheus label string."""
    text = str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines = []
    for name, count in sorted(registry.counters.items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(count)}")
    for name, seconds in sorted(registry.timers.items()):
        prom = _prom_name(name) + "_seconds_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(float(seconds))}")
    for name, value in sorted(registry.gauges.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, hist in sorted(registry.histograms.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_value(float(bound))}"}} '
                f"{cumulative}"
            )
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.total}')
        lines.append(f"{prom}_sum {_prom_value(float(hist.sum))}")
        lines.append(f"{prom}_count {hist.total}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, registry: MetricsRegistry) -> None:
    """Write :func:`render_prometheus` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(render_prometheus(registry))


_PROM_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+"
    r"(?P<value>[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf)|NaN)"
    r"\Z"
)

_PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def parse_prometheus(text: str) -> dict:
    """Parse (and validate) Prometheus text format.

    Returns ``{metric name: [(label string or None, value), ...]}``;
    raises :class:`ValueError` on any malformed line.  This is the
    validator the test suite and the CI observability smoke job run
    over ``--metrics-out`` output.
    """
    samples = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _PROM_TYPES:
                    raise ValueError(f"line {lineno}: bad TYPE comment")
            continue
        match = _PROM_SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: bad sample {line!r}")
        value = float(match.group("value").replace("Inf", "inf"))
        samples.setdefault(match.group("name"), []).append(
            (match.group("labels"), value)
        )
    return samples
