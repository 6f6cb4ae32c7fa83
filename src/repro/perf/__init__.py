"""Performance subsystem: parallel fan-out and persistent caching.

The paper's framework is embarrassingly parallel at two levels --
Steps 1/2 across unique instances and Step 3 across row clusters --
and its per-unique-instance results are reusable across runs whenever
the unique-instance signature and the tech/config fingerprint match.
This package supplies the two pieces the orchestrator threads
through the flow:

* :mod:`repro.perf.parallel` -- a process-pool ``parallel_map`` with a
  zero-dependency serial fallback and deterministic result ordering.
* :mod:`repro.perf.apcache` -- a disk-backed access point / pattern
  cache keyed by unique-instance signature plus a fingerprint hash.

Hot-path counters and timers live in :mod:`repro.obs.metrics`.
"""

from repro.perf.apcache import AccessCache, paaf_fingerprint, perf_mode_key
from repro.perf.parallel import effective_jobs, parallel_map

__all__ = [
    "AccessCache",
    "paaf_fingerprint",
    "perf_mode_key",
    "parallel_map",
    "effective_jobs",
]
