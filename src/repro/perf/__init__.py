"""Performance subsystem: the persistent AP cache and the Step 1/2 unit.

The paper's per-unique-instance results are reusable across runs
whenever the unique-instance signature and the tech/config
fingerprint match.  This package supplies:

* :mod:`repro.perf.apcache` -- a disk-backed access point / pattern
  cache keyed by unique-instance signature plus a fingerprint hash.
* :mod:`repro.perf.workers` -- the fused Step 1/2 unit the framework
  runs per unique instance.
* :mod:`repro.perf.parallel` -- ``effective_jobs``, the worker count
  of ``repro compare run -j``.

Hot-path counters and timers live in :mod:`repro.obs.metrics`.
"""

from repro.perf.apcache import AccessCache, paaf_fingerprint
from repro.perf.parallel import effective_jobs

__all__ = [
    "AccessCache",
    "paaf_fingerprint",
    "effective_jobs",
]
