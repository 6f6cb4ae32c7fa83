"""The worker-count knob of ``repro compare run -j``.

:mod:`repro.runs` runs independent compare flows in separate
processes; one analysis always runs in one process.
"""

from __future__ import annotations

import os


def effective_jobs(jobs) -> int:
    """Normalize a jobs knob: None/0/negative mean "all cores"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs
