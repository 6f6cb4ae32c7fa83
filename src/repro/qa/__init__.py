"""Golden-result regression layer (``repro qa``).

The quality-assurance subsystem turns a :class:`PinAccessResult` into
two stable artifacts:

* a **canonical fingerprint** (:mod:`repro.qa.fingerprint`) -- a
  version-stamped digest over the sorted serialization of per-pin
  access points, per-unique-instance patterns, per-instance selections
  and DRC verdicts, with per-step sub-digests so a mismatch localizes
  to Step 1, 2 or 3;
* a **quality-metric record** (:mod:`repro.qa.metrics`) -- the paper's
  Table II/III-style metrics (APs per pin, k-coverage, pattern
  validity, boundary conflicts, cluster cost, failed pins) in a stable
  JSON schema shared with the ``BENCH_*.json`` baselines.

:mod:`repro.qa.golden` manages a committed corpus of golden records
over generated testcases and backs the ``repro qa snapshot / check /
accept / diff`` CLI subcommands.  ``qa check`` is the gate CI runs:
any fingerprint drift or quality-metric regression fails the build,
and because the fingerprint is independent of every perf knob,
checking the same golden under each pair-check and candidate-check
mode asserts their identity by construction.
"""

from repro.qa.fingerprint import (
    FINGERPRINT_VERSION,
    ResultFingerprint,
    canonical_result,
    entry_digest,
    result_fingerprint,
)
from repro.qa.golden import (
    GOLDEN_SCHEMA,
    GoldenMismatch,
    check_goldens,
    diff_canonical,
    load_golden,
    snapshot_case,
    write_golden,
)
from repro.qa.metrics import (
    BENCH_SCHEMA,
    METRICS_SCHEMA,
    bench_entry,
    compare_metrics,
    gate_value,
    quality_metrics,
)

__all__ = [
    "FINGERPRINT_VERSION",
    "ResultFingerprint",
    "canonical_result",
    "entry_digest",
    "result_fingerprint",
    "GOLDEN_SCHEMA",
    "GoldenMismatch",
    "check_goldens",
    "diff_canonical",
    "load_golden",
    "snapshot_case",
    "write_golden",
    "BENCH_SCHEMA",
    "METRICS_SCHEMA",
    "bench_entry",
    "compare_metrics",
    "gate_value",
    "quality_metrics",
]
