"""Manifest-driven DSE sweeps (``repro sweep``).

The paper's Tables I-III are sensitivity sweeps -- designs x tech
nodes x configurations -- and this package makes them a first-class,
machine-checked workload instead of hand-run benchmark scripts:

* :mod:`repro.sweep.spec` -- declarative YAML/JSON sweep manifests
  expanded into a matrix of run points;
* :mod:`repro.sweep.runner` -- plans per-point directories keyed by
  the AP-cache config fingerprint and runs them on the
  :mod:`repro.runs` engine (completed points skip, interrupted or
  corrupt points re-run cleanly in their own processes), each point
  emitting one ``repro.qa.bench/v1`` envelope;
* :mod:`repro.sweep.report` -- trend aggregation (markdown + JSON)
  gated against committed goldens and ``BENCH_*.json`` baselines with
  configurable regression tolerances.

See ``docs/SWEEP.md`` for the spec schema, the run-directory layout
and the regression-gate semantics.
"""

from repro.sweep.report import (
    REPORT_SCHEMA,
    baseline_checks,
    build_report,
    load_rows,
    render_markdown,
)
from repro.sweep.runner import (
    LAST_RUN_SCHEMA,
    RUN_SCHEMA,
    STATUS_SCHEMA,
    PlannedPoint,
    plan_points,
    point_dir,
    run_sweep,
    sweep_status,
)
from repro.sweep.spec import (
    SPEC_SCHEMA,
    SpecError,
    SweepSpec,
    expand_spec,
    load_spec,
    parse_simple_yaml,
)

__all__ = [
    "REPORT_SCHEMA",
    "baseline_checks",
    "build_report",
    "load_rows",
    "render_markdown",
    "LAST_RUN_SCHEMA",
    "RUN_SCHEMA",
    "STATUS_SCHEMA",
    "PlannedPoint",
    "plan_points",
    "point_dir",
    "run_sweep",
    "sweep_status",
    "SPEC_SCHEMA",
    "SpecError",
    "SweepSpec",
    "expand_spec",
    "load_spec",
    "parse_simple_yaml",
]
