"""Router-in-the-loop comparator (paper Experiment 3, Figures 8-9).

Routes a case matrix through three access flows -- in-process PAO,
serve-backed PAO (answers pulled from a live daemon over the wire and
asserted bit-identical), and the legacy Dr. CU-style baseline -- and
scores each routed result: DRC counts by violation class (pin-access
and full scope, IO-attributed counts separated), opens, wirelength
and runtime deltas.  Runs are resumable directories of isolated
(case, flow) worker processes on the :mod:`repro.runs` engine;
per-case reports are gated against committed goldens under
``goldens/compare/``.
"""

from repro.compare.cases import (
    FLOWS,
    GOLDEN_MATRIX,
    SMOKE_MATRIX,
    CaseSpec,
    parse_case,
)
from repro.compare.flows import execute_flow
from repro.compare.report import (
    COMPARE_SCHEMA,
    GOLDEN_SCHEMA,
    REPORT_SCHEMA,
    build_report,
    case_report,
    render_markdown,
    write_goldens,
)
from repro.compare.runner import run_compare

__all__ = [
    "FLOWS",
    "GOLDEN_MATRIX",
    "SMOKE_MATRIX",
    "CaseSpec",
    "parse_case",
    "execute_flow",
    "COMPARE_SCHEMA",
    "GOLDEN_SCHEMA",
    "REPORT_SCHEMA",
    "build_report",
    "case_report",
    "render_markdown",
    "write_goldens",
    "run_compare",
]
