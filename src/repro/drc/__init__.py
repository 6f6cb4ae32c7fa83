"""Design rule check engine.

A region-query-backed checker modeled on the one TritonRoute uses for
pin access (paper Sec. III-A: "We use an accurate DRC engine similar to
the one used in [20]").  It interprets, per routing layer: PRL spacing
tables, end-of-line spacing, min-step on merged metal, min-area; and
per cut layer: cut spacing.  Via placements are checked as the stacked
triple (bottom enclosure, cut, top enclosure).

Electrical equivalence is tracked by *net keys*: shapes sharing a net
key merge rather than violate.
"""

from repro.drc.violations import Violation
from repro.drc.context import ShapeContext
from repro.drc.engine import DrcEngine
from repro.drc.disptable import DisplacementTable
from repro.drc.pairkernel import (
    PAIRCHECK_MODES,
    PairCheckMismatch,
    PairKernel,
    build_pair_table,
)

__all__ = [
    "Violation",
    "ShapeContext",
    "DrcEngine",
    "DisplacementTable",
    "PAIRCHECK_MODES",
    "PairCheckMismatch",
    "PairKernel",
    "build_pair_table",
]
