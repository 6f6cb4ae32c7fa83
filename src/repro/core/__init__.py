"""PAAF core: the paper's pin access analysis framework.

The three-step flow (paper Sec. III):

1. :mod:`repro.core.apgen` -- pin-based access point generation
   (Algorithm 1) over the coordinate-type ladder of
   :mod:`repro.core.coords`.
2. :mod:`repro.core.patterngen` -- unique-instance access pattern
   generation (Algorithms 2 and 3) on the DP graph of
   :mod:`repro.core.dpgraph`, boundary-conflict-aware and
   history-aware.
3. :mod:`repro.core.cluster` -- cluster-based access pattern selection.

:class:`~repro.core.framework.PinAccessFramework` orchestrates all
three and is the public entry point; compare against
:class:`~repro.core.baseline.LegacyPinAccess` (the pre-PAO TritonRoute
v0.0.6.0 strategy).
"""

from repro.core.signature import UniqueInstance, unique_instances
from repro.core.coords import CoordType
from repro.core.apgen import AccessPoint, AccessPointGenerator
from repro.core.pattern import AccessPattern
from repro.core.patterngen import AccessPatternGenerator
from repro.core.cluster import ClusterPatternSelector
from repro.core.framework import (
    PinAccessFramework,
    PinAccessResult,
    UniqueInstanceAccess,
    evaluate_failed_pins,
)
from repro.core.config import PaafConfig
from repro.core.baseline import LegacyPinAccess
from repro.core.ioaccess import IoPinAccess
from repro.core.oracle import (
    PinAccessAnswer,
    PinAccessOracle,
    UnknownInstanceError,
    UnknownPinError,
)

__all__ = [
    "UniqueInstance",
    "unique_instances",
    "CoordType",
    "AccessPoint",
    "AccessPointGenerator",
    "AccessPattern",
    "AccessPatternGenerator",
    "ClusterPatternSelector",
    "PaafConfig",
    "PinAccessFramework",
    "PinAccessResult",
    "UniqueInstanceAccess",
    "evaluate_failed_pins",
    "LegacyPinAccess",
    "IoPinAccess",
    "PinAccessOracle",
    "PinAccessAnswer",
    "UnknownInstanceError",
    "UnknownPinError",
]
