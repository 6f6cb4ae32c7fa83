"""PAO: a pin access oracle for detailed routing.

A full reproduction of Kahng, Wang and Xu, *The Tao of PAO: Anatomy of
a Pin Access Oracle for Detailed Routing* (DAC 2020): the three-step
dynamic-programming pin access analysis framework (PAAF), every
substrate it depends on (Manhattan geometry, technology/design
database, LEF/DEF I/O, a TritonRoute-style DRC engine, a track-graph
detailed router), a synthetic ISPD-2018-like benchmark suite, and the
legacy baseline it is compared against.

Quickstart::

    from repro import build_testcase, PinAccessFramework

    design = build_testcase("ispd18_test1", scale=0.01)
    result = PinAccessFramework(design).run()
    print(result.total_access_points, "access points,",
          len(result.failed_pins()), "failed pins")
"""

from repro.core import (
    AccessPattern,
    AccessPoint,
    CoordType,
    LegacyPinAccess,
    PaafConfig,
    PinAccessFramework,
    PinAccessOracle,
    PinAccessResult,
    evaluate_failed_pins,
    unique_instances,
)
from repro.bench import build_testcase, build_aes14, ISPD18_TESTCASES
from repro.db import CellMaster, Design, Instance, MasterPin, Net, Row
from repro.drc import DrcEngine, ShapeContext, Violation
from repro.geom import Orientation, Point, Rect
from repro.lefdef import parse_def, parse_lef, write_def, write_lef
from repro.route import DetailedRouter, count_route_drcs
from repro.tech import Technology, make_node

__version__ = "1.0.0"

__all__ = [
    "AccessPattern",
    "AccessPoint",
    "CoordType",
    "LegacyPinAccess",
    "PaafConfig",
    "PinAccessFramework",
    "PinAccessOracle",
    "PinAccessResult",
    "evaluate_failed_pins",
    "unique_instances",
    "build_testcase",
    "build_aes14",
    "ISPD18_TESTCASES",
    "CellMaster",
    "Design",
    "Instance",
    "MasterPin",
    "Net",
    "Row",
    "DrcEngine",
    "ShapeContext",
    "Violation",
    "Orientation",
    "Point",
    "Rect",
    "parse_def",
    "parse_lef",
    "write_def",
    "write_lef",
    "DetailedRouter",
    "count_route_drcs",
    "Technology",
    "make_node",
    "__version__",
]
