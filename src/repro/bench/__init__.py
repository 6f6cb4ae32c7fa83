"""Synthetic benchmark suite generation.

The paper evaluates on the ISPD-2018 initial detailed routing contest
suite (proprietary-derived industrial designs) and, for Experiment 3's
preliminary study, a commercial 14 nm library with an OpenCores AES
netlist.  Neither is redistributable, so this package generates
*structurally equivalent* synthetic designs: same per-testcase cell /
macro / net / IO-pin counts (scaled), same technology nodes and layer
counts, standard-cell libraries whose pin shapes span the full
coordinate-type ladder (on-track through enclosure-boundary access),
and row/track structure that reproduces the unique-instance diversity
mechanism (site-to-track misalignment).

Everything is seeded and deterministic.
"""

import math

from repro.bench.stdcells import StdCellLibrary, build_library
from repro.bench.netlist import NetlistBuilder
from repro.bench.ispd18 import ISPD18_TESTCASES, TestcaseSpec, build_testcase
from repro.bench.aes14 import AES14_SPEC, build_aes14
from repro.bench.pinzoo import PINZOO_CASES, build_pinzoo

#: The names :func:`build_testcase` accepts, and those :func:`build_case`
#: accepts (the same plus the 14 nm AES design and the pin zoo).
TESTCASE_NAMES = tuple(spec.name for spec in ISPD18_TESTCASES)
CASE_NAMES = TESTCASE_NAMES + (AES14_SPEC.name,) + PINZOO_CASES


def check_scale(scale) -> float:
    """Return ``scale`` as a float; raise ValueError unless finite and > 0.

    The builders clamp a zero or negative scale to their smallest
    design and fail deep inside on NaN or infinity, so callers that
    take a scale from a user check it here first.
    """
    value = float(scale)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"scale must be a finite number > 0, not {scale!r}")
    return value


def build_case(name: str, scale: float = 1.0):
    """Build any named benchmark case: ispd18, aes14 or pin zoo.

    One dispatch point so the qa goldens and the comparator accept the
    same case names (:data:`CASE_NAMES`).
    """
    if name in PINZOO_CASES:
        return build_pinzoo(name, scale=scale)
    if name == AES14_SPEC.name:
        return build_aes14(scale=scale)
    return build_testcase(name, scale=scale)


__all__ = [
    "StdCellLibrary",
    "build_library",
    "NetlistBuilder",
    "ISPD18_TESTCASES",
    "TestcaseSpec",
    "build_testcase",
    "build_aes14",
    "AES14_SPEC",
    "PINZOO_CASES",
    "build_pinzoo",
    "build_case",
    "TESTCASE_NAMES",
    "CASE_NAMES",
    "check_scale",
]
