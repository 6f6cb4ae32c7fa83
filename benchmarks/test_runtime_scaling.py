"""Runtime scaling: PAAF vs the legacy baseline as designs grow.

The paper's Table II shows the legacy TritonRoute flow being *slower*
than PAAF on the full-size (36 K - 290 K cell) testcases.  This bench
times the baseline against PAAF's Step 1 on ispd18_test5 over an 8x
sweep of the scale factor (144 to 1,151 cells).  The baseline's cost
grows with (pins x design shapes) -- quadratic in design size --
while PAAF analyzes each unique instance once and its region queries
keep per-pin cost flat, so the baseline/PAAF time ratio grows with
the design.  On the smallest designs the baseline's naive scans are
still the cheaper ones.  PAAF's Step 1 draws level with the baseline
at about 600 cells and is the faster of the two at 1,151 cells, the
largest size measured; the full PAAF flow is not timed here.
The bench asserts that the ratio at least doubles over the sweep.
"""

import time

from repro.bench import build_testcase
from repro.core import LegacyPinAccess, PinAccessFramework
from repro.report import format_table

from benchmarks.conftest import publish

SCALES = (0.002, 0.004, 0.008, 0.016)


def measure(scale):
    design = build_testcase("ispd18_test5", scale=scale)
    t0 = time.perf_counter()
    LegacyPinAccess(design).run()
    baseline_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    PinAccessFramework(design).run_step1()
    paaf_time = time.perf_counter() - t0
    return {
        "cells": design.stats()["num_std_cells"],
        "baseline": baseline_time,
        "paaf": paaf_time,
    }


def test_runtime_scaling(once):
    rows = []
    ratios = []
    for scale in SCALES:
        if scale == SCALES[-1]:
            stats = once(measure, scale)
        else:
            stats = measure(scale)
        ratio = stats["baseline"] / max(1e-9, stats["paaf"])
        ratios.append(ratio)
        rows.append(
            [
                scale,
                stats["cells"],
                f"{stats['baseline']:.2f}",
                f"{stats['paaf']:.2f}",
                f"{ratio:.3f}",
            ]
        )
    text = format_table(
        ["Scale", "#Cells", "TrRte t(s)", "PAAF t(s)", "TrRte/PAAF"],
        rows,
        title=(
            "Runtime scaling on ispd18_test5: the baseline/PAAF time "
            "ratio grows with design size (PAAF's Step 1 draws level "
            "at about 600 cells)"
        ),
    )
    publish("runtime_scaling", text)

    # The ratio must grow monotonically over a 8x size sweep.
    assert ratios[-1] > ratios[0] * 2
