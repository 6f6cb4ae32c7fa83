"""The Step 1/2 unit of the pin access pipeline.

Steps 1 and 2 run once per unique instance (:func:`step12_unique`,
whose Step 1 half is :func:`step1_unique`).  They are plain functions
over explicit arguments; :class:`~repro.core.framework.
PinAccessFramework` calls them in process on its own design, config
and kernels, for a full run and for a signature class first seen
after a placement move, so a move reuses the kernels' compiled tables
and caches.  Step 3 has no unit here: it is one pass of
:meth:`~repro.core.cluster.ClusterPatternSelector.select` per
placement.

This module is imported lazily by the framework (after ``repro.core``
has fully initialized) to keep the import graph acyclic.
"""

from __future__ import annotations

import time

from repro.core.apgen import AccessPointGenerator
from repro.core.patterngen import AccessPatternGenerator
from repro.obs.trace import span


def step1_unique(design, config, akernel, rep) -> dict:
    """Step 1 for one unique instance: pin name -> access points.

    Generates the access points of every signal pin of the
    representative ``rep`` from ``akernel``'s verdicts on its cell
    class, whichever mode built them.
    """
    generator = AccessPointGenerator(design, config, akernel=akernel)
    return {
        pin.name: generator.generate_for_pin(rep, pin)
        for pin in rep.master.signal_pins()
    }


def step12_unique(design, config, engine, kernel, akernel, ui,
                  index: int) -> tuple:
    """Run fused Step 1 + 2 for unique instance ``ui``.

    ``index`` is the instance's position in the caller's list; it
    labels the ``step12.unique`` span.  Returns ``(aps_by_pin,
    patterns, step1_s, step2_s)``.
    """
    rep = ui.representative
    with span(
        "step12.unique",
        index=index,
        master=ui.master_name,
        rep=rep.name,
        members=len(ui.members),
    ):
        t0 = time.perf_counter()
        aps_by_pin = step1_unique(design, config, akernel, rep)
        t1 = time.perf_counter()
        patterns = AccessPatternGenerator(
            design.tech, engine, config, kernel=kernel, akernel=akernel,
        ).generate(aps_by_pin, label=rep.name)
        t2 = time.perf_counter()
    return aps_by_pin, patterns, t1 - t0, t2 - t1
