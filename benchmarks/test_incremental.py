"""Incremental vs full re-analysis under placement edits.

The paper motivates fast inter-cell analysis with the placement
optimization loop (detailed placement, sizing, buffering): every move
invalidates pin access, and re-analyzing the full design per move is
the "prohibitive runtime cost" of prior work.  This bench moves
instances one at a time and compares the incremental update cost
against a from-scratch re-analysis, asserting a large speedup with an
identical access map after every move.
"""

import time

from repro.bench import build_testcase
from repro.core import PinAccessFramework, PinAccessOracle
from repro.geom.point import Point
from repro.report import format_table

from benchmarks.conftest import BENCH_SCALE, publish

NUM_MOVES = 8


def shift_target(design, inst):
    """A same-row target eight sites to the right, or left near the edge."""
    site_w = design.tech.site_width
    step = 8 * site_w
    x = inst.location.x + step
    if x + inst.bbox.width > design.die_area.xhi - step:
        x = inst.location.x - step
    return Point(x, inst.location.y)


def pick_movable(design):
    """Instances with empty space beside them (singleton clusters)."""
    movable = []
    for cluster in design.row_clusters():
        if len(cluster) == 1 and not cluster[0].master.is_macro:
            movable.append(cluster[0])
    return movable


def test_incremental_speedup(once):
    # Build privately: this bench *mutates* the placement, so it must
    # not touch the design cache other benches share.
    design = build_testcase("ispd18_test5", scale=BENCH_SCALE)
    movable = pick_movable(design)[:NUM_MOVES]
    assert len(movable) >= 3

    oracle = PinAccessOracle(design)

    incremental_total = 0.0
    full_total = 0.0
    for inst in movable:
        target = shift_target(design, inst)
        _, update_seconds = oracle.move_instance(
            inst.name, target.x, target.y
        )
        incremental_total += update_seconds
        t0 = time.perf_counter()
        full = PinAccessFramework(design).run()
        full_total += time.perf_counter() - t0
        assert oracle.snapshot.access_map() == full.access_map()

    speedup = full_total / max(1e-9, incremental_total)
    text = format_table(
        ["Metric", "Value"],
        [
            ["#Moves", len(movable)],
            ["Incremental total (s)", f"{incremental_total:.2f}"],
            ["Full re-analysis total (s)", f"{full_total:.2f}"],
            ["Speedup", f"{speedup:.1f}x"],
        ],
        title=(
            "Incremental pin access maintenance vs full re-analysis "
            "(placement optimization loop)"
        ),
    )
    publish("incremental", text)
    assert speedup > 5

    # Time one representative incremental move under the benchmark.
    inst = movable[0]
    target = shift_target(design, inst)
    once(oracle.move_instance, inst.name, target.x, target.y)
