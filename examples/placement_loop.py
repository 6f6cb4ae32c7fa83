#!/usr/bin/env python3
"""Pin access inside a detailed placement optimization loop.

The paper motivates fast inter-cell analysis with exactly this loop
(Sec. IV): a placer nudges cells one at a time and needs fresh,
DRC-clean pin access after every move.  This example runs a toy
"spread the gaps" placement pass over a generated design, maintaining
pin access incrementally, and compares the accumulated analysis cost
against re-running the full framework per move.
"""

import sys
import time

from repro import (
    PinAccessFramework,
    PinAccessOracle,
    build_testcase,
    evaluate_failed_pins,
)
from repro.geom.point import Point


def movable_singletons(design):
    """Cells alone in their cluster (room to slide sideways)."""
    return [
        cluster[0]
        for cluster in design.row_clusters()
        if len(cluster) == 1 and not cluster[0].master.is_macro
    ]


def legal_target(design, inst, target):
    """A placer's legality check: inside the core, no overlap."""
    from repro.geom.rect import Rect

    width = inst.bbox.width
    height = inst.bbox.height
    new_bbox = Rect(target.x, target.y, target.x + width, target.y + height)
    if not design.die_area.contains_rect(new_bbox):
        return False
    for other in design.instances.values():
        if other.name != inst.name and new_bbox.overlaps(other.bbox):
            return False
    return True


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.005
    design = build_testcase("ispd18_test5", scale=scale)
    print(f"{design.name}: {len(design.instances)} instances")

    oracle = PinAccessOracle(design)
    print(f"initial full analysis: {oracle.analyze_seconds:.2f}s")

    moves = movable_singletons(design)[:10]
    site_w = design.tech.site_width
    incremental_cost = 0.0
    performed = 0
    for step, inst in enumerate(moves, 1):
        dx = 6 * site_w if step % 2 else -6 * site_w
        target = Point(inst.location.x + dx, inst.location.y)
        if not legal_target(design, inst, target):
            target = Point(inst.location.x - dx, inst.location.y)
            if not legal_target(design, inst, target):
                continue
        performed += 1
        _, update_seconds = oracle.move_instance(
            inst.name, target.x, target.y
        )
        incremental_cost += update_seconds
        failed = evaluate_failed_pins(design, oracle.snapshot.access_map())
        print(
            f"move {step}: {inst.name} -> {target}; "
            f"update {update_seconds * 1000:.0f} ms; "
            f"{len(failed)} failed pins"
        )

    t0 = time.perf_counter()
    PinAccessFramework(design).run()
    full_cost = time.perf_counter() - t0
    print(
        f"\nincremental total for {performed} moves: "
        f"{incremental_cost:.2f}s; one full re-analysis costs "
        f"{full_cost:.2f}s -> the naive loop would spend "
        f"{full_cost * max(1, performed):.1f}s"
    )


if __name__ == "__main__":
    main()
