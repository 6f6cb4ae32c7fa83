#!/usr/bin/env python3
"""Generate one run's inputs and the references its ops are checked against.

    python3 perfbench/gen.py --workload W --seed N --out DIR

Every catalogue design is a fixed draw of its spec (library, netlist
and base placement); ``--seed`` re-places its cells by seeded, legal
shifts of up to two sites into free space.  Redrawing whole designs
per seed varied one design's cost by 9-23% across seeds, and the run
figures with it; re-placing varies it by 3-7%.

Writes ``<id>.lef`` / ``<id>.def`` per design plus ``manifest.json``.
The references are computed from the written LEF/DEF, outside any
timed region and in this separate process, so neither generator nor
reference memory counts toward the measured process:

* analyze_cold, route_pao: the reference-backend fingerprint
  (``apcheck_mode="engine"``, ``paircheck_mode="engine"``), the IO
  access digest and the selected-pin count of every design;
* route_pao: whether the comparator's pao flow on the committed
  ``goldens/compare`` case still matches exactly;
* serve_eco: the seeded move list, and for every queried pin the
  from-scratch in-process answer for the original placement.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    REPO,
    WORKLOADS,
    read_json,
    use_checkout_source,
    write_json,
)
from workloads import (  # noqa: E402
    GOLDEN_CASE,
    SERVE_MOVES,
    design_plan,
    io_digest,
)


def build_design(entry: dict):
    from repro.bench.aes14 import AES14_SPEC
    from repro.bench.ispd18 import build_testcase, testcase_spec

    if entry["spec"] == AES14_SPEC.name:
        spec = AES14_SPEC
    else:
        spec = testcase_spec(entry["spec"])
    spec = dataclasses.replace(spec, seed=entry["draw"])
    return build_testcase(
        spec,
        scale=entry["cells"] / spec.std_cells,
        multi_height_fraction=entry["multi_height"],
    )


def replace_cells(design, rng: random.Random) -> None:
    """Shift single-height cells right by 0-2 sites, staying legal.

    Each row is walked right to left, so a cell only moves into sites
    its right-hand neighbour (already placed) leaves free; multi-height
    cells and macros stay put and block every row they span.
    """
    from repro.geom.point import Point

    site_w = design.tech.site_width
    site_h = design.tech.site_height
    row_end = {
        row.origin.y: row.origin.x + row.count * row.site_width
        for row in design.rows
    }
    by_row = {}
    for inst in design.instances.values():
        box = inst.bbox
        for y in range(box.ylo, box.yhi, site_h):
            by_row.setdefault(y, []).append(inst)
    for y in sorted(by_row):
        limit = row_end.get(y)
        for inst in sorted(by_row[y], key=lambda i: -i.location.x):
            box = inst.bbox
            movable = not inst.master.is_macro and box.height == site_h
            if movable and limit is not None:
                gap = (limit - box.xhi) // site_w
                shift = rng.randint(0, min(gap, 2)) if gap > 0 else 0
                if shift:
                    inst.location = Point(
                        inst.location.x + shift * site_w, inst.location.y
                    )
            limit = inst.bbox.xlo


def reference(design) -> dict:
    from repro.core import PaafConfig, PinAccessFramework
    from repro.core.ioaccess import IoPinAccess

    config = PaafConfig(apcheck_mode="engine", paircheck_mode="engine")
    result = PinAccessFramework(design, config).run(use_cache=False)
    return {
        "digest": result.fingerprint().digest,
        "io_digest": io_digest(IoPinAccess(design, config).run()),
        "selected_pins": len(result.access_map()),
    }


def golden_check() -> dict:
    from repro.compare.cases import CaseSpec
    from repro.compare.flows import execute_flow
    from repro.compare.report import deterministic_metrics

    name, scale = GOLDEN_CASE
    case = CaseSpec(name, scale)
    path = os.path.join(REPO, "goldens", "compare", f"{case.case_id}.json")
    want = read_json(path)["metrics"]["pao"]
    have = deterministic_metrics(execute_flow(case, "pao"))
    diffs = sorted(k for k in set(want) | set(have) if want.get(k) != have.get(k))
    return {"case": case.case_id, "ok": not diffs, "diffs": diffs}


def choose_moves(design, seed: int) -> list:
    """Seeded single-height cells with free sites to their right.

    Each move shifts one cell right by 1-2 sites into free space (no
    overlap) and queries the cell and its row neighbours.
    """
    site_w = design.tech.site_width
    site_h = design.tech.site_height
    row_end = {
        row.origin.y: row.origin.x + row.count * row.site_width
        for row in design.rows
    }
    by_row = {}
    for inst in design.instances.values():
        by_row.setdefault(inst.location.y, []).append(inst)
    candidates = []
    for y in sorted(by_row):
        row = sorted(by_row[y], key=lambda i: i.location.x)
        for k, inst in enumerate(row):
            if inst.master.is_macro or inst.bbox.height != site_h:
                continue
            right = row[k + 1].location.x if k + 1 < len(row) else row_end.get(y)
            if right is None:
                continue
            gap = (right - inst.bbox.xhi) // site_w
            if gap < 1:
                continue
            neighbours = row[max(0, k - 1):k + 2]
            candidates.append((inst, gap, neighbours))
    rng = random.Random(f"serve_eco:{seed}")
    chosen = rng.sample(candidates, min(SERVE_MOVES, len(candidates)))
    moves = []
    for inst, gap, neighbours in chosen:
        pins = [
            [n.name, pin.name]
            for n in neighbours
            for pin in n.master.signal_pins()
        ]
        moves.append(
            {
                "inst": inst.name,
                "x": inst.location.x,
                "y": inst.location.y,
                "dx": rng.randint(1, min(2, gap)) * site_w,
                "pins": pins,
            }
        )
    return moves


def expected_answers(design, moves: list) -> None:
    from repro.core import PinAccessOracle
    from repro.serve.protocol import answer_to_wire

    oracle = PinAccessOracle(design)
    for move in moves:
        expected = {}
        for inst, pin in move["pins"]:
            wire = answer_to_wire(oracle.query(inst, pin, strict=True), 0)
            del wire["generation"]
            expected[f"{inst}/{pin}"] = wire
        move["expected"] = expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    use_checkout_source()
    from repro.lefdef import parse_def, parse_lef, write_def, write_lef

    os.makedirs(args.out, exist_ok=True)
    manifest = {"workload": args.workload, "seed": args.seed, "designs": []}
    parsed = None
    for entry in design_plan(args.workload, args.seed):
        design = build_design(entry)
        replace_cells(design, random.Random(entry["placement"]))
        lef_text = write_lef(design.tech, list(design.masters.values()))
        def_text = write_def(design)
        for suffix, text in (("lef", lef_text), ("def", def_text)):
            with open(os.path.join(args.out, f"{entry['id']}.{suffix}"),
                      "w") as handle:
                handle.write(text)
        tech, masters = parse_lef(lef_text)
        parsed = parse_def(def_text, tech, masters)
        stats = parsed.stats()
        entry["stats"] = {
            "cells": stats["num_std_cells"],
            "nets": stats["num_nets"],
            "io_pins": stats["num_io_pins"],
            "node": stats["node"],
            "double_height": sum(
                1
                for inst in parsed.instances.values()
                if inst.bbox.height > parsed.tech.site_height
            ),
        }
        if args.workload != "serve_eco":
            entry["reference"] = reference(parsed)
        manifest["designs"].append(entry)
    if args.workload == "route_pao":
        manifest["golden"] = golden_check()
    if args.workload == "serve_eco":
        moves = choose_moves(parsed, args.seed)
        expected_answers(parsed, moves)
        manifest["moves"] = moves
    write_json(os.path.join(args.out, "manifest.json"), manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
