"""The three access flows the comparator routes through.

Every flow produces the same two artifacts -- a cell-pin access map
``(instance, pin) -> AccessPoint`` and an IO-pin access map
``io_pin_name -> AccessPoint`` -- which then drive the *same*
detailed router over the *same* design.  The only experimental
variable is where the access answers came from:

* ``pao``    -- the in-process Pin Access Oracle: full PAAF Steps 1-3
  for cell pins, validated :class:`~repro.core.ioaccess.IoPinAccess`
  for IO pins.
* ``serve``  -- the same oracle behind the daemon: cell-pin answers
  are pulled over the ``repro.serve/v1`` wire via
  ``OracleClient.query_batch`` from a live ``OracleServer`` and
  reconstructed with :func:`~repro.serve.protocol.ap_from_wire`; the
  flow asserts the served map is bit-identical to an in-process
  reference before routing with it (IO pins are analyzed in process
  -- the wire protocol serves instance pins).
* ``legacy`` -- the Dr. CU / TritonRoute-v0-style baseline: on-track
  crossing points with a containment-only screen, for cell pins
  (:func:`~repro.route.drcu.drcu_access_map`) and -- IO parity with
  the oracle flows -- for IO pins
  (:func:`~repro.route.drcu.drcu_io_access_map`).

The flow record separates cell-pin access quality from IO coverage:
DRC totals are split into cell-attributed and IO-attributed counts
(by marker proximity to IO pin shapes), and coverage is counted per
terminal class, so the comparator's headline delta (Figure 8) is not
conflated with how many boundary pins a flow managed to reach.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from repro.compare.cases import FLOWS, CaseSpec

SCHEMA_FLOW = "repro.compare.flow/v1"


class FlowError(RuntimeError):
    """A flow could not produce a routable access map."""


def execute_flow(
    case: CaseSpec,
    flow: str,
    cache_dir: str = None,
    work_dir: str = None,
) -> dict:
    """Build the case, run one access flow, route, score; return record."""
    if flow not in FLOWS:
        raise FlowError(f"unknown flow {flow!r} (expected one of {FLOWS})")
    design = case.build()
    if flow == "pao":
        amap, io_map, analyze_s, extra = _pao_maps(design, cache_dir)
    elif flow == "serve":
        amap, io_map, analyze_s, extra = _serve_maps(
            design, cache_dir, case.case_id, work_dir
        )
    else:
        amap, io_map, analyze_s, extra = _legacy_maps(design)
    record = _route_and_score(design, case, flow, amap, io_map, analyze_s)
    if extra:
        record["serve"] = extra
    return record


# -- access map construction --------------------------------------------------


def _paaf_config(cache_dir: str = None):
    from repro.core import PaafConfig

    return PaafConfig(cache_dir=cache_dir)


def _pao_maps(design, cache_dir):
    from repro.core import PinAccessFramework
    from repro.core.ioaccess import IoPinAccess

    config = _paaf_config(cache_dir)
    t0 = time.perf_counter()
    result = PinAccessFramework(design, config).run()
    amap = result.access_map()
    io_map = _select_io(IoPinAccess(design, config).run())
    return amap, io_map, time.perf_counter() - t0, None


def _serve_maps(design, cache_dir, case_id, work_dir):
    from repro.core import PinAccessFramework, PinAccessOracle
    from repro.core.ioaccess import IoPinAccess
    from repro.serve.client import OracleClient
    from repro.serve.protocol import ap_from_wire, ap_to_wire
    from repro.serve.server import OracleServer

    config = _paaf_config(cache_dir)
    # In-process reference first: with a shared cache dir this also
    # warms the AP cache the daemon's oracle loads from.
    t0 = time.perf_counter()
    reference = PinAccessFramework(design, config).run().access_map()
    io_map = _select_io(IoPinAccess(design, config).run())
    analyze_s = time.perf_counter() - t0

    oracle = PinAccessOracle(design, config)
    sock_dir = work_dir or "."
    sock = os.path.join(sock_dir, "oracle.sock")
    server = OracleServer(("unix", sock), sessions={case_id: oracle})
    server.start()
    try:
        pins = sorted(
            (inst.name, pin.name)
            for inst in design.instances.values()
            for pin in inst.master.signal_pins()
        )
        t1 = time.perf_counter()
        with OracleClient(f"unix:{sock}") as client:
            answers = client.query_batch(pins, design=case_id)
        batch_s = time.perf_counter() - t1
    finally:
        server.stop(drain=False)

    # Bit-identity: the wire's selected AP must round-trip to exactly
    # the in-process oracle's selection for every pin, accessible or
    # not.  This is the tentpole invariant -- the routed result that
    # follows is provably driven by daemon answers.
    amap = {}
    mismatches = []
    generations = set()
    for (inst, pin), answer in zip(pins, answers):
        generations.add(answer.get("generation"))
        ref = reference.get((inst, pin))
        if answer.get("accessible"):
            wire_ap = answer.get("selected")
            if ap_to_wire(ref) != wire_ap:
                mismatches.append(f"{inst}/{pin}")
            amap[(inst, pin)] = ap_from_wire(wire_ap)
        elif ref is not None:
            mismatches.append(f"{inst}/{pin}")
    extra = {
        "served_pins": len(pins),
        "generations": sorted(g for g in generations if g is not None),
        "query_batch_s": batch_s,
        "session_analyze_s": oracle.analyze_seconds,
        "wire_identical": not mismatches,
        "mismatches": mismatches[:20],
    }
    return amap, io_map, analyze_s, extra


def _legacy_maps(design):
    from repro.route.drcu import drcu_access_map, drcu_io_access_map

    t0 = time.perf_counter()
    amap = drcu_access_map(design)
    io_map = drcu_io_access_map(design)
    return amap, io_map, time.perf_counter() - t0, None


def _select_io(io_aps: dict) -> dict:
    """First validated AP per IO pin; uncovered pins stay absent."""
    return {name: aps[0] for name, aps in io_aps.items() if aps}


# -- routing and scoring ------------------------------------------------------


def _route_and_score(design, case, flow, amap, io_map, analyze_s) -> dict:
    from repro.route.router import DetailedRouter, count_route_drcs

    t0 = time.perf_counter()
    rr = DetailedRouter(design).route(
        dict(amap), max_nets=case.max_nets, io_access=io_map
    )
    route_s = time.perf_counter() - t0
    pin_access = count_route_drcs(design, rr, scope="pin-access")
    full = count_route_drcs(design, rr, scope="full")
    full_io, full_cell = _split_io_violations(design, full)

    cell_terms = sorted(
        {term for net in design.nets.values() for term in net.terms}
    )
    cell_covered = sum(
        1
        for term in cell_terms
        if amap.get(term) is not None and amap[term].has_via_access
    )
    io_terms = sorted(
        {name for net in design.nets.values() for name in net.io_pins}
    )
    io_covered = sum(1 for name in io_terms if name in io_map)

    stats = design.stats()
    return {
        "schema": SCHEMA_FLOW,
        "case": case.case_id,
        "flow": flow,
        "design": {
            "cells": stats.get("num_std_cells", 0),
            "macros": stats.get("num_macros", 0),
            "nets": stats.get("num_nets", 0),
            "io_pins": stats.get("num_io_pins", 0),
        },
        "analyze_s": analyze_s,
        "route_s": route_s,
        "access": {
            "cell_terms": len(cell_terms),
            "cell_covered": cell_covered,
            "io_terms": len(io_terms),
            "io_covered": io_covered,
        },
        "routing": {
            "routed_nets": rr.routed_nets,
            "failed_nets": len(rr.failed_nets),
            "unconnected_terms": rr.unconnected_terms,
            "wirelength": rr.total_wirelength,
            "wires": len(rr.wires),
            "vias": len(rr.vias),
        },
        "drc": {
            "pin_access_total": len(pin_access),
            "pin_access": _by_rule(pin_access),
            "full_total": len(full),
            "full": _by_rule(full),
            "full_io_total": len(full_io),
            "full_cell_total": len(full_cell),
        },
    }


def _by_rule(violations) -> dict:
    return dict(sorted(Counter(v.rule for v in violations).items()))


def _split_io_violations(design, violations):
    """Partition violations into IO-attributed and cell-attributed.

    A violation is IO-attributed when its marker lands within one
    pitch of an IO pin shape -- the geometric proxy that keeps IO
    coverage effects out of the cell-pin access score.
    """
    io_zones = []
    for io_pin in design.io_pins.values():
        pitch = design.tech.layer(io_pin.layer_name).pitch
        io_zones.append(io_pin.rect.bloated(pitch))
    io_hits, cell_hits = [], []
    for violation in violations:
        marker = violation.marker
        if any(marker.intersects(zone) for zone in io_zones):
            io_hits.append(violation)
        else:
            cell_hits.append(violation)
    return io_hits, cell_hits
