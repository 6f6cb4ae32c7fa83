"""Resumable comparator runs: (case, flow) points in isolated processes.

Every (case, flow) pair is one :mod:`repro.runs` unit: it runs in its
own worker process inside the run directory, with its stdout/stderr in
``log.txt``, a terminal ``status.json`` and its flow record in
``flow.json``.  Re-running the same directory re-executes only pairs
that are missing, failed or timed out, whose ``flow.json`` does not
parse, or whose fingerprint (case parameters + flow) changed -- a
finished pair is never re-run.

Layout::

    <run_dir>/run.json                    repro.compare.run/v1 summary
    <run_dir>/cases/<case>/<flow>/
        spec.json                         fingerprint for resume checks
        status.json                       running | done | failed | timeout
        flow.json                         repro.compare.flow/v1 record
        log.txt                           worker stdout/stderr
    <run_dir>/cases/<case>/report.json    repro.compare/v1 per-case report
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

from repro.compare.cases import CaseSpec
from repro.compare.flows import execute_flow
from repro.runs import (
    RESULT_FILE,
    Unit,
    read_json,
    run_units,
    write_json,
)

RUN_SCHEMA = "repro.compare.run/v1"


@dataclass(frozen=True)
class PlannedFlow:
    """One (case, flow) execution unit."""

    case: CaseSpec
    flow: str

    @property
    def key(self) -> str:
        return f"{self.case.case_id}/{self.flow}"

    @property
    def fingerprint(self) -> dict:
        return {
            "testcase": self.case.testcase,
            "scale": self.case.scale,
            "max_nets": self.case.max_nets,
            "flow": self.flow,
        }


def flow_dir(run_dir: str, pf: PlannedFlow) -> str:
    """Return the directory one (case, flow) pair executes in."""
    return os.path.join(run_dir, "cases", pf.case.case_id, pf.flow)


def case_dir(run_dir: str, case: CaseSpec) -> str:
    return os.path.join(run_dir, "cases", case.case_id)


def run_compare(
    cases,
    flows,
    run_dir: str,
    jobs: int = 1,
    flow_timeout_s: float = 1800.0,
    cache_dir: str = None,
    force: bool = False,
    out=print,
) -> dict:
    """Execute the case x flow matrix; return the run summary.

    ``force`` scrubs cached results first; otherwise finished pairs
    with matching fingerprints are reused (resumability).
    """
    os.makedirs(run_dir, exist_ok=True)
    if cache_dir is None:
        cache_dir = os.path.join(run_dir, "apcache")
    units = []
    for case in cases:
        for flow in flows:
            pf = PlannedFlow(case, flow)
            directory = flow_dir(run_dir, pf)
            units.append(
                Unit(
                    key=pf.key,
                    directory=directory,
                    record={"key": pf.key, "fingerprint": pf.fingerprint},
                    work=functools.partial(
                        execute_flow,
                        case,
                        flow,
                        cache_dir=cache_dir,
                        work_dir=directory,
                    ),
                )
            )
    states = run_units(units, jobs, flow_timeout_s, out, force=force)

    from repro.compare.cases import FLOWS
    from repro.compare.report import case_report

    case_states = {}
    for case in cases:
        # Aggregate every flow record present on disk, not just this
        # invocation's subset, so a partial re-run (e.g. --force on one
        # flow) never drops siblings from the per-case report.
        records = {}
        for flow in FLOWS:
            pf = PlannedFlow(case, flow)
            record = read_json(
                os.path.join(flow_dir(run_dir, pf), RESULT_FILE)
            )
            if record is not None:
                records[flow] = record
        wanted = [f for f in FLOWS if f in set(flows) | set(records)]
        wanted += [f for f in flows if f not in FLOWS]
        report = case_report(case, records, wanted_flows=wanted)
        write_json(
            os.path.join(case_dir(run_dir, case), "report.json"), report
        )
        case_states[case.case_id] = report["complete"]

    counts = {"done": 0, "cached": 0, "failed": 0, "timeout": 0}
    for state in states.values():
        counts[state] = counts.get(state, 0) + 1
    summary = {
        "schema": RUN_SCHEMA,
        "run_dir": os.path.abspath(run_dir),
        "cases": [case.case_id for case in cases],
        "flows": list(flows),
        "states": dict(sorted(states.items())),
        "complete_cases": case_states,
        "counts": counts,
        "finished_unix": round(time.time(), 3),
    }
    write_json(os.path.join(run_dir, "run.json"), summary)
    return summary
