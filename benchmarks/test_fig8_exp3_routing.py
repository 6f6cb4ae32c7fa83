"""Figure 8 / Experiment 3: final routed pin-access DRCs.

Drives the ``repro.compare`` harness: the same testcase is routed once
per access flow -- the legacy Dr. CU 2.0-style baseline (on-track
point, no rule-aware via model), the in-process PAO, and (full runs)
the serve-backed PAO whose access map is pulled from a live daemon
and asserted bit-identical -- and each routed layout is scored with
the DRC engine.

Expected shape (paper: 755 DRCs for Dr. CU 2.0 vs 2 for PAAF on
ispd18_test5): an orders-of-magnitude gap in favor of PAAF.

Results go into ``BENCH_compare.json`` at the repo root (shared
``repro.qa.bench/v1`` envelope).  Set ``REPRO_BENCH_SMOKE=1`` (CI) to
shrink the design, skip the serve flow and leave the history
untouched.
"""

import os
import pathlib

from repro.compare import CaseSpec
from repro.compare.flows import execute_flow
from repro.compare.report import case_report, flow_envelope
from repro.report import format_table

from benchmarks.conftest import (
    BENCH_SCALE,
    append_bench_entry,
    publish,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CASE = (
    CaseSpec("ispd18_test1", 0.004)
    if SMOKE
    else CaseSpec("ispd18_test5", BENCH_SCALE)
)
RUN_FLOWS = ("legacy", "pao") if SMOKE else ("legacy", "pao", "serve")
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_compare.json"


def test_fig8_routing_comparison(once, tmp_path):
    records = {}
    for flow in RUN_FLOWS:
        runner = once if flow == "pao" else (lambda fn, *a: fn(*a))
        records[flow] = runner(
            lambda f: execute_flow(CASE, f, work_dir=str(tmp_path)), flow
        )
    report = case_report(CASE, records, wanted_flows=list(RUN_FLOWS))

    rows = []
    for flow in RUN_FLOWS:
        record = records[flow]
        routing = record["routing"]
        drc = record["drc"]
        rows.append(
            [
                flow,
                routing["routed_nets"],
                routing["failed_nets"],
                routing["unconnected_terms"],
                drc["pin_access_total"],
                ", ".join(
                    f"{r}:{c}" for r, c in sorted(drc["pin_access"].items())
                )
                or "-",
            ]
        )
    text = format_table(
        [
            "Access flow",
            "#Routed nets",
            "#Failed nets",
            "#Unconn terms",
            "#Pin-access DRCs",
            "DRC breakdown",
        ],
        rows,
        title=(
            f"Figure 8 / Experiment 3 ({CASE.case_id}): routed pin access "
            "by flow (paper: 755 vs 2 DRCs on ispd18_test5)"
        ),
    )
    publish("fig8_exp3_smoke" if SMOKE else "fig8_exp3", text)

    entry = flow_envelope(CASE, records)
    if not SMOKE:
        append_bench_entry(BENCH_JSON, entry)

    ordering = report["ordering"]
    assert ordering["figure8_ok"], ordering
    if "serve" in records:
        assert records["serve"]["serve"]["wire_identical"]
