"""Per-case comparator reports, goldens and the regression gate.

The per-case ``repro.compare/v1`` report aggregates one flow record
per access flow and derives the paper's headline readouts: the
Figure 8 ordering (legacy pin-access DRCs >> PAO, with PAO clean) and
the legacy/PAO deltas on DRCs, opens, wirelength and runtime.

Goldens (``repro.compare.golden/v1``, one file per case under
``goldens/compare/``) pin every *deterministic* metric of every flow
-- DRC totals by class, coverage, opens, wirelength, geometry counts,
the serve flow's bit-identity verdict -- and the gate requires exact
equality, the same determinism contract the qa golden corpus relies
on.  Timings are reported but never gated.
"""

from __future__ import annotations

import os

from repro.compare.cases import CaseSpec
from repro.runs import read_json, write_json

COMPARE_SCHEMA = "repro.compare/v1"
GOLDEN_SCHEMA = "repro.compare.golden/v1"
REPORT_SCHEMA = "repro.compare.report/v1"

#: Flow-record fields the goldens pin (everything here is a
#: deterministic function of the seeded design and the flow).
_GATED_TOP = ("access", "routing")
_GATED_DRC = (
    "pin_access_total",
    "pin_access",
    "full_total",
    "full",
    "full_io_total",
    "full_cell_total",
)


def deterministic_metrics(record: dict) -> dict:
    """Extract the golden-gated subset of one flow record."""
    out = {}
    for section in _GATED_TOP:
        for key, value in (record.get(section) or {}).items():
            out[f"{section}.{key}"] = value
    drc = record.get("drc") or {}
    for key in _GATED_DRC:
        if key in drc:
            out[f"drc.{key}"] = drc[key]
    serve = record.get("serve")
    if serve is not None:
        out["serve.wire_identical"] = serve.get("wire_identical")
    return out


def case_report(
    case: CaseSpec, records: dict, wanted_flows: list = None
) -> dict:
    """Build the ``repro.compare/v1`` report for one case."""
    wanted = list(wanted_flows or records)
    pao = records.get("pao") or records.get("serve")
    legacy = records.get("legacy")
    deltas = {}
    ordering = None
    if pao and legacy:
        pao_pa = pao["drc"]["pin_access_total"]
        legacy_pa = legacy["drc"]["pin_access_total"]
        pao_wl = pao["routing"]["wirelength"]
        deltas = {
            "pin_access_drc_ratio": round(legacy_pa / max(1, pao_pa), 3),
            "full_drc_delta": (
                legacy["drc"]["full_total"] - pao["drc"]["full_total"]
            ),
            "unconnected_delta": (
                legacy["routing"]["unconnected_terms"]
                - pao["routing"]["unconnected_terms"]
            ),
            "wirelength_delta_pct": (
                round(
                    100.0
                    * (legacy["routing"]["wirelength"] - pao_wl)
                    / pao_wl,
                    3,
                )
                if pao_wl
                else 0.0
            ),
        }
        ordering = {
            "pao_pin_access": pao_pa,
            "legacy_pin_access": legacy_pa,
            "figure8_ok": pao_pa == 0 and legacy_pa >= 10 * max(1, pao_pa),
        }
    return {
        "schema": COMPARE_SCHEMA,
        "case": case.case_id,
        "testcase": case.testcase,
        "scale": case.scale,
        "flows": records,
        "metrics": {
            flow: deterministic_metrics(record)
            for flow, record in records.items()
        },
        "deltas": deltas,
        "ordering": ordering,
        "complete": all(flow in records for flow in wanted),
    }


def flow_envelope(case: CaseSpec, records: dict) -> dict:
    """Roll one case's flow records into a ``repro.qa.bench/v1`` entry.

    The Figure 8 bench appends these entries to ``BENCH_compare.json``.
    """
    from repro.qa.metrics import bench_entry

    any_record = next(iter(records.values()))
    perf = {}
    metrics = {}
    for flow, record in sorted(records.items()):
        perf[f"{flow}_analyze_s"] = round(record["analyze_s"], 6)
        perf[f"{flow}_route_s"] = round(record["route_s"], 6)
        metrics[f"{flow}_pin_access_drcs"] = record["drc"][
            "pin_access_total"
        ]
        metrics[f"{flow}_full_drcs"] = record["drc"]["full_total"]
        metrics[f"{flow}_unconnected"] = record["routing"][
            "unconnected_terms"
        ]
        metrics[f"{flow}_wirelength"] = record["routing"]["wirelength"]
        serve = record.get("serve")
        if serve:
            perf[f"{flow}_query_batch_s"] = round(
                serve["query_batch_s"], 6
            )
            metrics[f"{flow}_wire_identical"] = int(
                bool(serve["wire_identical"])
            )
    if "pao" in records and "legacy" in records:
        metrics["pin_access_drc_ratio"] = round(
            records["legacy"]["drc"]["pin_access_total"]
            / max(1, records["pao"]["drc"]["pin_access_total"]),
            3,
        )
    return bench_entry(
        design=case.testcase,
        scale=case.scale,
        cells=any_record["design"]["cells"],
        perf=perf,
        metrics=metrics,
        context={"harness": "repro.compare"},
    )


# -- goldens ------------------------------------------------------------------


def golden_path(goldens_dir: str, case_id: str) -> str:
    return os.path.join(goldens_dir, f"{case_id}.json")


def golden_from_report(report: dict) -> dict:
    """Distill one case report into its committed golden."""
    return {
        "schema": GOLDEN_SCHEMA,
        "case": report["case"],
        "testcase": report["testcase"],
        "scale": report["scale"],
        "metrics": report["metrics"],
        "ordering": report["ordering"],
    }


def write_goldens(run_report: dict, goldens_dir: str) -> list:
    """Accept the run's current numbers as goldens; return paths."""
    os.makedirs(goldens_dir, exist_ok=True)
    written = []
    for case in run_report["cases"]:
        if not case["complete"]:
            continue
        path = golden_path(goldens_dir, case["case"])
        write_json(path, golden_from_report(case))
        written.append(path)
    return written


# -- the run-level report and gate --------------------------------------------


def load_run(run_dir: str) -> list:
    """Load every per-case report under ``run_dir``."""
    cases_root = os.path.join(run_dir, "cases")
    reports = []
    if not os.path.isdir(cases_root):
        return reports
    for name in sorted(os.listdir(cases_root)):
        report = read_json(os.path.join(cases_root, name, "report.json"))
        if report is not None:
            reports.append(report)
    return reports


def build_report(run_dir: str, goldens_dir: str = None) -> dict:
    """Gate a run against goldens and invariants.

    Failure kinds:

    * ``incomplete``     -- a case is missing one or more flow records
      (worker failed or timed out).
    * ``wire-identity``  -- the serve flow's access map diverged from
      the in-process oracle's.
    * ``figure8``        -- the golden pinned the Figure 8 ordering as
      holding and it no longer does.
    * ``golden``         -- a gated deterministic metric changed.

    Cases without a committed golden are reported but never gated.
    """
    case_reports = load_run(run_dir)
    failures = []
    rows = []
    for report in case_reports:
        case_id = report["case"]
        if not report["complete"]:
            failures.append(
                {"kind": "incomplete", "case": case_id}
            )
        for flow, record in report["flows"].items():
            serve = record.get("serve")
            if serve is not None and not serve.get("wire_identical"):
                failures.append(
                    {
                        "kind": "wire-identity",
                        "case": case_id,
                        "flow": flow,
                        "mismatches": serve.get("mismatches", []),
                    }
                )
        golden = None
        if goldens_dir:
            golden = read_json(golden_path(goldens_dir, case_id))
        if golden is not None:
            failures.extend(_check_golden(report, golden))
        rows.append(
            {
                "case": case_id,
                "golden": golden is not None,
                "ordering": report.get("ordering"),
                "deltas": report.get("deltas"),
            }
        )
    status = "regressed" if failures else "ok"
    return {
        "schema": REPORT_SCHEMA,
        "run_dir": os.path.abspath(run_dir),
        "goldens_dir": (
            os.path.abspath(goldens_dir) if goldens_dir else None
        ),
        "status": status,
        "failures": failures,
        "rows": rows,
        "cases": case_reports,
    }


def _check_golden(report: dict, golden: dict) -> list:
    failures = []
    case_id = report["case"]
    want_ordering = golden.get("ordering") or {}
    have_ordering = report.get("ordering") or {}
    if want_ordering.get("figure8_ok") and not have_ordering.get(
        "figure8_ok"
    ):
        failures.append(
            {
                "kind": "figure8",
                "case": case_id,
                "want": want_ordering,
                "have": have_ordering,
            }
        )
    for flow, want_metrics in (golden.get("metrics") or {}).items():
        have_metrics = (report.get("metrics") or {}).get(flow)
        if have_metrics is None:
            failures.append(
                {"kind": "golden", "case": case_id, "flow": flow,
                 "metric": "<flow missing>", "want": "present",
                 "have": "absent"}
            )
            continue
        for key in sorted(set(want_metrics) | set(have_metrics)):
            want = want_metrics.get(key)
            have = have_metrics.get(key)
            if want != have:
                failures.append(
                    {
                        "kind": "golden",
                        "case": case_id,
                        "flow": flow,
                        "metric": key,
                        "want": want,
                        "have": have,
                    }
                )
    return failures


def render_markdown(report: dict) -> str:
    """Render the run report as a markdown document."""
    lines = ["# repro compare report", ""]
    lines.append(f"- run dir: `{report['run_dir']}`")
    if report.get("goldens_dir"):
        lines.append(f"- goldens: `{report['goldens_dir']}`")
    lines.append(f"- status: **{report['status']}**")
    lines.append("")
    header = (
        "| case | flow | cell cov | io cov | pin-access DRCs | "
        "full DRCs (io) | opens | failed nets | WL | route s |"
    )
    lines.append(header)
    lines.append("|" + "---|" * 10)
    for case in report["cases"]:
        for flow in ("pao", "serve", "legacy"):
            record = case["flows"].get(flow)
            if record is None:
                lines.append(f"| {case['case']} | {flow} | missing |"
                             + " |" * 7)
                continue
            access = record["access"]
            routing = record["routing"]
            drc = record["drc"]
            lines.append(
                f"| {case['case']} | {flow} "
                f"| {access['cell_covered']}/{access['cell_terms']} "
                f"| {access['io_covered']}/{access['io_terms']} "
                f"| {drc['pin_access_total']} "
                f"| {drc['full_total']} ({drc['full_io_total']}) "
                f"| {routing['unconnected_terms']} "
                f"| {routing['failed_nets']} "
                f"| {routing['wirelength']} "
                f"| {record['route_s']:.2f} |"
            )
    lines.append("")
    ordered = [
        case for case in report["cases"] if case.get("ordering")
    ]
    if ordered:
        lines.append("## Figure 8 ordering")
        lines.append("")
        lines.append(
            "| case | legacy pin-access | PAO pin-access | ratio | ok |"
        )
        lines.append("|---|---|---|---|---|")
        for case in ordered:
            ordering = case["ordering"]
            ratio = (case.get("deltas") or {}).get(
                "pin_access_drc_ratio", ""
            )
            lines.append(
                f"| {case['case']} | {ordering['legacy_pin_access']} "
                f"| {ordering['pao_pin_access']} | {ratio} "
                f"| {'yes' if ordering['figure8_ok'] else 'no'} |"
            )
        lines.append("")
    if report["failures"]:
        lines.append("## Failures")
        lines.append("")
        for failure in report["failures"]:
            detail = {
                k: v
                for k, v in failure.items()
                if k not in ("kind", "case")
            }
            lines.append(
                f"- `{failure['case']}`: **{failure['kind']}** {detail}"
            )
        lines.append("")
    return "\n".join(lines)
