"""Sweep trend reports and the regression gate.

The reporter aggregates the ``repro.qa.bench/v1`` envelopes a sweep
run produced into one trend report (markdown + JSON) and gates it
three ways:

* **point health** -- failed or timed-out points are regressions;
* **baselines** (``--against BENCH_*.json``) -- each baseline entry
  is translated into checks against matching sweep points (wall
  time, QPS, any shared perf key) with configurable tolerances; the
  translator understands the repo's historic baseline vocabularies
  (``array_test1_s`` per-case cold analyze times, ``serial_s`` cold
  analyze times) as well as any key a sweep itself emits;
* **goldens** (``--goldens DIR``) -- points run at the default
  quality configuration are checked for bit-identical qa
  fingerprints and non-regressing quality metrics against the
  committed golden records.

``repro sweep report --fail-on-regress`` exits non-zero when any
check regresses, which is exactly what the CI ``sweep-smoke`` job
runs on every push.
"""

from __future__ import annotations

import json
import os
import re

from repro.qa.metrics import (
    BENCH_SCHEMA,
    compare_metrics,
    gate_value,
    migrate_bench_entry,
    perf_direction,
    perf_tolerance,
)
from repro.runs import read_json

REPORT_SCHEMA = "repro.sweep.report/v1"

#: Point fields that change results (anything beyond these being
#: non-default disqualifies a point from golden comparison).
_PERF_ONLY_POINT_FIELDS = frozenset(
    {"design", "scale", "paircheck_mode", "apcheck_mode"}
)

_CASE_PERF_RE = re.compile(r"(array|engine)_(test\d+)_s\Z")


def load_rows(run_dir: str) -> list:
    """Load the envelopes under a run directory.

    Understands two layouts: a sweep run directory
    (``points/<key>/envelope.json`` plus statuses, manifest-filtered)
    and a flat directory of ``repro.qa.bench/v1`` JSON files (what
    :func:`benchmarks.conftest.publish_envelope` emits), so the same
    reporter serves sweeps and the hand-run benchmark harness.
    """
    points_root = os.path.join(run_dir, "points")
    if os.path.isdir(points_root):
        from repro.sweep.runner import sweep_status

        rows = []
        for status in sweep_status(run_dir)["points"]:
            envelope = read_json(
                os.path.join(points_root, status["key"], "envelope.json")
            )
            rows.append(
                {
                    "key": status["key"],
                    "state": status["state"],
                    "error": status.get("error"),
                    "point": status.get("point", {}),
                    "envelope": envelope,
                }
            )
        return rows
    rows = []
    if not os.path.isdir(run_dir):
        return rows
    for name in sorted(os.listdir(run_dir)):
        if not name.endswith(".json"):
            continue
        payload = read_json(os.path.join(run_dir, name))
        entries = payload if isinstance(payload, list) else [payload]
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                continue
            entry = migrate_bench_entry(entry)
            if entry.get("schema") != BENCH_SCHEMA:
                continue
            key = name[: -len(".json")]
            if len(entries) > 1:
                key = f"{key}[{index}]"
            point = entry.get("context", {}).get("point", {})
            rows.append(
                {
                    "key": key,
                    "state": "done",
                    "error": None,
                    "point": point,
                    "envelope": entry,
                }
            )
    return rows


# -- baseline translation -----------------------------------------------------


def baseline_checks(entry: dict) -> list:
    """Translate one baseline envelope into point-selector checks.

    Returns ``(selector, perf_key, want, direction, source_key)``
    tuples, where ``source_key`` is the baseline's own key (tolerance
    files may address either name; the source key wins).  The
    selector constrains design/scale and, when the baseline key
    encodes one, the perf mode of the points it may gate:

    * ``array_test5_s`` / ``engine_test5_s`` (BENCH_analyze.json's
      per-case corpus times) gate ``analyze_s`` of ``ispd18_test5``
      points running that ``apcheck_mode``;
    * ``serial_s`` (BENCH_parallel.json) gates ``analyze_s`` of
      default-mode points;
    * any other key with an inferable direction gates the same key on
      design+scale alone.
    """
    entry = migrate_bench_entry(entry)
    design = entry.get("design")
    scale = entry.get("scale")
    checks = []
    for key, want in sorted(entry.get("perf", {}).items()):
        if not isinstance(want, (int, float)) or isinstance(want, bool):
            continue
        case = _CASE_PERF_RE.fullmatch(key)
        if case:
            selector = {
                "design": f"ispd18_{case.group(2)}",
                "scale": scale,
                "apcheck_mode": case.group(1),
            }
            checks.append((selector, "analyze_s", want, "lower", key))
        elif key == "serial_s":
            selector = {
                "design": design,
                "scale": scale,
                "paircheck_mode": "kernel",
                "apcheck_mode": "array",
            }
            checks.append((selector, "analyze_s", want, "lower", key))
        else:
            direction = perf_direction(key)
            if direction is not None:
                selector = {"design": design, "scale": scale}
                checks.append((selector, key, want, direction, key))
    return checks


_POINT_MODE_DEFAULTS = {
    "paircheck_mode": "kernel",
    "apcheck_mode": "array",
}


def _matches(row: dict, selector: dict) -> bool:
    envelope = row.get("envelope") or {}
    if envelope.get("design") != selector.get("design"):
        return False
    want_scale = selector.get("scale")
    have_scale = envelope.get("scale")
    if want_scale is not None:
        if have_scale is None:
            return False
        if abs(have_scale - want_scale) > 1e-9:
            return False
    point = row.get("point") or {}
    for field, default in _POINT_MODE_DEFAULTS.items():
        if field in selector:
            if point.get(field, default) != selector[field]:
                return False
    return True


def _is_default_quality_point(point: dict) -> bool:
    """True when a point changes nothing the golden records capture.

    Perf-only knobs never affect results.  A config knob written out
    explicitly at its :class:`PaafConfig` default (a sweep axis that
    includes the default value) does not disqualify the point either.
    """
    from repro.core.config import PaafConfig
    from repro.sweep.spec import POINT_FIELDS

    defaults = PaafConfig()
    for field, value in point.items():
        if field in _PERF_ONLY_POINT_FIELDS:
            continue
        _, kind = POINT_FIELDS[field]
        if kind != "config":
            return False
        if value != getattr(defaults, field):
            return False
    return True


# -- report building ----------------------------------------------------------


def build_report(
    rows: list,
    baselines: list = None,
    goldens_dir: str = None,
    tolerances: dict = None,
) -> dict:
    """Aggregate rows and run every configured comparison.

    ``baselines`` is a list of ``(label, entries)`` pairs; the latest
    entry of each history gates the sweep.  ``tolerances`` maps perf
    keys / metric names to ``{"abs": x, "rel": y}`` with
    ``_perf_default`` as the perf fallback.
    """
    tolerances = tolerances or {}
    report = {
        "schema": REPORT_SCHEMA,
        "points": [],
        "baselines": [],
        "goldens": [],
        "regressions": [],
    }
    for row in rows:
        envelope = row.get("envelope") or {}
        summary = {
            "key": row["key"],
            "state": row.get("state", "done"),
            "design": envelope.get("design"),
            "scale": envelope.get("scale"),
            "point": row.get("point", {}),
            "perf": dict(envelope.get("perf", {})),
            "metrics": dict(envelope.get("metrics", {})),
            "digest": (envelope.get("fingerprint") or {}).get("digest"),
        }
        report["points"].append(summary)
        if summary["state"] != "done" or not envelope:
            report["regressions"].append(
                {
                    "kind": "point",
                    "point": row["key"],
                    "detail": f"state {summary['state']}: "
                    f"{row.get('error') or 'no envelope'}",
                }
            )
    done = [r for r in rows if r.get("state") == "done" and r.get("envelope")]

    for label, entries in baselines or []:
        latest = migrate_bench_entry(entries[-1])
        block = {"baseline": label, "checks": [], "unmatched": []}
        for selector, perf_key, want, direction, source in baseline_checks(
            latest
        ):
            matched = [r for r in done if _matches(r, selector)]
            if not matched:
                block["unmatched"].append(
                    {"selector": selector, "perf_key": source}
                )
                continue
            for row in matched:
                have = row["envelope"].get("perf", {}).get(perf_key)
                if have is None:
                    continue
                if source in tolerances:
                    tolerance = tolerances[source]
                else:
                    tolerance = perf_tolerance(perf_key, tolerances)
                status = gate_value(want, have, direction, tolerance)
                check = {
                    "point": row["key"],
                    "perf_key": perf_key,
                    "source_key": source,
                    "want": want,
                    "have": have,
                    "status": status,
                }
                block["checks"].append(check)
                if status == "regressed":
                    report["regressions"].append(
                        {
                            "kind": "baseline",
                            "baseline": label,
                            "point": row["key"],
                            "detail": f"{source}: {want} -> {have}",
                        }
                    )
        metrics = latest.get("metrics")
        if metrics:
            for row in done:
                selector = {
                    "design": latest.get("design"),
                    "scale": latest.get("scale"),
                }
                if not _matches(row, selector):
                    continue
                for name, want, have, status in compare_metrics(
                    metrics, row["envelope"].get("metrics", {}), tolerances
                ):
                    check = {
                        "point": row["key"],
                        "perf_key": name,
                        "want": want,
                        "have": have,
                        "status": status,
                    }
                    block["checks"].append(check)
                    if status == "regressed":
                        report["regressions"].append(
                            {
                                "kind": "baseline",
                                "baseline": label,
                                "point": row["key"],
                                "detail": f"{name}: {want} -> {have}",
                            }
                        )
        report["baselines"].append(block)

    if goldens_dir:
        report["goldens"] = _golden_checks(
            done, goldens_dir, tolerances, report["regressions"]
        )
    return report


def _golden_checks(done, goldens_dir, tolerances, regressions) -> list:
    from repro.qa.golden import case_id

    checks = []
    for row in done:
        point = row.get("point") or {}
        if not _is_default_quality_point(point):
            continue
        envelope = row["envelope"]
        design = envelope.get("design")
        scale = envelope.get("scale")
        if design is None or scale is None:
            continue
        path = os.path.join(
            goldens_dir, case_id(design, scale) + ".json"
        )
        record = read_json(path)
        if not record or "fingerprint" not in record:
            continue
        golden_digest = record["fingerprint"].get("digest")
        have_digest = (envelope.get("fingerprint") or {}).get("digest")
        check = {
            "point": row["key"],
            "golden": os.path.basename(path),
            "digest_match": bool(
                golden_digest and golden_digest == have_digest
            ),
            "metric_rows": [],
        }
        if not check["digest_match"]:
            regressions.append(
                {
                    "kind": "golden",
                    "point": row["key"],
                    "detail": "result fingerprint drifted from "
                    f"{check['golden']}",
                }
            )
        rows = compare_metrics(
            record.get("metrics", {}),
            envelope.get("metrics", {}),
            tolerances,
        )
        check["metric_rows"] = [list(r) for r in rows]
        for name, want, have, status in rows:
            if status == "regressed":
                regressions.append(
                    {
                        "kind": "golden",
                        "point": row["key"],
                        "detail": f"{name}: {want} -> {have}",
                    }
                )
        checks.append(check)
    return checks


# -- rendering ----------------------------------------------------------------

_TREND_COLUMNS = ("analyze_s", "qps_pins")
_TREND_METRICS = ("access_points", "failed_pins")


def render_markdown(report: dict, title: str = "Sweep trend report") -> str:
    """Render the report as the markdown CI uploads as an artifact."""
    lines = [f"# {title}", ""]
    counts = {}
    for point in report["points"]:
        counts[point["state"]] = counts.get(point["state"], 0) + 1
    summary = ", ".join(
        f"{count} {state}" for state, count in sorted(counts.items())
    )
    lines.append(
        f"{len(report['points'])} point(s): {summary or 'none'}; "
        f"{len(report['regressions'])} regression(s)"
    )
    lines.append("")
    header = ["point", "state"] + list(_TREND_COLUMNS) + list(_TREND_METRICS)
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for point in report["points"]:
        cells = [point["key"], point["state"]]
        for column in _TREND_COLUMNS:
            cells.append(_fmt(point["perf"].get(column)))
        for metric in _TREND_METRICS:
            cells.append(_fmt(point["metrics"].get(metric)))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")

    for block in report["baselines"]:
        lines.append(f"## Baseline: {block['baseline']}")
        lines.append("")
        if block["checks"]:
            lines.append("| point | key | baseline | current | status |")
            lines.append("|---|---|---|---|---|")
            for check in block["checks"]:
                lines.append(
                    f"| {check['point']} | {check['perf_key']} | "
                    f"{_fmt(check['want'])} | {_fmt(check['have'])} | "
                    f"{check['status']} |"
                )
        else:
            lines.append("no matching points")
        for miss in block["unmatched"]:
            lines.append(
                f"- unmatched: {miss['perf_key']} "
                f"(selector {json.dumps(miss['selector'], sort_keys=True)})"
            )
        lines.append("")

    if report["goldens"]:
        lines.append("## Goldens")
        lines.append("")
        for check in report["goldens"]:
            verdict = "identical" if check["digest_match"] else "DRIFTED"
            lines.append(
                f"- {check['point']} vs {check['golden']}: "
                f"fingerprint {verdict}"
            )
            for name, want, have, status in check["metric_rows"]:
                if status != "ok":
                    lines.append(
                        f"  - {name}: {_fmt(want)} -> {_fmt(have)} "
                        f"({status})"
                    )
        lines.append("")

    if report["regressions"]:
        lines.append("## Regressions")
        lines.append("")
        for regression in report["regressions"]:
            prefix = regression.get("baseline") or regression["kind"]
            lines.append(
                f"- [{prefix}] {regression['point']}: "
                f"{regression['detail']}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
