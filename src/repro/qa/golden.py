"""Golden-record corpus management behind ``repro qa``.

A golden record captures one generated testcase's full PAAF outcome:
the canonical result form, its fingerprint (combined digest plus
per-step sub-digests) and the quality metrics.  Records live as JSON
under ``goldens/`` and are committed, so every future refactor is
checked against them:

* ``qa snapshot`` runs one case and writes its record;
* ``qa check`` re-runs every record's case and fails on any
  fingerprint drift or metric regression beyond tolerance;
* ``qa accept`` re-runs and overwrites records (the reviewed way to
  bless an intentional behavior change);
* ``qa diff`` prints the full human-readable drift -- which step,
  which unique instance, which pin, which access point -- instead of a
  bare hash mismatch.

Because the fingerprint ignores perf knobs, running ``qa check`` with
``--paircheck-mode engine`` or ``--apcheck-mode verify`` against
goldens recorded with the kernels asserts the ``kernel == engine``
identities by construction; CI does exactly that.
"""

from __future__ import annotations

import json
import os

from repro.qa.fingerprint import (
    FINGERPRINT_VERSION,
    ResultFingerprint,
    canonical_result,
    fingerprint_of_canonical,
)
from repro.qa.metrics import compare_metrics, quality_metrics, regressions

GOLDEN_SCHEMA = "repro.qa.golden/v1"
DEFAULT_GOLDENS_DIR = "goldens"


class GoldenMismatch(AssertionError):
    """Raised by :func:`verify_result` when a result drifts."""

    def __init__(self, message: str, diff: list):
        super().__init__(message)
        self.diff = diff


def case_id(testcase: str, scale: float) -> str:
    """Return the corpus identity of one generated case."""
    return f"{testcase}@{scale:g}"


def golden_path(goldens_dir: str, testcase: str, scale: float) -> str:
    """Return the record path for one case."""
    return os.path.join(goldens_dir, case_id(testcase, scale) + ".json")


def run_case(
    testcase: str,
    scale: float,
    paircheck_mode: str = "kernel",
    apcheck_mode: str = "array",
):
    """Generate and analyze one case; return ``(result, failed_pins)``.

    ``paircheck_mode`` and ``apcheck_mode`` are perf knobs: any
    combination must reproduce the same fingerprint, which is exactly
    what the cross-matrix CI jobs assert.
    """
    from repro.bench import build_case
    from repro.core import PaafConfig, PinAccessFramework
    from repro.core.framework import evaluate_failed_pins

    design = build_case(testcase, scale=scale)
    config = PaafConfig(
        paircheck_mode=paircheck_mode,
        apcheck_mode=apcheck_mode,
    )
    result = PinAccessFramework(design, config).run()
    failed = evaluate_failed_pins(design, result.access_map())
    return result, failed


def snapshot_case(
    testcase: str,
    scale: float,
    paircheck_mode: str = "kernel",
    apcheck_mode: str = "array",
) -> dict:
    """Run one case and build its golden record."""
    result, failed = run_case(
        testcase,
        scale,
        paircheck_mode=paircheck_mode,
        apcheck_mode=apcheck_mode,
    )
    return golden_record(testcase, scale, result, failed)


def golden_record(testcase: str, scale: float, result, failed: list) -> dict:
    """Build the golden record payload for an already-run result."""
    canonical = canonical_result(result)
    fingerprint = fingerprint_of_canonical(canonical)
    return {
        "schema": GOLDEN_SCHEMA,
        "case": {"testcase": testcase, "scale": scale},
        "fingerprint": fingerprint.to_json(),
        "metrics": quality_metrics(result, failed),
        "canonical": canonical,
    }


def write_golden(path: str, record: dict) -> None:
    """Write a golden record (stable key order, trailing newline)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_golden(path: str) -> dict:
    """Load one golden record, validating its schema stamp."""
    with open(path) as handle:
        record = json.load(handle)
    if record.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"{path}: not a golden record "
            f"(schema {record.get('schema')!r}, expected {GOLDEN_SCHEMA!r})"
        )
    return record


def list_goldens(goldens_dir: str, cases: list = None) -> list:
    """Return the record paths under ``goldens_dir``.

    ``cases`` filters by case id (the filename stem); unknown names
    raise so a CI typo cannot silently check nothing.
    """
    try:
        listing = os.listdir(goldens_dir)
    except FileNotFoundError:
        return []
    names = sorted(name for name in listing if name.endswith(".json"))
    if cases:
        known = {name[: -len(".json")]: name for name in names}
        missing = [case for case in cases if case not in known]
        if missing:
            raise ValueError(
                f"unknown golden case(s): {', '.join(missing)} "
                f"(have: {', '.join(known) or 'none'})"
            )
        names = [known[case] for case in cases]
    return [os.path.join(goldens_dir, name) for name in names]


# -- diffing -----------------------------------------------------------------


def diff_canonical(golden: dict, current: dict, max_lines: int = None) -> list:
    """Explain how two canonical results differ, one line per change.

    Lines carry the full path into the canonical form, so a drift
    names the step, the unique instance or instance, the pin and the
    access-point field that moved.
    """
    lines = []
    _walk(golden, current, "", lines)
    if max_lines is not None and len(lines) > max_lines:
        extra = len(lines) - max_lines
        lines = lines[:max_lines] + [f"... and {extra} more difference(s)"]
    return lines


def _walk(golden, current, path, out) -> None:
    if isinstance(golden, dict) and isinstance(current, dict):
        for key in sorted(set(golden) | set(current), key=str):
            label = f"{path}/{key}" if path else str(key)
            if key not in current:
                out.append(f"{label}: removed (was {_brief(golden[key])})")
            elif key not in golden:
                out.append(f"{label}: added ({_brief(current[key])})")
            else:
                _walk(golden[key], current[key], label, out)
        return
    if isinstance(golden, list) and isinstance(current, list):
        if len(golden) != len(current):
            out.append(f"{path}: length {len(golden)} -> {len(current)}")
        for i in range(min(len(golden), len(current))):
            _walk(golden[i], current[i], f"{path}[{i}]", out)
        if len(golden) > len(current):
            longer, tag = golden, "removed"
        else:
            longer, tag = current, "added"
        for i in range(min(len(golden), len(current)), len(longer)):
            out.append(f"{path}[{i}]: {tag} ({_brief(longer[i])})")
        return
    if golden != current:
        out.append(f"{path}: {_brief(golden)} -> {_brief(current)}")


def _brief(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= 60 else text[:57] + "..."


def verify_result(record: dict, result, failed: list = None) -> None:
    """Assert ``result`` matches a golden record (test-suite hook).

    Raises :class:`GoldenMismatch` whose message leads with the
    drifted step names and carries the detailed diff.
    """
    canonical = canonical_result(result)
    fingerprint = fingerprint_of_canonical(canonical)
    golden_fp = ResultFingerprint.from_json(record["fingerprint"])
    if fingerprint.digest == golden_fp.digest:
        return
    steps = ", ".join(fingerprint.drifted_steps(golden_fp)) or "version"
    diff = diff_canonical(record["canonical"], canonical)
    head = "; ".join(diff[:3])
    raise GoldenMismatch(
        f"result drifted from golden in {steps}: {head}", diff
    )


# -- the qa check gate -------------------------------------------------------


def check_goldens(
    goldens_dir: str,
    cases: list = None,
    paircheck_mode: str = "kernel",
    apcheck_mode: str = "array",
    accept: bool = False,
    max_diff_lines: int = 20,
    out=print,
) -> tuple:
    """Re-run every golden case and gate the results.

    Returns ``(exit_code, report)`` where ``report`` is the
    JSON-serializable payload CI uploads as an artifact.  With
    ``accept=True``, drifting or regressing records are rewritten from
    the fresh run instead of failing.
    """
    paths = list_goldens(goldens_dir, cases)
    report = {
        "goldens_dir": goldens_dir,
        "paircheck_mode": paircheck_mode,
        "apcheck_mode": apcheck_mode,
        "accept": accept,
        "cases": [],
    }
    if not paths:
        out(f"no golden records under {goldens_dir}")
        return 1, report
    failures = 0
    for path in paths:
        record = load_golden(path)
        case = record["case"]
        result, failed = run_case(
            case["testcase"],
            case["scale"],
            paircheck_mode=paircheck_mode,
            apcheck_mode=apcheck_mode,
        )
        entry = _check_one(record, result, failed, max_diff_lines)
        entry["case"] = case_id(case["testcase"], case["scale"])
        if entry["status"] != "ok" and accept:
            fresh = golden_record(
                case["testcase"], case["scale"], result, failed
            )
            write_golden(path, fresh)
            entry["status"] = "accepted"
        report["cases"].append(entry)
        if entry["status"] not in ("ok", "accepted"):
            failures += 1
        _print_entry(entry, out)
    out(
        f"qa check: {len(paths) - failures}/{len(paths)} case(s) ok "
        f"(paircheck_mode={paircheck_mode}, "
        f"apcheck_mode={apcheck_mode})"
    )
    return (1 if failures else 0), report


def _check_one(record, result, failed, max_diff_lines) -> dict:
    canonical = canonical_result(result)
    fingerprint = fingerprint_of_canonical(canonical)
    golden_fp = ResultFingerprint.from_json(record["fingerprint"])
    metrics = quality_metrics(result, failed)
    rows = compare_metrics(record["metrics"], metrics)
    entry = {
        "digest": fingerprint.digest,
        "golden_digest": golden_fp.digest,
        "metrics": metrics,
        "metric_rows": [list(row) for row in rows],
        "regressions": [list(row) for row in regressions(rows)],
        "drifted_steps": [],
        "diff": [],
    }
    if golden_fp.version != FINGERPRINT_VERSION:
        entry["status"] = "stale-version"
        entry["diff"] = [
            f"golden fingerprint version {golden_fp.version} != "
            f"{FINGERPRINT_VERSION}; re-record with 'repro qa accept'"
        ]
    elif fingerprint.digest != golden_fp.digest:
        entry["status"] = "drift"
        entry["drifted_steps"] = fingerprint.drifted_steps(golden_fp)
        entry["diff"] = diff_canonical(
            record["canonical"], canonical, max_lines=max_diff_lines
        )
    elif entry["regressions"]:
        entry["status"] = "metric-regression"
    else:
        entry["status"] = "ok"
    return entry


def _print_entry(entry: dict, out) -> None:
    out(f"[{entry['status']}] {entry['case']}")
    if entry["drifted_steps"]:
        out(f"  drifted steps: {', '.join(entry['drifted_steps'])}")
    for line in entry["diff"]:
        out(f"  {line}")
    for name, want, have, status in entry["metric_rows"]:
        if status in ("regressed", "improved"):
            out(f"  metric {name}: {want} -> {have} ({status})")
