"""Tests for the golden-result regression layer (``repro.qa``).

Contracts under test: the canonical fingerprint is deterministic and
invariant under every perf knob (paircheck_mode); a JSON round
trip of the canonical form preserves the digests (golden records store
exactly that form); mutating any AP/pattern/selection produces a
failing check whose diff names the affected step and pin; the metric
gate passes improvements and fails any regression; and the committed
``goldens/`` corpus stays in sync with the code.
"""

import copy
import json
import pathlib

import pytest

from repro.qa import golden as qa_golden
from repro.qa.fingerprint import (
    FINGERPRINT_VERSION,
    ResultFingerprint,
    fingerprint_of_canonical,
)
from repro.qa.metrics import (
    BENCH_SCHEMA,
    METRIC_DIRECTIONS,
    METRICS_SCHEMA,
    bench_entry,
    compare_metrics,
    quality_metrics,
    regressions,
)

TESTCASE = "ispd18_test1"
SCALE = 0.005
GOLDENS_DIR = pathlib.Path(__file__).parent.parent / "goldens"


@pytest.fixture(scope="module")
def run():
    return qa_golden.run_case(TESTCASE, SCALE)


@pytest.fixture(scope="module")
def record(run):
    result, failed = run
    return qa_golden.golden_record(TESTCASE, SCALE, result, failed)


class TestFingerprint:
    def test_deterministic_rerun(self, record):
        result, failed = qa_golden.run_case(TESTCASE, SCALE)
        assert result.fingerprint().to_json() == record["fingerprint"]

    def test_invariant_under_paircheck_mode(self, record):
        engine, _ = qa_golden.run_case(
            TESTCASE, SCALE, paircheck_mode="engine"
        )
        assert engine.fingerprint().digest == (
            record["fingerprint"]["digest"]
        )

    def test_json_round_trip_preserves_digests(self, record):
        # Golden records store the canonical form as JSON; digests
        # derived from the parsed form must equal the live ones.
        parsed = json.loads(json.dumps(record["canonical"]))
        assert fingerprint_of_canonical(parsed).to_json() == (
            record["fingerprint"]
        )

    def test_result_hooks(self, run):
        result, _ = run
        fingerprint = result.fingerprint()
        assert fingerprint.version == FINGERPRINT_VERSION
        assert set(fingerprint.steps) == {"step1", "step2", "step3"}
        assert fingerprint == fingerprint_of_canonical(result.canonical())

    def test_drifted_steps_localize(self, record):
        fp = ResultFingerprint.from_json(record["fingerprint"])
        tampered = dict(fp.steps)
        tampered["step2"] = "0" * 64
        other = ResultFingerprint(fp.version, "x", tampered)
        assert fp.drifted_steps(other) == ["step2"]


class TestFaultInjection:
    def test_mutated_ap_names_step_and_pin(self, run, record):
        result, _ = run
        ua = result.unique_accesses[0]
        pin = sorted(ua.aps_by_pin)[0]
        ap = ua.aps_by_pin[pin][0]
        ap.x += 5
        try:
            with pytest.raises(qa_golden.GoldenMismatch) as excinfo:
                qa_golden.verify_result(record, result)
        finally:
            ap.x -= 5
        assert "step1" in str(excinfo.value)
        assert any(
            line.startswith("step1/") and f"/{pin}[" in line
            for line in excinfo.value.diff
        )

    def test_mutated_selection_names_step3_and_pin(self, run, record):
        result, _ = run
        canonical = copy.deepcopy(record["canonical"])
        inst = sorted(result.selection.selection)[0]
        selected = canonical["step3"]["selection"][inst]
        pin = sorted(selected)[0]
        selected[pin][0] += 10
        fp = fingerprint_of_canonical(canonical)
        golden_fp = ResultFingerprint.from_json(record["fingerprint"])
        assert fp.drifted_steps(golden_fp) == ["step3"]
        diff = qa_golden.diff_canonical(record["canonical"], canonical)
        assert any(
            line.startswith(f"step3/selection/{inst}/{pin}")
            for line in diff
        )

    def test_diff_reports_added_and_removed(self):
        old = {"step1": {"ui": {"A": [1, 2]}}}
        new = {"step1": {"ui": {"B": [1, 2, 3]}}}
        diff = qa_golden.diff_canonical(old, new)
        assert any("A: removed" in line for line in diff)
        assert any("B: added" in line for line in diff)

    def test_diff_caps_lines(self):
        old = {str(i): i for i in range(50)}
        new = {str(i): i + 1 for i in range(50)}
        diff = qa_golden.diff_canonical(old, new, max_lines=5)
        assert len(diff) == 6
        assert "more difference" in diff[-1]


class TestMetrics:
    def test_schema_and_gated_fields(self, run):
        result, failed = run
        metrics = quality_metrics(result, failed)
        assert metrics["schema"] == METRICS_SCHEMA
        for name in METRIC_DIRECTIONS:
            assert name in metrics, name
        assert metrics["failed_pins"] == len(failed)
        assert 0.0 <= metrics["k_coverage"] <= 1.0
        assert 0.0 <= metrics["pattern_validity_rate"] <= 1.0

    def test_identical_metrics_all_ok(self, record):
        rows = compare_metrics(record["metrics"], record["metrics"])
        assert rows and all(row[3] == "ok" for row in rows)

    def test_improvement_passes_regression_fails(self, record):
        better = dict(record["metrics"])
        better["failed_pins"] = better["failed_pins"] - 1
        rows = compare_metrics(record["metrics"], better)
        assert not regressions(rows)

        worse = dict(record["metrics"])
        worse["failed_pins"] = worse["failed_pins"] + 2
        worse["access_points"] = worse["access_points"] - 1
        rows = compare_metrics(record["metrics"], worse)
        failing = {row[0] for row in regressions(rows)}
        assert failing == {"failed_pins", "access_points"}

    def test_missing_metric_is_a_regression(self, record):
        gutted = dict(record["metrics"])
        del gutted["failed_pins"]
        rows = compare_metrics(record["metrics"], gutted)
        assert ("failed_pins" in {row[0] for row in regressions(rows)})


class TestBenchSchema:
    def test_bench_entry_layout(self):
        entry = bench_entry(
            "ispd18_test5",
            0.004,
            288,
            perf={"serial_s": 2.6},
            derived={"warm_speedup": 4.4},
            context={"cpu_count": 2},
        )
        assert entry["schema"] == BENCH_SCHEMA
        assert entry["perf"]["serial_s"] == 2.6
        assert entry["derived"]["warm_speedup"] == 4.4
        assert entry["context"]["cpu_count"] == 2

    def test_committed_bench_files_use_schema(self):
        # Every committed history is read as it is, with no upgrade
        # step, so a pre-schema entry must never come back.
        root = pathlib.Path(__file__).parent.parent
        paths = sorted(root.glob("BENCH_*.json"))
        assert paths
        for path in paths:
            history = json.loads(path.read_text())
            assert history, path.name
            for entry in history:
                assert entry.get("schema") == BENCH_SCHEMA, path.name


class TestGoldenCorpusManagement:
    def test_snapshot_check_accept_round_trip(self, tmp_path, record):
        goldens = tmp_path / "goldens"
        path = qa_golden.golden_path(str(goldens), TESTCASE, SCALE)
        qa_golden.write_golden(path, record)
        assert qa_golden.load_golden(path)["case"]["testcase"] == TESTCASE

        lines = []
        code, report = qa_golden.check_goldens(
            str(goldens), out=lines.append
        )
        assert code == 0
        assert [e["status"] for e in report["cases"]] == ["ok"]

        # Tamper the golden: check fails, names the drift, and accept
        # heals it.
        tampered = qa_golden.load_golden(path)
        key = sorted(tampered["canonical"]["step1"])[0]
        pin = sorted(tampered["canonical"]["step1"][key])[0]
        tampered["canonical"]["step1"][key][pin][0]["x"] += 5
        tampered["fingerprint"] = fingerprint_of_canonical(
            tampered["canonical"]
        ).to_json()
        tampered["metrics"]["failed_pins"] += 1
        qa_golden.write_golden(path, tampered)

        lines = []
        code, report = qa_golden.check_goldens(
            str(goldens), out=lines.append
        )
        assert code == 1
        entry = report["cases"][0]
        assert entry["status"] == "drift"
        assert entry["drifted_steps"] == ["step1"]
        assert any(line.startswith(f"step1/{key}/{pin}")
                   for line in entry["diff"])

        code, report = qa_golden.check_goldens(
            str(goldens), accept=True, out=lines.append
        )
        assert code == 0
        assert report["cases"][0]["status"] == "accepted"

        code, report = qa_golden.check_goldens(
            str(goldens), out=lines.append
        )
        assert code == 0
        assert report["cases"][0]["status"] == "ok"

    def test_unknown_case_or_empty_corpus(self, tmp_path):
        code, _ = qa_golden.check_goldens(
            str(tmp_path), out=lambda _line: None
        )
        assert code == 1
        with pytest.raises(ValueError, match="unknown golden case"):
            qa_golden.list_goldens(str(tmp_path), ["nope@1"])

    def test_stale_fingerprint_version_flagged(self, tmp_path, record):
        goldens = tmp_path / "goldens"
        path = qa_golden.golden_path(str(goldens), TESTCASE, SCALE)
        old = copy.deepcopy(record)
        old["fingerprint"]["version"] = FINGERPRINT_VERSION - 1
        qa_golden.write_golden(path, old)
        code, report = qa_golden.check_goldens(
            str(goldens), out=lambda _line: None
        )
        assert code == 1
        assert report["cases"][0]["status"] == "stale-version"

    def test_non_golden_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(ValueError, match="not a golden record"):
            qa_golden.load_golden(str(path))


class TestCommittedCorpus:
    def test_corpus_exists_and_wellformed(self):
        paths = qa_golden.list_goldens(str(GOLDENS_DIR))
        assert paths, "no committed goldens"
        for path in paths:
            record = qa_golden.load_golden(path)
            fp = record["fingerprint"]
            assert fp["version"] == FINGERPRINT_VERSION
            assert fingerprint_of_canonical(record["canonical"]).to_json() == fp
            assert record["metrics"]["schema"] == METRICS_SCHEMA

    def test_smallest_committed_golden_reproduces(self):
        # The full corpus re-runs in CI's qa-gate jobs; tier-1 keeps a
        # single, smallest-case reproduction so local pytest catches
        # drift before push.
        paths = qa_golden.list_goldens(str(GOLDENS_DIR))
        records = [qa_golden.load_golden(p) for p in paths]
        record = min(
            records, key=lambda r: r["metrics"]["connected_pins"]
        )
        case = record["case"]
        result, _ = qa_golden.run_case(case["testcase"], case["scale"])
        qa_golden.verify_result(record, result)
