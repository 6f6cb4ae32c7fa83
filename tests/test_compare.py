"""The router-in-the-loop comparator harness."""

import json
import os
import shutil

import pytest

from repro.compare import (
    COMPARE_SCHEMA,
    FLOWS,
    GOLDEN_MATRIX,
    SMOKE_MATRIX,
    CaseSpec,
    build_report,
    parse_case,
    render_markdown,
    run_compare,
    write_goldens,
)
from repro.compare.report import _check_golden, flow_envelope, golden_path
from repro.runs import read_json, write_json


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """One full pinzoo_hostile run across all three flows."""
    run_dir = str(tmp_path_factory.mktemp("cmp"))
    case = CaseSpec("pinzoo_hostile", 1.0)
    summary = run_compare([case], FLOWS, run_dir, jobs=1, out=lambda s: None)
    return case, run_dir, summary


class TestCaseSpecs:
    def test_parse_case_with_scale(self):
        case = parse_case("ispd18_test1@0.004")
        assert case.testcase == "ispd18_test1"
        assert case.scale == 0.004
        assert case.case_id == "ispd18_test1@0.004"

    def test_parse_case_defaults_scale(self):
        assert parse_case("pinzoo_io").scale == 1.0

    def test_matrices_cover_the_zoo(self):
        golden_ids = {case.testcase for case in GOLDEN_MATRIX}
        smoke_ids = {case.testcase for case in SMOKE_MATRIX}
        zoo = {"pinzoo_sram", "pinzoo_io", "pinzoo_hostile"}
        assert zoo <= golden_ids
        assert zoo <= smoke_ids
        assert "aes_14nm" in golden_ids


class TestRunLifecycle:
    def test_all_flows_done(self, run):
        _, _, summary = run
        assert summary["counts"] == {
            "done": 3, "cached": 0, "failed": 0, "timeout": 0
        }
        assert summary["complete_cases"] == {"pinzoo_hostile@1": True}

    def test_flow_dirs_have_terminal_status(self, run):
        case, run_dir, _ = run
        for flow in FLOWS:
            base = os.path.join(run_dir, "cases", case.case_id, flow)
            status = read_json(os.path.join(base, "status.json"))
            assert status["state"] == "done"
            assert read_json(os.path.join(base, "flow.json")) is not None
            assert os.path.exists(os.path.join(base, "log.txt"))

    def test_case_report_written(self, run):
        case, run_dir, _ = run
        report = read_json(
            os.path.join(run_dir, "cases", case.case_id, "report.json")
        )
        assert report["schema"] == COMPARE_SCHEMA
        assert report["complete"]
        assert set(report["flows"]) == set(FLOWS)

    def test_envelope_is_bench_schema(self, run):
        case, run_dir, _ = run
        records = {
            flow: read_json(
                os.path.join(run_dir, "cases", case.case_id, flow,
                             "flow.json")
            )
            for flow in FLOWS
        }
        envelope = flow_envelope(case, records)
        assert envelope["schema"] == "repro.qa.bench/v1"
        metrics = envelope["metrics"]
        assert metrics["serve_wire_identical"] == 1
        assert metrics["pin_access_drc_ratio"] >= 10.0
        assert "pao_pin_access_drcs" in metrics
        assert "legacy_full_drcs" in metrics

    def test_serve_flow_is_bit_identical_to_pao(self, run):
        case, run_dir, _ = run
        report = read_json(
            os.path.join(run_dir, "cases", case.case_id, "report.json")
        )
        pao = report["metrics"]["pao"]
        serve = {
            k: v
            for k, v in report["metrics"]["serve"].items()
            if not k.startswith("serve.")
        }
        assert {k: v for k, v in pao.items()} == serve
        assert report["flows"]["serve"]["serve"]["wire_identical"]
        assert report["flows"]["serve"]["serve"]["mismatches"] == []

    def test_figure8_ordering_holds(self, run):
        case, run_dir, _ = run
        report = read_json(
            os.path.join(run_dir, "cases", case.case_id, "report.json")
        )
        ordering = report["ordering"]
        assert ordering["pao_pin_access"] == 0
        assert ordering["legacy_pin_access"] >= 10
        assert ordering["figure8_ok"]

    def test_resume_reuses_everything(self, run):
        case, run_dir, _ = run
        summary = run_compare(
            [case], FLOWS, run_dir, jobs=1, out=lambda s: None
        )
        assert summary["counts"]["cached"] == 3
        assert summary["counts"]["done"] == 0

    def test_force_reruns_scrubbed_flow(self, run):
        case, run_dir, _ = run
        summary = run_compare(
            [case],
            ["legacy"],
            run_dir,
            jobs=1,
            force=True,
            out=lambda s: None,
        )
        assert summary["counts"]["done"] == 1

    def test_unknown_flow_fails_cleanly(self, tmp_path):
        case = CaseSpec("pinzoo_hostile", 1.0)
        summary = run_compare(
            [case], ["bogus"], str(tmp_path), jobs=1, out=lambda s: None
        )
        assert summary["counts"]["failed"] == 1
        status = read_json(
            os.path.join(
                str(tmp_path), "cases", case.case_id, "bogus", "status.json"
            )
        )
        assert status["state"] == "failed"
        report = read_json(
            os.path.join(str(tmp_path), "cases", case.case_id, "report.json")
        )
        assert not report["complete"]


class TestFailurePaths:
    CASE = CaseSpec("pinzoo_hostile", 1.0)

    def test_crashed_flow_fails_then_resumes(self, run, tmp_path, monkeypatch):
        run_dir = str(tmp_path)
        monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", "pinzoo_hostile@1/legacy")
        summary = run_compare(
            [self.CASE], FLOWS, run_dir, jobs=1, out=lambda s: None
        )
        assert summary["states"]["pinzoo_hostile@1/legacy"] == "failed"
        assert summary["counts"]["failed"] == 1
        status = read_json(
            os.path.join(run_dir, "cases", "pinzoo_hostile@1", "legacy",
                         "status.json")
        )
        assert "code 23" in status["error"]
        assert summary["complete_cases"] == {"pinzoo_hostile@1": False}
        assert {"kind": "incomplete", "case": "pinzoo_hostile@1"} in (
            build_report(run_dir)["failures"]
        )

        monkeypatch.delenv("REPRO_SWEEP_TEST_CRASH")
        resumed = run_compare(
            [self.CASE], FLOWS, run_dir, jobs=1, out=lambda s: None
        )
        assert resumed["counts"] == {
            "done": 1, "cached": 2, "failed": 0, "timeout": 0
        }
        assert resumed["states"]["pinzoo_hostile@1/legacy"] == "done"
        _, clean_dir, _ = run
        report_path = os.path.join("cases", "pinzoo_hostile@1", "report.json")
        clean = read_json(os.path.join(clean_dir, report_path))
        resumed_report = read_json(os.path.join(run_dir, report_path))
        assert resumed_report["complete"]
        assert resumed_report["metrics"] == clean["metrics"]

    def test_unparsable_result_reexecutes_only_that_flow(self, run, tmp_path):
        _, clean_dir, _ = run
        run_dir = str(tmp_path / "run")
        shutil.copytree(clean_dir, run_dir)
        flow_json = os.path.join(run_dir, "cases", "pinzoo_hostile@1",
                                 "pao", "flow.json")
        with open(flow_json, "r+") as handle:
            handle.truncate(100)
        resumed = run_compare(
            [self.CASE], FLOWS, run_dir, jobs=1, out=lambda s: None
        )
        assert resumed["counts"] == {
            "done": 1, "cached": 2, "failed": 0, "timeout": 0
        }
        assert resumed["states"]["pinzoo_hostile@1/pao"] == "done"
        report_path = os.path.join("cases", "pinzoo_hostile@1", "report.json")
        clean = read_json(os.path.join(clean_dir, report_path))
        resumed_report = read_json(os.path.join(run_dir, report_path))
        assert resumed_report["complete"]
        assert resumed_report["metrics"] == clean["metrics"]

    def test_changed_fingerprint_reexecutes_every_flow(self, run, tmp_path):
        _, clean_dir, _ = run
        run_dir = str(tmp_path / "run")
        shutil.copytree(clean_dir, run_dir)
        capped = CaseSpec("pinzoo_hostile", 1.0, max_nets=4)
        assert capped.case_id == self.CASE.case_id
        summary = run_compare(
            [capped], FLOWS, run_dir, jobs=1, out=lambda s: None
        )
        assert summary["counts"] == {
            "done": 3, "cached": 0, "failed": 0, "timeout": 0
        }
        for flow in FLOWS:
            spec = read_json(os.path.join(run_dir, "cases",
                                          "pinzoo_hostile@1", flow,
                                          "spec.json"))
            assert spec["fingerprint"]["max_nets"] == 4

    def test_hung_flow_times_out_then_resumes(self, tmp_path, monkeypatch):
        run_dir = str(tmp_path)
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG", "pinzoo_hostile@1/legacy")
        summary = run_compare(
            [self.CASE], ["legacy"], run_dir, jobs=1, flow_timeout_s=1.5,
            out=lambda s: None,
        )
        assert summary["states"] == {"pinzoo_hostile@1/legacy": "timeout"}
        monkeypatch.delenv("REPRO_SWEEP_TEST_HANG")
        resumed = run_compare(
            [self.CASE], ["legacy"], run_dir, jobs=1, out=lambda s: None
        )
        assert resumed["states"] == {"pinzoo_hostile@1/legacy": "done"}

    def test_units_run_inline_without_processes(self, tmp_path, monkeypatch):
        import multiprocessing.process

        def no_processes(self):
            raise OSError("process creation unavailable")

        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", no_processes
        )
        summary = run_compare(
            [self.CASE], ["pao", "legacy"], str(tmp_path), jobs=2,
            out=lambda s: None,
        )
        assert summary["counts"]["done"] == 2
        for flow in ("pao", "legacy"):
            base = os.path.join(str(tmp_path), "cases", "pinzoo_hostile@1",
                                flow)
            status = read_json(os.path.join(base, "status.json"))
            assert status["state"] == "done"
            assert read_json(os.path.join(base, "flow.json")) is not None


class TestGoldenGate:
    def test_report_ok_without_goldens(self, run):
        _, run_dir, _ = run
        report = build_report(run_dir)
        assert report["status"] == "ok"
        assert report["failures"] == []

    def test_accept_then_gate_passes(self, run, tmp_path):
        _, run_dir, _ = run
        goldens = str(tmp_path / "goldens")
        written = write_goldens(build_report(run_dir), goldens)
        assert len(written) == 1
        report = build_report(run_dir, goldens_dir=goldens)
        assert report["status"] == "ok"
        assert report["rows"][0]["golden"]

    def test_tampered_golden_regresses(self, run, tmp_path):
        _, run_dir, _ = run
        goldens = str(tmp_path / "goldens")
        write_goldens(build_report(run_dir), goldens)
        path = golden_path(goldens, "pinzoo_hostile@1")
        golden = read_json(path)
        golden["metrics"]["legacy"]["drc.pin_access_total"] = 999
        write_json(path, golden)
        report = build_report(run_dir, goldens_dir=goldens)
        assert report["status"] == "regressed"
        kinds = {f["kind"] for f in report["failures"]}
        assert kinds == {"golden"}
        failure = report["failures"][0]
        assert failure["metric"] == "drc.pin_access_total"
        assert failure["want"] == 999

    def test_missing_golden_is_not_gating(self, run, tmp_path):
        _, run_dir, _ = run
        report = build_report(
            run_dir, goldens_dir=str(tmp_path / "empty")
        )
        assert report["status"] == "ok"
        assert not report["rows"][0]["golden"]

    def test_figure8_failure_kind(self):
        golden = {
            "ordering": {"figure8_ok": True},
            "metrics": {},
        }
        report = {
            "case": "synthetic@1",
            "ordering": {
                "pao_pin_access": 5,
                "legacy_pin_access": 6,
                "figure8_ok": False,
            },
            "metrics": {},
        }
        failures = _check_golden(report, golden)
        assert [f["kind"] for f in failures] == ["figure8"]

    def test_missing_flow_in_report_is_golden_failure(self):
        golden = {"ordering": {}, "metrics": {"legacy": {"x": 1}}}
        report = {"case": "synthetic@1", "ordering": {}, "metrics": {}}
        failures = _check_golden(report, golden)
        assert failures[0]["kind"] == "golden"
        assert failures[0]["metric"] == "<flow missing>"


class TestRendering:
    def test_markdown_has_flow_rows_and_ordering(self, run):
        _, run_dir, _ = run
        text = render_markdown(build_report(run_dir))
        assert "# repro compare report" in text
        assert "| pinzoo_hostile@1 | pao " in text
        assert "| pinzoo_hostile@1 | legacy " in text
        assert "## Figure 8 ordering" in text
        assert "status: **ok**" in text

    def test_markdown_lists_failures(self, run, tmp_path):
        _, run_dir, _ = run
        goldens = str(tmp_path / "goldens")
        write_goldens(build_report(run_dir), goldens)
        path = golden_path(goldens, "pinzoo_hostile@1")
        golden = read_json(path)
        golden["metrics"]["pao"]["routing.wirelength"] += 1
        write_json(path, golden)
        text = render_markdown(build_report(run_dir, goldens_dir=goldens))
        assert "## Failures" in text
        assert "status: **regressed**" in text


class TestCli:
    def test_compare_report_cli(self, run, tmp_path, capsys):
        from repro.cli import main

        _, run_dir, _ = run
        goldens = str(tmp_path / "g")
        assert main(["compare", "report", run_dir, "--accept",
                     "--goldens", goldens]) == 0
        assert os.path.exists(golden_path(goldens, "pinzoo_hostile@1"))
        json_out = str(tmp_path / "report.json")
        assert main(["compare", "report", run_dir, "--goldens", goldens,
                     "--fail-on-regress", "--json", json_out]) == 0
        with open(json_out) as fh:
            assert json.load(fh)["status"] == "ok"
        capsys.readouterr()

    def test_compare_run_rejects_non_positive_timeout(self, tmp_path,
                                                      capsys):
        from repro.cli import main

        for value in ("0", "-5"):
            argv = ["compare", "run", "pinzoo_hostile", "--flows", "legacy",
                    "--dir", str(tmp_path / "run"), "--timeout", value]
            assert main(argv) == 2
        assert not os.path.exists(str(tmp_path / "run"))
        capsys.readouterr()

    def test_compare_report_cli_fails_on_regress(
        self, run, tmp_path, capsys
    ):
        from repro.cli import main

        _, run_dir, _ = run
        goldens = str(tmp_path / "g")
        assert main(["compare", "report", run_dir, "--accept",
                     "--goldens", goldens]) == 0
        path = golden_path(goldens, "pinzoo_hostile@1")
        golden = read_json(path)
        golden["metrics"]["legacy"]["routing.wirelength"] = -1
        write_json(path, golden)
        assert main(["compare", "report", run_dir, "--goldens", goldens,
                     "--fail-on-regress"]) == 1
        capsys.readouterr()
