"""Tests for the sweep subsystem (spec, runner, report, CLI).

The runner tests execute real sweeps on tiny generated designs
(``ispd18_test1`` at scale 0.002, ~20 cells), so they exercise the
full path: spec expansion, fingerprint-keyed run directories,
process isolation, envelope emission and the trend/regression gate.
Crash and hang points are injected through the runner's test-only
environment hooks.
"""

import json
import os

import pytest

from repro.cli import main
from repro.qa.metrics import (
    BENCH_SCHEMA,
    bench_entry,
    compare_bench_perf,
    perf_direction,
)
from repro.sweep import (
    SpecError,
    build_report,
    expand_spec,
    load_rows,
    load_spec,
    parse_simple_yaml,
    plan_points,
    point_dir,
    run_sweep,
    sweep_status,
)

SPEC_YAML = """\
# two quality configs of one tiny design
name: tiny
defaults:
  scale: 0.002
axes:
  design: [ispd18_test1]
  k: [2, 3]
options:
  workers: 2
  point_timeout_s: 120
"""


def write_spec(tmp_path, text=SPEC_YAML, name="spec.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def spec(tmp_path):
    return load_spec(write_spec(tmp_path))


# -- YAML subset --------------------------------------------------------------


class TestSimpleYaml:
    def test_nested_structures(self):
        parsed = parse_simple_yaml(
            """
# comment line
name: demo   # trailing comment
defaults:
  scale: 0.004
  flag: true
axes:
  design: [ispd18_test1, ispd18_test5]
  k: [2, 3]
points:
  - design: ispd18_test8
    scale: 0.002
  - design: ispd18_test1
empty:
"""
        )
        assert parsed == {
            "name": "demo",
            "defaults": {"scale": 0.004, "flag": True},
            "axes": {
                "design": ["ispd18_test1", "ispd18_test5"],
                "k": [2, 3],
            },
            "points": [
                {"design": "ispd18_test8", "scale": 0.002},
                {"design": "ispd18_test1"},
            ],
            "empty": None,
        }

    def test_scalars(self):
        parsed = parse_simple_yaml(
            "a: 'quoted # not comment'\nb: -3\nc: 1.5\nd: null\ne: off\n"
        )
        assert parsed == {
            "a": "quoted # not comment",
            "b": -3,
            "c": 1.5,
            "d": None,
            "e": False,
        }

    def test_block_list_of_scalars(self):
        assert parse_simple_yaml("xs:\n  - 1\n  - two\n") == {
            "xs": [1, "two"]
        }

    def test_bad_indent_raises(self):
        with pytest.raises(SpecError):
            parse_simple_yaml("a:\n  b: 1\n    c: 2\n")

    def test_flow_mapping_rejected(self):
        with pytest.raises(SpecError):
            parse_simple_yaml("a: {b: 1}\n")

    def test_unterminated_flow_list(self):
        with pytest.raises(SpecError):
            parse_simple_yaml("a: [1, 2\n")


# -- spec expansion -----------------------------------------------------------


class TestSpecExpansion:
    def test_cartesian_product_plus_points(self):
        spec = expand_spec(
            {
                "name": "m",
                "defaults": {"scale": 0.002},
                "axes": {
                    "design": ["ispd18_test1", "ispd18_test5"],
                    "paircheck_mode": ["kernel", "engine"],
                },
                "points": [{"design": "ispd18_test8", "scale": 0.003}],
            }
        )
        assert len(spec.points) == 5
        assert {p["design"] for p in spec.points} == {
            "ispd18_test1",
            "ispd18_test5",
            "ispd18_test8",
        }
        # Defaults flow into every point; ints coerce to float fields.
        assert all(p["scale"] in (0.002, 0.003) for p in spec.points)
        assert spec.digest

    def test_duplicate_point_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            expand_spec(
                {
                    "name": "m",
                    "axes": {"design": ["ispd18_test1"]},
                    "points": [{"design": "ispd18_test1"}],
                }
            )

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"name": "m"}, "no points"),
            ({"axes": {"design": ["ispd18_test1"]}}, "name"),
            (
                {"name": "m", "axes": {"widget": [1]}},
                "unknown axis",
            ),
            (
                {"name": "m", "axes": {"design": ["nope"]}},
                "no testcase",
            ),
            (
                {
                    "name": "m",
                    "axes": {"design": ["ispd18_test1"]},
                    "defaults": {"node": "N7"},
                },
                "unknown node",
            ),
            (
                {
                    "name": "m",
                    "axes": {"design": ["ispd18_test1"]},
                    "defaults": {"apcheck_mode": "banana"},
                },
                "apcheck_mode",
            ),
            (
                {
                    "name": "m",
                    "axes": {"design": ["ispd18_test1"]},
                    "options": {"turbo": True},
                },
                "unknown option",
            ),
            (
                {
                    "name": "m",
                    "axes": {"design": ["ispd18_test1"]},
                    "defaults": {"k": "three"},
                },
                "must be int",
            ),
            (
                {
                    "name": "m",
                    "axes": {"design": ["ispd18_test1"]},
                    "options": {"point_timeout_s": 0},
                },
                "point_timeout_s",
            ),
            (
                {
                    "name": "m",
                    "axes": {"design": ["ispd18_test1"]},
                    "options": {"workers": -4},
                },
                "workers",
            ),
        ],
    )
    def test_validation_errors(self, raw, match):
        with pytest.raises(SpecError, match=match):
            expand_spec(raw)

    def test_json_spec(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "name": "j",
                    "axes": {"design": ["ispd18_test1"]},
                    "defaults": {"scale": 0.002},
                }
            )
        )
        spec = load_spec(str(path))
        assert spec.name == "j"
        assert spec.points[0]["scale"] == 0.002

    def test_plan_keys_split_quality_and_perf(self):
        spec = expand_spec(
            {
                "name": "m",
                "defaults": {"scale": 0.002, "design": "ispd18_test1"},
                "points": [
                    {"k": 2},
                    {"k": 3},
                    {"k": 3, "paircheck_mode": "engine"},
                ],
            }
        )
        planned = plan_points(spec)
        keys = [pp.key for pp in planned]
        assert len(set(keys)) == 3
        # k=2 vs k=3 differ in config fingerprint ...
        assert planned[0].fingerprint != planned[1].fingerprint
        # ... while the engine backend shares it and differs only in
        # perf key.
        assert planned[1].fingerprint == planned[2].fingerprint
        assert planned[1].perf_key != planned[2].perf_key


# -- execution + resumability -------------------------------------------------


def strip_volatile(report: dict) -> dict:
    """Drop timing-dependent fields so two runs compare equal."""
    stripped = json.loads(json.dumps(report, sort_keys=True))
    for point in stripped["points"]:
        point.pop("perf", None)
    for block in stripped.get("baselines", []):
        block["checks"] = [
            {k: v for k, v in check.items() if k not in ("have", "status")}
            for check in block["checks"]
        ]
    return stripped


class TestRunAndResume:
    def test_end_to_end(self, spec, tmp_path):
        run_dir = str(tmp_path / "run")
        summary = run_sweep(spec, run_dir)
        assert len(summary["done"]) == 2
        assert not summary["failed"] and not summary["timeout"]
        status = sweep_status(run_dir)
        assert status["counts"] == {"done": 2}
        for point in status["points"]:
            assert point["has_envelope"]
            envelope = json.load(
                open(
                    os.path.join(
                        point_dir(run_dir, point["key"]), "envelope.json"
                    )
                )
            )
            assert envelope["schema"] == BENCH_SCHEMA
            assert envelope["perf"]["analyze_s"] > 0
            assert envelope["perf"]["qps_pins"] > 0
            assert envelope["metrics"]["design"] == "ispd18_test1"
            assert envelope["fingerprint"]["digest"]
            assert envelope["context"]["point"]["design"] == "ispd18_test1"

    def test_rerun_skips_everything(self, spec, tmp_path):
        run_dir = str(tmp_path / "run")
        first = run_sweep(spec, run_dir)
        mtimes = {
            key: os.path.getmtime(
                os.path.join(point_dir(run_dir, key), "envelope.json")
            )
            for key in first["done"]
        }
        second = run_sweep(spec, run_dir)
        assert second["executed"] == []
        assert sorted(second["skipped"]) == sorted(first["done"])
        for key, mtime in mtimes.items():
            assert (
                os.path.getmtime(
                    os.path.join(point_dir(run_dir, key), "envelope.json")
                )
                == mtime
            )

    def test_crash_resume_matches_uninterrupted(
        self, spec, tmp_path, monkeypatch
    ):
        planned = plan_points(spec)
        victim = planned[0].key

        # Run A: one worker hard-crashes mid-point (no status update).
        crashed_dir = str(tmp_path / "crashed")
        monkeypatch.setenv("REPRO_SWEEP_TEST_CRASH", victim)
        summary = run_sweep(spec, crashed_dir)
        assert summary["failed"] == [victim]
        assert len(summary["done"]) == 1
        status = json.load(
            open(os.path.join(point_dir(crashed_dir, victim), "status.json"))
        )
        assert status["state"] == "failed"
        assert "23" in status["error"]

        # Resume: the completed point is skipped, the crashed one
        # re-executes cleanly.
        monkeypatch.delenv("REPRO_SWEEP_TEST_CRASH")
        resumed = run_sweep(spec, crashed_dir)
        assert resumed["executed"] == [victim]
        assert len(resumed["skipped"]) == 1
        assert resumed["done"] == [victim]

        # And the final report is identical to an uninterrupted run
        # (modulo wall-clock noise).
        clean_dir = str(tmp_path / "clean")
        run_sweep(spec, clean_dir)
        report_resumed = build_report(load_rows(crashed_dir))
        report_clean = build_report(load_rows(clean_dir))
        assert strip_volatile(report_resumed) == strip_volatile(report_clean)
        digests = {
            p["key"]: p["digest"] for p in report_resumed["points"]
        }
        assert digests == {
            p["key"]: p["digest"] for p in report_clean["points"]
        }
        assert all(digests.values())

    def test_hang_times_out_and_resumes(self, spec, tmp_path, monkeypatch):
        planned = plan_points(spec)
        victim = planned[1].key
        run_dir = str(tmp_path / "run")
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG", victim)
        summary = run_sweep(spec, run_dir, point_timeout_s=1.5)
        assert summary["timeout"] == [victim]
        monkeypatch.delenv("REPRO_SWEEP_TEST_HANG")
        resumed = run_sweep(spec, run_dir)
        assert resumed["executed"] == [victim]
        assert sweep_status(run_dir)["counts"] == {"done": 2}

    def test_truncated_envelope_regresses_then_reexecutes(
        self, spec, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        first = run_sweep(spec, run_dir)
        victim = first["done"][0]
        path = os.path.join(point_dir(run_dir, victim), "envelope.json")
        with open(path, "r+") as handle:
            handle.truncate(100)
        report = build_report(load_rows(run_dir))
        assert [(r["kind"], r["point"]) for r in report["regressions"]] == [
            ("point", victim)
        ]
        resumed = run_sweep(spec, run_dir)
        assert resumed["executed"] == [victim]
        assert resumed["done"] == [victim]
        assert not build_report(load_rows(run_dir))["regressions"]

    def test_quality_knob_lands_in_new_directory(self, tmp_path):
        base = {
            "name": "m",
            "defaults": {"scale": 0.002},
            "axes": {"design": ["ispd18_test1"]},
        }
        run_dir = str(tmp_path / "run")
        run_sweep(expand_spec(base), run_dir)
        changed = dict(base, defaults={"scale": 0.002, "k": 2})
        summary = run_sweep(expand_spec(changed), run_dir)
        # The k=2 point must not cache-hit the k=3 directory.
        assert len(summary["executed"]) == 1
        assert len(summary["skipped"]) == 0


# -- reporting ----------------------------------------------------------------


class TestReport:
    def test_perf_direction(self):
        assert perf_direction("analyze_s") == "lower"
        assert perf_direction("move_ms") == "lower"
        assert perf_direction("qps_pins") == "higher"
        assert perf_direction("parallel_speedup") == "higher"
        assert perf_direction("tables_built") is None

    def test_compare_bench_perf_gates_shared_keys(self):
        rows = compare_bench_perf(
            {"analyze_s": 1.0, "qps_pins": 100.0, "other": 1},
            {"analyze_s": 2.5, "qps_pins": 150.0},
            tolerances={"_perf_default": {"rel": 1.0}},
        )
        assert ("analyze_s", 1.0, 2.5, "regressed") in rows
        assert ("qps_pins", 100.0, 150.0, "improved") in rows
        assert all(row[0] != "other" for row in rows)

    @pytest.fixture(scope="class")
    def run_rows(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("report")
        spec = load_spec(write_spec(tmp, SPEC_YAML))
        run_dir = str(tmp / "run")
        run_sweep(spec, run_dir)
        return load_rows(run_dir)

    def test_baseline_regression_and_tolerance(self, run_rows):
        envelope = run_rows[0]["envelope"]
        baseline = bench_entry(
            design=envelope["design"],
            scale=envelope["scale"],
            cells=envelope["cells"],
            perf={"analyze_s": envelope["perf"]["analyze_s"] / 100.0},
        )
        report = build_report(
            run_rows, baselines=[("B.json", [baseline])]
        )
        assert any(
            r["kind"] == "baseline" for r in report["regressions"]
        )
        relaxed = build_report(
            run_rows,
            baselines=[("B.json", [baseline])],
            tolerances={"analyze_s": {"rel": 1000.0}},
        )
        assert not relaxed["regressions"]

    def test_baseline_source_key_tolerance_wins(self, run_rows):
        envelope = run_rows[0]["envelope"]
        point = envelope["context"]["point"]
        baseline = bench_entry(
            design=envelope["design"],
            scale=envelope["scale"],
            cells=envelope["cells"],
            perf={"serial_s": envelope["perf"]["analyze_s"] / 100.0},
        )
        # serial_s gates default-mode points.
        assert point.get("paircheck_mode", "kernel") == "kernel"
        assert point.get("apcheck_mode", "array") == "array"
        tight = build_report(run_rows, baselines=[("B", [baseline])])
        assert tight["regressions"]
        loose = build_report(
            run_rows,
            baselines=[("B", [baseline])],
            tolerances={"serial_s": {"rel": 1000.0}},
        )
        assert not loose["regressions"]

    def test_golden_digest_gate(self, run_rows, tmp_path):
        # Points carry non-default k values except the k=3 one, which
        # matches the default quality configuration -- craft a golden
        # whose digest first matches, then drifts.
        defaults = [
            r
            for r in run_rows
            if r["point"].get("k", 3) == 3
        ]
        assert defaults
        row = defaults[0]
        envelope = row["envelope"]
        goldens = tmp_path / "goldens"
        goldens.mkdir()
        case = f"{envelope['design']}@{envelope['scale']:g}.json"
        record = {
            "schema": "repro.qa.golden/v1",
            "fingerprint": {
                "digest": envelope["fingerprint"]["digest"]
            },
            "metrics": dict(envelope["metrics"]),
        }
        (goldens / case).write_text(json.dumps(record))
        report = build_report(run_rows, goldens_dir=str(goldens))
        assert report["goldens"]
        assert all(c["digest_match"] for c in report["goldens"])
        assert not report["regressions"]

        record["fingerprint"]["digest"] = "0" * 64
        record["metrics"]["failed_pins"] = -1
        (goldens / case).write_text(json.dumps(record))
        report = build_report(run_rows, goldens_dir=str(goldens))
        kinds = {r["kind"] for r in report["regressions"]}
        assert kinds == {"golden"}
        details = " ".join(r["detail"] for r in report["regressions"])
        assert "fingerprint drifted" in details
        assert "failed_pins" in details

    def test_failed_point_is_a_regression(self, run_rows):
        rows = [dict(run_rows[0])]
        rows[0]["state"] = "timeout"
        report = build_report(rows)
        assert report["regressions"][0]["kind"] == "point"

    def test_markdown_renders(self, run_rows):
        from repro.sweep import render_markdown

        text = render_markdown(build_report(run_rows))
        assert "| point | state |" in text
        assert "analyze_s" in text

    def test_load_rows_flat_envelope_dir(self, run_rows, tmp_path):
        flat = tmp_path / "envelopes"
        flat.mkdir()
        (flat / "a.json").write_text(
            json.dumps(run_rows[0]["envelope"])
        )
        (flat / "ignored.json").write_text(json.dumps({"x": 1}))
        (flat / "legacy.json").write_text(
            json.dumps(
                [{"design": "d", "scale": 0.1, "cells": 1, "t_s": 2.0}]
            )
        )
        rows = load_rows(str(flat))
        keys = {row["key"] for row in rows}
        assert "a" in keys and "legacy" in keys
        assert all(
            row["envelope"]["schema"] == BENCH_SCHEMA for row in rows
        )


# -- CLI ----------------------------------------------------------------------


class TestSweepCli:
    @pytest.fixture(scope="class")
    def cli_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sweepcli")
        spec_path = write_spec(tmp, SPEC_YAML)
        run_dir = str(tmp / "run")
        assert main(["sweep", "run", spec_path, "--dir", run_dir]) == 0
        return spec_path, run_dir

    def test_run_then_cached_rerun(self, cli_run, capsys):
        spec_path, run_dir = cli_run
        assert main(["sweep", "run", spec_path, "--dir", run_dir]) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out
        last = json.load(open(os.path.join(run_dir, "last_run.json")))
        assert last["executed"] == []

    def test_status(self, cli_run, capsys):
        _, run_dir = cli_run
        assert main(["sweep", "status", run_dir]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["sweep", "status", run_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"done": 2}

    def test_report_with_gate(self, cli_run, tmp_path, capsys):
        _, run_dir = cli_run
        envelope_path = None
        for key in os.listdir(os.path.join(run_dir, "points")):
            envelope_path = os.path.join(
                run_dir, "points", key, "envelope.json"
            )
            break
        envelope = json.load(open(envelope_path))
        baseline = tmp_path / "BENCH_fake.json"
        baseline.write_text(
            json.dumps(
                [
                    bench_entry(
                        design=envelope["design"],
                        scale=envelope["scale"],
                        cells=envelope["cells"],
                        perf={
                            "analyze_s": envelope["perf"]["analyze_s"]
                            / 100.0
                        },
                    )
                ]
            )
        )
        md = tmp_path / "trend.md"
        js = tmp_path / "trend.json"
        code = main(
            [
                "sweep",
                "report",
                run_dir,
                "--against",
                str(baseline),
                "--fail-on-regress",
                "--md",
                str(md),
                "--json",
                str(js),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "regressions:" in out
        assert md.exists() and js.exists()
        report = json.loads(js.read_text())
        assert report["schema"] == "repro.sweep.report/v1"
        # Without the gate flag the same regression only warns.
        assert (
            main(["sweep", "report", run_dir, "--against", str(baseline)])
            == 0
        )

    def test_bad_inputs(self, cli_run, tmp_path, capsys):
        spec_path, run_dir = cli_run
        assert main(["sweep", "run", str(tmp_path / "nope.yaml")]) == 2
        bad = tmp_path / "bad.yaml"
        bad.write_text("axes: {design: [x]}\n")
        assert main(["sweep", "run", str(bad)]) == 2
        for flag, value in (
            ("--timeout", "-5"),
            ("--timeout", "0"),
            ("--workers", "-4"),
            ("--workers", "0"),
        ):
            argv = ["sweep", "run", spec_path, "--dir", run_dir, flag, value]
            assert main(argv) == 2
        assert main(["sweep", "status", str(tmp_path / "empty")]) == 2
        assert main(["sweep", "report", str(tmp_path / "empty")]) == 2
        assert (
            main(
                [
                    "sweep",
                    "report",
                    run_dir,
                    "--against",
                    str(tmp_path / "nope.json"),
                ]
            )
            == 2
        )
        assert main(["sweep"]) == 2
        capsys.readouterr()
