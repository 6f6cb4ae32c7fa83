"""Self-tests of the benchmark harness (not part of the repo's suite).

    python3 -m pytest perfbench -q

They check the span arithmetic the ledger rests on, that the seeded
re-placement keeps designs legal, that a corrupted reference makes ops
fail, and that the command refuses to run without the source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    HERE,
    REPO,
    SpanRecorder,
    child_env,
    last_json_line,
    op_span_seconds,
    read_json,
    use_checkout_source,
    write_json,
)


def _python(args, timeout=300, cwd=REPO):
    return subprocess.run(
        [sys.executable] + args,
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _generate(workload, out):
    proc = _python([os.path.join(HERE, "gen.py"), "--workload", workload,
                    "--seed", "3", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    return os.path.join(str(out), "manifest.json")


def _work(workload, inputs):
    proc = _python([os.path.join(HERE, "worker.py"), "--workload", workload,
                    "--inputs", str(inputs), "--seconds", "0.1"])
    assert proc.returncode == 0, proc.stderr
    return last_json_line(proc.stdout)


def test_span_sums_and_nesting():
    rec = SpanRecorder()
    rec.op = 0
    with rec.span("op"):
        with rec.span("a"):
            rec.record("a.part", 0.25)
        with rec.span("a"):
            pass
    rec.op = 1
    with rec.span("op"):
        pass
    spans = rec.spans
    assert [s["parent"] for s in spans] == [None, 0, 1, 0, None]
    totals = op_span_seconds(spans)
    assert set(totals) == {0, 1}
    assert totals[0]["a.part"] == 0.25
    assert totals[0]["a"] == spans[1]["dur"] + spans[3]["dur"]
    assert totals[0]["op"] >= totals[0]["a"]


def test_replace_cells_is_legal_and_seeded():
    import random

    use_checkout_source()
    from gen import build_design, replace_cells
    from workloads import design_plan

    # ispd18_test5 with double-height cells, which block two rows.
    entry = next(
        e for e in design_plan("analyze_cold", 1) if e["multi_height"]
    )
    base = build_design(entry)
    placements = []
    for seed in ("a", "a", "b"):
        design = build_design(entry)
        replace_cells(design, random.Random(seed))
        boxes = [inst.bbox for inst in design.instances.values()]
        for i, a in enumerate(boxes):
            assert design.die_area.contains_rect(a)
            for b in boxes[i + 1:]:
                assert not (a.xlo < b.xhi and b.xlo < a.xhi
                            and a.ylo < b.yhi and b.ylo < a.yhi)
        placements.append(
            {n: i.location for n, i in design.instances.items()}
        )
    assert placements[0] == placements[1] != placements[2]
    assert placements[0] != {
        n: i.location for n, i in base.instances.items()
    }


def test_corrupted_reference_fails_analyze_cold(tmp_path):
    manifest_path = _generate("analyze_cold", tmp_path)
    clean = _work("analyze_cold", tmp_path)
    assert clean["failed"] == 0 and not clean["problems"]
    manifest = read_json(manifest_path)
    manifest["designs"][0]["reference"]["digest"] = "0" * 64
    write_json(manifest_path, manifest)
    broken = _work("analyze_cold", tmp_path)
    assert broken["failed"] > 0
    assert any("fingerprint" in p for p in broken["problems"])


def test_corrupted_answer_fails_serve_eco(tmp_path):
    manifest_path = _generate("serve_eco", tmp_path)
    manifest = read_json(manifest_path)
    expected = manifest["moves"][0]["expected"]
    pin = sorted(expected)[0]
    expected[pin]["accessible"] = not expected[pin]["accessible"]
    write_json(manifest_path, manifest)
    result = _work("serve_eco", tmp_path)
    assert result["failed"] > 0
    assert any("from-scratch" in p for p in result["problems"])


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"),
    )
    proc = _python(
        ["perfbench/run.py", "--workload", "analyze_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        timeout=180,
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
