"""Shared infrastructure for the benchmark harness.

Every paper table/figure has one module here.  Designs are generated at
``BENCH_SCALE`` (override with the ``REPRO_BENCH_SCALE`` environment
variable); each module renders its table to stdout and into
``benchmarks/results/<name>.txt`` so a ``--benchmark-only`` run leaves
the full evaluation on disk.

Runtime histories (``BENCH_*.json`` at the repo root) are JSON lists
of entries in the shared ``repro.qa.bench/v1`` envelope
(:func:`repro.qa.metrics.bench_entry`).
"""

import json
import os
import pathlib

import pytest

from repro.bench import build_testcase
from repro.bench.ispd18 import ISPD18_TESTCASES

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.004"))
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_design_cache = {}


def bench_design(name: str, scale: float = None):
    """Build (and cache) a testcase at the benchmark scale."""
    scale = BENCH_SCALE if scale is None else scale
    key = (name, scale)
    if key not in _design_cache:
        _design_cache[key] = build_testcase(name, scale=scale)
    return _design_cache[key]


def all_testcase_names():
    """Return the ten ispd18 testcase names."""
    return [spec.name for spec in ISPD18_TESTCASES]


def bench_history(path) -> list:
    """Load a ``BENCH_*.json`` history (empty if the file is absent)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    return json.loads(path.read_text())


def append_bench_entry(path, entry: dict) -> None:
    """Append one ``repro.qa.bench/v1`` entry to a history file."""
    history = bench_history(path)
    history.append(entry)
    text = json.dumps(history, indent=2, sort_keys=True)
    pathlib.Path(path).write_text(text + "\n")


def publish(name: str, text: str) -> None:
    """Print a results table and persist it under benchmarks/results."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    The paper's experiments are minutes-long flows; statistical
    repetition would multiply the harness runtime for no insight.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return run
