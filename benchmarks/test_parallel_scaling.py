"""AP-cache speedups on a fixed design.

Measures three runs of the full PAAF flow on ispd18_test5:

* serial        -- ``run()`` without a cache, the reference
* cache cold    -- first run against an empty cache directory
* cache warm    -- second run, Steps 1/2 served from disk

and records them into ``BENCH_parallel.json`` at the repo root (in the
shared ``repro.qa.bench/v1`` envelope), so successive commits
accumulate a runtime history.  Determinism is asserted
unconditionally: every variant must produce the exact access map of
the serial run.

``test_paircheck_kernel_vs_engine`` measures the translation-invariant
pair kernel against the engine-backed reference on the same design:
engine calls saved, raw query throughput, cold versus warm-cache runs
and verify-mode overhead, recorded into
``BENCH_pairkernel.json``.  Access maps must be bit-identical across
all three ``paircheck_mode`` settings.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the design and skip the
JSON append -- the run then only guards determinism.
"""

import os
import pathlib
import tempfile
import time

from repro.bench import build_testcase
from repro.core import PinAccessFramework, PaafConfig
from repro.drc import DrcEngine
from repro.drc.pairkernel import PairKernel
from repro.report import format_table

from repro.qa.metrics import bench_entry

from benchmarks.conftest import (
    BENCH_SCALE,
    append_bench_entry,
    publish,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SCALE = 0.002 if SMOKE else BENCH_SCALE
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"
BENCH_PAIR_JSON = (
    pathlib.Path(__file__).parent.parent / "BENCH_pairkernel.json"
)


def _access_fingerprint(result):
    return sorted(
        (inst, pin, ap.x, ap.y, ap.primary_via)
        for (inst, pin), ap in result.access_map().items()
    )


def _timed_run(design, **kwargs):
    use_cache = kwargs.pop("use_cache", True)
    config = PaafConfig(**kwargs)
    t0 = time.perf_counter()
    result = PinAccessFramework(design, config).run(use_cache=use_cache)
    return time.perf_counter() - t0, result


def test_serial_and_cache_scaling(once):
    design = build_testcase("ispd18_test5", scale=SCALE)

    serial_s, serial = once(_timed_run, design)

    with tempfile.TemporaryDirectory() as cache_dir:
        cold_s, cold = _timed_run(design, cache_dir=cache_dir)
        warm_s, warm = _timed_run(design, cache_dir=cache_dir)
        assert warm.stats["paaf.step12_tasks"] == 0
        assert warm.stats["apcache.hit"] > 0

    # Determinism before speed: every variant matches serial exactly.
    reference = _access_fingerprint(serial)
    for label, result in (("cache cold", cold), ("cache warm", warm)):
        assert _access_fingerprint(result) == reference, label

    entry = bench_entry(
        design.name,
        SCALE,
        design.stats()["num_std_cells"],
        perf={
            "serial_s": round(serial_s, 3),
            "cache_cold_s": round(cold_s, 3),
            "cache_warm_s": round(warm_s, 3),
        },
        derived={
            "warm_speedup": round(cold_s / max(1e-9, warm_s), 3),
        },
        context={"cpu_count": os.cpu_count()},
    )

    rows = [
        ["serial (no cache)", f"{serial_s:.2f}", "1.00"],
        ["cache cold", f"{cold_s:.2f}", "-"],
        ["cache warm", f"{warm_s:.2f}",
         f"{entry['derived']['warm_speedup']:.2f}"],
    ]
    text = format_table(
        ["Run", "t(s)", "speedup"],
        rows,
        title=(
            f"Cache scaling on {design.name} "
            f"({entry['cells']} cells, "
            f"{entry['context']['cpu_count']} cores)"
        ),
    )
    publish("parallel_scaling_smoke" if SMOKE else "parallel_scaling", text)

    if not SMOKE:
        append_bench_entry(BENCH_JSON, entry)

    # A warm cache skips all of Steps 1/2; it must not be slower than
    # the cold run by more than noise.
    assert warm_s <= cold_s * 1.5


def _query_throughput(design, seconds=0.25):
    """Raw pair-query rate: compiled table vs engine, queries/second."""
    tech = design.tech
    kernel = PairKernel(tech)
    kernel.table("V12_P", "V12_P")
    engine = DrcEngine(tech)
    via = tech.via("V12_P")
    probes = [(dx, dy) for dx in range(-300, 301, 20)
              for dy in range(-300, 301, 20)]

    def rate(fn):
        count = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for dx, dy in probes:
                fn(dx, dy)
            count += len(probes)
        return count / (time.perf_counter() - t0)

    kernel_rate = rate(
        lambda dx, dy: kernel.pair_clean("V12_P", 0, 0, "V12_P", dx, dy)
    )
    engine_rate = rate(
        lambda dx, dy: engine.check_via_pair(via, (0, 0), via, (dx, dy))
    )
    return kernel_rate, engine_rate


def test_paircheck_kernel_vs_engine(once):
    design = build_testcase("ispd18_test5", scale=SCALE)

    engine_s, engine_run = once(
        _timed_run, design, profile=True, paircheck_mode="engine"
    )
    kernel_s, kernel_run = _timed_run(
        design, profile=True, paircheck_mode="kernel"
    )
    verify_s, verify_run = _timed_run(
        design, profile=True, paircheck_mode="verify"
    )

    # Determinism first: all three backends produce the same access.
    reference = _access_fingerprint(engine_run)
    assert _access_fingerprint(kernel_run) == reference
    assert _access_fingerprint(verify_run) == reference

    # The kernel absorbs the pairwise workload: engine invocations
    # must drop by at least the 3x the acceptance bar demands (in
    # practice the only survivors are validate()'s dirty-pair
    # re-checks, which enumerate violation records).
    engine_calls = engine_run.stats["metrics.counters"]["drc.check.via_pair"]
    kernel_calls = kernel_run.stats["metrics.counters"].get("drc.check.via_pair", 0)
    assert engine_calls >= 3 * max(1, kernel_calls)
    queries = kernel_run.stats["metrics.counters"]["pairkernel.query"]
    assert queries > 0

    # Cold vs warm cache: the first cached run compiles every table it
    # probes; the second hits every AP entry, so no Step 1 runs and no
    # cell compiles its Step 1 tables (Step 3 still compiles its own).
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_s, cold = _timed_run(design, cache_dir=cache_dir)
        warm_s, warm = _timed_run(design, cache_dir=cache_dir)
    assert cold.stats["pairkernel.built"] > 0
    assert warm.stats["apcache.hit"] == warm.stats["paaf.unique_instances"]
    assert warm.stats["arraykernel.built"] == 0
    assert _access_fingerprint(cold) == reference
    assert _access_fingerprint(warm) == reference

    kernel_rate, engine_rate = _query_throughput(design)

    entry = bench_entry(
        design.name,
        SCALE,
        design.stats()["num_std_cells"],
        perf={
            "engine_mode_s": round(engine_s, 3),
            "kernel_mode_s": round(kernel_s, 3),
            "verify_mode_s": round(verify_s, 3),
            "cold_tables_s": round(cold_s, 3),
            "warm_tables_s": round(warm_s, 3),
            "engine_pair_calls": engine_calls,
            "kernel_pair_calls": kernel_calls,
            "kernel_queries": queries,
            "tables_built_cold": cold.stats["pairkernel.built"],
            "kernel_qps": round(kernel_rate),
            "engine_qps": round(engine_rate),
        },
        derived={
            "pair_call_reduction": round(
                engine_calls / max(1, kernel_calls), 1
            ),
            "query_speedup": round(kernel_rate / max(1e-9, engine_rate), 1),
        },
    )
    perf = entry["perf"]

    rows = [
        ["engine mode", f"{engine_s:.2f}", f"{engine_calls}"],
        ["kernel mode", f"{kernel_s:.2f}", f"{kernel_calls}"],
        ["verify mode", f"{verify_s:.2f}", "-"],
        ["tables cold", f"{cold_s:.2f}",
         f"built {perf['tables_built_cold']}"],
        ["tables warm", f"{warm_s:.2f}", "AP cache hit, 0 Step 1 sets"],
        ["query rate", f"{entry['derived']['query_speedup']:.0f}x",
         f"{perf['kernel_qps']}/s vs {perf['engine_qps']}/s"],
    ]
    text = format_table(
        ["Run", "t(s)", "engine pair calls"],
        rows,
        title=(
            f"Pair-check backends on {design.name} "
            f"({entry['cells']} cells)"
        ),
    )
    publish("pairkernel_smoke" if SMOKE else "pairkernel", text)

    if not SMOKE:
        append_bench_entry(BENCH_PAIR_JSON, entry)
