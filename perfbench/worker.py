#!/usr/bin/env python3
"""Measure one workload in this process and print its figures as JSON.

    python3 perfbench/worker.py --workload W --inputs DIR --seconds S \\
        --trace 0|1 [--spans FILE]
    python3 perfbench/worker.py --workload W --inputs DIR --setup-only

``run.py`` starts a fresh worker for every run, after ``gen.py`` has
written the inputs.  The worker pins itself (and the serve daemon it
starts) to one CPU, times the workload's set-up, checks what set-up
produced, makes one untimed warm-up pass over every op input, then
runs whole rounds of ops until ``--seconds`` of wall time have passed,
calling ``gc.collect()`` before each op outside the timer and checking
every op's output after it.

Every op is timed in CPU seconds of the processes it runs in and
scaled to the reference host's speed by the calibration passes run
just before and just after it (``common.calibration_pass``); set-up
likewise.  Wall times are kept in the result record.

With ``--trace 1`` rounds alternate between traced and untraced ops:
traced ops record spans around every layer call (kept in memory,
written to ``--spans`` at the end); the untraced ones give the base
for ``trace.overhead_frac``.  End-to-end figures come from untraced
runs only.  ``--setup-only`` times set-up alone and exits; ``run.py``
repeats it to take a median.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    WORKLOADS,
    NullRecorder,
    SpanRecorder,
    at_reference_speed,
    calibration_pass,
    median,
    op_span_seconds,
    percentile,
    pin_to_one_cpu,
    samples_beyond,
    use_checkout_source,
    write_json,
)

#: Never time fewer rounds than this, however long a round takes.
MIN_ROUNDS = 2


def run_op(workload, key, rec):
    """Run one op; return its output, wall seconds and CPU seconds."""
    gc.collect()
    c0 = workload.cpu_seconds()
    t0 = time.perf_counter()
    with rec.span("op"):
        out = workload.op(key, rec)
    wall = time.perf_counter() - t0
    return out, wall, workload.cpu_seconds() - c0


def measure(workload, seconds: float, trace: bool) -> dict:
    null = NullRecorder()
    for key in workload.keys:
        out, _, _ = run_op(workload, key, null)
        for problem in workload.check(key, out):
            workload.run_problems.append(f"warm-up {key}: {problem}")
        del out
    rec = SpanRecorder()
    ops = []
    start = time.perf_counter()
    rounds = 0
    calibration = calibration_pass()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 0
        for key in workload.keys:
            rec.op = len(ops)
            workload.before_op(traced)
            out, dt, cpu = run_op(workload, key, rec if traced else null)
            # The host's speed around the op: passes just before and after.
            before, calibration = calibration, calibration_pass()
            problems = workload.check(key, out)
            sample = {
                "key": key,
                "s": dt,
                "cpu_s": cpu,
                "ref_s": at_reference_speed(cpu, (before + calibration) / 2),
                "traced": traced,
                "problems": problems,
            }
            if traced:
                sample["extra"] = workload.after_op(key, out, traced)
                sample["counts"] = workload.counts(key, out)
            else:
                workload.after_op(key, out, traced)
            ops.append(sample)
            del out
        rounds += 1
    wall = time.perf_counter() - start
    return {"ops": ops, "rounds": rounds, "wall_s": wall, "spans": rec.spans}


def per_key_mean(ops: list, field: str) -> float:
    """Geometric mean over op inputs of each input's mean ``field``.

    A median over the pooled ops of a design mix falls between the
    designs' clusters, and a median per design between the two modes
    some designs have; both jump from run to run.  Means per design,
    combined so that every design weighs alike, move smoothly.
    """
    by_key = {}
    for op in ops:
        by_key.setdefault(op["key"], []).append(op[field])
    logs = [math.log(sum(v) / len(v)) for v in by_key.values()]
    return math.exp(sum(logs) / len(logs))


def end_to_end(workload, ops: list) -> dict:
    ref = [op["ref_s"] for op in ops]
    wall = [op["s"] for op in ops]
    ok = sum(1 for op in ops if not op["problems"])
    return {
        "op_cpu_ms": per_key_mean(ops, "ref_s") * 1e3,
        "ops_per_cpu_s": ok / sum(ref),
        "peak_rss_mb": workload.peak_rss_mb(),
        # Raw figures, kept in the result record only: on a shared host
        # the wall clock measures the neighbours as much as the program.
        "op_raw_cpu_p50_ms": median(op["cpu_s"] for op in ops) * 1e3,
        "op_p50_ms": median(wall) * 1e3,
        "op_p90_ms": percentile(wall, 0.9) * 1e3,
        "ops_per_s": ok / sum(wall),
    }


def per_layer(workload, ops: list, spans: list) -> dict:
    """Per-op medians of every layer metric the workload touches."""
    by_op = op_span_seconds(spans)
    traced = [(i, op) for i, op in enumerate(ops) if op["traced"]]
    untraced = [op["s"] for op in ops if not op["traced"]]
    rows = []
    for index, op in traced:
        row = workload.layers(by_op.get(index, {}), op.get("extra", {}))
        row.update(op.get("counts", {}))
        explained = sum(row[name] for name in workload.TOP_LAYERS)
        row[f"{workload.name}.residual_ms"] = op["s"] * 1e3 - explained
        rows.append(row)
    out = {name: median(row[name] for row in rows) for name in rows[0]}
    traced_p50 = median(op["s"] for _, op in traced)
    untraced_p50 = median(untraced)
    out["trace.op_p50_ms"] = traced_p50 * 1e3
    out["trace.untraced_op_p50_ms"] = untraced_p50 * 1e3
    out["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    out.update(workload.extra_layers())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_source()
    pin_to_one_cpu()
    import json

    from workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args.inputs)
    try:
        before = calibration_pass()
        c0 = time.thread_time()
        t0 = time.perf_counter()
        workload.setup()
        setup_wall_s = time.perf_counter() - t0
        setup_cpu_s = time.thread_time() - c0
        setup_s = at_reference_speed(
            setup_cpu_s, (before + calibration_pass()) / 2
        )
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s,
                              "setup_cpu_s": setup_cpu_s,
                              "setup_wall_s": setup_wall_s}))
            return 0
        workload.verify_setup()
        run = measure(workload, args.seconds, bool(args.trace))
        ops = run["ops"]
        untraced = [op for op in ops if not op["traced"]]
        result = {
            "attempted": len(ops),
            "failed": sum(1 for op in ops if op["problems"]),
            "problems": workload.run_problems
            + sorted({p for op in ops for p in op["problems"]}),
            "rounds": run["rounds"],
            "wall_s": run["wall_s"],
            "worker_setup_s": setup_s,
            "worker_setup_cpu_s": setup_cpu_s,
            "worker_setup_wall_s": setup_wall_s,
            "setup_samples_s": workload.setup_samples(),
            "p90_samples_beyond": samples_beyond(
                [op["s"] for op in untraced], 0.9
            ),
            "op_ms": [round(op["s"] * 1e3, 3) for op in ops],
            "op_cpu_ms": [round(op["cpu_s"] * 1e3, 3) for op in ops],
            "op_ref_ms": [round(op["ref_s"] * 1e3, 3) for op in ops],
        }
        if args.trace:
            result["metrics"] = per_layer(workload, ops, run["spans"])
            if args.spans:
                write_json(args.spans, {"spans": run["spans"]})
        else:
            result["metrics"] = end_to_end(workload, ops)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
