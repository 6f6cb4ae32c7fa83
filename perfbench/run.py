#!/usr/bin/env python3
"""Run one PAO benchmark workload for one seed and print its figures.

    python3 perfbench/run.py --workload analyze_cold --seed 1 \\
        --seconds 12 --trace 0

Steps, each in its own process so no step's memory or warm state
leaks into the next:

1. ``gen.py`` writes the seed's LEF/DEF inputs and references;
2. for analyze_cold and route_pao, ``worker.py --setup-only`` runs
   several times and ``setup_s`` is the median (serve_eco times its
   daemon launches inside the worker instead);
3. ``worker.py`` measures the workload and checks every op.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1`` (0 for a layer the workload never calls).  The full
record (host context, seed, design stats, every op time, problems)
goes to ``perfbench/out/result-<workload>-s<seed>-t<trace>.json`` and
traced runs dump their spans next to it.  Exits 2 without a result
line when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    HERE,
    OUT_ROOT,
    REPO,
    WORK_ROOT,
    WORKLOADS,
    BenchError,
    child_env,
    last_json_line,
    median,
    read_json,
    use_checkout_source,
    write_json,
)

#: Set-up repetitions per run for the in-process workloads.
SETUP_PROBES = {"analyze_cold": 7, "route_pao": 3}


def child(args: list, timeout: float) -> str:
    """Run one benchmark step; return its stdout or raise BenchError."""
    proc = subprocess.run(
        [sys.executable] + args,
        cwd=REPO,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{os.path.basename(args[0])} failed:\n{tail}")
    return proc.stdout


def measure(args, work: str) -> tuple:
    gen = os.path.join(HERE, "gen.py")
    worker = os.path.join(HERE, "worker.py")
    child(
        [gen, "--workload", args.workload, "--seed", str(args.seed),
         "--out", work],
        timeout=600,
    )
    manifest = read_json(os.path.join(work, "manifest.json"))
    base = [worker, "--workload", args.workload, "--inputs", work]
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES.get(args.workload, 0)):
            out = child(base + ["--setup-only"], timeout=120)
            probes.append(last_json_line(out)["setup_s"])
    run = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run += ["--spans", os.path.join(
            OUT_ROOT, f"spans-{args.workload}-s{args.seed}.json"
        )]
    result = last_json_line(child(run, timeout=args.seconds + 300))
    return manifest, probes, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
        spec = read_json(os.path.join(REPO, "BENCHMARK.json"))
        os.makedirs(OUT_ROOT, exist_ok=True)
        work = os.path.join(
            WORK_ROOT, f"{args.workload}-s{args.seed}-{os.getpid()}"
        )
        os.makedirs(work)
        try:
            manifest, probes, result = measure(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.qa.metrics import bench_context

    figures = dict(result["metrics"])
    if not args.trace:
        figures["setup_s"] = median(probes or result["setup_samples_s"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(figures.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    correct = result["failed"] == 0 and not result["problems"]
    write_json(
        os.path.join(
            OUT_ROOT,
            f"result-{args.workload}-s{args.seed}-t{args.trace}.json",
        ),
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "context": bench_context(),
            "designs": [
                {k: d[k] for k in ("id", "spec", "cells", "draw", "placement",
                                   "stats")}
                for d in manifest["designs"]
            ],
            "setup_probes_s": probes,
            "correct": correct,
            "worker": result,
            "figures": figures,
        },
    )
    for problem in result["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
