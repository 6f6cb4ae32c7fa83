"""Sweep execution: fingerprint-keyed point directories.

Each run point of a :class:`~repro.sweep.spec.SweepSpec` executes in
its own directory under ``<run_dir>/points/<key>``, where the key
binds together

* the point's design identity (``design@scale`` plus any node
  override),
* the AP-cache **config fingerprint**
  (:func:`repro.perf.apcache.paaf_fingerprint`) over everything that
  affects results, and
* the **perf-mode key** (:func:`repro.perf.apcache.perf_mode_key`)
  over the knobs that only affect how fast results arrive
  (``paircheck_mode``, ``apcheck_mode``).

The points run on :mod:`repro.runs`: a completed point (status
``done``, a ``point.json`` with a matching fingerprint and an
``envelope.json`` that parses) is skipped on re-run, anything else is
scrubbed and re-executed in its own worker process, under a bounded
pool and a per-point timeout.

Each successful point rolls its timings, obs stats, quality metrics
and qa result fingerprint into one ``repro.qa.bench/v1`` envelope
(``envelope.json``), the unit the reporter aggregates and gates.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

from repro.runs import STATUS_SCHEMA, Unit, read_json, run_units, write_json
from repro.sweep.spec import SweepSpec

RUN_SCHEMA = "repro.sweep.run/v1"
LAST_RUN_SCHEMA = "repro.sweep.last_run/v1"

DEFAULT_WORKERS = 2
DEFAULT_POINT_TIMEOUT_S = 1800.0


@dataclass(frozen=True)
class PlannedPoint:
    """One expanded run point with its directory key resolved."""

    key: str
    point: dict
    fingerprint: str
    perf_key: str


def point_config(point: dict, cache_dir: str = None, profile: bool = True):
    """Build the :class:`PaafConfig` a point runs under."""
    from repro.core import PaafConfig
    from repro.sweep.spec import POINT_FIELDS

    kwargs = {
        name: point[name]
        for name, (_, kind) in POINT_FIELDS.items()
        if kind == "config" and name in point
    }
    return PaafConfig(cache_dir=cache_dir, profile=profile, **kwargs)


def build_point_design(point: dict):
    """Generate the point's design (node override included)."""
    import dataclasses as dc

    from repro.bench.ispd18 import build_testcase, testcase_spec

    spec = testcase_spec(point["design"])
    if point.get("node"):
        spec = dc.replace(spec, node=point["node"])
    kwargs = {}
    if "utilization" in point:
        kwargs["utilization"] = point["utilization"]
    if "multi_height_fraction" in point:
        kwargs["multi_height_fraction"] = point["multi_height_fraction"]
    return build_testcase(spec, scale=point["scale"], **kwargs)


def point_label(point: dict) -> str:
    """Human prefix of a point key: ``design@scale`` plus node."""
    label = f"{point['design']}@{point['scale']:g}"
    if point.get("node"):
        label += f".{point['node']}"
    return label


def plan_points(spec: SweepSpec) -> list:
    """Resolve every point's run-directory key.

    The key embeds the AP-cache config fingerprint (so a quality-knob
    change lands in a fresh directory and the old one reads as stale)
    and the perf-mode key (so ``kernel`` and ``engine`` variants of
    the same configuration keep separate timings).  Designs are built
    once per unique geometry to price the fingerprints.
    """
    from repro.perf.apcache import paaf_fingerprint, perf_mode_key

    designs = {}
    planned = []
    for point in spec.points:
        geometry = tuple(
            (name, point.get(name))
            for name in (
                "design",
                "scale",
                "node",
                "utilization",
                "multi_height_fraction",
            )
        )
        if geometry not in designs:
            designs[geometry] = build_point_design(point)
        config = point_config(point)
        fingerprint = paaf_fingerprint(designs[geometry], config)
        perf_key = perf_mode_key(config)
        key = (
            f"{point_label(point)}-{fingerprint[:12]}-{perf_key[:6]}"
        )
        planned.append(
            PlannedPoint(
                key=key,
                point=dict(point),
                fingerprint=fingerprint,
                perf_key=perf_key,
            )
        )
    return planned


def point_dir(run_dir: str, key: str) -> str:
    """Return the directory one point executes in."""
    return os.path.join(run_dir, "points", key)


def _execute_point(point: dict, key: str, cache_dir: str) -> dict:
    from repro.core import PinAccessFramework
    from repro.core.framework import evaluate_failed_pins
    from repro.qa.metrics import bench_entry, quality_metrics

    design = build_point_design(point)
    config = point_config(point, cache_dir=cache_dir)
    framework = PinAccessFramework(design, config)
    result = framework.run()
    failed = evaluate_failed_pins(design, result.access_map())
    metrics = quality_metrics(result, failed)
    timings = dict(result.timings)
    total = timings.get("total", 0.0)
    connected = len(design.connected_pins())
    perf = {
        "analyze_s": round(total, 6),
        "qps_pins": round(connected / total, 3) if total else 0.0,
    }
    for step in ("step1", "step2", "step3"):
        if step in timings:
            perf[f"{step}_s"] = round(timings[step], 6)
    entry = bench_entry(
        design=design.name,
        scale=point["scale"],
        cells=design.stats()["num_std_cells"],
        perf=perf,
        context={"point": dict(point), "key": key},
        metrics=metrics,
    )
    entry["fingerprint"] = result.fingerprint().to_json()
    entry["stats"] = dict(result.stats)
    return entry


# -- the sweep ----------------------------------------------------------------


def run_sweep(
    spec: SweepSpec,
    run_dir: str,
    workers: int = None,
    point_timeout_s: float = None,
    out=None,
) -> dict:
    """Execute a sweep into ``run_dir``; return the invocation summary.

    Completed points whose key (config fingerprint + perf mode) is
    already on disk are skipped; everything else runs under at most
    ``workers`` concurrent processes with a per-point timeout.  The
    summary is also persisted as ``<run_dir>/last_run.json`` so CI can
    assert cache behavior (e.g. "a re-run executes zero points").
    """
    out = out or (lambda *_: None)
    workers = _resolve(workers, spec.options.get("workers"), DEFAULT_WORKERS)
    point_timeout_s = _resolve(
        point_timeout_s,
        spec.options.get("point_timeout_s"),
        DEFAULT_POINT_TIMEOUT_S,
    )
    os.makedirs(os.path.join(run_dir, "points"), exist_ok=True)
    cache_dir = spec.options.get("cache_dir", "apcache")
    if not os.path.isabs(cache_dir):
        cache_dir = os.path.join(run_dir, cache_dir)

    planned = plan_points(spec)
    write_json(
        os.path.join(run_dir, "spec.json"),
        {
            "name": spec.name,
            "points": list(spec.points),
            "options": spec.options,
            "digest": spec.digest,
        },
    )
    write_json(
        os.path.join(run_dir, "sweep.json"),
        {
            "schema": RUN_SCHEMA,
            "name": spec.name,
            "spec_digest": spec.digest,
            "points": [pp.key for pp in planned],
        },
    )

    started = time.perf_counter()
    units = [
        Unit(
            key=pp.key,
            directory=point_dir(run_dir, pp.key),
            record_name="point.json",
            record={
                "key": pp.key,
                "point": pp.point,
                "fingerprint": pp.fingerprint,
                "perf_key": pp.perf_key,
            },
            result_name="envelope.json",
            work=functools.partial(
                _execute_point, pp.point, pp.key, cache_dir
            ),
        )
        for pp in planned
    ]
    states = run_units(units, workers, point_timeout_s, out)

    def keys(*wanted):
        return sorted(k for k, s in states.items() if s in wanted)

    summary = {
        "schema": LAST_RUN_SCHEMA,
        "name": spec.name,
        "spec_digest": spec.digest,
        "workers": workers,
        "point_timeout_s": point_timeout_s,
        "skipped": keys("cached"),
        "executed": keys("done", "failed", "timeout"),
        "done": keys("done"),
        "failed": keys("failed"),
        "timeout": keys("timeout"),
        "wall_s": round(time.perf_counter() - started, 6),
    }
    write_json(os.path.join(run_dir, "last_run.json"), summary)
    return summary


def _resolve(*candidates):
    for candidate in candidates:
        if candidate is not None:
            return candidate
    return None


# -- status -------------------------------------------------------------------


def sweep_status(run_dir: str) -> dict:
    """Summarize a run directory point by point.

    Points are read from the ``sweep.json`` manifest when present
    (so stale directories from an edited spec are ignored), falling
    back to a scan of ``points/``.
    """
    manifest = read_json(os.path.join(run_dir, "sweep.json"))
    points_root = os.path.join(run_dir, "points")
    if manifest and manifest.get("points"):
        keys = list(manifest["points"])
    elif os.path.isdir(points_root):
        keys = sorted(os.listdir(points_root))
    else:
        keys = []
    points = []
    counts = {}
    for key in keys:
        directory = os.path.join(points_root, key)
        status = read_json(os.path.join(directory, "status.json")) or {}
        meta = read_json(os.path.join(directory, "point.json")) or {}
        state = status.get("state", "pending")
        counts[state] = counts.get(state, 0) + 1
        points.append(
            {
                "key": key,
                "state": state,
                "wall_s": status.get("wall_s"),
                "error": status.get("error"),
                "point": meta.get("point", {}),
                "has_envelope": os.path.exists(
                    os.path.join(directory, "envelope.json")
                ),
            }
        )
    return {
        "schema": STATUS_SCHEMA,
        "run_dir": run_dir,
        "name": (manifest or {}).get("name"),
        "counts": counts,
        "points": points,
    }
