"""The three workloads: their designs, set-up, op, output check and layers.

Each workload class follows one shape, driven by ``worker.py``:

* ``setup()``       -- the program's own preparation (timed as setup_s);
* ``verify_setup()``-- untimed checks of what set-up produced;
* ``keys``          -- the op inputs of one round, run in order;
* ``op(key, rec)``  -- one timed op; ``rec`` records layer spans;
* ``check(key, out)`` -- problems with the op's output (empty = ok);
* ``counts(key, out)`` -- per-op counts for the traced run;
* ``layers(spans, extra)`` -- per-op layer times in ms from spans.

Design catalogues are fixed per workload, down to each design's draw;
``--seed`` re-places the cells of every design, so every seed measures
the same mix of specs and netlists.
"""

from __future__ import annotations

import hashlib
import os

from common import (
    BenchError,
    at_reference_speed,
    calibration_pass,
    read_json,
    thread_cpu_seconds,
)

#: analyze_cold: (spec, cells, multi-height fraction).  N45 aligned and
#: with IO pins, N32 with tracks off the site grid (the unique-instance
#: multiplier) and on it, N14 off-grid, and double-height rows.  Small
#: designs keep an op near 100 ms, short against the host's speed
#: phases (see ``common.calibration_pass``); two draws per spec keep
#: the op mix from hinging on one draw.
ANALYZE_DESIGNS = tuple(
    (spec, 50, multi)
    for spec, multi in (
        ("ispd18_test1", 0.0),
        ("ispd18_test2", 0.0),
        ("ispd18_test4", 0.0),
        ("ispd18_test5", 0.1),
        ("ispd18_test9", 0.0),
        ("aes_14nm", 0.0),
    )
    for _ in range(2)
)

#: route_pao: macro-free specs only (macros split op latency into two
#: populations), sized so one route + score takes about 100 ms; three
#: draws per spec keep the op mix from hinging on one design.
ROUTE_DESIGNS = tuple(
    (spec, 24, 0.0)
    for spec in (
        "ispd18_test1",
        "ispd18_test2",
        "ispd18_test4",
        "ispd18_test5",
        "ispd18_test9",
        "ispd18_test10",
    )
    for _ in range(3)
)

#: serve_eco: one ~300-cell design (ispd18_test5@0.004 has 288 cells).
SERVE_DESIGNS = (("ispd18_test5", 288, 0.0),)

#: Moves per serve_eco round (distinct cells, cycled).
SERVE_MOVES = 24

#: The compare golden the route_pao run re-checks once, untimed.
GOLDEN_CASE = ("ispd18_test5", 0.002)

CATALOGUE = {
    "analyze_cold": ANALYZE_DESIGNS,
    "route_pao": ROUTE_DESIGNS,
    "serve_eco": SERVE_DESIGNS,
}


def design_plan(workload: str, seed: int) -> list:
    """The designs of one run: id, spec, cell count, draw, placement seed.

    The draw is fixed per catalogue entry; the seed only re-places cells
    (``gen.replace_cells``).
    """
    plan = []
    for index, (spec, cells, multi) in enumerate(CATALOGUE[workload]):
        plan.append(
            {
                "id": f"{spec}-{index + 1}",
                "spec": spec,
                "cells": cells,
                "multi_height": multi,
                "draw": 1000 + index,
                "placement": f"{workload}:{seed}:{index}",
            }
        )
    return plan


def digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def io_digest(io_aps: dict) -> str:
    from repro.qa.fingerprint import canonical_ap

    return digest(
        sorted(
            (name, [sorted(canonical_ap(ap).items()) for ap in aps])
            for name, aps in io_aps.items()
        )
    )


def select_io(io_aps: dict) -> dict:
    """First validated AP per IO pin, as the comparator's pao flow."""
    return {name: aps[0] for name, aps in io_aps.items() if aps}


def obs_sinks_active() -> list:
    """Names of any ``repro.obs`` sink active in this thread."""
    from repro.obs import events, metrics, trace

    active = []
    if metrics.active_registry() is not None:
        active.append("metrics registry")
    if events.active_log() is not None:
        active.append("event log")
    if trace.active_tracer() is not None:
        active.append("tracer")
    return active


def production_path_problems(result) -> list:
    """Guard: the analysis ran the fast kernels with no sink attached."""
    problems = []
    stats = result.stats
    if stats.get("arraykernel.mode") != "array":
        problems.append(f"arraykernel.mode={stats.get('arraykernel.mode')}")
    if stats.get("pairkernel.mode") != "kernel":
        problems.append(f"pairkernel.mode={stats.get('pairkernel.mode')}")
    if result.metrics is not None or result.trace is not None:
        problems.append("observability sink attached to the result")
    if result.events is not None:
        problems.append("event log attached to the result")
    problems.extend(f"active {name}" for name in obs_sinks_active())
    return problems


def read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


class Workload:
    """Common plumbing: the run's manifest and its designs."""

    name = None
    #: Layer metrics whose sum should account for the whole op.
    TOP_LAYERS = ()

    def __init__(self, inputs: str):
        self.inputs = inputs
        self.manifest = read_json(os.path.join(inputs, "manifest.json"))
        self.designs = {d["id"]: d for d in self.manifest["designs"]}
        self.keys = [d["id"] for d in self.manifest["designs"]]
        self.run_problems = []

    def path(self, name: str) -> str:
        return os.path.join(self.inputs, name)

    def before_op(self, traced: bool) -> None:
        pass

    def after_op(self, key, out, traced: bool) -> dict:
        return {}

    def extra_layers(self) -> dict:
        return {}

    def setup_samples(self) -> list:
        """Set-up times taken inside the worker (empty: run.py probes)."""
        return []

    def cpu_seconds(self) -> float:
        """CPU time spent so far by the process(es) an op runs in."""
        import time

        return time.thread_time()

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class AnalyzeCold(Workload):
    """A router asking for access on a fresh design, cold."""

    name = "analyze_cold"
    TOP_LAYERS = (
        "lefdef.parse_ms",
        "core.init_ms",
        "core.prepare_ms",
        "core.step1_ms",
        "core.step2_ms",
        "core.step3_ms",
        "core.ioaccess_ms",
        "core.access_map_ms",
    )

    def setup(self) -> None:
        # Importing repro plus the modules the flow imports lazily on
        # first use (kernels, task runner, observability collector).
        import repro  # noqa: F401
        import repro.core.arraykernel  # noqa: F401
        import repro.drc.pairkernel  # noqa: F401
        import repro.obs.collect  # noqa: F401
        import repro.perf.parallel  # noqa: F401
        import repro.perf.workers  # noqa: F401
        import repro.qa.fingerprint  # noqa: F401
        from repro.core import PaafConfig, PinAccessFramework
        from repro.core.ioaccess import IoPinAccess
        from repro.lefdef import parse_def, parse_lef

        self.api = (parse_lef, parse_def, PaafConfig, PinAccessFramework,
                    IoPinAccess)

    def verify_setup(self) -> None:
        self.texts = {
            key: (
                read_text(self.path(f"{key}.lef")),
                read_text(self.path(f"{key}.def")),
            )
            for key in self.keys
        }

    def op(self, key, rec):
        parse_lef, parse_def, PaafConfig, PinAccessFramework, IoPinAccess = (
            self.api
        )
        lef_text, def_text = self.texts[key]
        with rec.span("lefdef.parse"):
            tech, masters = parse_lef(lef_text)
            design = parse_def(def_text, tech, masters)
        with rec.span("core.init"):
            config = PaafConfig()
            framework = PinAccessFramework(design, config)
        with rec.span("core.run"):
            result = framework.run(use_cache=False)
            t = result.timings
            rec.record(
                "core.prepare",
                t["total"] - t["step1"] - t["step2"] - t["step3"],
            )
            rec.record("core.step1", t["step1"])
            rec.record("core.step2", t["step2"])
            rec.record("core.step3", t["step3"])
        with rec.span("core.ioaccess"):
            io_aps = IoPinAccess(design, config).run()
        with rec.span("core.access_map"):
            amap = result.access_map()
        return design, result, io_aps, amap

    def check(self, key, out) -> list:
        design, result, io_aps, amap = out
        ref = self.designs[key]["reference"]
        problems = production_path_problems(result)
        if not result.stats.get("arraykernel.built", 0) > 0:
            problems.append("array kernel built no tables (not cold)")
        if result.stats.get("apcache.hit", 0):
            problems.append("AP cache hit in a cold op")
        if result.fingerprint().digest != ref["digest"]:
            problems.append("fingerprint differs from the reference backend")
        if io_digest(io_aps) != ref["io_digest"]:
            problems.append("IO access points differ from the reference")
        if len(amap) != ref["selected_pins"]:
            problems.append("access map size differs from the reference")
        return problems

    def counts(self, key, out) -> dict:
        design, result, io_aps, amap = out
        stats = result.stats
        pins = sum(
            len(inst.master.signal_pins())
            for inst in design.instances.values()
        )
        return {
            "core.unique_instances": stats["paaf.unique_instances"],
            "core.signal_pins": pins,
            "core.access_points": result.total_access_points,
            "core.pins_with_access_frac": len(amap) / pins if pins else 0.0,
            "core.clusters": stats["paaf.clusters"],
            "arraykernel.tables_built": stats["arraykernel.built"],
            "pairkernel.tables_built": stats["pairkernel.built"],
        }

    def layers(self, spans: dict, extra: dict) -> dict:
        return {
            "lefdef.parse_ms": spans.get("lefdef.parse", 0.0) * 1e3,
            "core.init_ms": spans.get("core.init", 0.0) * 1e3,
            "core.prepare_ms": spans.get("core.prepare", 0.0) * 1e3,
            "core.step1_ms": spans.get("core.step1", 0.0) * 1e3,
            "core.step2_ms": spans.get("core.step2", 0.0) * 1e3,
            "core.step3_ms": spans.get("core.step3", 0.0) * 1e3,
            "core.ioaccess_ms": spans.get("core.ioaccess", 0.0) * 1e3,
            "core.access_map_ms": spans.get("core.access_map", 0.0) * 1e3,
        }


class RoutePao(Workload):
    """Experiment 3's routing step over PAO access maps."""

    name = "route_pao"
    TOP_LAYERS = ("route.grid_ms", "route.route_ms", "drc.score_ms")

    def setup(self) -> None:
        # Import, parse and analyze every design: the access maps the
        # router consumes are the set-up, as in the comparator's flow.
        from repro.core import PaafConfig, PinAccessFramework
        from repro.core.ioaccess import IoPinAccess
        from repro.lefdef import parse_def, parse_lef
        from repro.route.grid import RoutingGrid
        from repro.route.router import DetailedRouter, count_route_drcs

        self.api = (RoutingGrid, DetailedRouter, count_route_drcs)
        self.maps = {}
        self.results = {}
        for key in self.keys:
            tech, masters = parse_lef(read_text(self.path(f"{key}.lef")))
            design = parse_def(read_text(self.path(f"{key}.def")), tech,
                               masters)
            config = PaafConfig()
            result = PinAccessFramework(design, config).run()
            io_aps = IoPinAccess(design, config).run()
            self.maps[key] = (design, result.access_map(), select_io(io_aps))
            self.results[key] = (result, io_aps)
        self.first = {}

    def verify_setup(self) -> None:
        for key, (result, io_aps) in self.results.items():
            ref = self.designs[key]["reference"]
            for problem in production_path_problems(result):
                self.run_problems.append(f"{key}: {problem}")
            if result.fingerprint().digest != ref["digest"]:
                self.run_problems.append(
                    f"{key}: access map fingerprint differs from the "
                    "reference backend"
                )
            if io_digest(io_aps) != ref["io_digest"]:
                self.run_problems.append(f"{key}: IO access differs")
        self.results = None
        golden = self.manifest.get("golden") or {}
        if not golden.get("ok"):
            self.run_problems.append(
                f"compare golden {golden.get('case')} mismatch: "
                f"{golden.get('diffs')}"
            )

    def op(self, key, rec):
        RoutingGrid, DetailedRouter, count_route_drcs = self.api
        design, amap, io_map = self.maps[key]
        with rec.span("route.grid"):
            grid = RoutingGrid(design)
        with rec.span("route.route"):
            routed = DetailedRouter(design, grid).route(
                dict(amap), io_access=dict(io_map)
            )
        with rec.span("drc.score"):
            violations = count_route_drcs(design, routed, scope="pin-access")
        return design, routed, violations

    def summary(self, out) -> dict:
        design, routed, violations = out
        return {
            "routed_nets": routed.routed_nets,
            "failed_nets": len(routed.failed_nets),
            "unconnected_terms": routed.unconnected_terms,
            "wirelength": routed.total_wirelength,
            "wires": len(routed.wires),
            "vias": len(routed.vias),
            "pin_access_drcs": len(violations),
            "geometry": digest((routed.wires, routed.vias)),
            "violations": digest(
                sorted((v.rule, v.layer_name, v.marker) for v in violations)
            ),
        }

    def check(self, key, out) -> list:
        summary = self.summary(out)
        first = self.first.setdefault(key, summary)
        if summary != first:
            diffs = sorted(k for k in summary if summary[k] != first[k])
            return [f"routing summary drifted from the first: {diffs}"]
        return []

    def counts(self, key, out) -> dict:
        design, routed, violations = out
        nets = len(design.nets)
        return {
            "route.nets_routed": routed.routed_nets,
            "route.routed_frac": routed.routed_nets / nets if nets else 0.0,
            "route.unconnected_terms": routed.unconnected_terms,
            "route.wirelength_dbu": routed.total_wirelength,
            "route.vias": len(routed.vias),
            "drc.pin_access_violations": len(violations),
        }

    def layers(self, spans: dict, extra: dict) -> dict:
        return {
            "route.grid_ms": spans.get("route.grid", 0.0) * 1e3,
            "route.route_ms": spans.get("route.route", 0.0) * 1e3,
            "drc.score_ms": spans.get("drc.score", 0.0) * 1e3,
        }


class ServeEco(Workload):
    """A placement loop against a live ``repro serve`` daemon."""

    name = "serve_eco"
    TOP_LAYERS = ("serve.move_rtt_ms", "serve.query_batch_rtt_ms")
    #: Timed daemon launches; the last one serves the ops.
    LAUNCHES = 5
    SESSION = "eco"

    def __init__(self, inputs: str):
        super().__init__(inputs)
        self.moves = self.manifest["moves"]
        self.keys = list(range(len(self.moves)))
        (self.design_id,) = list(self.designs)
        self.sock = os.path.relpath(self.path("pao.sock"))
        self.proc = None
        self.client = None
        self.launches = []
        self.snap = None

    # -- daemon lifecycle ----------------------------------------------------

    def _launch(self):
        """Start the daemon and wait for its first answered health.

        Returns the process, the client, the wall seconds to health and
        the daemon's CPU seconds up to it.
        """
        import subprocess
        import sys
        import time

        from common import child_env
        from repro.serve.client import OracleClient

        key = self.design_id
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--lef", self.path(f"{key}.lef"),
            "--def", self.path(f"{key}.def"),
            "--socket", self.sock,
            "--cache-dir", self.path("apcache"),
            "--design", self.SESSION,
        ]
        log = open(self.path("serve.log"), "ab")
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env()
            )
        finally:
            log.close()
        client = OracleClient(f"unix:{self.sock}", timeout=60.0,
                              connect_retries=1)
        deadline = t0 + 120.0
        while True:
            if proc.poll() is not None:
                raise BenchError(f"daemon exited with {proc.returncode}")
            try:
                client.connect()
                health = client.health()
                break
            except (OSError, ConnectionError):
                client.close()
                if time.perf_counter() > deadline:
                    proc.kill()
                    proc.wait()
                    raise BenchError("daemon never answered health")
                time.sleep(0.005)
        ready = time.perf_counter() - t0
        cpu = thread_cpu_seconds(proc.pid)
        if "slo" in health:
            self.run_problems.append("daemon runs with telemetry on")
        return proc, client, ready, cpu

    def _stop(self, proc, client) -> None:
        import subprocess

        try:
            client.shutdown()
        except (OSError, ConnectionError):
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def setup(self) -> None:
        # Fill the AP cache once, untimed; then time warm launches.
        proc, client, _, _ = self._launch()
        self._stop(proc, client)
        calibration = calibration_pass()
        for index in range(self.LAUNCHES):
            proc, client, ready, cpu = self._launch()
            before, calibration = calibration, calibration_pass()
            stats = client.stats()["sessions"][self.SESSION]
            self.launches.append(
                {
                    "ready_s": ready,
                    "cpu_s": cpu,
                    "ref_s": at_reference_speed(
                        cpu, (before + calibration) / 2
                    ),
                    "analyze_s": stats["analyze_seconds"],
                }
            )
            if index < self.LAUNCHES - 1:
                self._stop(proc, client)
        self.proc, self.client = proc, client
        self.generation = client.stats()["sessions"][self.SESSION][
            "generation"
        ]

    def setup_samples(self) -> list:
        return [launch["ref_s"] for launch in self.launches]

    def cpu_seconds(self) -> float:
        """The client thread's CPU time plus the daemon's."""
        import time

        return time.thread_time() + thread_cpu_seconds(self.proc.pid)

    def verify_setup(self) -> None:
        for problem in obs_sinks_active():
            self.run_problems.append(f"active {problem}")

    def close(self) -> None:
        if self.proc is not None:
            self._stop(self.proc, self.client)
            self.proc = None

    # -- ops -----------------------------------------------------------------

    def op(self, key, rec):
        move = self.moves[key]
        client = self.client
        pins = move["pins"]
        with rec.span("serve.move"):
            moved = client.move_instance(
                move["inst"], move["x"] + move["dx"], move["y"]
            )
        with rec.span("serve.query_batch"):
            away = client.query_batch(pins)
        with rec.span("serve.move"):
            back = client.move_instance(move["inst"], move["x"], move["y"])
        with rec.span("serve.query_batch"):
            home = client.query_batch(pins)
        return moved, away, back, home

    def check(self, key, out) -> list:
        moved, away, back, home = out
        problems = []
        gen = self.generation
        if moved["generation"] != gen + 1 or back["generation"] != gen + 2:
            problems.append(
                f"generation {gen} -> {moved['generation']} -> "
                f"{back['generation']}, expected +1 per move"
            )
        self.generation = back["generation"]
        if any(a["generation"] != moved["generation"] for a in away):
            problems.append("batch after the move is not on its snapshot")
        expected = self.moves[key]["expected"]
        for answer in home:
            if answer["generation"] != back["generation"]:
                problems.append("batch after the move-back is stale")
                break
            wire = {k: v for k, v in answer.items() if k != "generation"}
            if wire != expected[f"{answer['instance']}/{answer['pin']}"]:
                problems.append(
                    f"{answer['instance']}/{answer['pin']} differs from "
                    "the from-scratch answer after the move-back"
                )
        return problems

    def _histograms(self) -> dict:
        from repro.obs.metrics import parse_prometheus

        samples = parse_prometheus(self.client.metrics())
        out = {}
        for op in ("move_instance", "query_batch"):
            base = f"serve_latency_{op}"
            out[op] = (
                samples[f"{base}_sum"][0][1],
                samples[f"{base}_count"][0][1],
            )
        return out

    def before_op(self, traced: bool) -> None:
        if traced and self.snap is None:
            self.snap = self._histograms()
        elif not traced:
            self.snap = None

    def after_op(self, key, out, traced: bool) -> dict:
        if not traced:
            return {}
        before, after = self.snap, self._histograms()
        self.snap = after
        extra = {}
        for op in ("move_instance", "query_batch"):
            d_sum = after[op][0] - before[op][0]
            d_count = after[op][1] - before[op][1]
            if d_count != 2:
                self.run_problems.append(
                    f"{op} histogram moved by {d_count}, expected 2"
                )
            extra[op] = d_sum
        moved, away, back, home = out
        extra["update"] = moved["update_seconds"] + back["update_seconds"]
        return extra

    def counts(self, key, out) -> dict:
        moved, away, back, home = out
        return {"serve.pins_answered": len(away) + len(home)}

    def layers(self, spans: dict, extra: dict) -> dict:
        move_rtt = spans.get("serve.move", 0.0)
        batch_rtt = spans.get("serve.query_batch", 0.0)
        move_server = extra["move_instance"]
        batch_server = extra["query_batch"]
        return {
            "serve.move_rtt_ms": move_rtt * 1e3,
            "serve.query_batch_rtt_ms": batch_rtt * 1e3,
            "serve.move_server_ms": move_server * 1e3,
            "serve.query_batch_server_ms": batch_server * 1e3,
            "serve.wire_wait_ms": (
                move_rtt + batch_rtt - move_server - batch_server
            ) * 1e3,
            "core.incremental_update_ms": extra["update"] * 1e3,
            "serve.move_snapshot_ms": (move_server - extra["update"]) * 1e3,
        }

    def extra_layers(self) -> dict:
        """Run-level layer figures: launches, parse cost, daemon counts."""
        import statistics
        import time

        from repro.lefdef import parse_def, parse_lef

        key = self.design_id
        lef_text = read_text(self.path(f"{key}.lef"))
        def_text = read_text(self.path(f"{key}.def"))
        parses = []
        for _ in range(5):
            t0 = time.perf_counter()
            tech, masters = parse_lef(lef_text)
            parse_def(def_text, tech, masters)
            parses.append(time.perf_counter() - t0)
        stats = self.client.stats()["sessions"][self.SESSION]
        return {
            "lefdef.parse_ms": statistics.median(parses) * 1e3,
            "serve.session_analyze_s": statistics.median(
                launch["analyze_s"] for launch in self.launches
            ),
            "serve.ready_s": statistics.median(
                launch["ready_s"] for launch in self.launches
            ),
            "serve.moves": stats["moves"],
            "apcache.entries": stats["cache_entries"],
        }

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM), not the client's."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")


WORKLOAD_CLASSES = {
    cls.name: cls for cls in (AnalyzeCold, RoutePao, ServeEco)
}
