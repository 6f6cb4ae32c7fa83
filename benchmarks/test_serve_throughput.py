"""Serving-layer throughput: wire-protocol latency and batch rates.

Measures the ``repro.serve`` daemon end to end over a Unix socket:

* warm single-query latency (p50/p99 over 2000 round-trips), the
  interactive placement-loop cost of asking the oracle one question;
* ``query_batch`` throughput in pins/second with 1 and 4 concurrent
  client connections, the bulk-evaluation path;
* one ``move_instance`` edit latency, the write-path cost of an
  incremental repair plus snapshot publication;
* the telemetry A/B: the same workload from a tracing client against
  a second server with wire tracing on (``repro serve --telemetry``)
  quantifies the traced overhead, recorded in the envelope context --
  the untraced numbers above are the headline and must not regress.

Results go into ``BENCH_serve.json`` at the repo root (shared
``repro.qa.bench/v1`` envelope).  Correctness is asserted
unconditionally: every served answer must equal the in-process
:class:`PinAccessOracle` answer bit for bit, and concurrent batches
must carry a single generation stamp.

Set ``REPRO_BENCH_SMOKE=1`` (CI) to shrink the design and skip the
JSON append.
"""

import os
import pathlib
import threading
import time

from repro.bench import build_testcase
from repro.core.oracle import PinAccessOracle
from repro.report import format_table
from repro.serve import OracleClient, OracleServer
from repro.serve.protocol import answer_to_wire

from repro.qa.metrics import bench_entry

from benchmarks.conftest import (
    append_bench_entry,
    publish,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SCALE = 0.004 if SMOKE else 0.01
SINGLES = 200 if SMOKE else 2000
BATCH_ROUNDS = 2 if SMOKE else 10
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_serve.json"


def _all_pins(design):
    pins = []
    for inst in design.instances.values():
        for pin in inst.master.signal_pins():
            pins.append((inst.name, pin.name))
    return pins


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _batch_rate(address, pins, threads, rounds, trace=False):
    """Pins/second of ``query_batch`` across ``threads`` connections."""
    done = []
    lock = threading.Lock()

    def worker():
        with OracleClient(address, trace=trace) as client:
            for _ in range(rounds):
                answers = client.query_batch(pins)
                assert len(answers) == len(pins)
                generations = {a["generation"] for a in answers}
                assert len(generations) == 1
            with lock:
                done.append(rounds * len(pins))

    runners = [
        threading.Thread(target=worker) for _ in range(threads)
    ]
    t0 = time.perf_counter()
    for t in runners:
        t.start()
    for t in runners:
        t.join()
    elapsed = time.perf_counter() - t0
    return sum(done) / max(1e-9, elapsed), elapsed


def test_serve_throughput(once, tmp_path):
    design = build_testcase("ispd18_test1", scale=SCALE)
    hosted = once(PinAccessOracle, design)
    server = OracleServer(
        ("unix", str(tmp_path / "serve.sock")),
        sessions={"bench": hosted},
    )
    server.start()
    address = server.address
    pins = _all_pins(design)

    try:
        # Parity first: every wire answer equals the in-process oracle.
        oracle = PinAccessOracle(design)
        with OracleClient(address) as client:
            served = client.query_batch(pins)
        want = [
            answer_to_wire(oracle.query(inst, pin), 0)
            for inst, pin in pins
        ]
        assert served == want

        # Warm single-query latency over one persistent connection.
        latencies = []
        with OracleClient(address) as client:
            inst, pin = pins[0]
            for i in range(SINGLES):
                inst, pin = pins[i % len(pins)]
                t0 = time.perf_counter()
                client.query(inst, pin)
                latencies.append(time.perf_counter() - t0)

        rate1, batch1_s = _batch_rate(
            address, pins, threads=1, rounds=BATCH_ROUNDS
        )
        rate4, batch4_s = _batch_rate(
            address, pins, threads=4, rounds=BATCH_ROUNDS
        )

        # Write path: one placement edit, repair + snapshot publish.
        inst = list(design.instances.values())[3]
        site = design.tech.site_width
        with OracleClient(address) as client:
            t0 = time.perf_counter()
            moved = client.move_instance(
                inst.name,
                inst.location.x + 4 * site,
                inst.location.y,
            )
            move_s = time.perf_counter() - t0
        assert moved["generation"] == 1
    finally:
        server.stop()

    # Telemetry A/B: the same oracle behind a second server with
    # wire tracing on, driven by a tracing client -- every request
    # echoes its server spans.  Runs after the plain server stops so
    # the two never compete for cores; the overhead lands in the
    # envelope context, not perf.
    server_on = OracleServer(
        ("unix", str(tmp_path / "serve-telemetry.sock")),
        sessions={"bench": hosted},
        trace=True,
    )
    server_on.start()
    try:
        latencies_on = []
        with OracleClient(server_on.address, trace=True) as client:
            for i in range(SINGLES):
                inst, pin = pins[i % len(pins)]
                t0 = time.perf_counter()
                client.query(inst, pin)
                latencies_on.append(time.perf_counter() - t0)
        rate1_on, _ = _batch_rate(
            server_on.address, pins, threads=1, rounds=BATCH_ROUNDS,
            trace=True,
        )
    finally:
        server_on.stop()

    p50_ms = _percentile(latencies, 0.50) * 1e3
    p99_ms = _percentile(latencies, 0.99) * 1e3
    p50_on_ms = _percentile(latencies_on, 0.50) * 1e3

    entry = bench_entry(
        design.name,
        SCALE,
        design.stats()["num_std_cells"],
        perf={
            "query_p50_ms": round(p50_ms, 4),
            "query_p99_ms": round(p99_ms, 4),
            "batch_pins": len(pins),
            "batch_qps_1thread": round(rate1),
            "batch_qps_4threads": round(rate4),
            "move_ms": round(move_s * 1e3, 3),
            "analyze_s": round(hosted.analyze_seconds, 3),
        },
        derived={
            "thread_scaling": round(rate4 / max(1e-9, rate1), 2),
        },
        context={
            "telemetry": {
                "query_p50_ms_on": round(p50_on_ms, 4),
                "batch_qps_1thread_on": round(rate1_on),
                "query_p50_overhead_pct": round(
                    100.0 * (p50_on_ms - p50_ms) / max(1e-9, p50_ms),
                    1,
                ),
                "batch_qps_overhead_pct": round(
                    100.0 * (rate1 - rate1_on) / max(1e-9, rate1), 1
                ),
            },
        },
    )
    perf = entry["perf"]
    overhead = entry["context"]["telemetry"]

    rows = [
        ["single query p50", f"{p50_ms:.3f} ms", "-"],
        ["single query p99", f"{p99_ms:.3f} ms", "-"],
        ["batch x1 client", f"{batch1_s:.2f} s",
         f"{perf['batch_qps_1thread']}/s"],
        ["batch x4 clients", f"{batch4_s:.2f} s",
         f"{perf['batch_qps_4threads']}/s"],
        ["move_instance", f"{perf['move_ms']:.1f} ms", "-"],
        ["initial analyze", f"{perf['analyze_s']:.2f} s", "-"],
        ["p50 w/ telemetry", f"{p50_on_ms:.3f} ms",
         f"+{overhead['query_p50_overhead_pct']}%"],
        ["batch x1 w/ telemetry", "-",
         f"{overhead['batch_qps_1thread_on']}/s "
         f"(-{overhead['batch_qps_overhead_pct']}%)"],
    ]
    text = format_table(
        ["Path", "time", "pins/s"],
        rows,
        title=(
            f"Serving throughput on {design.name} "
            f"({entry['cells']} cells, {len(pins)} pins, "
            f"{entry['context']['cpu_count']} cores)"
        ),
    )
    publish("serve_throughput_smoke" if SMOKE else "serve_throughput",
            text)

    if not SMOKE:
        append_bench_entry(BENCH_JSON, entry)
