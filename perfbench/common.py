"""Shared plumbing of the PAO benchmark: paths, statistics and spans.

Every benchmark process (the driver ``run.py``, the input generator
``gen.py`` and the measuring ``worker.py``) imports this module first.
It knows where the checkout's ``src`` tree is, so the program under
test is always the one in this checkout, and refuses to go on when
that tree is missing.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

#: Scratch space of one run (generated inputs, daemon socket, AP
#: cache); removed when the run ends.
WORK_ROOT = os.path.join(HERE, ".work")
#: Result details and span dumps; kept for inspection after a run.
OUT_ROOT = os.path.join(HERE, "out")

WORKLOADS = ("analyze_cold", "route_pao", "serve_eco")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, failed step)."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child processes: this checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # numpy's thread pools would contend with the daemon and the
    # client for the same cores; the program itself is single-threaded.
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


def thread_cpu_seconds(pid: int) -> float:
    """CPU time of every live thread of process ``pid``, in seconds.

    Read from ``/proc/<pid>/task/*/schedstat`` (ns precision).  Like
    ``time.thread_time()`` it leaves out time the process waited for a
    core, whether another process or the hypervisor held it.
    """
    task_dir = f"/proc/{pid}/task"
    total = 0
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "schedstat")) as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            continue  # the thread ended between listdir and open
    return total / 1e9


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    The calibration pass then runs on the same core as the work it
    scales, the serve daemon's included.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- calibration --------------------------------------------------------------

#: CPU seconds of one ``calibration_pass`` on the reference host (the
#: 2-core host the bounds were set on, in a quiet phase).  Timed CPU
#: figures are scaled by ``CALIBRATION_REF_S / measured pass`` so they
#: read as on that host whatever speed the shared host runs at.
CALIBRATION_REF_S = 0.0055


def calibration_pass() -> float:
    """CPU seconds of a fixed stdlib-only pass of dict, tuple and sort work.

    It exercises what the program's analysis does most (small tuples,
    dict updates, list growth, sorting) and is independent of the code
    under test, so a faster program shows in full while a slow phase of
    the shared host slows both alike.
    """
    import gc
    import random

    gc.collect()
    c0 = time.thread_time()
    rng = random.Random(1)
    counts = {}
    items = []
    for i in range(4000):
        key = (rng.randrange(5000), rng.randrange(50))
        counts[key] = counts.get(key, 0) + 1
        items.append((i, key, [i, i + 1]))
    items.sort(key=lambda item: item[1])
    return time.thread_time() - c0


def at_reference_speed(cpu_s: float, calibration_s: float) -> float:
    """Scale CPU seconds measured next to ``calibration_s`` to the reference host."""
    return cpu_s * CALIBRATION_REF_S / calibration_s


def read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def last_json_line(text: str) -> dict:
    """Parse the last non-empty line of a child's stdout as JSON."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("child printed no result")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"child result is not JSON: {lines[-1]!r}") from exc


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile, ``fraction`` in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return float(ordered[int(rank) - 1])


def samples_beyond(values, fraction: float) -> int:
    """How many samples lie strictly above the ``fraction`` percentile."""
    cut = percentile(values, fraction)
    return sum(1 for v in values if v > cut)


# -- spans --------------------------------------------------------------------


class SpanRecorder:
    """In-memory span log: name, start, duration, parent and op id.

    Spans nest through an explicit stack, so a span's parent is the
    innermost span open when it began.  ``record`` adds a child span
    whose duration the program measured itself (the per-step wall
    clocks of ``PinAccessResult.timings``); it has no start time.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def span(self, name: str):
        return _Span(self, name)

    def record(self, name: str, seconds: float) -> None:
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "t0": None,
                "dur": float(seconds),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
            }
        )


class _Span:
    __slots__ = ("rec", "name", "index", "t0")

    def __init__(self, rec: SpanRecorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.spans)
        rec.spans.append(
            {
                "id": self.index,
                "name": self.name,
                "t0": None,
                "dur": None,
                "parent": rec._stack[-1] if rec._stack else None,
                "op": rec.op,
            }
        )
        rec._stack.append(self.index)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        rec = self.rec
        rec._stack.pop()
        record = rec.spans[self.index]
        record["t0"] = self.t0
        record["dur"] = t1 - self.t0
        return False


class NullRecorder:
    """The untraced recorder: every span is one shared no-op context."""

    op = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def record(self, name: str, seconds: float) -> None:
        pass


def op_span_seconds(spans: list) -> dict:
    """Sum span durations per op id and span name: ``{op: {name: s}}``."""
    out = {}
    for span in spans:
        if span["op"] is None:
            continue
        bucket = out.setdefault(span["op"], {})
        bucket[span["name"]] = bucket.get(span["name"], 0.0) + span["dur"]
    return out
