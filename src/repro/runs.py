"""Resumable, process-isolated run directories.

``repro compare run`` hands each (case, flow) pair to this module as a
:class:`Unit`.  A unit owns one directory::

    spec.json       the unit's identity, including its ``fingerprint``
    status.json     repro.sweep.status/v1: running | done | failed |
                    timeout (+ error, wall time)
    flow.json       the JSON payload the unit's work returned
    log.txt         the worker's captured stdout/stderr

:func:`run_units` reuses a unit whose status is ``done``, whose
record carries the planned fingerprint and whose result file parses.
Any other unit directory is scrubbed and the unit runs again in its
own worker process, at most ``workers`` at a time: a worker that
crashes is recorded ``failed``, one that outlives the deadline is
terminated and recorded ``timeout``, and neither stops the others.
Where processes cannot be started at all, units run inline (same
worker code, no isolation and no deadline).

The status schema and the two test hooks keep their historical
``sweep`` names, which status files on disk and CI's compare-smoke job
use.  The hooks exist purely for the resumability tests:
``REPRO_SWEEP_TEST_CRASH`` hard-kills a worker whose key contains the
value (simulating a mid-run crash that leaves a ``running`` status
behind) and ``REPRO_SWEEP_TEST_HANG`` makes it sleep forever
(exercising the timeout path).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable

STATUS_SCHEMA = "repro.sweep.status/v1"

#: A unit's identity record and its work's result, inside its directory.
RECORD_FILE = "spec.json"
RESULT_FILE = "flow.json"

#: Worker exit code for the simulated crash (tests only).
CRASH_EXIT_CODE = 23


@dataclass(frozen=True)
class Unit:
    """One resumable unit of work and the directory it runs in.

    ``record`` is written to :data:`RECORD_FILE` whenever the directory
    is (re)created and must hold the unit's ``fingerprint``.  ``work``
    is called with no arguments in the worker and returns the payload
    saved to :data:`RESULT_FILE`; it must pickle (a module-level
    function or a :func:`functools.partial` of one).
    """

    key: str
    directory: str
    record: dict
    work: Callable[[], dict]


def write_json(path: str, payload) -> None:
    """Write ``payload`` as JSON atomically (temp file, then rename)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def read_json(path: str):
    """Return the JSON at ``path``, or None if unreadable or corrupt."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def run_units(
    units, workers: int, timeout_s: float, out=None, force: bool = False
) -> dict:
    """Run every unit that cannot be reused; return ``{key: state}``.

    Reused units read ``cached`` (all units re-run under ``force``);
    the rest end ``done``, ``failed`` or ``timeout``.
    """
    out = out or (lambda *_: None)
    states = {}
    pending = deque()
    for unit in units:
        if not force and _reusable(unit):
            states[unit.key] = "cached"
            out(f"[cached] {unit.key}")
        else:
            _scrub(unit)
            pending.append(unit)

    live = {}
    context = multiprocessing.get_context()
    while pending or live:
        while pending and len(live) < max(1, workers):
            unit = pending.popleft()
            try:
                process = context.Process(
                    target=_entry, args=(unit,), name=f"run-{unit.key}"
                )
                process.start()
            except OSError:
                # Platforms without process support degrade to
                # in-process execution (no timeout enforcement).
                states[unit.key] = _finalize(unit, _main(unit), out)
                continue
            live[unit.key] = (unit, process, time.monotonic() + timeout_s)
        if not live:
            continue
        time.sleep(0.02)
        for key, (unit, process, deadline) in list(live.items()):
            if process.is_alive():
                if time.monotonic() < deadline:
                    continue
                process.terminate()
                process.join(5.0)
                if process.is_alive():  # pragma: no cover
                    process.kill()
                    process.join(5.0)
                _finish(unit, "timeout", error=f"exceeded {timeout_s:g}s")
                states[key] = "timeout"
                out(f"[timeout] {key}")
            else:
                process.join()
                states[key] = _finalize(unit, process.exitcode, out)
            del live[key]
    return states


def _reusable(unit: Unit) -> bool:
    status = read_json(os.path.join(unit.directory, "status.json")) or {}
    record = read_json(os.path.join(unit.directory, RECORD_FILE)) or {}
    return (
        status.get("state") == "done"
        and record.get("fingerprint") == unit.record["fingerprint"]
        and read_json(os.path.join(unit.directory, RESULT_FILE)) is not None
    )


def _scrub(unit: Unit) -> None:
    if os.path.isdir(unit.directory):
        shutil.rmtree(unit.directory)
    os.makedirs(unit.directory)
    write_json(os.path.join(unit.directory, RECORD_FILE), unit.record)


def _write_status(unit: Unit, state: str, **extra) -> None:
    payload = {"schema": STATUS_SCHEMA, "state": state, "key": unit.key}
    payload.update(extra)
    write_json(os.path.join(unit.directory, "status.json"), payload)


def _finish(unit: Unit, state: str, **extra) -> None:
    _write_status(unit, state, finished_unix=round(time.time(), 3), **extra)


# -- the worker ---------------------------------------------------------------


def _main(unit: Unit) -> int:
    """Execute one unit; return the process exit code (0 on success)."""
    with open(os.path.join(unit.directory, "log.txt"), "a") as log:
        old_out, old_err = sys.stdout, sys.stderr
        sys.stdout = sys.stderr = log
        try:
            _write_status(
                unit,
                "running",
                pid=os.getpid(),
                started_unix=round(time.time(), 3),
            )
            _test_hooks(unit.key)
            started = time.perf_counter()
            result = unit.work()
            wall_s = round(time.perf_counter() - started, 6)
            write_json(os.path.join(unit.directory, RESULT_FILE), result)
            _finish(unit, "done", wall_s=wall_s)
            return 0
        except Exception as exc:
            traceback.print_exc(file=log)
            _finish(unit, "failed", error=f"{type(exc).__name__}: {exc}")
            return 1
        finally:
            sys.stdout, sys.stderr = old_out, old_err


def _entry(unit: Unit):  # pragma: no cover - runs in the child
    sys.exit(_main(unit))


def _test_hooks(key: str) -> None:
    crash = os.environ.get("REPRO_SWEEP_TEST_CRASH")
    if crash and crash in key:
        # Simulate a hard crash: no status update, no cleanup.  The
        # parent (or the next run) must cope with the stale
        # ``running`` state this leaves behind.
        os._exit(CRASH_EXIT_CODE)
    hang = os.environ.get("REPRO_SWEEP_TEST_HANG")
    if hang and hang in key:
        while True:  # pragma: no cover - killed by the timeout path
            time.sleep(0.2)


def _finalize(unit: Unit, exitcode: int, out) -> str:
    """Reconcile a finished worker's on-disk state with its exit code."""
    status = read_json(os.path.join(unit.directory, "status.json")) or {}
    state = status.get("state")
    if state == "done" and exitcode == 0:
        out(f"[done] {unit.key} ({status.get('wall_s', 0):.2f}s)")
        return "done"
    if state != "failed":
        # The worker died without reaching its own failure handler
        # (hard crash, signal): record what the parent knows.
        _finish(
            unit,
            "failed",
            error=f"worker exited with code {exitcode}",
            returncode=exitcode,
        )
    out(f"[failed] {unit.key} (exit {exitcode})")
    return "failed"
