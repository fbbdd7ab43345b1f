"""Injectable worker tasks for executor tests.

These live in an importable module (not the test file) because worker
processes resolve tasks by ``module:function`` reference; the executor
only ships the JSON payload, never a callable.
"""

from __future__ import annotations

import os
import time


def echo_task(payload: dict) -> dict:
    """Return the cell's value; also logs to prove execution happened."""
    params = payload["params"]
    log = params.get("log_file")
    if log:
        with open(log, "a") as handle:
            handle.write(f"{params.get('value')}\n")
    return {"echo": params.get("value")}


def error_task(payload: dict) -> dict:
    """A job that raises a normal Python exception."""
    raise RuntimeError("injected failure")


def crash_task(payload: dict) -> dict:
    """A job that hard-kills its worker (simulates a segfault/OOM kill)."""
    os._exit(13)


def stopper_task(payload: dict) -> dict:
    """Drops a sentinel file, then lingers so a watcher thread can set a
    stop event while this job is still the one in flight."""
    params = payload["params"]
    with open(params["stop_file"], "w") as handle:
        handle.write("stop\n")
    time.sleep(params.get("linger_seconds", 0.3))
    return {"echo": params.get("value")}


def sleep_task(payload: dict) -> dict:
    """A job that wedges far past any reasonable wall timeout."""
    time.sleep(payload["params"].get("sleep_seconds", 600))
    return {"slept": True}


def flaky_task(payload: dict) -> dict:
    """Fails on the first attempt, succeeds once a sentinel file exists."""
    sentinel = payload["params"]["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("attempted\n")
        raise RuntimeError("first attempt always fails")
    return {"recovered": True}


def stats_task(payload: dict) -> dict:
    """A job that reports per-solve telemetry like degradation_task does."""
    params = payload["params"]
    return {
        "echo": params.get("value"),
        "solve_seconds": 0.5,
        "stats": {
            "rows": 10, "cols": 4, "nnz": 20, "num_integer": 2,
            "build_seconds": 0.25, "compile_seconds": 0.125,
            "solve_seconds": 0.5, "backend": "milp",
            "max_abs_coefficient": float(params.get("coef", 8.0)),
            "max_abs_rhs": 12.0, "dual_mode": "none",
            "incremental": False, "compile_cached": False,
        },
    }


def pid_task(payload: dict) -> dict:
    """Report which process ran the job (warm-worker reuse tests)."""
    return {"pid": os.getpid(), "echo": payload["params"].get("value")}
