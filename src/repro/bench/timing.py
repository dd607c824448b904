"""Timing helpers.

The paper averages over 10 rapid sequential HTTP requests issued by
FunkLoad; :func:`time_request` does the same through the in-process test
client (the network constant is absent, the server-side work is identical).
:func:`time_best` times the benchmarks' speedup gates.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, Tuple


def time_callable(fn: Callable[[], Any], repeats: int = 10) -> Tuple[float, Any]:
    """Average wall-clock seconds per call over ``repeats`` calls.

    Returns ``(seconds_per_call, last_result)``.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    last = None
    start = time.perf_counter()
    for _ in range(repeats):
        last = fn()
    elapsed = time.perf_counter() - start
    return elapsed / repeats, last


def time_best(fn: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """The fastest of ``repeats`` calls, in wall-clock seconds.

    Returns ``(best_seconds, last_result)``.  The cyclic garbage collector
    runs once before the calls and is off while they run, so no call is
    timed collecting garbage.  It does not run between the calls: a full
    collection empties the interpreter's free lists, and a sub-millisecond
    call right after one is timed refilling them.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    best, last = float("inf"), None
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            last = fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best, last


def time_request(client, path: str, repeats: int = 10, **params: Any) -> Tuple[float, Any]:
    """Average seconds per GET request to ``path`` (checks it succeeded)."""

    def issue():
        response = client.get(path, **params)
        if response.status >= 400:
            raise RuntimeError(f"GET {path} failed with status {response.status}")
        return response

    return time_callable(issue, repeats=repeats)
