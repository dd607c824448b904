"""Observability overhead gate: disabled instrumentation must be (near) free.

The ``repro.obs`` contract is that every span/counter call site costs one
flag check while tracing is disabled.  This benchmark measures the warm
``view_all`` page of the conference application twice:

* **disabled** -- the shipped configuration: instrumentation present,
  tracing off (the real hot path);
* **stripped** -- the same run with every obs entry point monkeypatched to
  a bare no-op, i.e. what the code would cost if the instrumentation were
  deleted outright.

and gates ``disabled <= stripped * 1.05 + epsilon``: the disabled-path
regression budget is **5%**.  ``--smoke`` runs the same workload CI-sized
without the timing assertion; ``--trace`` enables tracing for one request
and prints its per-phase span-tree breakdown instead.

Usage::

    python benchmarks/bench_obs_overhead.py            # full gate
    python benchmarks/bench_obs_overhead.py --smoke    # CI-sized, no gate
    python benchmarks/bench_obs_overhead.py --trace    # per-phase breakdown
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Callable, List, Tuple

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro import obs  # noqa: E402
from repro.apps.conf.seed import seed_conference  # noqa: E402
from repro.apps.conf.views import build_conf_app, setup_conf  # noqa: E402
from repro.web import TestClient  # noqa: E402

BENCH_SIZE = 48
REPEATS = 200
ROUNDS = 5
#: Allowed disabled-vs-stripped regression (the acceptance bar: <5%).
OVERHEAD_BUDGET = 0.05
#: Absolute slack (seconds) so sub-millisecond pages don't fail on noise.
EPSILON = 0.002


def _client(size: int) -> TestClient:
    form = setup_conf()
    created = seed_conference(form, papers=size, users=size, pc_members=4)
    client = TestClient(build_conf_app(form))
    viewer = created["chair"][0]
    client.force_login(viewer.jid, viewer.name)
    return client


def _page(client: TestClient) -> None:
    response = client.get("/papers")
    assert response.ok


@contextlib.contextmanager
def stripped_obs():
    """Temporarily replace every obs entry point with a bare no-op.

    What the hot path would cost with the instrumentation deleted: the call
    sites remain (they are part of the product code) but none of them
    reaches a flag check.  Restores the real functions on exit.
    """
    saved = {
        "span": obs.span,
        "add": obs.add,
        "trace": obs.trace,
        "active": obs.active,
        "record_statement": obs.record_statement,
    }

    @contextlib.contextmanager
    def noop_trace(name, **attributes):
        yield None

    obs.span = lambda name, **attributes: obs.NOOP
    obs.add = lambda name, value=1: None
    obs.trace = noop_trace
    obs.active = lambda: False
    obs.record_statement = lambda event_: None
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(obs, name, fn)


def _time_rounds(operation: Callable[[], None], repeats: int, rounds: int) -> float:
    """Best-of-rounds total time for ``repeats`` warm page loads."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            operation()
        best = min(best, time.perf_counter() - start)
    return best


def measure(size: int = BENCH_SIZE, repeats: int = REPEATS, rounds: int = ROUNDS
            ) -> Tuple[float, float]:
    """(disabled, stripped) warm view_all totals on the memory backend."""
    obs.disable()
    client = _client(size)
    _page(client)  # warm the caches once; both variants measure warm pages
    disabled = _time_rounds(lambda: _page(client), repeats, rounds)
    with stripped_obs():
        stripped = _time_rounds(lambda: _page(client), repeats, rounds)
    return disabled, stripped


def trace_breakdown(size: int = BENCH_SIZE) -> List[str]:
    """The span-tree lines of one traced warm view_all request."""
    obs.disable()
    client = _client(size)
    _page(client)  # warm
    with obs.tracing():
        trace_id = client.get("/papers").headers["X-Trace-Id"]
        trace = obs.get_trace(trace_id)
    return trace.tree_lines()


# -- pytest entries ---------------------------------------------------------------------


def test_disabled_instrumentation_overhead_within_budget():
    """The acceptance bar: disabled-tracing warm view_all regresses <5%."""
    disabled, stripped = measure()
    budget = stripped * (1 + OVERHEAD_BUDGET) + EPSILON
    assert disabled <= budget, (
        f"disabled {disabled:.4f}s exceeds stripped {stripped:.4f}s "
        f"+ {OVERHEAD_BUDGET:.0%} budget ({budget:.4f}s)"
    )


def test_traced_request_reports_per_phase_breakdown():
    lines = trace_breakdown(size=8)
    text = "\n".join(lines)
    assert "GET /papers" in text
    assert "web.view" in text and "form.fetch" in text


# -- CLI --------------------------------------------------------------------------------


def run(smoke: bool) -> int:
    repeats = 30 if smoke else REPEATS
    rounds = 2 if smoke else ROUNDS
    size = 16 if smoke else BENCH_SIZE
    disabled, stripped = measure(size, repeats, rounds)
    overhead = (disabled - stripped) / stripped if stripped else 0.0
    print(
        f"warm view_all x{repeats}: disabled={disabled * 1000:.2f}ms  "
        f"stripped={stripped * 1000:.2f}ms  overhead={overhead:+.2%}  "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
    if not smoke and disabled > stripped * (1 + OVERHEAD_BUDGET) + EPSILON:
        print(
            f"FAIL: disabled instrumentation overhead {overhead:+.2%} "
            f"exceeds the {OVERHEAD_BUDGET:.0%} budget",
            file=sys.stderr,
        )
        return 1
    print("ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (no timing assertion)"
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the per-phase span-tree breakdown of one traced request",
    )
    args = parser.parse_args()
    if args.trace:
        for line in trace_breakdown():
            print(line)
        return 0
    return run(smoke=args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
