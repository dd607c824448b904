"""Run one benchmark workload against the program in ``src/``.

    python3 perfbench/run.py --workload conf-pages --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload is set up several times (``setup_s`` is their median), then its
seeded schedule runs in a closed loop for ``--seconds``.  Its timings are
given at the host's reference speed, which ``probe.py`` tracks beside the
loop; the raw ones print above the result line.  ``--trace 1``
runs a fixed prefix of the same schedule twice, once with the per-layer
timing wrappers and ``repro.obs`` tracing on and once without, and reports
the per-layer metrics.  Every response passes the policy-compliance oracle.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric, including the per-page and per-call latencies, by name
with its unit.  The exit code is 0 when every operation succeeded and
complied, 1 when one did not, and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

import probe

ROOT = Path(__file__).resolve().parent.parent
#: failures whose traceback is printed (standard error) before going quiet.
SHOWN_FAILURES = 5


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def settle() -> None:
    """Collect, then freeze the surviving heap (the set-up's data).

    The cyclic collector then skips the set-up's objects, and every
    operation starts from an empty young generation (:meth:`Tally.run`
    collects before it, untimed), so the collections that run inside an
    operation depend on that operation alone, not on where the previous
    one left the allocation counters.
    """
    gc.collect()
    gc.freeze()


def unsettle(workload: Any) -> None:
    """Undo :func:`settle` and drop the workload's stacks."""
    gc.unfreeze()
    workload.close()
    gc.collect()


class Tally:
    """Attempted and failed operations, and per-kind latencies."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.leaks = 0
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        #: the moment each latency was taken at: its operation's midpoint.
        self.moments: Dict[str, List[float]] = defaultdict(list)
        self.baseline: Dict[str, List[float]] = defaultdict(list)
        #: the largest share of an operation's wall time its layers' self
        #: times added up to (traced runs only).
        self.self_share_max = 0.0

    def run(self, workload: Any, op: Any, tracer: Any = None, pair: bool = True) -> Optional[float]:
        """Run, check and (on success) record one operation.

        Returns the operation's seconds, or ``None`` when it failed.  With a
        ``tracer`` the summed self time of its wrapped calls is checked
        against the operation's wall time.
        """
        import workloads

        self.attempted += 1
        try:
            gc.collect()
            if tracer is not None:
                tracer.begin_op()
            seconds, result = workload.request(op)
            moment = time.perf_counter() - seconds / 2
            if tracer is not None:
                share = tracer.op_self_s() / seconds
                self.self_share_max = max(self.self_share_max, share)
                if share > 1:
                    raise workloads.Failure(
                        [f"layer self times {tracer.op_self_s():.6f}s exceed wall {seconds:.6f}s"],
                        leak=False,
                    )
            workload.check(op, result)
            if pair:
                gc.collect()
            baseline = workload.pair(op) if pair else None
        except workloads.Failure as failure:
            self._fail(op, failure, failure.leak)
            return None
        except Exception as error:  # noqa: BLE001 - a crashed operation is a failure
            self._fail(op, error, False)
            return None
        kind = workload.metric_kind(op)
        self.latencies[kind].append(seconds)
        self.moments[kind].append(moment)
        if baseline is not None:
            self.baseline[kind].append(baseline)
        return seconds

    def _fail(self, op: Any, error: BaseException, leak: bool) -> None:
        self.failed += 1
        self.leaks += leak
        if self.failed <= SHOWN_FAILURES:
            print(f"operation {op} failed:", file=sys.stderr)
            traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)

    def all_latencies(self) -> List[float]:
        return [value for values in self.latencies.values() for value in values]


def set_up(workload: Any) -> float:
    """Seed, build and warm the workload's stacks; returns the seconds."""
    started = time.perf_counter()
    workload.build()
    workload.warm_up()
    return time.perf_counter() - started


def scaled_set_up(workload: Any) -> tuple:
    """:func:`set_up`'s seconds, raw and at the host's reference speed (the
    slowdown is the mean of the probe's readings before and after)."""
    before = probe.measure()
    seconds = set_up(workload)
    return seconds, seconds * 2 / (before + probe.measure())


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload: Any, seconds: float) -> tuple:
    """The end-to-end metrics, tracing off.

    The timed loop takes operations in turn from the cycled schedule.  A
    workload with ``window_ops`` is set up again (untimed) before each
    window of that many operations, so its writes start from the seeded
    state every time; a window starts only when one fits in the time left,
    so every window it measures is whole.  Every timing is reported at the
    host's reference speed (``probe.py``); the raw ones print above the
    result line.
    """
    setups = []
    for index in range(workload.setups):
        if index:
            unsettle(workload)
        setups.append(scaled_set_up(workload))
    settle()
    tally = Tally()
    speed = probe.SpeedProbe()
    ops = itertools.cycle(workload.schedule)
    started = time.perf_counter()
    deadline = started + seconds
    windows = 0
    while True:
        if windows:
            elapsed = time.perf_counter() - started
            if not workload.window_ops or elapsed * (windows + 1) / windows > seconds:
                break
            unsettle(workload)
            setups.append(scaled_set_up(workload))
            settle()
        windows += 1
        for op in itertools.islice(ops, workload.window_ops or None):
            if time.perf_counter() >= deadline:
                break
            speed.update()
            tally.run(workload, op)
    speed.sample()
    unsettle(workload)
    kinds = [
        [value / speed.slowdown_at(moment) for value, moment in zip(values, tally.moments[kind])]
        for kind, values in tally.latencies.items()
    ]
    everything = [value for values in kinds for value in values]
    if not everything:
        raise SystemExit("no operation completed")
    metrics = {
        "setup_s": (statistics.median(scaled for _raw, scaled in setups), "s"),
        "peak_rss_mb": (rss_mb(), "MB"),
        "throughput_ops_s": (len(everything) / sum(everything), "1/s"),
        "kind_p50_geomean_ms": (
            statistics.geometric_mean(statistics.median(v) for v in kinds) * 1e3, "ms"),
        "kind_p90_geomean_ms": (
            statistics.geometric_mean(percentile(v, 0.90) for v in kinds) * 1e3, "ms"),
    }
    raw = tally.all_latencies()
    detail: Dict[str, tuple] = {}
    detail["host_slowdown"] = (sum(raw) / sum(everything), "ratio", len(raw))
    detail["raw_setup_s"] = (
        statistics.median(unscaled for unscaled, _scaled in setups), "s", len(setups))
    detail["latency_p50_ms"] = (statistics.median(raw) * 1e3, "ms", len(raw))
    detail["latency_p95_ms"] = (percentile(raw, 0.95) * 1e3, "ms", len(raw))
    for kind, values in sorted(tally.latencies.items()):
        detail[f"{kind}_p50_ms"] = (statistics.median(values) * 1e3, "ms", len(values))
        detail[f"{kind}_p95_ms"] = (percentile(values, 0.95) * 1e3, "ms", len(values))
    for kind, values in sorted(tally.baseline.items()):
        detail[f"baseline_{kind}_p50_ms"] = (statistics.median(values) * 1e3, "ms", len(values))
    if "papers_page" in tally.baseline:
        ratio = detail["papers_page_p50_ms"][0] / detail["baseline_papers_page_p50_ms"][0]
        detail["ratio.papers_vs_baseline"] = (ratio, "ratio (paper: <=1.75)", len(everything))
    detail["error_rate"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    detail["leaks"] = (tally.leaks, "count", tally.attempted)
    return tally, metrics, detail


def traced_run(workload: Any) -> tuple:
    """The per-layer metrics over a fixed prefix of the schedule."""
    from repro import obs

    import layers

    ops = workload.schedule[: workload.trace_ops]
    tally = Tally()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        with obs.tracing():
            set_up_traced = set_up(workload)
            for backend in workload.backends():
                tracer.observe(backend)
            for app in workload.apps():
                tracer.wrap_views(app)
            compile_ms = tracer.self_s["analysis.compile"] * 1e3
            tracer.reset()
            settle()
            counters_before = obs.totals.snapshot()
            caches_before = workload.cache_stats()
            traced = [tally.run(workload, op, tracer, pair=False) for op in ops]
            counters = obs.totals.snapshot()
            caches = workload.cache_stats()
    finally:
        tracer.uninstall()
    unsettle(workload)

    untraced_tally = Tally()
    set_up(workload)
    settle()
    untraced = [untraced_tally.run(workload, op) for op in ops]
    unsettle(workload)
    tally.attempted += untraced_tally.attempted
    tally.failed += untraced_tally.failed
    tally.leaks += untraced_tally.leaks

    def count(name: str) -> float:
        return counters.get(name, 0) - counters_before.get(name, 0)

    def cache(layer: str, stat: str) -> float:
        return caches[layer][stat] - caches_before[layer][stat]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    n = len(ops)
    per_op_ms = lambda layer: tracer.self_s[layer] * 1e3 / n  # noqa: E731
    pushed = count("plan.policy_pushdown")
    fast = count("writes.fast_path")
    served = sum(count(f"plan.index.{path}") for path in
                 ("hash_probe", "range_probe", "ordered_scan", "full_scan"))
    pairs = [(t, u) for t, u in zip(traced, untraced) if t is not None and u is not None]
    papers = untraced_tally.latencies.get("papers_page")
    baseline_papers = untraced_tally.baseline.get("papers_page")
    metrics = {
        "web.handle.self_ms": (per_op_ms("web.handle"), "ms"),
        "web.view.self_ms": (per_op_ms("web.view"), "ms"),
        "web.render.self_ms": (per_op_ms("web.render"), "ms"),
        "web.render.form_calls": (tracer.render_form_calls / n, "count"),
        "core.concretize.self_ms": (per_op_ms("core.concretize"), "ms"),
        "form.read.calls": (tracer.calls["form.read"] / n, "count"),
        "form.read.self_ms": (per_op_ms("form.read"), "ms"),
        "form.unmarshal.rows": (count("facet.rows.unmarshalled") / n, "count"),
        "form.policy.evals": (count("policy.evaluations") / n, "count"),
        "form.policy.self_ms": (per_op_ms("form.policy"), "ms"),
        "form.labels.resolved": (count("labels.resolved") / n, "count"),
        "form.pushdown.pushed_ratio": (
            share(pushed, pushed + count("plan.policy_pushdown.opaque_fallback")), "ratio"),
        "form.pushdown.store_refreshes": (count("pushdown.store.refresh") / n, "count"),
        "form.write.self_ms": (per_op_ms("form.write"), "ms"),
        "form.write.fast_path_ratio": (share(fast, fast + count("writes.fallback")), "ratio"),
        "cache.query.hit_ratio": (
            share(cache("queries", "hits"), cache("queries", "hits") + cache("queries", "misses")),
            "ratio"),
        "cache.query.evictions": (cache("queries", "evictions") / n, "count"),
        "cache.label.hit_ratio": (
            share(cache("labels", "hits"), cache("labels", "hits") + cache("labels", "misses")),
            "ratio"),
        "cache.label.invalidations": (cache("labels", "invalidations") / n, "count"),
        "db.statements": (tracer.statements / n, "count"),
        "db.rows": (tracer.rows / n, "count"),
        "db.sql.ms": (tracer.sql_s * 1e3 / n, "ms"),
        "db.decode.ms": (tracer.decode_s * 1e3 / n, "ms"),
        "db.plan.self_ms": (per_op_ms("db.plan"), "ms"),
        "db.index.full_scan_ratio": (share(count("plan.index.full_scan"), served), "ratio"),
        "db.write.ms": (per_op_ms("db.write"), "ms"),
        "analysis.compile_ms": (compile_ms, "ms"),
        "obs.trace_overhead": (
            share(sum(t for t, _ in pairs), sum(u for _, u in pairs)), "ratio"),
        "ratio.papers_vs_baseline": (
            share(statistics.median(papers), statistics.median(baseline_papers))
            if papers and baseline_papers else 0.0, "ratio"),
    }
    detail = {
        "traced_ops": (n, "count", n),
        "traced_setup_s": (set_up_traced, "s", 1),
        "layers.self_share_max": (tally.self_share_max, "ratio", n),
        "db.write.calls": (tracer.calls["db.write"] / n, "count", n),
        "db.read.calls": (tracer.calls["db.read"] / n, "count", n),
    }
    return tally, metrics, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            tally, metrics, detail = traced_run(workload)
        else:
            tally, metrics, detail = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run is using it

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}  leaks {tally.leaks}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    for name, (value, unit, samples) in detail.items():
        print(f"  {name:32s} {value:14.6f} {unit}  (n={samples})")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
