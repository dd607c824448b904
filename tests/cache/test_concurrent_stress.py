"""Stress the cache layers' locks from many threads at once.

The LRU core and the layered caches already take internal locks; these
tests drive them the way the threaded serving layer does -- concurrent
reads, writes and write-through invalidations -- and assert nothing tears:
no exceptions, no stale reads after an invalidating write, bounded size.
"""

import sys
import threading

from repro.cache import InvalidationBus, LabelResolutionCache
from repro.cache.lru import LRUCache
from repro.db import Database, MemoryBackend
from repro.form import CharField, FORM, JModel, use_form, viewer_context


class StressDoc(JModel):
    body = CharField(max_length=128)
    shard = CharField(max_length=16)


def _run_threads(count, target):
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        try:
            barrier.wait()
            target(index)
        except Exception as exc:  # pragma: no cover - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert errors == []


def test_lru_cache_parallel_mixed_operations():
    cache = LRUCache(max_entries=64)

    def hammer(index):
        for i in range(300):
            key = f"k{(index * 7 + i) % 96}"
            if i % 3 == 0:
                cache.put(key, (index, i))
            elif i % 7 == 0:
                cache.remove(key)
            else:
                cache.get(key)

    _run_threads(8, hammer)
    assert len(cache) <= 64


def test_label_memo_answers_only_under_the_fill_stamp():
    """Readers fill the memo with an outcome derived from their stamp while
    writers bump it; a lookup may answer only with the outcome of its own
    stamp, however fills, reclaims and writes interleave."""
    bus = InvalidationBus()
    cache = LabelResolutionCache()
    stale = []

    def traffic(index):
        for i in range(400):
            if index % 4 == 0 and i % 7 == 0:
                bus.publish("T")
                continue
            label = f"L{i % 5}"
            stamp = bus.stamp()
            outcome = cache.get(label, ("U", 1), stamp)
            if outcome is not None and outcome != (stamp[0] % 2 == 0):
                stale.append((label, stamp, outcome))
            cache.put(label, ("U", 1), stamp[0] % 2 == 0, stamp)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads(8, traffic)
    finally:
        sys.setswitchinterval(interval)
    assert stale == []
    assert bus.events_published == 2 * 58


def test_form_caches_consistent_under_concurrent_reads_and_writes():
    form = FORM(Database(MemoryBackend()))
    form.register(StressDoc)
    with use_form(form):
        for i in range(10):
            StressDoc.objects.create(body=f"seed-{i}", shard="warm")

    class Viewer:
        def __init__(self, name):
            self.name = name

    def traffic(index):
        viewer = Viewer(f"v{index}")
        with use_form(form):
            for i in range(40):
                if i % 5 == 0:
                    StressDoc.objects.create(body=f"w{index}-{i}", shard="hot")
                with viewer_context(viewer):
                    docs = StressDoc.objects.filter(shard="warm").fetch()
                    assert len(docs) == 10
                    assert all(doc.body.startswith("seed-") for doc in docs)

    _run_threads(8, traffic)

    # Post-run: the cache must not have pinned a pre-write result.
    with use_form(form):
        with viewer_context(Viewer("after")):
            hot = StressDoc.objects.filter(shard="hot").fetch()
    assert len(hot) == 8 * 8  # every write visible after the storm
