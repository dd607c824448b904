"""Stress the cache's locks from many threads at once.

The LRU core and the query cache already take internal locks; these
tests drive them the way the threaded serving layer does -- concurrent
reads, writes and write-through invalidations -- and assert nothing tears:
no exceptions, no stale reads after an invalidating write, bounded size.
"""

import threading

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
            elif i % 50 == 0:
                cache.clear()
            else:
                cache.get(key)

    _run_threads(8, hammer)
    assert len(cache) <= 64


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
