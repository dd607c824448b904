"""Unit tests for the generic LRU cache, its stamps and its statistics."""

import pytest

from repro.cache import MISSING, LRUCache


def test_put_get_roundtrip_and_miss():
    cache = LRUCache(max_entries=4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("missing") is None
    assert cache.get("missing", default="d") == "d"
    assert len(cache) == 1


def test_falsy_values_distinguishable_from_misses():
    cache = LRUCache(max_entries=4)
    cache.put("false", False)
    cache.put("none", None)
    assert cache.lookup("false") is False
    assert cache.lookup("none") is None
    assert cache.lookup("absent") is MISSING


def test_lru_eviction_order():
    cache = LRUCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh "a": "b" is now the LRU tail
    cache.put("c", 3)
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert cache.stats.evictions == 1


def test_stamped_entry_answers_only_under_its_stamp():
    cache = LRUCache(max_entries=8)
    cache.put("a", 1, stamp=(0, 1))
    assert cache.get("a", stamp=(0, 1)) == 1
    assert cache.get("a") is None  # no stamp is a stamp of its own
    assert cache.lookup("a", stamp=(0, 2)) is MISSING
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert "a" in cache  # a stale entry stays until overwritten
    cache.put("a", 2, stamp=(0, 2))
    assert cache.get("a", stamp=(0, 2)) == 2 and len(cache) == 1


def test_remove_and_clear_count_invalidations():
    """``clear()`` removes every entry and counts each as an invalidation."""
    cache = LRUCache(max_entries=8)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.clear() == 2
    assert cache.stats.invalidations == 2
    assert len(cache) == 0


def test_stats_hit_rate():
    cache = LRUCache(max_entries=8)
    cache.put("a", 1)
    cache.get("a")
    cache.get("a")
    cache.get("nope")
    stats = cache.stats
    assert stats.hits == 2 and stats.misses == 1
    assert stats.hit_rate == pytest.approx(2 / 3)
    snapshot = stats.snapshot()
    assert snapshot["hits"] == 2 and snapshot["hit_rate"] == pytest.approx(2 / 3)
    stats.reset()
    assert stats.lookups == 0 and stats.hit_rate == 0.0


def test_negative_max_entries_rejected():
    with pytest.raises(ValueError):
        LRUCache(max_entries=-1)


def test_max_entries_zero_is_rejected():
    """Every cache is bounded and stores something: no zero-size cache."""
    with pytest.raises(ValueError):
        LRUCache(max_entries=0)
