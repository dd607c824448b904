"""Unit tests for the invalidation bus and the individual cache layers."""

import gc
import weakref

from repro.cache import FacetedQueryCache, InvalidationBus, bump_policy_epoch
from repro.cache.query_cache import QUERY_CACHE_MAX_ROWS
from repro.db import Database, MemoryBackend, Query
from repro.db.expr import eq
from repro.form import FORM


def test_bus_counts_write_generations_per_table():
    bus = InvalidationBus()
    bus.publish("Paper")
    bus.publish("Paper")
    bus.publish("Review")
    assert bus.events_published == 3
    assert bus.write_generation("Paper") == 2
    assert bus.write_generation("Review") == 1
    assert bus.write_generation("Unknown") == 0


def test_bus_publish_all_is_one_event_over_every_table():
    bus = InvalidationBus()
    bus.publish("A")
    bus.publish_all(["B"])  # B was never written before the clear
    assert bus.events_published == 2
    assert (bus.write_generation("A"), bus.write_generation("B")) == (2, 1)
    assert bus.write_generation("C") == 0


def test_bus_schema_generation_bumps():
    bus = InvalidationBus()
    assert bus.schema_generation == 0
    bus.schema_changed()
    bus.schema_changed("Dropped")
    assert bus.schema_generation == 2
    assert bus.write_generation("Dropped") == 1


def test_bus_stamp_grows_with_writes_schema_changes_and_epoch_bumps():
    bus = InvalidationBus()
    stamps = [bus.stamp()]
    for change in (lambda: bus.publish("T"), bus.schema_changed, bump_policy_epoch):
        change()
        stamps.append(bus.stamp())
    assert stamps == sorted(stamps) and len(set(stamps)) == 4


def test_query_cache_keys_differ_by_query_and_schema_generation():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    query_a = Query(table="Paper")
    query_b = Query(table="Paper", where=eq("title", "x"))
    key_a = cache.key_for("Paper", query_a)
    assert key_a == cache.key_for("Paper", query_a)
    assert key_a != cache.key_for("Paper", query_b)
    stamp = cache.stamp_for(bus, query_a)
    cache.put(key_a, stamp, ([{"jid": 1, "title": "x"}], [()]), 1)
    assert cache.get(key_a, cache.stamp_for(bus, query_a)) is not None
    bus.schema_changed()
    assert cache.stamp_for(bus, query_a) != stamp
    assert cache.get(key_a, cache.stamp_for(bus, query_a)) is None


def test_query_cache_stores_no_result_of_more_rows_than_its_bound():
    """The bound counts the statement's rows, not the stored value's
    length: a read's value is one ``(states, branches)`` pair."""
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    query = Query(table="Paper")
    key, stamp = cache.key_for("Paper", query), cache.stamp_for(bus, query)
    value = ([{"jid": 1}], None)
    cache.put(key, stamp, value, QUERY_CACHE_MAX_ROWS + 1)
    assert cache.get(key, stamp) is None
    cache.put(key, stamp, value, QUERY_CACHE_MAX_ROWS)
    assert cache.get(key, stamp) == value


def test_query_cache_write_through_invalidation_per_table():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    paper, review = Query(table="Paper"), Query(table="Review")
    paper_key = cache.key_for("Paper", paper)
    review_key = cache.key_for("Review", review)
    cache.put(paper_key, cache.stamp_for(bus, paper), ([{"jid": 1, "title": "x"}], [()]), 1)
    cache.put(review_key, cache.stamp_for(bus, review), ([{"jid": 1, "score": 3}], [()]), 1)
    bus.publish("Paper")
    assert cache.get(paper_key, cache.stamp_for(bus, paper)) is None
    assert cache.get(review_key, cache.stamp_for(bus, review)) is not None
    bus.publish_all(["Paper", "Review"])  # Database.clear()
    assert cache.get(review_key, cache.stamp_for(bus, review)) is None
    # A stale entry is a miss, and the next fill overwrites it.
    stats = cache.stats
    assert (stats.hits, stats.misses, len(cache)) == (1, 2, 2)
    cache.put(paper_key, cache.stamp_for(bus, paper), ([{"jid": 1, "title": "y"}], [()]), 1)
    assert cache.get(paper_key, cache.stamp_for(bus, paper)) == ([{"jid": 1, "title": "y"}], [()])
    assert len(cache) == 2


def test_query_cache_join_entries_invalidated_by_any_joined_table():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    join_query = Query(table="Guest").join("Event", "event_id", "jid")
    key = cache.key_for("Guest", join_query)
    cache.put(key, cache.stamp_for(bus, join_query), ([{"jid": 1, "name": "alice"}], [()]), 1)
    bus.publish("Event")  # write to the joined table, not the base table
    assert cache.get(key, cache.stamp_for(bus, join_query)) is None


def test_query_cache_served_from_real_database_bus():
    db = Database(MemoryBackend())
    db.define_table("T", )
    cache = FacetedQueryCache()
    query = Query(table="T")
    key = cache.key_for("T", query)
    cache.put(key, cache.stamp_for(db.invalidation, query), ([{"jid": 1}], [()]), 1)
    assert cache.get(key, cache.stamp_for(db.invalidation, query)) is not None
    db.insert("T")
    assert cache.get(key, cache.stamp_for(db.invalidation, query)) is None


def test_query_cache_key_changes_after_write_to_any_involved_table():
    """The stamp a lookup carries changes after a write to any table the
    query reads, subquery tables included, and only then."""
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    plain = Query(table="Paper")
    joined = Query(table="Guest").join("Event", "event_id", "jid")
    nested = Query(table="Paper").in_subquery(
        "jid", Query(table="Review").select("paper")
    )
    stamps = {query: cache.stamp_for(bus, query) for query in (plain, joined, nested)}
    bus.publish("Unrelated")
    assert {query: cache.stamp_for(bus, query) for query in stamps} == stamps
    bus.publish("Paper")
    assert cache.stamp_for(bus, plain) != stamps[plain]
    bus.publish("Event")  # joined table only
    assert cache.stamp_for(bus, joined) != stamps[joined]
    stamp = cache.stamp_for(bus, nested)
    bus.publish("Review")  # read only inside the subquery
    assert cache.stamp_for(bus, nested) != stamp


def test_stale_put_after_concurrent_write_is_never_served():
    bus = InvalidationBus()
    cache = FacetedQueryCache()
    query = Query(table="Paper")
    key = cache.key_for("Paper", query)
    stamp = cache.stamp_for(bus, query)  # taken before the statement runs
    bus.publish("Paper")  # a writer lands between read and fill
    cache.put(key, stamp, ([{"jid": 1, "title": "stale"}], [()]), 1)
    assert cache.get(key, cache.stamp_for(bus, query)) is None


def test_discarded_form_caches_are_collected():
    """The bus holds no reference to any cache, so the caches of a FORM
    that goes away are collected while its database lives on."""
    database = Database(MemoryBackend())
    form = FORM(database)
    caches = weakref.ref(form.caches)
    del form
    gc.collect()
    assert caches() is None
    database.close()

