"""Property tests: ordered reads agree across the engines and with an oracle.

The memory engine keeps no ordered indexes: range, BETWEEN, prefix-LIKE
and ORDER BY reads are served by its full scan plus a stable sort, and
equality reads by its hash probes.  Randomized rows (NULLs, heavy
duplicates, case-varied text) are pushed through such queries on four
engines:

* the memory engine with its hash indexes on,
* the memory engine forced to scan (``use_indexes=False``),
* SQLite (with its own ``CREATE INDEX`` DDL),
* a naive Python oracle -- ``Expression.evaluate`` over the raw row dicts
  plus :func:`repro.db.query.apply_order` -- sharing no access-path code.

Ordered results compare as (order-key sequence, sorted row multiset) so
the backends' freedom in tie order never reads as a failure; bounded
(LIMIT/OFFSET) comparisons always append an ``id`` tiebreak, making the
kept subset fully deterministic.  SQL three-valued logic is part of the
contract: a NULL range bound makes the predicate UNKNOWN everywhere, and
NULL-valued rows never match a range but still order (last ascending,
first descending).
"""

import random

import pytest

from repro.db import (
    Column,
    ColumnType,
    Database,
    MemoryBackend,
    SqliteBackend,
    TableSchema,
    between,
    gt,
    gte,
    like,
    lt,
    lte,
)
from repro.db.expr import eq
from repro.db.query import Order, apply_order


def _schema():
    return TableSchema(
        "T",
        (
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("score", ColumnType.INTEGER, indexed=True),
            Column("rank", ColumnType.INTEGER),
            Column("name", ColumnType.TEXT),
            Column("tag", ColumnType.TEXT, indexed=True),
        ),
    )


NAMES = ["alpha", "Alpha", "alps", "beta", "Beta", "bet", "gamma", "ga_ma", None]


def _random_rows(rng, count):
    return [
        {
            "score": rng.choice(list(range(10)) + [None]),
            "rank": rng.choice([0, 1, 2, None]),
            "name": rng.choice(NAMES),
            "tag": rng.choice(["x", "y", "z", None]),
        }
        for _ in range(count)
    ]


PREDICATES = [
    ("between", lambda: between("score", 2, 7)),
    ("between-empty", lambda: between("score", 7, 2)),
    ("gt", lambda: gt("score", 4)),
    ("gte", lambda: gte("rank", 1)),
    ("lt", lambda: lt("name", "beta")),
    ("lte", lambda: lte("score", 3)),
    ("prefix-ci", lambda: like("name", "al%")),
    ("prefix-cs", lambda: like("name", "al%", case_sensitive=True)),
    ("underscore", lambda: like("name", "b_t%")),
    ("hash-eq", lambda: eq("tag", "x")),
    ("null-bound", lambda: between("score", None, 5)),
    ("none", lambda: None),
]

ORDERS = [
    (),
    (("score", True),),
    (("score", False),),
    (("name", True),),
    (("rank", False), ("name", True)),
]


def _orderable(value):
    return (value is None, type(value).__name__, 0 if value is None else value)


def _canonical(rows, order):
    frozen = [
        tuple(row[column] for column in ("id", "score", "rank", "name", "tag"))
        for row in rows
    ]
    multiset = sorted(frozen, key=lambda row: tuple(_orderable(v) for v in row))
    if order:
        keys = tuple(tuple(row[column] for column, _ in order) for row in rows)
        return (keys, multiset)
    return multiset


def _oracle(rows, where, order, limit=None, offset=0):
    matched = [dict(row) for row in rows if where is None or where.evaluate(row)]
    ordered = apply_order(matched, tuple(Order(c, asc) for c, asc in order))
    if limit is not None:
        ordered = ordered[offset:offset + limit]
    return ordered


def _fetch(database, where, order, limit=None, offset=0):
    query = database.query("T")
    if where is not None:
        query = query.filter(where)
    for column, ascending in order:
        query = query.ordered_by(column, ascending=ascending)
    if limit is not None:
        query = query.limited(limit, offset=offset)
    return database.execute(query)


@pytest.fixture()
def engines():
    built = {
        "indexed": Database(MemoryBackend()),
        "scan": Database(MemoryBackend(use_indexes=False)),
        "sqlite": Database(SqliteBackend()),
    }
    for database in built.values():
        database.create_table(_schema())
    yield built
    for database in built.values():
        database.close()


@pytest.mark.parametrize("seed", range(5))
def test_randomized_rows_agree_across_engines_and_oracle(engines, seed):
    rng = random.Random(20160613 + seed)
    rows = _random_rows(rng, 120)
    for database in engines.values():
        database.insert_many("T", rows)
    oracle_rows = [dict(row, id=index + 1) for index, row in enumerate(rows)]

    for label, build in PREDICATES:
        for order in ORDERS:
            results = {
                name: _canonical(_fetch(database, build(), order), order)
                for name, database in engines.items()
            }
            results["oracle"] = _canonical(_oracle(oracle_rows, build(), order), order)
            assert (
                results["indexed"] == results["scan"]
                == results["sqlite"] == results["oracle"]
            ), f"divergence on {label!r} order={order!r} seed={seed}"

            # Bounded variant: append the id tiebreak so the kept subset
            # is a total order on every engine, then compare row-for-row.
            bounded = order + (("id", True),)
            limited = {
                name: _canonical(
                    _fetch(database, build(), bounded, limit=7, offset=2), bounded
                )
                for name, database in engines.items()
            }
            limited["oracle"] = _canonical(
                _oracle(oracle_rows, build(), bounded, limit=7, offset=2), bounded
            )
            assert (
                limited["indexed"] == limited["scan"]
                == limited["sqlite"] == limited["oracle"]
            ), f"bounded divergence on {label!r} order={order!r} seed={seed}"


def test_write_churn_keeps_indexes_consistent(engines):
    """Updates and deletes must maintain the hash index entries exactly."""
    rng = random.Random(7)
    rows = _random_rows(rng, 80)
    for database in engines.values():
        database.insert_many("T", rows)
    for database in engines.values():
        database.update("T", between("score", 3, 6), score=1)
        database.delete("T", like("name", "al%"))
        database.update("T", gt("rank", 1), rank=None)
    order = (("score", True), ("id", True))
    results = {
        name: _canonical(_fetch(database, None, order), order)
        for name, database in engines.items()
    }
    assert results["indexed"] == results["scan"] == results["sqlite"]
    probed = {
        name: _canonical(_fetch(database, eq("score", 1), order), order)
        for name, database in engines.items()
    }
    assert probed["indexed"] == probed["scan"] == probed["sqlite"]


def test_null_range_bound_is_unknown_everywhere(engines):
    for database in engines.values():
        database.insert_many("T", [{"score": s} for s in (None, 1, 5, 9)])
    for where in (between("score", None, 5), gt("score", None), lte("score", None)):
        for name, database in engines.items():
            assert _fetch(database, where, ()) == [], name
