"""Differential fuzzing: the memory engine's evaluator vs SQLite.

SQLite is the reference for every expression node type.  Each iteration
draws a table of about 60 rows of INTEGER, TEXT and BOOLEAN values (NULLs
included) and a batch of random WHERE trees from a seeded stdlib
``random.Random``.  The memory engine must select the same row ids as
SQLite, once with its indexes and once forced to scan
(``MemoryBackend(use_indexes=False)``).  The trees cover:

* ``Comparison`` with all six operators, against a literal or a column;
* ``InList`` with empty lists, lists holding NULL, and plain lists;
* ``Between`` with NULL bounds and reversed bounds;
* ``Like`` in both case modes, with ``%``, ``_`` and the GLOB
  metacharacters ``*?[``, on TEXT and INTEGER columns;
* ``IsNull`` and ``NullSafeEq``, each negated and not;
* nesting under ``AndExpr``, ``OrExpr`` and ``NotExpr``.

Each literal takes its column's type.  Mixed-type comparisons diverge on
purpose: SQLite applies type affinity, the memory engine compares the
Python values.

On failure the seed is printed, the tree is shrunk to its smallest
diverging subtree, the rows to the diverging ones where that still
diverges, and the repro is emitted as a paste-able test case calling
:func:`_assert_parity`.

``FUZZ_ITERATIONS`` (default 20 batches of 20 trees per configuration; CI
runs 200) and ``FUZZ_SEED`` tune the sweep from the environment.
"""

import os
import random

import pytest

from repro.db import Column, ColumnType, Database, MemoryBackend, SqliteBackend, TableSchema
from repro.db.expr import (
    AndExpr,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    NotExpr,
    NullSafeEq,
    OrExpr,
)

SCHEMA = TableSchema(
    "ExprRow",
    (
        Column("id", ColumnType.INTEGER, primary_key=True),
        Column("n", ColumnType.INTEGER, ordered=True),
        Column("m", ColumnType.INTEGER, indexed=True),
        Column("t", ColumnType.TEXT, ordered=True),
        Column("s", ColumnType.TEXT, indexed=True),
        Column("b", ColumnType.BOOLEAN, indexed=True),
    ),
)

#: Column -> the values it holds, NULL included; literals draw from the
#: same pool, so every literal has its column's type.
POOLS = {
    "n": [-2, -1, 0, 1, 2, 3, 5, 10, 12, 21, None],
    "m": [0, 1, 2, 3, 10, 100, None],
    "t": ["", "a", "A", "ab", "aB", "Ab", "b", "ba", "a_b", "a%b", "a*b",
          "a?b", "a[b", "x]", "é", "É", "10", "2", None],
    "s": ["a", "B", "b", "[a]", "*", "?", "1", None],
    "b": [True, False, None],
}
COLUMNS = tuple(POOLS)
#: The other column of the same type, for column-vs-column comparisons.
SIBLINGS = {"n": "m", "m": "n", "t": "s", "s": "t", "b": "b"}
LIKE_COLUMNS = ("n", "m", "t", "s")
PATTERN_PIECES = ["a", "A", "b", "1", "0", "é", "%", "%", "_", "*", "?", "["]
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
ROW_COUNT = 60
TREES_PER_ITERATION = 20


# -- generation --------------------------------------------------------------------


def _pick(rng, pool):
    return pool[rng.randrange(len(pool))]


def _literal(rng, column):
    return Literal(_pick(rng, POOLS[column]))


def _operand(rng, column):
    """A literal of the column's type, or now and then its sibling column."""
    if rng.random() < 0.2:
        return ColumnRef(SIBLINGS[column])
    return _literal(rng, column)


def _gen_leaf(rng):
    column = _pick(rng, COLUMNS)
    kind = rng.randrange(6)
    if kind == 0:
        return Comparison(_pick(rng, OPERATORS), ColumnRef(column), _operand(rng, column))
    if kind == 1:
        # Lengths 0-3: an empty list is a quarter of all IN lists.
        values = tuple(_pick(rng, POOLS[column]) for _ in range(rng.randrange(4)))
        return InList(ColumnRef(column), values)
    if kind == 2:
        return Between(ColumnRef(column), _literal(rng, column), _literal(rng, column))
    if kind == 3:
        pattern = "".join(_pick(rng, PATTERN_PIECES) for _ in range(rng.randrange(5)))
        return Like(ColumnRef(_pick(rng, LIKE_COLUMNS)), pattern, rng.random() < 0.5)
    if kind == 4:
        return IsNull(ColumnRef(column), negated=rng.random() < 0.5)
    return NullSafeEq(ColumnRef(column), _operand(rng, column), rng.random() < 0.5)


def _gen_tree(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        return _gen_leaf(rng)
    if roll < 0.6:
        return AndExpr(_gen_tree(rng, depth + 1), _gen_tree(rng, depth + 1))
    if roll < 0.8:
        return OrExpr(_gen_tree(rng, depth + 1), _gen_tree(rng, depth + 1))
    return NotExpr(_gen_tree(rng, depth + 1))


def _gen_rows(rng):
    return [
        tuple(_pick(rng, POOLS[column]) for column in COLUMNS)
        for _ in range(ROW_COUNT)
    ]


# -- execution ---------------------------------------------------------------------


def _database(backend, rows):
    database = Database(backend)
    database.create_table(SCHEMA)
    database.insert_many(
        "ExprRow", [dict(zip(COLUMNS, row), id=pk) for pk, row in enumerate(rows, 1)]
    )
    return database


def _selected(database, tree):
    query = database.query("ExprRow").filter(tree).select("id")
    return sorted(row["id"] for row in database.execute(query))


def _divergence(memory, sqlite, tree):
    """``(memory ids, sqlite ids)`` when the backends disagree, else ``None``."""
    expected = _selected(sqlite, tree)
    try:
        actual = _selected(memory, tree)
    except TypeError as exc:  # e.g. an unorderable pair of values
        actual = f"raised {exc!r}"
    return None if actual == expected else (actual, expected)


def _children(tree):
    if isinstance(tree, (AndExpr, OrExpr)):
        return [tree.left, tree.right]
    if isinstance(tree, NotExpr):
        return [tree.operand]
    return []


def _shrink(memory, sqlite, tree):
    """The smallest diverging subtree, descending while a child diverges."""
    for child in _children(tree):
        if _divergence(memory, sqlite, child) is not None:
            return _shrink(memory, sqlite, child)
    return tree


def _assert_parity(use_indexes, rows, tree):
    """Entry point for paste-able repros emitted on fuzz failures."""
    with _database(MemoryBackend(use_indexes=use_indexes), rows) as memory, \
            _database(SqliteBackend(), rows) as sqlite:
        failure = _divergence(memory, sqlite, tree)
    assert failure is None, f"memory={failure[0]!r} sqlite={failure[1]!r}"


def _repro(use_indexes, rows, memory, sqlite, tree):
    """The shrunk ``(rows, tree)`` of a divergence, rows cut to the diverging
    ones when that alone still diverges (row ids are 1-based positions)."""
    tree = _shrink(memory, sqlite, tree)
    actual, expected = _divergence(memory, sqlite, tree)
    if isinstance(actual, list):
        odd = sorted(set(actual) ^ set(expected))
        fewer = [rows[pk - 1] for pk in odd]
        with _database(MemoryBackend(use_indexes=use_indexes), fewer) as small_memory, \
                _database(SqliteBackend(), fewer) as small_sqlite:
            if _divergence(small_memory, small_sqlite, tree) is not None:
                rows = fewer
    return rows, tree


# -- the harness -------------------------------------------------------------------


@pytest.mark.parametrize("use_indexes", [True, False], ids=["indexed", "scan"])
def test_memory_engine_selects_the_rows_sqlite_selects(use_indexes):
    iterations = int(os.environ.get("FUZZ_ITERATIONS", "20"))
    base_seed = int(os.environ.get("FUZZ_SEED", "20160613"))
    for index in range(iterations):
        seed = base_seed + index
        rng = random.Random(seed)
        rows = _gen_rows(rng)
        trees = [_gen_tree(rng) for _ in range(TREES_PER_ITERATION)]
        with _database(MemoryBackend(use_indexes=use_indexes), rows) as memory, \
                _database(SqliteBackend(), rows) as sqlite:
            for tree in trees:
                failure = _divergence(memory, sqlite, tree)
                if failure is None:
                    continue
                small_rows, small_tree = _repro(use_indexes, rows, memory, sqlite, tree)
                pytest.fail(
                    f"expression parity violated (seed={seed}, "
                    f"use_indexes={use_indexes}):\n"
                    f"  memory={failure[0]!r}\n  sqlite={failure[1]!r}\n"
                    "paste-able repro:\n"
                    f"def test_repro_seed_{seed}():\n"
                    f"    _assert_parity({use_indexes!r}, {small_rows!r}, {small_tree!r})"
                )
