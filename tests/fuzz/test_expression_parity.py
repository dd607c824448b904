"""Differential fuzzing: the memory engine's evaluator vs SQLite.

SQLite is the reference for every expression node type.  Each iteration
draws a table of about 60 rows of INTEGER, TEXT and BOOLEAN values (NULLs
included) and a batch of random WHERE trees from a seeded stdlib
``random.Random``.  Before most trees one random write goes to both
backends: an ``UPDATE`` of ``jvars``, ``jid`` or ``id``, a ``DELETE``, or
a ``replace_rows``, each filtered by an ``id IN (...)`` list, a ``jid``
comparison or a ``FacetBranch``, so the trees also run over rows whose
indexes the writes maintained.  The memory engine must select the same
row ids as SQLite, once with its indexes and once forced to scan
(``MemoryBackend(use_indexes=False)``).  Each tree's exact value on every
row must match too: ``SELECT id, <tree> FROM ExprRow`` on SQLite (1, 0 or
NULL) against the memory engine's predicate (``True``, ``False`` or
``None``), compiled both without a table (``tree.compile()``, the string
spelling of ``FacetBranch``) and against the live table
(``tree.compile(table)``, which reads the facet-branch index).  A
selected-id check cannot tell FALSE from UNKNOWN at the top of a tree,
which is where the evaluator's NULL-free spellings differ from its general
ones.  The trees cover:

* ``Comparison`` with all six operators, against a literal or a column;
* ``InList`` with empty lists, lists holding NULL, and plain lists;
* ``Between`` with NULL bounds and reversed bounds;
* ``Like`` in both case modes, with ``%``, ``_`` and the GLOB
  metacharacters ``*?[``, on TEXT and INTEGER columns;
* ``IsNull`` and ``NullSafeEq``, each negated and not;
* ``FacetBranch`` of both polarities, the branch test every inline
  pushdown predicate holds, bare or table-qualified, of the table's own
  prefix or another table's, with a group key or a key holding a dot,
  over ``jid`` and ``jvars`` columns whose ``jvars`` is ``''``, NULL, a
  canonical ``ExprRow.<jid>.<key>=True|False`` string for the row's own
  jid or another one, a two-group string, or another table's.  Half the
  tables hold NULL ``jid`` and ``jvars`` values, which make the test
  UNKNOWN (the FORM always writes both, so only raw tables hold them);
* nesting under ``AndExpr``, ``OrExpr`` and ``NotExpr``.

Each literal takes its column's type.  Mixed-type comparisons diverge on
purpose: SQLite applies type affinity, the memory engine compares the
Python values.

On failure the seed is printed, the tree is shrunk to its smallest
diverging subtree, the writes before it to the ones it still diverges
after, the rows to the diverging ones where that still diverges, and the
repro is emitted as a paste-able test case calling :func:`_assert_parity`.

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
    FacetBranch,
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
        Column("n", ColumnType.INTEGER, indexed=True),
        Column("m", ColumnType.INTEGER, indexed=True),
        Column("t", ColumnType.TEXT, indexed=True),
        Column("s", ColumnType.TEXT, indexed=True),
        Column("b", ColumnType.BOOLEAN, indexed=True),
        Column("jid", ColumnType.INTEGER),
        Column("jvars", ColumnType.TEXT),
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
JIDS = (1, 2, 3)
BRANCH_KEYS = ("k", "g")
#: A key no canonical row can carry: only the string test answers it.
DOTTED_KEY = "k.x"
#: Another table's prefix, in ``jvars`` and in ``FacetBranch`` alike.
FOREIGN_TABLE = "Other"
#: The other column of the same type, for column-vs-column comparisons.
SIBLINGS = {"n": "m", "m": "n", "t": "s", "s": "t", "b": "b"}
LIKE_COLUMNS = ("n", "m", "t", "s")
PATTERN_PIECES = ["a", "A", "b", "1", "0", "é", "%", "%", "_", "*", "?", "["]
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
ROW_COUNT = 60
TREES_PER_ITERATION = 20
#: The chance of a write to both backends before each tree.
WRITE_RATE = 0.7


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
    kind = rng.randrange(7)
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
    if kind == 5:
        return _gen_branch(rng)
    return NullSafeEq(ColumnRef(column), _operand(rng, column), rng.random() < 0.5)


def _gen_branch(rng):
    """Mostly the table's own prefix and group keys, the shape pushdown
    builds; now and then qualified, another table's (whose columns SQLite
    would not find qualified), or with a dotted key."""
    key = _pick(rng, BRANCH_KEYS) if rng.random() < 0.9 else DOTTED_KEY
    polarity = rng.random() < 0.5
    if rng.random() < 0.15:
        return FacetBranch(FOREIGN_TABLE, key, polarity)
    return FacetBranch("ExprRow", key, polarity, rng.random() < 0.15)


def _gen_tree(rng, depth=0):
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        return _gen_leaf(rng)
    if roll < 0.6:
        return AndExpr(_gen_tree(rng, depth + 1), _gen_tree(rng, depth + 1))
    if roll < 0.8:
        return OrExpr(_gen_tree(rng, depth + 1), _gen_tree(rng, depth + 1))
    return NotExpr(_gen_tree(rng, depth + 1))


def _gen_jvars(rng, jid, nulls):
    """``''``, NULL when ``nulls``, or a branch: mostly a canonical one of
    this row's jid, else another jid's, a two-group one, another table's,
    or one with a dotted key."""
    roll = rng.random()
    if roll < 0.2:
        return ""
    if nulls and roll < 0.3:
        return None
    owner = jid if rng.random() < 0.7 else _pick(rng, JIDS)
    branch = f"ExprRow.{owner}.{_pick(rng, BRANCH_KEYS)}={rng.random() < 0.5}"
    roll = rng.random()
    if roll < 0.1:
        return f"{branch},ExprRow.{owner}.{_pick(rng, BRANCH_KEYS)}={rng.random() < 0.5}"
    if roll < 0.2:
        return f"{FOREIGN_TABLE}.{owner}.{_pick(rng, BRANCH_KEYS)}={rng.random() < 0.5}"
    if roll < 0.25:
        return f"ExprRow.{owner}.{DOTTED_KEY}={rng.random() < 0.5}"
    return branch


def _gen_jid(rng, nulls):
    return None if nulls and rng.random() < 0.1 else _pick(rng, JIDS)


def _gen_rows(rng, nulls):
    rows = []
    for _ in range(ROW_COUNT):
        values = tuple(_pick(rng, POOLS[column]) for column in COLUMNS)
        jid = _gen_jid(rng, nulls)
        rows.append(values + (jid, _gen_jvars(rng, jid, nulls)))
    return rows


def _gen_write(rng, nulls, ids):
    """One write for both backends: ``("update", where, values)``,
    ``("delete", where)`` or ``("replace", where, rows)``.

    ``ids`` lists, ascending, every id a row has had; an id filter draws
    from it, and an assigned id or a replacing row takes the next unused
    one, which joins it."""
    fresh = ids[-1] + 1
    roll = rng.random()
    if roll < 0.6:
        where = InList(ColumnRef("id"), tuple(_pick(rng, ids) for _ in range(3)))
    elif roll < 0.8:
        where = Comparison("=", ColumnRef("jid"), Literal(_pick(rng, JIDS)))
    else:
        where = _gen_branch(rng)
    roll = rng.random()
    if roll < 0.25:
        jid = _gen_jid(rng, nulls)
        return "update", where, {"jid": jid, "jvars": _gen_jvars(rng, jid, nulls)}
    if roll < 0.45:
        return "update", where, {"jvars": _gen_jvars(rng, _pick(rng, JIDS), nulls)}
    if roll < 0.55:
        return "update", where, {"jid": _gen_jid(rng, nulls)}
    if roll < 0.7:
        # An id is unique: assign it to one row only.
        ids.append(fresh)
        return "update", InList(ColumnRef("id"), (_pick(rng, ids[:-1]),)), {"id": fresh}
    if roll < 0.8:
        return "delete", where
    rows = []
    for _ in range(rng.randrange(4)):
        values = tuple(_pick(rng, POOLS[column]) for column in COLUMNS)
        jid = _gen_jid(rng, nulls)
        row = dict(zip(COLUMNS + ("jid", "jvars"), values + (jid, _gen_jvars(rng, jid, nulls))))
        rows.append(dict(row, id=ids[-1] + 1))
        ids.append(ids[-1] + 1)
    return "replace", where, rows


# -- execution ---------------------------------------------------------------------


def _database(backend, rows, writes=()):
    database = Database(backend)
    database.create_table(SCHEMA)
    database.insert_many(
        "ExprRow",
        [dict(zip(COLUMNS + ("jid", "jvars"), row), id=pk) for pk, row in enumerate(rows, 1)],
    )
    for write in writes:
        _apply(database, write)
    return database


def _apply(database, write):
    kind, where = write[:2]
    if kind == "update":
        database.update("ExprRow", where, **write[2])
    elif kind == "delete":
        database.delete("ExprRow", where)
    else:
        database.replace_rows("ExprRow", where, write[2])


def _selected(database, tree):
    query = database.query("ExprRow").filter(tree).select("id")
    return sorted(row["id"] for row in database.execute(query))


def _sql_value(value):
    """A compiled result as SQLite spells it: 1, 0 or NULL (else flagged)."""
    if value is None:
        return None
    if value is True or value is False:
        return int(value)
    return f"not a boolean: {value!r}"


def _values(memory, sqlite, tree):
    """``[{id: value}, ...]`` of the tree compiled without a table and
    against the memory engine's live table, and ``{id: value}`` of
    ``SELECT id, <tree>`` on SQLite."""
    backend = memory.backend
    with backend._lock:  # a table-bound predicate is valid under the lock
        table = backend._table("ExprRow")
        rows = table.rows()
        spellings = [tree.compile(), tree.compile(table)]
        actual = [
            {row["id"]: _sql_value(predicate(row)) for row in rows}
            for predicate in spellings
        ]
    sql, params = tree.to_sql()
    with sqlite.backend._reading() as connection:
        expected = dict(
            tuple(row)
            for row in connection.execute(f'SELECT id, {sql} FROM "ExprRow"', params)
        )
    return actual, expected


def _divergence(memory, sqlite, tree):
    """``(memory, sqlite)`` when the backends disagree, else ``None``: the
    selected ids, or the ``{id: value}`` of the rows whose values differ."""
    expected = _selected(sqlite, tree)
    try:
        actual = _selected(memory, tree)
        spellings, expected_values = _values(memory, sqlite, tree)
    except TypeError as exc:  # e.g. an unorderable pair of values
        actual = f"raised {exc!r}"
    if actual != expected:
        return actual, expected
    for values in spellings:
        if values.keys() != expected_values.keys():
            return sorted(values), sorted(expected_values)
        odd = [pk for pk in expected_values if values[pk] != expected_values[pk]]
        if odd:
            return {pk: values[pk] for pk in odd}, {pk: expected_values[pk] for pk in odd}
    return None


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


def _diverges(use_indexes, rows, writes, tree):
    """:func:`_divergence` on fresh databases holding ``rows`` after ``writes``."""
    with _database(MemoryBackend(use_indexes=use_indexes), rows, writes) as memory, \
            _database(SqliteBackend(), rows, writes) as sqlite:
        return _divergence(memory, sqlite, tree)


def _assert_parity(use_indexes, rows, writes, tree):
    """Entry point for paste-able repros emitted on fuzz failures."""
    failure = _diverges(use_indexes, rows, writes, tree)
    assert failure is None, f"memory={failure[0]!r} sqlite={failure[1]!r}"


def _repro(use_indexes, rows, writes, memory, sqlite, tree):
    """The shrunk ``(rows, writes, tree)`` of a divergence: the smallest
    diverging subtree, each write it still diverges without dropped, and
    the rows cut to the diverging ones when that alone still diverges (row
    ids are 1-based positions; the cut keeps the writes, whose ids may
    then match nothing)."""
    tree = _shrink(memory, sqlite, tree)
    for write in list(writes):
        fewer_writes = [kept for kept in writes if kept is not write]
        if _diverges(use_indexes, rows, fewer_writes, tree) is not None:
            writes = fewer_writes
    actual, expected = _diverges(use_indexes, rows, writes, tree)
    if not isinstance(actual, str):
        odd = sorted(actual) if isinstance(actual, dict) else sorted(set(actual) ^ set(expected))
        fewer = [rows[pk - 1] for pk in odd if pk <= len(rows)]
        if fewer and _diverges(use_indexes, fewer, writes, tree) is not None:
            rows = fewer
    return rows, writes, tree


# -- the harness -------------------------------------------------------------------


@pytest.mark.parametrize("use_indexes", [True, False], ids=["indexed", "scan"])
def test_memory_engine_selects_the_rows_sqlite_selects(use_indexes):
    iterations = int(os.environ.get("FUZZ_ITERATIONS", "20"))
    base_seed = int(os.environ.get("FUZZ_SEED", "20160613"))
    for index in range(iterations):
        seed = base_seed + index
        rng = random.Random(seed)
        nulls = rng.random() < 0.5
        rows = _gen_rows(rng, nulls)
        writes = []
        ids = list(range(1, len(rows) + 1))
        with _database(MemoryBackend(use_indexes=use_indexes), rows) as memory, \
                _database(SqliteBackend(), rows) as sqlite:
            for _ in range(TREES_PER_ITERATION):
                if rng.random() < WRITE_RATE:
                    write = _gen_write(rng, nulls, ids)
                    writes.append(write)
                    _apply(memory, write)
                    _apply(sqlite, write)
                tree = _gen_tree(rng)
                failure = _divergence(memory, sqlite, tree)
                if failure is None:
                    continue
                small_rows, small_writes, small_tree = _repro(
                    use_indexes, rows, writes, memory, sqlite, tree
                )
                pytest.fail(
                    f"expression parity violated (seed={seed}, "
                    f"use_indexes={use_indexes}):\n"
                    f"  memory={failure[0]!r}\n  sqlite={failure[1]!r}\n"
                    "paste-able repro:\n"
                    f"def test_repro_seed_{seed}():\n"
                    f"    _assert_parity({use_indexes!r}, {small_rows!r}, "
                    f"{small_writes!r}, {small_tree!r})"
                )
