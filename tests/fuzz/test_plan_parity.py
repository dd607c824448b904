"""Differential fuzzing: index-backed plans vs the forced-scan oracle.

Each iteration draws a random *program* -- batch inserts, updates of any
indexed column and deletes over range predicates, fetches with
range/BETWEEN/prefix-LIKE predicates, ORDER BY (asc/desc, with NULLs and
duplicates), LIMIT/OFFSET, counts and aggregates -- from a seeded stdlib
``random.Random``, then runs it twice on the same backend: once with the
cost-aware planner free to use the ordered/hash indexes, and once forced
to scan (the oracle;
``MemoryBackend(use_indexes=False)`` / ``SqliteBackend(emit_indexes=False)``).
Access-path choice must never change observable results.

Ordered fetches are compared as (order-key sequence, sorted row multiset)
so legitimate tie-order freedom never reads as a divergence; fetches with
LIMIT/OFFSET always carry an ``id`` tiebreak term, making the bounded
result fully deterministic on both backends.

On failure the seed is printed, the failing program is greedily shrunk,
and the repro is emitted as a paste-able test case calling
:func:`_assert_parity`.

``FUZZ_ITERATIONS`` (default 20 per backend; CI runs 200) and
``FUZZ_SEED`` tune the sweep from the environment.
"""

import os
import random

import pytest

from repro.db import (
    Column,
    ColumnType,
    Database,
    IndexSpec,
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
from repro.db.expr import AndExpr, InList, IsNull, col, eq

SCHEMA = TableSchema(
    "FuzzRow",
    (
        Column("id", ColumnType.INTEGER, primary_key=True),
        Column("score", ColumnType.INTEGER, ordered=True),
        Column("rank", ColumnType.INTEGER, ordered=True),
        Column("name", ColumnType.TEXT, ordered=True),
        Column("tag", ColumnType.TEXT, indexed=True),
    ),
    indexes=(IndexSpec(("score", "id")),),
)

COLUMNS = ("id", "score", "rank", "name", "tag")
SCORES = list(range(10)) + [None]
RANKS = [0, 1, 2, None]  # heavy duplicates: ORDER BY ties are the point
NAMES = ["alpha", "Alpha", "alps", "beta", "Beta", "bet", "gamma", "ga_ma", None]
TAGS = ["x", "y", "z", None]
#: The value pool of each column an ``update`` op may assign: a composite
#: ordered index (score, id), single-column ordered indexes and a hash index.
POOLS = {"score": SCORES, "rank": RANKS, "name": NAMES, "tag": TAGS}
PATTERNS = ["al%", "Al%", "BE%", "b_t%", "ga%", "%ma", "alp%"]
RANGE_COLUMNS = ("score", "rank", "name")
AGG_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


# -- program generation --------------------------------------------------------------


def _gen_row(rng):
    return (
        SCORES[rng.randrange(len(SCORES))],
        RANKS[rng.randrange(len(RANKS))],
        NAMES[rng.randrange(len(NAMES))],
        TAGS[rng.randrange(len(TAGS))],
    )


def _gen_bound(rng, column):
    if column == "name":
        pool = [name for name in NAMES if name is not None] + [None]
        return pool[rng.randrange(len(pool))]
    return SCORES[rng.randrange(len(SCORES))]


def _gen_where(rng, depth=0):
    """A where-clause spec (plain data, so repros stay paste-able)."""
    roll = rng.random()
    column = RANGE_COLUMNS[rng.randrange(len(RANGE_COLUMNS))]
    if roll < 0.25:
        return ("between", column, _gen_bound(rng, column), _gen_bound(rng, column))
    if roll < 0.45:
        op = ("gt", "gte", "lt", "lte")[rng.randrange(4)]
        return ("cmp", op, column, _gen_bound(rng, column))
    if roll < 0.58:
        return (
            "like",
            "name",
            PATTERNS[rng.randrange(len(PATTERNS))],
            rng.random() < 0.5,
        )
    if roll < 0.68:
        return ("eq", "tag", TAGS[rng.randrange(len(TAGS))])
    if roll < 0.76:
        return ("isnull", column)
    if roll < 0.84:
        values = tuple(_gen_bound(rng, column) for _ in range(rng.randrange(1, 4)))
        return ("in", column, values)
    if depth < 1:
        return ("and", _gen_where(rng, depth + 1), _gen_where(rng, depth + 1))
    return ("cmp", "gte", column, _gen_bound(rng, column))


def _gen_order(rng, with_limit):
    terms = []
    if rng.random() < 0.8:
        column = RANGE_COLUMNS[rng.randrange(len(RANGE_COLUMNS))]
        terms.append((column, rng.random() < 0.6))
        if rng.random() < 0.3:
            other = RANGE_COLUMNS[rng.randrange(len(RANGE_COLUMNS))]
            if other != column:
                terms.append((other, rng.random() < 0.6))
    if with_limit:
        # A total order: bounded results must be deterministic on both
        # backends before index-on/off runs can be compared row-for-row.
        terms.append(("id", True))
    return tuple(terms)


def _gen_program(rng, length=14):
    """A random op list.  Every program opens with a seed batch so range
    predicates and ORDER BY always have rows (and duplicates) to chew on."""
    program = [("insert", tuple(_gen_row(rng) for _ in range(rng.randrange(6, 14))))]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.18:
            program.append(
                ("insert", tuple(_gen_row(rng) for _ in range(rng.randrange(1, 5))))
            )
        elif roll < 0.28:
            where = _gen_where(rng)
            column = tuple(POOLS)[rng.randrange(len(POOLS))]
            pool = POOLS[column]
            program.append(("update", where, column, pool[rng.randrange(len(pool))]))
        elif roll < 0.36:
            program.append(("delete", _gen_where(rng)))
        elif roll < 0.70:
            where = _gen_where(rng) if rng.random() < 0.8 else None
            with_limit = rng.random() < 0.4
            order = _gen_order(rng, with_limit)
            limit = rng.randrange(1, 8) if with_limit else None
            offset = rng.randrange(0, 4) if with_limit and rng.random() < 0.5 else 0
            program.append(("fetch", where, order, limit, offset))
        elif roll < 0.82:
            program.append(("count", _gen_where(rng)))
        else:
            program.append(
                ("agg", _gen_where(rng),
                 AGG_FUNCTIONS[rng.randrange(len(AGG_FUNCTIONS))], "score")
            )
    return program


# -- program execution ---------------------------------------------------------------


def _build_where(spec):
    if spec is None:
        return None
    kind = spec[0]
    if kind == "between":
        return between(spec[1], spec[2], spec[3])
    if kind == "cmp":
        builder = {"gt": gt, "gte": gte, "lt": lt, "lte": lte}[spec[1]]
        return builder(spec[2], spec[3])
    if kind == "like":
        return like(spec[1], spec[2], case_sensitive=spec[3])
    if kind == "eq":
        return eq(spec[1], spec[2])
    if kind == "isnull":
        return IsNull(col(spec[1]))
    if kind == "in":
        return InList(col(spec[1]), tuple(spec[2]))
    if kind == "and":
        return AndExpr(_build_where(spec[1]), _build_where(spec[2]))
    raise ValueError(f"unknown where spec {spec!r}")


def _orderable(value):
    return (value is None, type(value).__name__, 0 if value is None else value)


def _canonical_fetch(rows, order):
    """Ordered fetches compare as (order-key sequence, sorted multiset):
    the key sequence pins the ordering contract while the multiset absorbs
    the backends' freedom in tie order."""
    frozen = [tuple(row[column] for column in COLUMNS) for row in rows]
    multiset = sorted(frozen, key=lambda row: tuple(_orderable(v) for v in row))
    if order:
        keys = tuple(tuple(row[column] for column, _ in order) for row in rows)
        return ("ordered", keys, multiset)
    return ("bag", multiset)


def _run_program(kind, program, indexed):
    """Execute ``program``, returning its observables."""
    if kind == "memory":
        backend = MemoryBackend(use_indexes=indexed)
    else:
        backend = SqliteBackend(emit_indexes=indexed)
    observables = []
    with Database(backend) as database:
        database.create_table(SCHEMA)
        for op in program:
            name, args = op[0], op[1:]
            if name == "insert":
                rows = [
                    {"score": score, "rank": rank, "name": text, "tag": tag}
                    for score, rank, text, tag in args[0]
                ]
                observables.append(tuple(database.insert_many("FuzzRow", rows)))
            elif name == "update":
                observables.append(
                    database.update(
                        "FuzzRow", _build_where(args[0]), **{args[1]: args[2]}
                    )
                )
            elif name == "delete":
                observables.append(
                    database.delete("FuzzRow", _build_where(args[0]))
                )
            elif name == "fetch":
                where, order, limit, offset = args
                query = database.query("FuzzRow")
                if where is not None:
                    query = query.filter(_build_where(where))
                for column, ascending in order:
                    query = query.ordered_by(column, ascending=ascending)
                if limit is not None:
                    query = query.limited(limit, offset=offset)
                observables.append(
                    _canonical_fetch(database.execute(query), order)
                )
            elif name == "count":
                observables.append(
                    database.count("FuzzRow", _build_where(args[0]))
                )
            elif name == "agg":
                query = database.query("FuzzRow").with_aggregate(args[1], args[2])
                if args[0] is not None:
                    query = query.filter(_build_where(args[0]))
                value = database.aggregate(query)
                observables.append(
                    round(value, 9) if isinstance(value, float) else value
                )
            else:  # pragma: no cover - generator and runner must agree
                raise ValueError(f"unknown op {name!r}")
    return observables


def _failure(kind, program):
    """The plan-parity violation this program exposes, or ``None``."""
    indexed = _run_program(kind, program, True)
    oracle = _run_program(kind, program, False)
    if indexed != oracle:
        for index, (left, right) in enumerate(zip(indexed, oracle)):
            if left != right:
                return (
                    f"observable #{index} ({program[index][0]}) diverges: "
                    f"indexed={left!r} forced-scan={right!r}"
                )
        return f"observable counts diverge: {len(indexed)} vs {len(oracle)}"
    return None


def _shrink(kind, program):
    """Greedily drop ops while the failure persists (1-minimal repro)."""
    changed = True
    while changed:
        changed = False
        for index in range(len(program)):
            candidate = program[:index] + program[index + 1:]
            if candidate and _failure(kind, candidate) is not None:
                program = candidate
                changed = True
                break
    return program


def _assert_parity(kind, program):
    """Entry point for paste-able repros emitted on fuzz failures."""
    failure = _failure(kind, program)
    assert failure is None, failure


# -- the harness ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_differential_fuzz_plan_parity(kind):
    iterations = int(os.environ.get("FUZZ_ITERATIONS", "20"))
    base_seed = int(os.environ.get("FUZZ_SEED", "20160613"))
    for index in range(iterations):
        seed = base_seed + index
        program = _gen_program(random.Random(seed))
        failure = _failure(kind, program)
        if failure is not None:
            shrunk = _shrink(kind, program)
            failure = _failure(kind, shrunk) or failure
            pytest.fail(
                f"plan parity violated (seed={seed}, backend={kind}):\n"
                f"  {failure}\n"
                "paste-able repro:\n"
                f"def test_repro_seed_{seed}():\n"
                f"    _assert_parity({kind!r}, {shrunk!r})"
            )
