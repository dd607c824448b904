"""WHERE-clause expressions.

Expressions form a small tree with two renderings.  :meth:`~Expression.to_sql`
gives the parameterised SQL the SQLite backend and the SQL generator send.
:meth:`~Expression.compile` gives the in-memory engine's one evaluator: one
generated Python function per statement, called once per row.  It follows
SQL's three-valued logic, with ``None`` as UNKNOWN, so both backends
select the same rows.  Column references may be qualified
(``"Event.location"``) for join queries.

``compile()`` splits a tree into its *shape* (node kinds, operators,
column names, which literals are NULL, ...) and its per-statement
constants (literal values, ``IN`` member sets, ``LIKE`` matchers).  The
source of one function is generated per shape and cached process-wide
(:data:`SHAPE_CACHE_SIZE` shapes), so a statement whose shape was seen
before only binds its constants.  A single-table read compiles against
its table, whose facet-branch index then answers :class:`FacetBranch`
tests (see :meth:`Expression.compile`).
"""

from __future__ import annotations

import datetime
import re
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs

if TYPE_CHECKING:
    from repro.db.table import Table

#: A row predicate: SQL's TRUE/FALSE/UNKNOWN as ``True``/``False``/``None``.
Predicate = Callable[[Dict[str, Any]], Any]


class Expression:
    """Base class for boolean/scalar expressions over rows."""

    __slots__ = ()

    def evaluate(self, row: Dict[str, Any]) -> Any:
        """Evaluate against one row: a one-off ``self.compile()(row)``."""
        return self.compile()(row)

    def compile(self, table: Optional["Table"] = None) -> Predicate:
        """The evaluator of this tree, to call once per row.

        The in-memory engine compiles a WHERE tree once per statement.  One
        walk takes the tree's shape and its constants, so per-statement
        work (an ``IN`` list's member set, a ``LIKE`` pattern's regex) is
        done once.  The shape selects a generated function; the first tree
        of a shape generates its source.  Each row then costs one call.  A
        result of ``None`` is SQL's UNKNOWN; a WHERE clause keeps the rows
        whose result is truthy.  Subquery nodes raise :class:`TypeError`
        here: materialise them first with :func:`resolve_subqueries`.

        ``table`` is the memory table whose live rows a single-table read
        tests.  An unqualified :class:`FacetBranch` then reads the row's
        primary key against the table's facet-branch index
        (:meth:`~repro.db.table.Table.branch_index`).  Such a predicate
        holds the index's live sets, so it is valid only while the backend
        lock is held, as every read and write that compiles one holds it.

        >>> pred = (eq("rank", 1) | eq("name", "ada")).compile()
        >>> pred({"rank": 2, "name": "ada"})
        True
        >>> pred({"rank": None, "name": "bob"}) is None
        True
        """
        constants: List[Any] = []
        shape = self._shape(constants, table)
        factory = _FACTORIES.get(shape)
        if factory is None:
            factory = _cached_factory(shape)
        return factory(*constants)

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        """This node's shape key, appending its constants to ``constants``.

        The key starts with the node's class and holds what the generated
        source depends on; the constants are what it reads at run time,
        in the order :class:`_Writer` numbers them.  ``table`` is the table
        :meth:`compile` binds, or ``None``; each node passes it on.
        """
        raise NotImplementedError

    def to_sql(self) -> Tuple[str, List[Any]]:
        """Render to a SQL fragment and its bound parameters.

        >>> eq("name", "ada").to_sql()
        ('name = ?', ['ada'])
        """
        raise NotImplementedError

    def columns(self) -> List[str]:
        """Column names referenced by this expression.

        >>> (eq("name", "ada") & eq("rank", 1)).columns()
        ['name', 'rank']
        """
        return []

    def subqueries(self) -> List[Any]:
        """The :class:`~repro.db.query.Query` objects nested in this tree.

        Used by the in-memory engine (to materialise them before row-by-row
        evaluation) and by :meth:`~repro.db.query.Query.tables_read`.
        """
        return []

    # boolean combinators ------------------------------------------------------

    def __and__(self, other: "Expression") -> "Expression":
        return AndExpr(self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return OrExpr(self, other)

    def __invert__(self) -> "Expression":
        return NotExpr(self)


_MISSING = object()


def column_value(row: Dict[str, Any], name: str, default: Any = _MISSING) -> Any:
    """The value of a possibly qualified column name in a row dict.

    A qualified name falls back to its bare column and a bare name to any
    ``"Table.name"`` key.  A missing column raises :class:`KeyError`, or
    gives ``default`` when one is passed.

    >>> column_value({"Paper.title": "x"}, "title"), column_value({}, "id", None)
    ('x', None)
    """
    if name in row:
        return row[name]
    if "." in name:
        bare = name.rsplit(".", 1)[1]
        if bare in row:
            return row[bare]
    else:
        suffix = "." + name
        for key, value in row.items():
            if key.endswith(suffix):
                return value
    if default is _MISSING:
        raise KeyError(f"row has no column {name!r}")
    return default


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally table-qualified."""

    name: str

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (ColumnRef, self.name)

    def to_sql(self) -> Tuple[str, List[Any]]:
        return self.name, []

    def columns(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        if self.value is None:
            return (Literal, False)
        constants.append(self.value)
        return (Literal, True)

    def to_sql(self) -> Tuple[str, List[Any]]:
        return "?", [self.value]


#: SQL comparison operator -> its Python spelling.
_OPERATORS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison between two expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (
            Comparison,
            self.op,
            self.left._shape(constants, table),
            self.right._shape(constants, table),
        )

    def to_sql(self) -> Tuple[str, List[Any]]:
        left_sql, left_params = self.left.to_sql()
        right_sql, right_params = self.right.to_sql()
        return f"{left_sql} {self.op} {right_sql}", left_params + right_params

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def subqueries(self) -> List[Any]:
        return self.left.subqueries() + self.right.subqueries()


@dataclass(frozen=True)
class InList(Expression):
    """Membership test ``column IN (v1, v2, ...)``.

    Follows SQL's three-valued NULL semantics, which matters because
    subqueries resolve to ``InList`` on the in-memory engine: a ``None``
    operand yields UNKNOWN (``None``), and a miss against a list containing
    ``None`` also yields UNKNOWN -- so ``x IN (NULL)`` never matches *and*
    ``x NOT IN ('a', NULL)`` never matches, exactly as on SQLite.  An empty
    list is FALSE for every operand, NULL included, so ``NOT (x IN ())``
    keeps every row.  WHERE filtering treats UNKNOWN as a non-match;
    :class:`NotExpr` propagates it.

    >>> InList(col("id"), (None, 2)).evaluate({"id": None}) is None
    True
    >>> InList(col("id"), (None, 2)).evaluate({"id": 2})
    True
    >>> InList(col("id"), (None, 2)).evaluate({"id": 3}) is None
    True
    >>> InList(col("id"), (1, 2)).evaluate({"id": 3})
    False
    >>> InList(col("id"), ()).evaluate({"id": None})
    False
    """

    operand: Expression
    values: Tuple[Any, ...]

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        if not self.values:  # no member to compare: FALSE even for NULL
            return (InList,)
        operand = self.operand._shape(constants, table)
        # Hot path of resolved pushdown subqueries: the outer scan tests
        # every row against the list, so membership is a set probe.  Only
        # a non-NULL operand probes it, so a listed NULL may stay in it.
        try:
            constants.append(frozenset(self.values))
        except TypeError:  # unhashable list values
            constants.append(self.values)
        return (InList, operand, None in self.values)

    def to_sql(self) -> Tuple[str, List[Any]]:
        operand_sql, params = self.operand.to_sql()
        placeholders = ", ".join("?" for _ in self.values)
        return f"{operand_sql} IN ({placeholders})", params + list(self.values)

    def columns(self) -> List[str]:
        return self.operand.columns()

    def subqueries(self) -> List[Any]:
        return self.operand.subqueries()


@dataclass(frozen=True)
class InSubquery(Expression):
    """Membership test against a nested select: ``column IN (SELECT ...)``.

    The pushdown form of a bounded faceted query: the subquery selects the
    (distinct) record identifiers -- ``jid`` for the FORM, ``id`` for the
    baseline ORM -- with the ORDER BY / LIMIT / OFFSET applied *inside*, so
    the database prunes to the first *n* records before the outer query
    fetches their facet rows.

    ``subquery`` is a :class:`~repro.db.query.Query` that must select exactly
    one column.  SQL backends render it inline (a correlated-free subselect);
    the in-memory engine resolves it first with :func:`resolve_subqueries`,
    which either materialises it as an :class:`InList` or attaches
    ``members``, which runs it the first time a row's evaluation reaches
    it.  :meth:`compile` on an unresolved tree is an error rather than a
    silently wrong answer.

    >>> from repro.db.query import Query
    >>> bounded = Query("Paper").select("jid").distinct_rows().limited(2)
    >>> InSubquery(col("jid"), bounded).to_sql()
    ('jid IN (SELECT DISTINCT "jid" FROM "Paper" LIMIT 2)', [])
    """

    operand: Expression
    subquery: Any
    #: the subquery's values, run on first use (see :func:`resolve_subqueries`)
    members: Optional["_Members"] = field(default=None, compare=False, repr=False)

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        if self.members is None:
            raise TypeError(
                "InSubquery cannot be evaluated row-by-row; resolve it first "
                "with repro.db.expr.resolve_subqueries(expression, run_subquery)"
            )
        operand = self.operand._shape(constants, table)
        constants.append(self.members)
        return (InSubquery, operand)

    def to_sql(self) -> Tuple[str, List[Any]]:
        from repro.db.sqlgen import query_to_sql

        operand_sql, params = self.operand.to_sql()
        sub_sql, sub_params = query_to_sql(self.subquery, qualify=self.subquery.is_join())
        return f"{operand_sql} IN ({sub_sql})", params + sub_params

    def columns(self) -> List[str]:
        return self.operand.columns()

    def subqueries(self) -> List[Any]:
        return [self.subquery]


@dataclass(frozen=True)
class AndExpr(Expression):
    left: Expression
    right: Expression

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (
            AndExpr, self.left._shape(constants, table), self.right._shape(constants, table)
        )

    def to_sql(self) -> Tuple[str, List[Any]]:
        left_sql, left_params = self.left.to_sql()
        right_sql, right_params = self.right.to_sql()
        return f"({left_sql} AND {right_sql})", left_params + right_params

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def subqueries(self) -> List[Any]:
        return self.left.subqueries() + self.right.subqueries()


@dataclass(frozen=True)
class OrExpr(Expression):
    left: Expression
    right: Expression

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (
            OrExpr, self.left._shape(constants, table), self.right._shape(constants, table)
        )

    def to_sql(self) -> Tuple[str, List[Any]]:
        left_sql, left_params = self.left.to_sql()
        right_sql, right_params = self.right.to_sql()
        return f"({left_sql} OR {right_sql})", left_params + right_params

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def subqueries(self) -> List[Any]:
        return self.left.subqueries() + self.right.subqueries()


@dataclass(frozen=True)
class NotExpr(Expression):
    operand: Expression

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (NotExpr, self.operand._shape(constants, table))

    def to_sql(self) -> Tuple[str, List[Any]]:
        operand_sql, params = self.operand.to_sql()
        return f"(NOT {operand_sql})", params

    def columns(self) -> List[str]:
        return self.operand.columns()

    def subqueries(self) -> List[Any]:
        return self.operand.subqueries()


@dataclass(frozen=True)
class IsNull(Expression):
    """``column IS NULL`` / ``IS NOT NULL`` tests (never UNKNOWN)."""

    operand: Expression
    negated: bool = False

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (IsNull, self.operand._shape(constants, table), self.negated)

    def to_sql(self) -> Tuple[str, List[Any]]:
        operand_sql, params = self.operand.to_sql()
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{operand_sql} {keyword}", params

    def columns(self) -> List[str]:
        return self.operand.columns()

    def subqueries(self) -> List[Any]:
        return self.operand.subqueries()


@dataclass(frozen=True)
class NullSafeEq(Expression):
    """Null-safe equality ``left IS right`` / ``left IS NOT right``.

    SQLite's ``IS`` operator compares any two values with NULL treated as
    an ordinary (equal-to-NULL) value, so the result is always TRUE or
    FALSE -- never UNKNOWN.  The in-memory engine mirrors that with plain
    Python ``==``.  This is the rendering inline policy pushdown uses: a
    compiled policy predicate must be *two-valued* so that its negation
    selects exactly the complement rows, which three-valued ``=`` cannot
    guarantee on nullable columns.

    >>> NullSafeEq(col("owner_id"), lit(None)).evaluate({"owner_id": None})
    True
    >>> NullSafeEq(col("owner_id"), lit(3)).evaluate({"owner_id": None})
    False
    >>> NullSafeEq(col("owner_id"), lit(3), negated=True).to_sql()
    ('owner_id IS NOT ?', [3])
    """

    left: Expression
    right: Expression
    negated: bool = False

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (
            NullSafeEq,
            self.left._shape(constants, table),
            self.right._shape(constants, table),
            self.negated,
        )

    def to_sql(self) -> Tuple[str, List[Any]]:
        left_sql, left_params = self.left.to_sql()
        right_sql, right_params = self.right.to_sql()
        keyword = "IS NOT" if self.negated else "IS"
        return f"{left_sql} {keyword} {right_sql}", left_params + right_params

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def subqueries(self) -> List[Any]:
        return self.left.subqueries() + self.right.subqueries()


@dataclass(frozen=True)
class FacetBranch(Expression):
    """Matches the facet rows of one policy-group branch of a table.

    A faceted row's ``jvars`` for a single policy group is exactly
    ``"{table}.{jid}.{key}={polarity}"`` (the label-name convention plus
    the encoded assignment), so the positive/negative branch of a record
    is selected by comparing ``jvars`` against that string built from the
    row's own ``jid``.  Rendered to SQL with the concatenation operator
    (``jid`` is an INTEGER; ``||`` coerces it to TEXT), so a NULL ``jid``
    or ``jvars`` makes the test UNKNOWN.

    The memory engine has two spellings of the test.  Compiled against the
    scanned table (:meth:`Expression.compile`), an unqualified branch of
    that table's own prefix reads the row's primary key against the
    table's facet-branch index, whose sets hold exactly the rows
    :func:`canonical_branch` assigns to that key and polarity.  Otherwise
    -- a join, :meth:`Expression.evaluate`, a forced scan, a foreign
    prefix -- it builds the string per row.  Compiled against a table that
    holds no row with a NULL ``jid`` or ``jvars`` (every FORM table),
    either spelling is two-valued, with no per-row NULL check; otherwise
    it is UNKNOWN on such rows.

    >>> branch = FacetBranch("Doc", "title", True)
    >>> branch.evaluate({"jid": 7, "jvars": "Doc.7.title=True"})
    True
    >>> branch.evaluate({"jid": 7, "jvars": ""})
    False
    >>> branch.evaluate({"jid": None, "jvars": "Doc.None.title=True"}) is None
    True
    >>> branch.to_sql()
    ('jvars = (? || jid || ?)', ['Doc.', '.title=True'])
    """

    table: str
    key: str
    polarity: bool
    qualify: bool = False

    def _column(self, name: str) -> str:
        return f"{self.table}.{name}" if self.qualify else name

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        index = None if table is None or self.qualify else table.branch_index()
        if index is None:
            return (FacetBranch, True, self.table, self.key, self.polarity, self.qualify)
        members = index.members(self.table, self.key, self.polarity)
        if members is None:
            return (FacetBranch, bool(index.nulls), self.table, self.key, self.polarity, False)
        constants.append(members)
        if index.nulls:
            constants.append(index.nulls)
            return (_BRANCH_INDEX, index.pk, True)
        return (_BRANCH_INDEX, index.pk, False)

    def to_sql(self) -> Tuple[str, List[Any]]:
        jvars = self._column("jvars")
        jid = self._column("jid")
        return (
            f"{jvars} = (? || {jid} || ?)",
            [f"{self.table}.", f".{self.key}={self.polarity}"],
        )

    def columns(self) -> List[str]:
        return [self._column("jvars"), self._column("jid")]


#: The shape tag of a :class:`FacetBranch` answered by a facet-branch index.
_BRANCH_INDEX = "FacetBranch index"


def canonical_branch(table: str, jid: Any, jvars: Any) -> Optional[Tuple[str, bool]]:
    """The ``(group key, polarity)`` of a canonical facet row, or ``None``.

    A row is canonical when its ``jvars`` is exactly the single-group
    encoding ``"{table}.{jid}.{key}={polarity}"`` for its own ``jid``,
    with a key that can name one group (:func:`is_group_key`).
    Unfaceted rows (``jvars = ''``), multi-group rows, program-counter and
    foreign-jid labels, and rows with a NULL ``jid`` or ``jvars`` are not.
    The one rule behind the backends' facet state
    (:meth:`~repro.db.backend.Backend.facet_branch_keys`) and the memory
    engine's facet-branch index: :class:`FacetBranch` ``(table, key,
    polarity)`` matches a row with non-NULL ``jid`` and ``jvars`` exactly
    when this returns ``(key, polarity)`` for it, whenever ``key`` is a
    group key.

    >>> canonical_branch("Doc", 7, "Doc.7.title=True")
    ('title', True)
    >>> canonical_branch("Doc", 7, "Doc.8.title=True") is None  # foreign jid
    True
    >>> canonical_branch("Doc", 7, "Doc.7.title=True,Doc.7.x=False") is None
    True
    >>> canonical_branch("Doc", None, "Doc.None.title=True") is None
    True
    """
    if not jvars or jid is None or not isinstance(jvars, str):
        return None
    prefix = f"{table}.{jid}."
    if not jvars.startswith(prefix):
        return None  # unfaceted, pc label, ad-hoc label, foreign table or jid
    key, _, value = jvars[len(prefix):].rpartition("=")
    if value not in ("True", "False") or not is_group_key(key):
        return None
    return key, value == "True"


def is_group_key(key: Any) -> bool:
    """Whether ``key`` can be a canonical row's group key: a non-empty
    string with no ``.``, ``=`` or ``,``, which would make the encoding
    ambiguous.

    >>> is_group_key("email"), is_group_key("a.b")
    (True, False)
    """
    return (
        isinstance(key, str) and bool(key)
        and "." not in key and "=" not in key and "," not in key
    )


@dataclass(frozen=True)
class Between(Expression):
    """Range test ``operand BETWEEN low AND high`` (inclusive both ends).

    SQL defines it as ``operand >= low AND operand <= high``, and it
    compiles to exactly that expansion, so the three-valued semantics
    follow: a NULL operand or bound makes the corresponding comparison
    UNKNOWN, but a definite FALSE on either side still dominates
    (``5 BETWEEN 7 AND NULL`` is FALSE on SQLite, not UNKNOWN).

    >>> between("score", 2, 5).evaluate({"score": 3})
    True
    >>> between("score", 2, 5).evaluate({"score": None}) is None
    True
    >>> between("score", 7, None).evaluate({"score": 5})
    False
    >>> between("score", 2, 5).to_sql()
    ('score BETWEEN ? AND ?', [2, 5])
    """

    operand: Expression
    low: Expression
    high: Expression

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        return (
            Between,
            self.operand._shape(constants, table),
            self.low._shape(constants, table),
            self.high._shape(constants, table),
        )

    def to_sql(self) -> Tuple[str, List[Any]]:
        operand_sql, params = self.operand.to_sql()
        low_sql, low_params = self.low.to_sql()
        high_sql, high_params = self.high.to_sql()
        return (
            f"{operand_sql} BETWEEN {low_sql} AND {high_sql}",
            params + low_params + high_params,
        )

    def columns(self) -> List[str]:
        return self.operand.columns() + self.low.columns() + self.high.columns()

    def subqueries(self) -> List[Any]:
        return (
            self.operand.subqueries()
            + self.low.subqueries()
            + self.high.subqueries()
        )


def _like_text(value: Any) -> str:
    """The TEXT form SQLite compares a stored value against under LIKE.

    Mirrors the SQLite backend's storage encoding, so the memory engine's
    LIKE agrees with SQLite applying LIKE to the stored representation:
    booleans are stored as 1/0, datetimes as their isoformat.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, datetime.datetime):
        return value.isoformat()
    return str(value)


@dataclass(frozen=True)
class Like(Expression):
    """SQL pattern match ``operand LIKE pattern`` (``%`` and ``_`` wildcards).

    The default follows SQLite's LIKE: case-insensitive for ASCII letters
    only.  ``case_sensitive=True`` matches exactly -- rendered to SQL as
    ``GLOB`` with a translated pattern, because SQLite's LIKE operator
    cannot be made case-sensitive per-expression.  A NULL operand or
    pattern is UNKNOWN, as in SQL.

    >>> like("path", "/eng/%", case_sensitive=True).evaluate({"path": "/eng/a"})
    True
    >>> like("name", "AD%").evaluate({"name": "ada"})
    True
    >>> like("name", "AD%", case_sensitive=True).evaluate({"name": "ada"})
    False
    >>> like("name", "a%").evaluate({"name": None}) is None
    True
    >>> like("path", "/eng/%", case_sensitive=True).to_sql()
    ('path GLOB ?', ['/eng/*'])
    """

    operand: Expression
    pattern: str
    case_sensitive: bool = False

    def _shape(self, constants: List[Any], table: Optional["Table"]) -> Tuple[Any, ...]:
        if self.pattern is None:
            return (Like,)
        operand = self.operand._shape(constants, table)
        translated = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in self.pattern
        )
        flags = re.DOTALL
        if not self.case_sensitive:
            # SQLite's LIKE folds case for ASCII letters only.
            flags |= re.IGNORECASE | re.ASCII
        constants.append(re.compile(translated, flags).fullmatch)
        return (Like, operand, self.case_sensitive)

    def to_sql(self) -> Tuple[str, List[Any]]:
        operand_sql, params = self.operand.to_sql()
        if not self.case_sensitive:
            return f"{operand_sql} LIKE ?", params + [self.pattern]
        glob = "".join(
            "*" if ch == "%" else "?" if ch == "_"
            else f"[{ch}]" if ch in "*?[" else ch
            for ch in self.pattern
        )
        return f"{operand_sql} GLOB ?", params + [glob]

    def columns(self) -> List[str]:
        return self.operand.columns()

    def subqueries(self) -> List[Any]:
        return self.operand.subqueries()


# -- the generator ---------------------------------------------------------------

#: How many WHERE shapes keep their generated factory.  Shapes come from
#: schemas and query code, not from data, so the cache stays well below
#: this; past it the oldest shape is dropped.
SHAPE_CACHE_SIZE = 512

#: shape key -> factory binding a statement's constants into its predicate.
_FACTORIES: Dict[Tuple[Any, ...], Callable[..., Predicate]] = {}
_FACTORIES_LOCK = threading.Lock()

# What a written expression can evaluate to.
_BOOL = "bool"  # exactly True or False
_TRI = "tri"  # True, False or None (UNKNOWN)
_VALUE = "value"  # a column value, None included
_CONST = "const"  # a non-NULL literal
_NULLABLE = (_TRI, _VALUE)


def _cached_factory(shape: Tuple[Any, ...]) -> Callable[..., Predicate]:
    """The factory of ``shape``, generating its source on a cache miss."""
    with _FACTORIES_LOCK:
        factory = _FACTORIES.get(shape)
        if factory is None:
            namespace = {
                "_col": column_value, "_contains": _contains, "_like_text": _like_text,
            }
            exec(compile(_factory_source(shape), "<where shape>", "exec"), namespace)
            factory = namespace["factory"]
            obs.add("db.predicate.generated")
            if len(_FACTORIES) >= SHAPE_CACHE_SIZE:
                del _FACTORIES[next(iter(_FACTORIES))]
            _FACTORIES[shape] = factory
    return factory


def _factory_source(shape: Tuple[Any, ...]) -> str:
    """The source of ``factory(c0, c1, ...)``, which returns the predicate.

    The predicate tries the fast spelling, which reads ``row[name]`` and
    probes ``IN`` sets directly.  On a :class:`KeyError` or
    :class:`TypeError` it evaluates the row again with the general
    spelling, which resolves qualified and bare names (:func:`column_value`)
    and tests unhashable ``IN`` operands; an error that spelling raises
    too (a missing column, unorderable values) propagates.
    """
    names: Dict[str, str] = {}
    fast = _Writer(False, names).write(shape)[0]
    writer = _Writer(True, names)
    general = writer.write(shape)[0]
    lines = [f"def factory({', '.join(f'c{i}' for i in range(writer.constants))}):"]
    lines += [f"    {variable} = {name!r}" for name, variable in names.items()]
    lines += [
        "    def predicate(row):",
        "        try:",
        f"            return {fast}",
        "        except (KeyError, TypeError):",
        "            pass",
        f"        return {general}",
        "    return predicate",
    ]
    return "\n".join(lines)


def _contains(members: Any, value: Any) -> bool:
    """``value in members`` for an operand value that may be unhashable."""
    try:
        return value in members
    except TypeError:  # unhashable operand value
        return value in tuple(members)


def _fstring_text(text: str) -> str:
    """``text`` escaped as the literal part of a single-quoted f-string."""
    # repr() of a string holding a double quote always picks single quotes.
    return repr(text + '"')[1:-2].replace("{", "{{").replace("}", "}}")


def _chain(tag: type, shape: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
    """The operands of a run of ``tag`` (AND or OR) nodes, left to right.

    SQL's AND and OR are associative, so a chain is written flat: deep
    ``and_all`` conjunctions stay one Python expression level.
    """
    if shape[0] is tag:
        return _chain(tag, shape[1]) + _chain(tag, shape[2])
    return [shape]


class _Writer:
    """Writes one spelling of a shape as a Python expression over ``row``.

    Each node becomes ``(code, kind)``, ``kind`` being what the code can
    evaluate to (``_BOOL``, ``_TRI``, ``_VALUE`` or ``_CONST``).  A node
    that cannot be NULL is written as plain ``and``/``or``/``not``/``==``;
    the others follow SQL's three-valued logic with ``None`` as UNKNOWN.
    Operands are evaluated left to right with the short-circuits of SQL's
    AND and OR, so a row raises exactly where the tree says it should.
    Constants are numbered ``c0, c1, ...`` in the order
    :meth:`Expression._shape` appends them.
    """

    def __init__(self, general: bool, names: Dict[str, str]) -> None:
        self.general = general
        #: column names read inside an f-string -> their factory variable
        self.names = names
        self.constants = 0
        self.temps = 0

    def constant(self) -> str:
        self.constants += 1
        return f"c{self.constants - 1}"

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps - 1}"

    def read(self, name: str) -> str:
        """The code reading column ``name`` (a literal or a variable)."""
        return f"_col(row, {name})" if self.general else f"row[{name}]"

    def write(self, shape: Tuple[Any, ...]) -> Tuple[str, str]:
        return _WRITERS[shape[0]](self, *shape[1:])

    def boolean(self, shape: Tuple[Any, ...]) -> Tuple[str, str]:
        """``shape`` as an operand of AND, OR or NOT: boolean or UNKNOWN."""
        code, kind = self.write(shape)
        if kind == _CONST:
            return f"bool({code})", _BOOL
        if kind == _VALUE:
            temp = self.temp()
            return f"(None if ({temp} := {code}) is None else bool({temp}))", _TRI
        return code, kind

    def column(self, name: str) -> Tuple[str, str]:
        return self.read(repr(name)), _VALUE

    def literal(self, present: bool) -> Tuple[str, str]:
        return (self.constant(), _CONST) if present else ("None", _TRI)

    def comparison(self, op: str, left: Tuple[Any, ...], right: Tuple[Any, ...]):
        return self.compare(_OPERATORS[op], self.write(left), self.write(right))

    def compare(self, op: str, left: Tuple[str, str], right: Tuple[str, str]):
        """Comparing against NULL is UNKNOWN for every operator, as in SQL."""
        (a, a_kind), (b, b_kind) = left, right
        if a_kind not in _NULLABLE and b_kind not in _NULLABLE:
            return f"({a} {op} {b})", _BOOL
        if b_kind == _CONST:  # ``column op ?``, the form every caller builds
            temp = self.temp()
            return f"(None if ({temp} := {a}) is None else {temp} {op} {b})", _TRI
        first, second = self.temp(), self.temp()
        return (
            f"(None if (({first} := {a}) is None) | (({second} := {b}) is None) "
            f"else {first} {op} {second})",
            _TRI,
        )

    def in_list(self, operand: Tuple[Any, ...] = None, has_null: bool = False):
        """A NULL operand is UNKNOWN; so is a miss when the list holds NULL."""
        if operand is None:  # an empty list: FALSE without reading the operand
            return "False", _BOOL
        value, members, probe = self.write(operand)[0], self.constant(), self.temp()
        found = (
            f"_contains({members}, {probe})" if self.general else f"({probe} in {members})"
        )
        if has_null:
            found = f"({found} or None)"
        return f"(None if ({probe} := {value}) is None else {found})", _TRI

    def in_subquery(self, operand: Tuple[Any, ...]) -> Tuple[str, str]:
        """The subquery runs when the first row reaches it (:class:`_Members`)."""
        return f"{self.constant()}.test({self.write(operand)[0]})", _TRI

    def conjunction(self, left: Tuple[Any, ...], right: Tuple[Any, ...]):
        shapes = _chain(AndExpr, (AndExpr, left, right))
        return self.all_of([self.boolean(shape) for shape in shapes])

    def all_of(self, items: List[Tuple[str, str]]) -> Tuple[str, str]:
        """Three-valued AND: FALSE dominates, then UNKNOWN."""
        parts, unknowns = [], []
        for code, kind in items:
            if kind == _BOOL:
                parts.append(code)
                continue
            temp = self.temp()
            parts.append(f"({temp} := {code}) is not False")
            unknowns.append(temp)
        if unknowns:  # each is True or None here
            parts.append(f"({' and '.join(unknowns)})")
        return f"({' and '.join(parts)})", _TRI if unknowns else _BOOL

    def disjunction(self, left: Tuple[Any, ...], right: Tuple[Any, ...]):
        """Three-valued OR: TRUE dominates, then UNKNOWN."""
        parts, unknowns = [], []
        for shape in _chain(OrExpr, (OrExpr, left, right)):
            code, kind = self.boolean(shape)
            if kind == _BOOL:
                parts.append(code)
                continue
            temp = self.temp()
            parts.append(f"({temp} := {code})")
            unknowns.append(temp)
        if unknowns:  # each is False or None here
            missing = " or ".join(f"{temp} is None" for temp in unknowns)
            parts.append(f"(None if {missing} else False)")
        return f"({' or '.join(parts)})", _TRI if unknowns else _BOOL

    def negation(self, operand: Tuple[Any, ...]) -> Tuple[str, str]:
        """Three-valued NOT: UNKNOWN stays UNKNOWN."""
        code, kind = self.boolean(operand)
        if kind == _BOOL:
            return f"(not {code})", _BOOL
        temp = self.temp()
        return f"(None if ({temp} := {code}) is None else not {temp})", _TRI

    def is_null(self, operand: Tuple[Any, ...], negated: bool) -> Tuple[str, str]:
        code, _kind = self.write(operand)
        return f"({code} is {'not ' if negated else ''}None)", _BOOL

    def null_safe_eq(self, left, right, negated: bool) -> Tuple[str, str]:
        a, b = self.write(left)[0], self.write(right)[0]
        return f"({a} {'!=' if negated else '=='} {b})", _BOOL

    def facet_branch(
        self, nullable: bool, table: str, key: str, polarity: bool, qualify: bool
    ) -> Tuple[str, str]:
        """``jvars == f'{table}.{jid}.{key}={polarity}'`` for the row's jid;
        UNKNOWN when ``nullable`` and either column is NULL."""
        jvars, jid = (f"{table}.jvars", f"{table}.jid") if qualify else ("jvars", "jid")
        prefix, suffix = _fstring_text(f"{table}."), _fstring_text(f".{key}={polarity}")
        if nullable:
            text, number = self.temp(), self.temp()
            return (
                f"(None if (({text} := {self.read(repr(jvars))}) is None) "
                f"| (({number} := {self.read(repr(jid))}) is None) "
                f"else {text} == f'{prefix}{{{number}}}{suffix}')",
                _TRI,
            )
        # An f-string may not quote inside its braces before Python 3.12,
        # so the jid column's name is a factory variable.
        variable = self.names.setdefault(jid, f"n{len(self.names)}")
        text = f"f'{prefix}{{{self.read(variable)}}}{suffix}'"
        return f"({self.read(repr(jvars))} == {text})", _BOOL

    def branch_index(self, pk: str, nullable: bool) -> Tuple[str, str]:
        """The row's primary key in the facet-branch index's set; UNKNOWN
        when ``nullable`` and the key is in the set of rows with a NULL
        ``jid`` or ``jvars``."""
        members, key = self.constant(), self.read(repr(pk))
        if not nullable:
            return f"({key} in {members})", _BOOL
        nulls, temp = self.constant(), self.temp()
        return f"(None if ({temp} := {key}) in {nulls} else {temp} in {members})", _TRI

    def between(self, operand, low, high) -> Tuple[str, str]:
        """``operand >= low AND operand <= high``, as SQL defines it."""
        value, low, high = self.write(operand), self.write(low), self.write(high)
        return self.all_of([self.compare(">=", value, low), self.compare("<=", value, high)])

    def like(self, operand: Tuple[Any, ...] = None, case_sensitive: bool = False):
        """A NULL operand or pattern is UNKNOWN."""
        if operand is None:  # a NULL pattern
            return "None", _TRI
        value, match, temp = self.write(operand)[0], self.constant(), self.temp()
        return (
            f"(None if ({temp} := {value}) is None "
            f"else {match}(_like_text({temp})) is not None)",
            _TRI,
        )


_WRITERS = {
    ColumnRef: _Writer.column,
    Literal: _Writer.literal,
    Comparison: _Writer.comparison,
    InList: _Writer.in_list,
    InSubquery: _Writer.in_subquery,
    AndExpr: _Writer.conjunction,
    OrExpr: _Writer.disjunction,
    NotExpr: _Writer.negation,
    IsNull: _Writer.is_null,
    NullSafeEq: _Writer.null_safe_eq,
    FacetBranch: _Writer.facet_branch,
    _BRANCH_INDEX: _Writer.branch_index,
    Between: _Writer.between,
    Like: _Writer.like,
}


# -- subquery resolution ---------------------------------------------------------


class _Members:
    """The values of one subquery, run the first time a row needs them.

    :meth:`test` is :class:`InList`'s three-valued membership, so a lazy
    subquery selects the rows its materialised list would.  The values
    are kept, so the subquery runs at most once per resolved tree, however
    many rows reach it.
    """

    __slots__ = ("_run", "_values", "_has_null")

    def __init__(self, run: Callable[[], List[Any]]) -> None:
        self._run = run
        self._values: Any = None
        self._has_null = False

    def test(self, value: Any) -> Any:
        values = self._values
        if values is None:
            listed = tuple(self._run())
            self._has_null = None in listed
            try:
                values = frozenset(listed)
            except TypeError:  # unhashable values
                values = listed
            self._values = values
        if not values:  # no member to compare: FALSE even for NULL
            return False
        if value is None:
            return None
        if _contains(values, value):
            return True
        return None if self._has_null else False


def resolve_subqueries(
    expression: Expression,
    run: Callable[[Any], List[Any]],
    lazy: bool = False,
    members: Optional[Dict[int, "_Members"]] = None,
) -> Expression:
    """Resolve every :class:`InSubquery` so the tree compiles.

    ``run`` executes one subquery and returns the list of selected values.
    By default each subquery runs now and becomes an :class:`InList` of
    its values.  With ``lazy``, a subquery under OR or NOT runs instead
    the first time a row's evaluation reaches it (``InSubquery.members``),
    as SQLite runs it: a row that never reaches it never pays for it, and
    a subquery object met twice runs once, also across the resolutions
    that share one ``members`` memo (a subquery's own nested subqueries,
    resolved while the statement runs).  A top-level conjunct still runs
    now, since the index planner probes with its list.  Trees without
    subqueries are returned unchanged (same object).
    """
    if members is None:
        members = {}

    def lazily(subquery: Any) -> _Members:
        # One run per subquery object: a policy's lookup often appears on
        # both facet branches of a record.
        found = members.get(id(subquery))
        if found is None:
            found = members[id(subquery)] = _Members(lambda: run(subquery))
        return found

    return _resolve(expression, run, lazily if lazy else None, True)


def _resolve(
    expression: Expression,
    run: Callable[[Any], List[Any]],
    lazily: Optional[Callable[[Any], "_Members"]],
    top: bool,
) -> Expression:
    """One pass over the tree; a subtree without subqueries comes back as
    the same object."""
    kind = type(expression)
    if kind is InSubquery:
        subquery = expression.subquery
        if lazily is not None and not top:
            return InSubquery(expression.operand, subquery, lazily(subquery))
        return InList(expression.operand, tuple(run(subquery)))
    if kind is AndExpr or kind is OrExpr:
        top = top and kind is AndExpr
        left = _resolve(expression.left, run, lazily, top)
        right = _resolve(expression.right, run, lazily, top)
        if left is expression.left and right is expression.right:
            return expression
        return kind(left, right)
    if kind is NotExpr:
        operand = _resolve(expression.operand, run, lazily, False)
        return expression if operand is expression.operand else NotExpr(operand)
    if expression.subqueries():
        raise TypeError(
            f"cannot resolve subqueries under {kind.__name__}; "
            "InSubquery may only appear under AND/OR/NOT"
        )
    return expression


def subquery_values(rows: List[Dict[str, Any]], subquery: Any) -> List[Any]:
    """Extract the single selected column from an executed subquery's rows.

    Join subqueries return qualified keys (``"Table.column"``); the lookup
    accepts either form, like every other column resolution in this module.
    """
    columns = subquery.columns
    if not columns or len(columns) != 1:
        raise ValueError(
            f"subquery must select exactly one column, got {columns!r}"
        )
    name = columns[0]
    values = []
    for row in rows:
        try:
            values.append(column_value(row, name))
        except KeyError:
            # Fail loudly: silently treating a misnamed column as NULL would
            # make the memory engine match rows SQL never would ("x IN
            # (NULL)" matches nothing) -- an empty-or-wrong result instead
            # of an error at the source.
            raise ValueError(
                f"subquery selected column {name!r} missing from result row "
                f"{sorted(row)!r}"
            ) from None
    return values


# -- convenience constructors ----------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for a column reference.

    >>> col("Paper.title").to_sql()
    ('Paper.title', [])
    """
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand for a literal.

    >>> lit(42).evaluate({})
    42
    """
    return Literal(value)


def eq(column: str, value: Any) -> Comparison:
    """``column = value`` where ``value`` may be a column reference.

    >>> eq("name", "ada").evaluate({"name": "ada"})
    True
    """
    right = value if isinstance(value, Expression) else Literal(value)
    return Comparison("=", ColumnRef(column), right)


def ne(column: str, value: Any) -> Comparison:
    """``column != value`` where ``value`` may be a column reference.

    >>> ne("name", "ada").evaluate({"name": "bob"})
    True
    """
    right = value if isinstance(value, Expression) else Literal(value)
    return Comparison("!=", ColumnRef(column), right)


def eq_or_null(column: str, value: Any) -> Expression:
    """``column = value``, or ``column IS NULL`` when ``value`` is ``None``.

    The translation ORM filter layers use for keyword lookups (Django's
    ``field=None`` semantics): a literal ``= NULL`` comparison is UNKNOWN
    in SQL and would match nothing.

    >>> eq_or_null("title", None).to_sql()
    ('title IS NULL', [])
    >>> eq_or_null("title", "x").to_sql()
    ('title = ?', ['x'])
    """
    if value is None:
        return IsNull(ColumnRef(column))
    return eq(column, value)


def null_safe_eq(column: str, value: Any, negated: bool = False) -> NullSafeEq:
    """Two-valued ``column IS value`` (see :class:`NullSafeEq`).

    >>> null_safe_eq("owner_id", None).to_sql()
    ('owner_id IS ?', [None])
    """
    right = value if isinstance(value, Expression) else Literal(value)
    return NullSafeEq(ColumnRef(column), right, negated)


def _comparison(op: str, column: str, value: Any) -> Comparison:
    right = value if isinstance(value, Expression) else Literal(value)
    return Comparison(op, ColumnRef(column), right)


def gt(column: str, value: Any) -> Comparison:
    """``column > value``.

    >>> gt("score", 3).evaluate({"score": 5})
    True
    """
    return _comparison(">", column, value)


def gte(column: str, value: Any) -> Comparison:
    """``column >= value``.

    >>> gte("score", 3).evaluate({"score": 3})
    True
    """
    return _comparison(">=", column, value)


def lt(column: str, value: Any) -> Comparison:
    """``column < value``.

    >>> lt("score", 3).evaluate({"score": None}) is None
    True
    """
    return _comparison("<", column, value)


def lte(column: str, value: Any) -> Comparison:
    """``column <= value``.

    >>> lte("score", 3).to_sql()
    ('score <= ?', [3])
    """
    return _comparison("<=", column, value)


def between(column: str, low: Any, high: Any) -> Between:
    """``column BETWEEN low AND high`` (inclusive both ends).

    >>> between("score", 2, 4).evaluate({"score": 4})
    True
    """
    low_expr = low if isinstance(low, Expression) else Literal(low)
    high_expr = high if isinstance(high, Expression) else Literal(high)
    return Between(ColumnRef(column), low_expr, high_expr)


def like(column: str, pattern: str, case_sensitive: bool = False) -> Like:
    """``column LIKE pattern`` (``%``/``_`` wildcards; SQLite case rules).

    >>> like("title", "facet%").evaluate({"title": "Faceted values"})
    True
    """
    return Like(ColumnRef(column), pattern, case_sensitive)


def string_successor(text: str) -> Optional[str]:
    """The smallest string greater than every string prefixed by ``text``.

    The upper bound of :func:`prefix_range`: increment the last code point,
    carrying past ``chr(0x10FFFF)``.  ``None`` means "no finite bound"
    (empty input or all-maximal code points).  Valid for both backends
    because UTF-8 byte order equals code-point order.

    >>> string_successor("/eng/")
    '/eng0'
    >>> string_successor("") is None
    True
    """
    for index in range(len(text) - 1, -1, -1):
        if ord(text[index]) < 0x10FFFF:
            return text[:index] + chr(ord(text[index]) + 1)
    return None


def prefix_range(column: str, prefix: str) -> Expression:
    """A prefix match compiled to plain range comparisons.

    The rewrite SQLite's own LIKE optimisation applies to
    ``column LIKE 'prefix%'``: a half-open range ``[prefix,
    successor(prefix))`` that SQLite's B-tree indexes serve.
    Case-sensitive by construction (range comparisons are), so it is the
    indexable spelling of the org-tree ``path LIKE :prefix || '%'`` policy
    shape.

    >>> prefix_range("path", "/eng/").to_sql()
    ('(path >= ? AND path < ?)', ['/eng/', '/eng0'])
    >>> prefix_range("path", "").to_sql()
    ('path IS NOT NULL', [])
    """
    if not prefix:
        # Every non-NULL TEXT value matches the empty prefix.
        return IsNull(ColumnRef(column), negated=True)
    upper = string_successor(prefix)
    if upper is None:  # all-maximal code points: no finite upper bound
        return gte(column, prefix)
    return AndExpr(gte(column, prefix), lt(column, upper))


def in_subquery(column: str, subquery: Any) -> InSubquery:
    """``column IN (SELECT ...)`` against a :class:`~repro.db.query.Query`."""
    return InSubquery(ColumnRef(column), subquery)


def and_all(expressions: Sequence[Expression]) -> Optional[Expression]:
    """Conjunction of a sequence of expressions (``None`` for empty input)."""
    result: Optional[Expression] = None
    for expression in expressions:
        result = expression if result is None else AndExpr(result, expression)
    return result


def filters_to_expr(filters: Dict[str, Any]) -> Optional[Expression]:
    """Translate a Django-style ``{column: value}`` filter dict to an expression.

    ``None`` translates to ``IS NULL``, like Django: under SQL's
    three-valued semantics ``column = NULL`` is UNKNOWN and would match
    nothing on any backend.

    >>> filters_to_expr({"title": None}).to_sql()
    ('title IS NULL', [])
    """
    return and_all([eq_or_null(name, value) for name, value in filters.items()])
