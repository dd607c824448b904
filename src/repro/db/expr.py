"""WHERE-clause expressions.

Expressions form a small tree with two renderings.  :meth:`~Expression.to_sql`
gives the parameterised SQL the SQLite backend and the SQL generator send.
:meth:`~Expression.compile` gives the in-memory engine's one evaluator: a
closure built once per statement and called once per row.  It follows
SQL's three-valued logic, with ``None`` as UNKNOWN, so both backends
select the same rows.  Column references may be qualified
(``"Event.location"``) for join queries.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class Expression:
    """Base class for boolean/scalar expressions over rows."""

    __slots__ = ()

    def evaluate(self, row: Dict[str, Any]) -> Any:
        """Evaluate against one row: a one-off ``self.compile()(row)``."""
        return self.compile()(row)

    def compile(self) -> Callable[[Dict[str, Any]], Any]:
        """The evaluator closure of this tree, to call once per row.

        The in-memory engine compiles a WHERE tree once per statement, so
        per-statement work (an ``IN`` list's member set, a ``LIKE``
        pattern's regex) is done once and each row costs one call per
        node.  A result of ``None`` is SQL's UNKNOWN; a WHERE clause keeps
        the rows whose result is truthy.  Subquery nodes raise
        :class:`TypeError` here: materialise them first with
        :func:`resolve_subqueries`.

        >>> pred = (eq("rank", 1) | eq("name", "ada")).compile()
        >>> pred({"rank": 2, "name": "ada"})
        True
        >>> pred({"rank": None, "name": "bob"}) is None
        True
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
        evaluation) and by the cache layer (to register every table a query
        reads for write-through invalidation).
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

    def compile(self) -> Callable[[Dict[str, Any]], Any]:
        name = self.name

        def lookup(row: Dict[str, Any]) -> Any:
            try:
                return row[name]
            except KeyError:
                return column_value(row, name)

        return lookup

    def to_sql(self) -> Tuple[str, List[Any]]:
        return self.name, []

    def columns(self) -> List[str]:
        return [self.name]


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def compile(self) -> Callable[[Dict[str, Any]], Any]:
        value = self.value
        return lambda row: value

    def to_sql(self) -> Tuple[str, List[Any]]:
        return "?", [self.value]


_OPERATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and b is not None and a < b,
    "<=": lambda a, b: a is not None and b is not None and a <= b,
    ">": lambda a, b: a is not None and b is not None and a > b,
    ">=": lambda a, b: a is not None and b is not None and a >= b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison between two expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _OPERATORS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def compile(self) -> Callable[[Dict[str, Any]], Optional[bool]]:
        # SQL three-valued semantics: comparing against NULL is UNKNOWN
        # (None) for every operator, matching SQLite.  Use IsNull for
        # explicit NULL tests.
        left, right = self.left.compile(), self.right.compile()
        op = _OPERATORS[self.op]

        def compare(row: Dict[str, Any]) -> Optional[bool]:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return op(a, b)

        return compare

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

    def compile(self) -> Callable[[Dict[str, Any]], Optional[bool]]:
        if not self.values:  # no member to compare: FALSE even for NULL
            return lambda row: False
        operand = self.operand.compile()
        miss = None if None in self.values else False
        listed = tuple(item for item in self.values if item is not None)
        # Hot path of resolved pushdown subqueries: the outer scan tests
        # every row against the list, so membership is a set probe.
        try:
            members: Any = frozenset(listed)
        except TypeError:  # unhashable list values
            members = listed

        def member(row: Dict[str, Any]) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            try:
                found = value in members
            except TypeError:  # unhashable operand value
                found = value in listed
            return True if found else miss

        return member

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
    the in-memory engine materialises it first with
    :func:`resolve_subqueries`, so :meth:`compile` on an unresolved tree is
    an error rather than a silently wrong answer.

    >>> from repro.db.query import Query
    >>> bounded = Query("Paper").select("jid").distinct_rows().limited(2)
    >>> InSubquery(col("jid"), bounded).to_sql()
    ('jid IN (SELECT DISTINCT "jid" FROM "Paper" LIMIT 2)', [])
    """

    operand: Expression
    subquery: Any

    def compile(self) -> Callable[[Dict[str, Any]], Any]:
        raise TypeError(
            "InSubquery cannot be evaluated row-by-row; materialise it first "
            "with repro.db.expr.resolve_subqueries(expression, run_subquery)"
        )

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
class ExistsSubquery(Expression):
    """Membership probe against a nested select: ``EXISTS (SELECT ...)``.

    Unlike :class:`InSubquery` this tests whether the subquery returns *any*
    row at all, which SQL answers without materialising the rows.  SQL
    backends render the subselect inline; the in-memory engine materialises
    it with :func:`resolve_subqueries` (the subquery must select exactly one
    column, like every other memory-resolved subquery) and replaces the node
    with a boolean literal.

    EXISTS never yields UNKNOWN -- an empty result is plain FALSE -- so it
    composes with NOT without the three-valued caveats of ``NOT IN``.

    >>> from repro.db.query import Query
    >>> from repro.db.expr import eq
    >>> sub = Query("Review").filter(eq("score", 5)).select("id")
    >>> ExistsSubquery(sub).to_sql()
    ('EXISTS (SELECT "id" FROM "Review" WHERE score = ?)', [5])
    """

    subquery: Any

    def compile(self) -> Callable[[Dict[str, Any]], Any]:
        raise TypeError(
            "ExistsSubquery cannot be evaluated row-by-row; materialise it "
            "first with repro.db.expr.resolve_subqueries(expression, run_subquery)"
        )

    def to_sql(self) -> Tuple[str, List[Any]]:
        from repro.db.sqlgen import query_to_sql

        sub_sql, sub_params = query_to_sql(self.subquery, qualify=self.subquery.is_join())
        return f"EXISTS ({sub_sql})", sub_params

    def subqueries(self) -> List[Any]:
        return [self.subquery]


@dataclass(frozen=True)
class AndExpr(Expression):
    left: Expression
    right: Expression

    def compile(self) -> Callable[[Dict[str, Any]], Optional[bool]]:
        # SQL three-valued AND: FALSE dominates, then UNKNOWN (None).
        left, right = self.left.compile(), self.right.compile()

        def conjoin(row: Dict[str, Any]) -> Optional[bool]:
            a = left(row)
            if a is not None and not a:
                return False
            b = right(row)
            if b is not None and not b:
                return False
            if a is None or b is None:
                return None
            return True

        return conjoin

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

    def compile(self) -> Callable[[Dict[str, Any]], Optional[bool]]:
        # SQL three-valued OR: TRUE dominates, then UNKNOWN (None).
        left, right = self.left.compile(), self.right.compile()

        def disjoin(row: Dict[str, Any]) -> Optional[bool]:
            a = left(row)
            if a:
                return True
            b = right(row)
            if b:
                return True
            if a is None or b is None:
                return None
            return False

        return disjoin

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

    def compile(self) -> Callable[[Dict[str, Any]], Optional[bool]]:
        # SQL three-valued NOT: UNKNOWN stays UNKNOWN, so a NOT IN filter
        # over a NULL operand (or a NULL-containing list) matches nothing
        # on both backends instead of everything on the memory engine.
        operand = self.operand.compile()

        def negate(row: Dict[str, Any]) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            return not bool(value)

        return negate

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

    def compile(self) -> Callable[[Dict[str, Any]], bool]:
        operand = self.operand.compile()
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

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

    def compile(self) -> Callable[[Dict[str, Any]], bool]:
        left, right = self.left.compile(), self.right.compile()
        if self.negated:
            return lambda row: left(row) != right(row)
        return lambda row: left(row) == right(row)

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
    (``jid`` is an INTEGER; ``||`` coerces it to TEXT).

    >>> branch = FacetBranch("Doc", "title", True)
    >>> branch.evaluate({"jid": 7, "jvars": "Doc.7.title=True"})
    True
    >>> branch.evaluate({"jid": 7, "jvars": ""})
    False
    >>> branch.to_sql()
    ('jvars = (? || jid || ?)', ['Doc.', '.title=True'])
    """

    table: str
    key: str
    polarity: bool
    qualify: bool = False

    def _column(self, name: str) -> str:
        return f"{self.table}.{name}" if self.qualify else name

    def compile(self) -> Callable[[Dict[str, Any]], bool]:
        jvars_col, jid_col = self._column("jvars"), self._column("jid")
        prefix = f"{self.table}."
        suffix = f".{self.key}={self.polarity}"

        def match(row: Dict[str, Any]) -> bool:
            try:
                jvars = row[jvars_col]
                jid = row[jid_col]
            except KeyError:
                jvars = column_value(row, jvars_col)
                jid = column_value(row, jid_col)
            return jvars == f"{prefix}{jid}{suffix}"

        return match

    def to_sql(self) -> Tuple[str, List[Any]]:
        jvars = self._column("jvars")
        jid = self._column("jid")
        return (
            f"{jvars} = (? || {jid} || ?)",
            [f"{self.table}.", f".{self.key}={self.polarity}"],
        )

    def columns(self) -> List[str]:
        return [self._column("jvars"), self._column("jid")]


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

    def compile(self) -> Callable[[Dict[str, Any]], Optional[bool]]:
        return AndExpr(
            Comparison(">=", self.operand, self.low),
            Comparison("<=", self.operand, self.high),
        ).compile()

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
    cannot be made case-sensitive per-expression -- and is the form an
    ordered index can serve with a prefix range probe.  A NULL operand or
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

    def compile(self) -> Callable[[Dict[str, Any]], Optional[bool]]:
        if self.pattern is None:
            return lambda row: None
        operand = self.operand.compile()
        translated = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in self.pattern
        )
        flags = re.DOTALL
        if not self.case_sensitive:
            # SQLite's LIKE folds case for ASCII letters only.
            flags |= re.IGNORECASE | re.ASCII
        fullmatch = re.compile(translated, flags).fullmatch

        def match(row: Dict[str, Any]) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            return fullmatch(_like_text(value)) is not None

        return match

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

    def literal_prefix(self) -> Tuple[str, bool]:
        """The pattern's leading literal text, and whether it is *pure*.

        A pure prefix pattern is ``literal + '%'`` exactly -- every string
        in the half-open range ``[prefix, successor(prefix))`` matches, so
        a case-sensitive index probe over that range is exact.

        >>> like("p", "/eng/%").literal_prefix()
        ('/eng/', True)
        >>> like("p", "a_c%").literal_prefix()
        ('a', False)
        """
        prefix = []
        for index, ch in enumerate(self.pattern):
            if ch in "%_":
                rest = self.pattern[index:]
                return "".join(prefix), rest == "%"
            prefix.append(ch)
        return "".join(prefix), False

    def columns(self) -> List[str]:
        return self.operand.columns()

    def subqueries(self) -> List[Any]:
        return self.operand.subqueries()


# -- subquery resolution ---------------------------------------------------------


def resolve_subqueries(
    expression: Expression, run: Callable[[Any], List[Any]]
) -> Expression:
    """Replace every :class:`InSubquery` with an :class:`InList` of its values.

    ``run`` executes one subquery and returns the list of selected values.
    The in-memory engine calls this before filtering so that row-by-row
    evaluation never needs backend access; trees without subqueries are
    returned unchanged (same object).
    """
    if not expression.subqueries():
        return expression
    if isinstance(expression, InSubquery):
        return InList(expression.operand, tuple(run(expression.subquery)))
    if isinstance(expression, ExistsSubquery):
        return Literal(bool(run(expression.subquery)))
    if isinstance(expression, AndExpr):
        return AndExpr(
            resolve_subqueries(expression.left, run),
            resolve_subqueries(expression.right, run),
        )
    if isinstance(expression, OrExpr):
        return OrExpr(
            resolve_subqueries(expression.left, run),
            resolve_subqueries(expression.right, run),
        )
    if isinstance(expression, NotExpr):
        return NotExpr(resolve_subqueries(expression.operand, run))
    raise TypeError(
        f"cannot resolve subqueries under {type(expression).__name__}; "
        "InSubquery may only appear under AND/OR/NOT"
    )


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

    The upper bound of a prefix range probe: increment the last code point,
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
    successor(prefix))`` that ordinary ordered indexes serve on both
    backends.  Case-sensitive by construction (range comparisons are), so
    it is the indexable spelling of the org-tree ``path LIKE :prefix ||
    '%'`` policy shape.

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


def exists_subquery(subquery: Any) -> ExistsSubquery:
    """``EXISTS (SELECT ...)`` against a :class:`~repro.db.query.Query`.

    >>> from repro.db.query import Query
    >>> exists_subquery(Query("Review").select("id")).to_sql()
    ('EXISTS (SELECT "id" FROM "Review")', [])
    """
    return ExistsSubquery(subquery)


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
