"""Access-path choice for the memory engine.

A read of one table takes one of two paths: a hash probe, which reads the
buckets of a hash-indexed column for an ``= literal``, ``IN (...)``,
``IS NULL`` or ``IS literal`` test, or the full scan.  The rule is fixed:
the probe whenever :func:`equality_probe` finds one, the scan otherwise.
Probe buckets are never larger than the table, so no estimate could prefer
the scan; ordered access (ranges, prefixes, ORDER BY) is SQLite's B-trees'
business, not the memory engine's.  The same function drives the memory
engine's execution *and* ``explain()``, so the reported path is always
the path that runs.

>>> from repro.db.expr import AndExpr, eq, gt
>>> choose_plan(eq("jid", 7), {"jid"}).describe()
{'access': 'hash-probe', 'index': 'hash:jid', 'column': 'jid', 'exact': True}
>>> choose_plan(AndExpr(eq("jid", 7), gt("score", 2)), {"jid"}).exact
False
>>> choose_plan(gt("score", 2), {"jid"}).describe()
{'access': 'full-scan'}
>>> choose_plan(eq("jid", 7), {"jid"}, use_indexes=False).kind
'full-scan'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Dict, Optional, Tuple

from repro.db.expr import (
    AndExpr,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Literal,
    NullSafeEq,
)


@dataclass(frozen=True)
class AccessPath:
    """How a read produces its candidate rows.

    ``kind`` is ``"hash-probe"`` or ``"full-scan"``.  A hash probe reads
    the buckets of ``values`` in ``column``'s hash index; ``exact`` means
    those buckets hold precisely the matching rows, so no row needs the
    predicate again.
    """

    kind: str
    column: Optional[str] = None
    values: Tuple[Any, ...] = ()
    exact: bool = False

    def describe(self) -> Dict[str, Any]:
        """The explain()-facing summary of this path."""
        if self.column is None:
            return {"access": self.kind}
        return {
            "access": self.kind,
            "index": f"hash:{self.column}",
            "column": self.column,
            "exact": self.exact,
        }


FULL_SCAN = AccessPath("full-scan")


def _bare(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def equality_probe(
    where: Expression, columns
) -> Optional[Tuple[str, Tuple[Any, ...], bool]]:
    """Detect a hash-servable ``= literal`` / ``IN`` / ``IS NULL`` probe.

    Returns ``(column, candidate key values, exact)``.  An ``IN`` list
    drops NULL entries -- a NULL never compares equal, so no matching row
    can live in the NULL bucket -- while ``IS NULL`` reads exactly that
    bucket; both probes are *exact* (bucket membership equals the
    predicate), as is ``= literal`` for a non-NULL literal.  Only
    AND-conjunctions are descended: an OR branch could match rows outside
    any single index bucket, and a descended probe is merely a superset
    (``exact=False``).
    """
    if isinstance(where, Comparison) and where.op == "=":
        if isinstance(where.left, ColumnRef) and isinstance(where.right, Literal):
            name = _bare(where.left.name)
            if name in columns:
                # "= NULL" is UNKNOWN, never a match: the NULL bucket is
                # a superset that per-row evaluation must reject.
                return name, (where.right.value,), where.right.value is not None
    if isinstance(where, InList) and isinstance(where.operand, ColumnRef):
        name = _bare(where.operand.name)
        if name in columns:
            values = tuple(value for value in where.values if value is not None)
            try:
                for value in values:
                    hash(value)
            except TypeError:  # unhashable: cannot probe a hash index
                return None
            return name, values, True
    if isinstance(where, IsNull) and not where.negated:
        if isinstance(where.operand, ColumnRef):
            name = _bare(where.operand.name)
            if name in columns:
                return name, (None,), True
    if isinstance(where, NullSafeEq) and not where.negated:
        # "column IS literal" reads exactly the literal's bucket: IS is
        # two-valued, so even an IS NULL-valued probe is exact.
        if isinstance(where.left, ColumnRef) and isinstance(where.right, Literal):
            name = _bare(where.left.name)
            if name in columns:
                return name, (where.right.value,), True
    if isinstance(where, AndExpr):
        hit = equality_probe(where.left, columns) or equality_probe(
            where.right, columns
        )
        if hit is not None:
            column, values, _exact = hit
            return column, values, False
    return None


def choose_plan(
    where: Optional[Expression],
    hash_columns: Collection[str],
    use_indexes: bool = True,
) -> AccessPath:
    """The hash probe :func:`equality_probe` finds over ``hash_columns``,
    or the full scan when it finds none, ``where`` is ``None`` or
    ``use_indexes=False`` forces the scan (the oracle configuration
    plan-parity fuzzing runs against)."""
    if use_indexes and where is not None:
        hit = equality_probe(where, hash_columns)
        if hit is not None:
            column, values, exact = hit
            return AccessPath("hash-probe", column, values, exact)
    return FULL_SCAN
