"""Runtime values for the λJDB interpreter.

The value grammar of Section 4.2::

    R ::= c | a | (λx.e)            raw values
    F ::= R | <k ? F1 : F2>          faceted values
    T ::= ((B, s...) ...)            tables of branch-annotated string rows
    V ::= F | table T

Constants are Python ``bool``/``int``/``str``/``None``/``tuple`` objects
(tuples appear only as row contents handed to fold functions).  Tables store
each row with the set of branches describing who can see it, exactly as the
paper's faceted-row representation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.lambda_jdb.ast import Expr

#: A branch is (label name, polarity); ``("k", False)`` means ``¬k``.
BranchT = Tuple[str, bool]

#: The program counter: a frozen set of branches.
PC = FrozenSet[BranchT]

EMPTY_PC: PC = frozenset()


@dataclass(frozen=True)
class Address:
    """A heap address produced by ``ref``."""

    index: int

    def __repr__(self) -> str:
        return f"@{self.index}"


@dataclass(frozen=True)
class Closure:
    """A lambda value together with its captured environment."""

    param: str
    body: Expr
    env: Tuple[Tuple[str, object], ...]

    def __repr__(self) -> str:
        return f"Closure({self.param})"

    def env_dict(self) -> Dict[str, object]:
        return dict(self.env)


@dataclass(frozen=True)
class FacetV:
    """A faceted value ``<label ? high : low>`` over non-table values."""

    label: str
    high: object
    low: object

    def __repr__(self) -> str:
        return f"<{self.label} ? {self.high!r} : {self.low!r}>"


@dataclass(frozen=True)
class TableV:
    """A table: a tuple of ``(branches, fields)`` rows.

    ``branches`` is a frozen set of ``(label, polarity)`` pairs; ``fields``
    is a tuple of strings.  All rows of a table have the same arity.
    """

    rows: Tuple[Tuple[PC, Tuple[str, ...]], ...]

    def __repr__(self) -> str:
        return f"TableV({list(self.rows)!r})"

    def arity(self) -> Optional[int]:
        """Number of columns, or ``None`` for the empty table."""
        if not self.rows:
            return None
        return len(self.rows[0][1])


Value = object  # raw constants | Address | Closure | FacetV | TableV


def is_facet(value: Value) -> bool:
    return isinstance(value, FacetV)


def branch_negate(branch: BranchT) -> BranchT:
    name, polarity = branch
    return (name, not polarity)


def pc_consistent(branches: Iterable[BranchT], pc: PC) -> bool:
    """The "B consistent with pc" side condition of the fold rules."""
    for branch in branches:
        if branch_negate(branch) in pc:
            return False
    return True


def branches_consistent(branches: Iterable[BranchT]) -> bool:
    """True if a branch set does not contain a label and its negation."""
    seen: Dict[str, bool] = {}
    for name, polarity in branches:
        if name in seen and seen[name] != polarity:
            return False
        seen[name] = polarity
    return True


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality on values (used by the sharing optimisation)."""
    if isinstance(a, FacetV) and isinstance(b, FacetV):
        return (
            a.label == b.label
            and values_equal(a.high, b.high)
            and values_equal(a.low, b.low)
        )
    if isinstance(a, TableV) and isinstance(b, TableV):
        return set(a.rows) == set(b.rows)
    if isinstance(a, (FacetV, TableV)) or isinstance(b, (FacetV, TableV)):
        return False
    if isinstance(a, Closure) or isinstance(b, Closure):
        return a is b
    return type(a) is type(b) and a == b


def make_facet_value(label: str, high: Value, low: Value) -> Value:
    """The ``⟨⟨k ? V_H : V_L⟩⟩`` operation of Section 4.2.

    For non-table values this builds a facet node (collapsing when both sides
    are identical).  For two tables it builds a single table whose rows carry
    ``k`` / ``¬k`` annotations, sharing rows common to both sides.  Mixing a
    table with a non-table value is a stuck program (raises ``TypeError``),
    mirroring the footnote in the paper.
    """
    high_is_table = isinstance(high, TableV)
    low_is_table = isinstance(low, TableV)
    if high_is_table != low_is_table:
        raise TypeError("cannot mix tables and non-tables in one faceted value")
    if not high_is_table:
        if values_equal(high, low):
            return high
        return FacetV(label, high, low)

    assert isinstance(high, TableV) and isinstance(low, TableV)
    high_rows = list(high.rows)
    low_rows = list(low.rows)
    # Tables are bags, so sharing must respect multiplicity: a row occurring
    # h times in the high table and l times in the low table contributes
    # min(h, l) unannotated copies plus the per-side excess under k / ¬k.
    high_counts = Counter(high_rows)
    low_counts = Counter(low_rows)
    shared_counts = {
        row: min(count, low_counts.get(row, 0)) for row, count in high_counts.items()
    }
    result = []
    seen_high: Counter = Counter()
    for branches, fields in high_rows:
        row = (branches, fields)
        seen_high[row] += 1
        if seen_high[row] <= shared_counts.get(row, 0):
            result.append(row)
            continue
        if (label, False) in branches:
            continue
        result.append((frozenset(branches | {(label, True)}), fields))
    seen_low: Counter = Counter()
    for branches, fields in low_rows:
        row = (branches, fields)
        seen_low[row] += 1
        if seen_low[row] <= shared_counts.get(row, 0):
            continue
        if (label, True) in branches:
            continue
        result.append((frozenset(branches | {(label, False)}), fields))
    return TableV(tuple(result))


def make_facet_branches(branches: Iterable[BranchT], high: Value, low: Value) -> Value:
    """The ``⟨⟨B ? V_H : V_L⟩⟩`` operation over a set of branches."""
    branch_list = list(branches)
    if not branch_list:
        return high
    (name, polarity), rest = branch_list[0], branch_list[1:]
    inner = make_facet_branches(rest, high, low)
    if polarity:
        return make_facet_value(name, inner, low)
    return make_facet_value(name, low, inner)


def collect_value_labels(value: Value) -> FrozenSet[str]:
    """All label names reachable from a value (facets, table rows, closures)."""
    found: set = set()

    def walk(node: Value) -> None:
        if isinstance(node, FacetV):
            found.add(node.label)
            walk(node.high)
            walk(node.low)
        elif isinstance(node, TableV):
            for branches, _ in node.rows:
                for name, _pol in branches:
                    found.add(name)
        elif isinstance(node, Closure):
            for _, captured in node.env:
                walk(captured)

    walk(value)
    return frozenset(found)
