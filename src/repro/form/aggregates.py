"""Faceted merging of grouped aggregates (the jvars-partition algebra).

The FORM's aggregate pushdown runs ``SELECT jvars..., AGG... GROUP BY
jvars...`` -- one statement partitioning the matching facet rows by label
assignment -- and this module merges those per-partition aggregates back
into one (possibly faceted) value.

The invariant that makes this sound: a viewer in world *W* (a label
assignment) sees exactly the rows whose ``jvars`` branches are consistent
with *W*, so any aggregate over the viewer's rows is a combination of the
per-partition aggregates of the consistent partitions.  COUNT and SUM
combine by addition, MIN/MAX by comparison, and AVG by summing ``(SUM,
COUNT)`` pairs -- which is why :class:`ColumnStats` carries the raw
ingredients rather than a finished average.

Merging walks the partitions in sorted branch order and combines them with
``facet_apply``, so the sharing optimisation of ``mk_facet`` collapses
facets whose sides agree: a record whose facet rows all matched the filter
contributes the same count to every world and the merge stays a plain
number.  Only partitions that genuinely discriminate (a filter matching
one facet of a record but not another) surface a label in the result.

SQL's NULL discipline carries through end to end: per partition, SQL skips
NULLs (``COUNT(col)`` counts non-NULL values; SUM/AVG/MIN/MAX of none is
NULL), and the merge preserves that -- a world whose partitions hold no
non-NULL values aggregates to ``None`` (0 for COUNT).

>>> add = lambda a, b: a + b
>>> merge_groups([((("k", True),), 2), ((("k", False),), 1)], add, 0)
<k ? 2 : 1>
>>> merge_groups([((("k", True),), 2), ((("k", False),), 2)], add, 0)
2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Sequence, Tuple

from repro.core.facets import facet_apply, mk_facet_branches
from repro.core.labels import Branch, Label
from repro.db.schema import ColumnType
from repro.form.marshal import JvarBranch

#: One jvars partition of a grouped aggregate result: the branch set that
#: selects the partition, plus its per-partition payload (a count, a
#: :class:`ColumnStats`, ...).
AggregateGroup = Tuple[Tuple[JvarBranch, ...], Any]

#: Aggregate functions the FORM understands (EXISTS rides on COUNT).
FACET_AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

#: Column types SUM/AVG accept.  SQL coerces text to 0 while Python would
#: concatenate or raise, so both ORMs reject the divergence at the API.
NUMERIC_COLUMN_TYPES = (ColumnType.INTEGER, ColumnType.REAL, ColumnType.BOOLEAN)


def check_aggregate_field(field_name: str, field: Any, table_name: str, function: str) -> str:
    """Validate an ORM aggregate target field; returns its column name.

    The one validation gate shared by the FORM and baseline query sets:
    unknown fields are an error (a typo would otherwise yield a silent NULL
    -- or, on SQLite, a double-quoted string literal), and SUM/AVG require
    a numeric column.

    >>> from repro.form.fields import IntegerField, CharField
    >>> pages = IntegerField(); pages.name = "pages"
    >>> check_aggregate_field("pages", pages, "Book", "SUM")
    'pages'
    >>> check_aggregate_field("title", CharField(), "Book", "AVG")
    Traceback (most recent call last):
        ...
    ValueError: AVG requires a numeric field; 'title' is TEXT
    """
    if field is None:
        raise ValueError(f"unknown field {field_name!r} on {table_name}")
    if function in ("SUM", "AVG") and field.column_type not in NUMERIC_COLUMN_TYPES:
        raise ValueError(
            f"{function} requires a numeric field; "
            f"{field_name!r} is {field.column_type.name}"
        )
    return field.column_name


class _Absent:
    """Sentinel leaf for "this partition contributes nothing in this world"."""

    _instance = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ABSENT"


ABSENT = _Absent()


@dataclass(frozen=True)
class ColumnStats:
    """The mergeable ingredients of one partition's column aggregates.

    ``count`` counts non-NULL values (SQL ``COUNT(col)``); ``total``,
    ``minimum`` and ``maximum`` are ``None`` when the partition holds no
    non-NULL value, mirroring SQL's SUM/MIN/MAX.  Unlike a finished AVG,
    these combine associatively across partitions.

    >>> a = ColumnStats(count=2, total=10, minimum=3, maximum=7)
    >>> b = ColumnStats()          # an all-NULL partition
    >>> a.combine(b) == a
    True
    >>> a.finalise("AVG")
    5.0
    >>> b.finalise("SUM") is None and b.finalise("COUNT") == 0
    True
    """

    count: int = 0
    total: Any = None
    minimum: Any = None
    maximum: Any = None

    def combine(self, other: "ColumnStats") -> "ColumnStats":
        """Merge two partitions' stats (NULL-aware, associative)."""
        return ColumnStats(
            count=self.count + other.count,
            total=_merge(self.total, other.total, lambda a, b: a + b),
            minimum=_merge(self.minimum, other.minimum, min),
            maximum=_merge(self.maximum, other.maximum, max),
        )

    def finalise(self, function: str) -> Any:
        """The SQL value of one aggregate function over the merged stats."""
        function = function.upper()
        if function == "COUNT":
            return self.count
        if function == "SUM":
            return self.total
        if function == "AVG":
            return None if self.count == 0 else self.total / self.count
        if function == "MIN":
            return self.minimum
        if function == "MAX":
            return self.maximum
        raise ValueError(f"unknown aggregate function {function!r}")


def _merge(a: Any, b: Any, combine: Callable[[Any, Any], Any]) -> Any:
    if a is None:
        return b
    if b is None:
        return a
    return combine(a, b)


def merge_groups(
    groups: Iterable[AggregateGroup], combine: Callable[[Any, Any], Any], initial: Any
) -> Any:
    """Fold jvars partitions into one (possibly faceted) value.

    Each partition contributes its payload exactly in the worlds consistent
    with its branches and nothing (:data:`ABSENT`) elsewhere; ``combine``
    folds contributing payloads onto ``initial`` pointwise per world.
    Partitions are processed in sorted branch order so the facet tree nests
    labels alphabetically -- the same order ``build_faceted_collection``
    uses -- and opposite-polarity partitions of one label sit adjacent,
    letting ``mk_facet`` collapse records whose partitions agree.

    >>> merge_groups([((), 5), ((("k", True),), 1)], lambda a, b: a + b, 0)
    <k ? 6 : 5>
    """
    acc = initial
    for branches, payload in sorted(groups, key=lambda group: tuple(group[0])):
        if not branches:
            acc = facet_apply(combine, acc, payload)
            continue
        contribution = mk_facet_branches(
            [
                Branch(Label(hint=name, name=name), polarity)
                for name, polarity in branches
            ],
            payload,
            ABSENT,
        )
        acc = facet_apply(
            lambda left, right: left if right is ABSENT else combine(left, right),
            acc,
            contribution,
        )
    return acc


def merge_stats(groups: Iterable[AggregateGroup]) -> Any:
    """Per-world :class:`ColumnStats` from per-partition stats.

    The faceted form of ``QuerySet.count()``, ``exists()`` and
    ``aggregate()``: each world combines exactly the facet rows its label
    assignment selects.  A record whose facet rows all matched contributes
    to every world alike and leaves no facet behind.

    >>> merged = merge_stats([
    ...     ((), ColumnStats(count=1, total=4, minimum=4, maximum=4)),
    ...     ((("k", True),), ColumnStats(count=1, total=6, minimum=6, maximum=6)),
    ... ])
    >>> from repro.core.facets import facet_map
    >>> facet_map(lambda stats: stats.finalise("SUM"), merged)
    <k ? 10 : 4>
    """
    from repro import obs

    groups = list(groups)
    obs.add("worlds.merged", len(groups))
    return merge_groups(groups, ColumnStats.combine, ColumnStats())


def visible_value(
    groups: Iterable[AggregateGroup],
    resolve: Callable[[str], bool],
    combine: Callable[[Any, Any], Any],
    initial: Any,
) -> Any:
    """The one-world merge for a known viewer (Early Pruning for aggregates).

    ``resolve`` maps a label name to the viewer's polarity; only partitions
    whose branches all agree contribute -- exactly the facet rows
    ``QuerySet._pruned`` would have kept.

    >>> groups = [((("k", True),), 2), ((("k", False),), 1)]
    >>> visible_value(groups, lambda name: True, lambda a, b: a + b, 0)
    2
    """
    acc = initial
    for branches, payload in groups:
        if all(resolve(name) == polarity for name, polarity in branches):
            acc = combine(acc, payload)
    return acc


def stats_of_values(values: Sequence[Any]) -> ColumnStats:
    """:class:`ColumnStats` of in-memory values (NULLs skipped, SQL-style).

    The Python-side fallback used when a bounded query set cannot push its
    aggregate down: compute the same stats the database would have.

    >>> stats_of_values([3, None, 7]).finalise("AVG")
    5.0
    >>> stats_of_values([None]).finalise("MIN") is None
    True
    """
    present: List[Any] = [value for value in values if value is not None]
    if not present:
        return ColumnStats()
    try:  # non-summable values (datetimes, strings): MIN/MAX/COUNT only
        total = present[0]
        for value in present[1:]:
            total = total + value
    except TypeError:
        total = None
    return ColumnStats(
        count=len(present),
        total=total,
        minimum=min(present),
        maximum=max(present),
    )
