"""In-memory table storage with secondary indexes.

Three index families live beside the row heap:

* **hash indexes** (``Column(indexed=True)``): dict buckets serving exact
  ``=`` / ``IN`` / ``IS NULL`` probes;
* **ordered indexes** (``Column(ordered=True)`` or an explicit
  :class:`~repro.db.schema.IndexSpec`): bisect-maintained sorted entry
  lists serving range predicates (``<`` ``<=`` ``>`` ``>=`` ``BETWEEN``),
  case-sensitive prefix ``LIKE``, and in-order walks for ORDER BY with
  early exit under LIMIT;
* the **facet-branch index** of a table with ``jid`` and ``jvars``
  columns (:class:`BranchIndex`): the canonical facet rows of each
  policy-group branch, which a compiled ``FacetBranch`` test probes
  instead of building a string per row.

Which hash or ordered index (if any) serves a given read is decided by
the cost model in :mod:`repro.db.planner` from live table statistics;
``use_indexes=False`` forces the scan path and the string spelling of
``FacetBranch``, which is the oracle plan-parity fuzzing compares against.
"""

from __future__ import annotations

import bisect
from typing import (
    AbstractSet, Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro import obs
from repro.db.expr import Expression, canonical_branch, is_group_key
from repro.db.planner import AccessPath, PlanChoice, TableStatistics, choose_plan
from repro.db.schema import SchemaError, TableSchema, index_name


class _Top:
    """A sentinel comparing greater than every value; used as a bisect
    probe suffix to land *after* all entries sharing a key prefix."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return other is self

    def __gt__(self, other: Any) -> bool:
        return True

    def __ge__(self, other: Any) -> bool:
        return True

    def __eq__(self, other: Any) -> bool:
        return other is self

    def __hash__(self) -> int:  # pragma: no cover - never stored
        return 0


_TOP = _Top()

#: NULL sort component: ``(1,)`` orders after every ``(0, value)``, so an
#: ascending entry walk yields non-NULL values first and NULLs last --
#: exactly the engine's pinned ORDER BY NULL convention.
_NULL_COMPONENT: Tuple[int, ...] = (1,)


def _component(value: Any) -> Tuple[Any, ...]:
    return _NULL_COMPONENT if value is None else (0, value)


class OrderedIndex:
    """A sorted-list ordered index over one or more columns.

    Entries are tuples ``(enc(v1), ..., enc(vn), pk)`` where ``enc``
    wraps each column value so NULLs order after non-NULLs and the
    primary key breaks ties deterministically (stable-sort order).  All
    probes are tuple-prefix bisections, so lookups are O(log n) and range
    reads O(log n + matches).
    """

    __slots__ = ("name", "columns", "_entries", "_first_counts")

    def __init__(self, name: str, columns: Tuple[str, ...]) -> None:
        self.name = name
        self.columns = columns
        self._entries: List[Tuple[Any, ...]] = []
        # Distinct leading-component counts feed the planner's cardinality
        # estimate without an O(n) walk per plan.
        self._first_counts: Dict[Tuple[Any, ...], int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def key_for(self, row: Dict[str, Any], pk: int) -> Tuple[Any, ...]:
        return tuple(_component(row.get(c)) for c in self.columns) + (pk,)

    def add(self, row: Dict[str, Any], pk: int) -> None:
        key = self.key_for(row, pk)
        bisect.insort(self._entries, key)
        first = key[0]
        self._first_counts[first] = self._first_counts.get(first, 0) + 1

    def remove(self, row: Dict[str, Any], pk: int) -> None:
        key = self.key_for(row, pk)
        position = bisect.bisect_left(self._entries, key)
        if position < len(self._entries) and self._entries[position] == key:
            del self._entries[position]
            first = key[0]
            count = self._first_counts.get(first, 0) - 1
            if count <= 0:
                self._first_counts.pop(first, None)
            else:
                self._first_counts[first] = count

    def clear(self) -> None:
        self._entries.clear()
        self._first_counts.clear()

    def cardinality(self) -> int:
        return len(self._first_counts)

    # -- probes -------------------------------------------------------------------

    def range_pks(
        self,
        low: Optional[Tuple[Any, bool]],
        high: Optional[Tuple[Any, bool]],
        descending: bool = False,
    ) -> List[int]:
        """Primary keys of rows whose leading column lies in the range.

        Bounds are ``(value, inclusive)`` or ``None`` for unbounded.  NULL
        leading values never qualify (a SQL range comparison with NULL is
        UNKNOWN).  Ascending output is (value, pk)-ordered; descending
        output walks value groups in reverse while keeping ascending pk
        order inside each group, matching a stable reverse sort.
        """
        entries = self._entries
        if low is None:
            start = 0
        elif low[1]:
            start = bisect.bisect_left(entries, (_component(low[0]),))
        else:
            start = bisect.bisect_left(entries, (_component(low[0]), _TOP))
        if high is None:
            stop = bisect.bisect_left(entries, (_NULL_COMPONENT,))
        elif high[1]:
            stop = bisect.bisect_left(entries, (_component(high[0]), _TOP))
        else:
            stop = bisect.bisect_left(entries, (_component(high[0]),))
        segment = entries[start:stop]
        if not descending:
            return [entry[-1] for entry in segment]
        return self._descending_pks(segment)

    def scan_pks(self, descending: bool = False) -> List[int]:
        """Every primary key in index order (NULLs last ascending, first
        descending -- the engine's ORDER BY NULL convention)."""
        if not descending:
            return [entry[-1] for entry in self._entries]
        return self._descending_pks(self._entries)

    @staticmethod
    def _descending_pks(segment: Sequence[Tuple[Any, ...]]) -> List[int]:
        # Walk equal-leading-value groups back to front, keeping ascending
        # pk order inside each group: the exact row order of a stable
        # reverse=True sort, so index-served DESC is scan-identical.
        out: List[int] = []
        i = len(segment)
        while i > 0:
            j = i
            first = segment[i - 1][0]
            while i > 0 and segment[i - 1][0] == first:
                i -= 1
            out.extend(entry[-1] for entry in segment[i:j])
        return out


#: The members of a branch no row is on.
_NO_ROWS: AbstractSet[int] = frozenset()


class BranchIndex:
    """The facet-branch index of a table with ``jid`` and ``jvars`` columns.

    Maps ``(group key, polarity)`` to the primary keys of the rows whose
    ``jvars`` is exactly that branch's canonical encoding for the row's
    own ``jid`` (:func:`~repro.db.expr.canonical_branch`), so a compiled
    :class:`~repro.db.expr.FacetBranch` test is one set probe.  ``nulls``
    holds the primary keys of the rows whose ``jid`` or ``jvars`` is NULL:
    their branch test is UNKNOWN.  Those rows, and unfaceted, multi-group,
    program-counter and foreign-jid rows, are in no branch set, so there
    are at most two sets per policy group, and the index grows with the
    rows, not with distinct ``jvars`` text.  Rows gain no column.
    """

    __slots__ = ("table", "pk", "_members", "nulls")

    #: The columns whose assignment moves a row between sets.
    columns = ("jid", "jvars")

    def __init__(self, table: str, pk: str) -> None:
        self.table = table
        #: the primary-key column the sets hold the values of
        self.pk = pk
        self._members: Dict[Tuple[str, bool], set] = {}
        self.nulls: set = set()

    def _set_for(self, row: Dict[str, Any]) -> Optional[set]:
        """The set ``row`` belongs in, or ``None`` when it belongs in none."""
        jid, jvars = row.get("jid"), row.get("jvars")
        if jid is None or jvars is None:
            return self.nulls
        branch = canonical_branch(self.table, jid, jvars)
        if branch is None:
            return None
        members = self._members.get(branch)
        if members is None:
            members = self._members[branch] = set()
        return members

    def add(self, row: Dict[str, Any], pk: int) -> None:
        members = self._set_for(row)
        if members is not None:
            members.add(pk)

    def remove(self, row: Dict[str, Any], pk: int) -> None:
        # ``pk`` is in at most one set, and there are at most two sets per
        # policy group: discarding it from each is cheaper than parsing
        # the row's jvars again to find its set.
        self.nulls.discard(pk)
        for members in self._members.values():
            members.discard(pk)

    def clear(self) -> None:
        self._members.clear()
        self.nulls.clear()

    def members(self, table: str, key: Any, polarity: Any) -> Optional[AbstractSet[int]]:
        """The live primary-key set ``FacetBranch(table, key, polarity)``
        matches among the rows with non-NULL ``jid`` and ``jvars``, or
        ``None`` when only the string test can tell: another table's
        prefix, or a key or polarity no canonical row carries."""
        if table != self.table or polarity.__class__ is not bool:
            return None
        found = self._members.get((key, polarity))
        if found is not None:  # only canonical rows, hence group keys, make sets
            return found
        return _NO_ROWS if is_group_key(key) else None


class Table:
    """A heap of rows plus hash, ordered and facet-branch indexes.

    Rows are stored as dicts keyed by column name; the integer primary key is
    auto-assigned on insert when missing.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: Dict[int, Dict[str, Any]] = {}
        self._next_pk = 1
        self._indexes: Dict[str, Dict[Any, set]] = {
            column.name: {} for column in schema.indexed_columns()
        }
        self._ordered: Dict[str, OrderedIndex] = {}
        for spec in schema.ordered_indexes():
            name = index_name(schema.name, spec)
            self._ordered[name] = OrderedIndex(name, spec.columns)
        self._branches: Optional[BranchIndex] = None
        if schema.has_column("jid") and schema.has_column("jvars"):
            self._branches = BranchIndex(schema.name, schema.primary_key.name)
        #: The indexes that take whole rows: each names its ``columns``.
        self._row_indexes: List[Union[OrderedIndex, BranchIndex]] = list(
            self._ordered.values()
        )
        if self._branches is not None:
            self._row_indexes.append(self._branches)
        #: ``False`` forces the scan path -- the oracle configuration the
        #: plan-parity fuzz harness runs against.
        self.use_indexes = True
        #: The :class:`~repro.db.planner.PlanChoice` behind the most recent
        #: planned read, recorded for ``explain()``/test introspection.
        self.last_plan: Optional[PlanChoice] = None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(list(self._rows.values()))

    # -- modification -------------------------------------------------------------

    def insert(self, values: Dict[str, Any]) -> int:
        """Insert a row, returning its primary key."""
        row = self.schema.validate_row(values)
        pk_name = self.schema.primary_key.name
        if row.get(pk_name) is None:
            row[pk_name] = self._next_pk
            self._next_pk += 1
        else:
            pk = int(row[pk_name])
            if pk in self._rows:
                raise SchemaError(f"duplicate primary key {pk} in {self.schema.name!r}")
            self._next_pk = max(self._next_pk, pk + 1)
        pk = row[pk_name]
        self._rows[pk] = row
        self._index_add(row)
        return pk

    def update(self, where: Optional[Expression], values: Dict[str, Any]) -> int:
        """Update matching rows in place; returns the number updated.

        The SET values are coerced once, before any row changes, so a
        statement that fails (a NOT NULL or type violation) leaves the
        rows and indexes as they were.  An unknown column raises
        :class:`SchemaError` even when nothing matches; the NOT NULL and
        type checks run only when a row does, as SQL checks them per row.
        Only the indexes containing an assigned column are maintained
        (the facet-branch index reads ``jid`` and ``jvars``); with none,
        each row costs one ``dict.update``.  Assigning the primary key
        moves the row in the heap too; a NULL or taken key, or one key
        for several rows, raises :class:`SchemaError` first, as SQLite
        refuses it.
        """
        rows = self.matching_rows(where)
        assigned = [(self.schema.column(name), value) for name, value in values.items()]
        if not rows:
            return 0
        coerced = {column.name: column.coerce(value) for column, value in assigned}
        pk_name = self.schema.primary_key.name
        # Every index entry carries the primary key: assigning it touches all.
        every = pk_name in coerced
        if every:
            old_pk, new_pk = rows[0][pk_name], coerced[pk_name]
            taken = self._rows.get(new_pk, rows[0])
            if new_pk is None or len(rows) > 1 or taken is not rows[0]:
                raise SchemaError(
                    f"cannot set primary key {new_pk!r} on {len(rows)} row(s) "
                    f"of {self.schema.name!r}"
                )
        hashes = {
            column: index for column, index in self._indexes.items()
            if every or column in coerced
        }
        keyed = [
            index for index in self._row_indexes
            if every or not coerced.keys().isdisjoint(index.columns)
        ]
        if not hashes and not keyed:
            # No index to maintain: the two index calls per row would
            # nearly double this statement's cost.
            for row in rows:
                row.update(coerced)
        else:
            for row in rows:
                self._index_remove(row, hashes, keyed)
                row.update(coerced)
                self._index_add(row, hashes, keyed)
        if every:
            self._rows[new_pk] = self._rows.pop(old_pk)
            self._next_pk = max(self._next_pk, new_pk + 1)
        return len(rows)

    def delete(self, where: Optional[Expression]) -> int:
        """Delete matching rows; returns the number deleted."""
        doomed = self.matching_rows(where)
        pk_name = self.schema.primary_key.name
        for row in doomed:
            self._index_remove(row)
            del self._rows[row[pk_name]]
        return len(doomed)

    def remove(self, pk: int) -> bool:
        """Delete one row by primary key; returns whether it existed."""
        row = self._rows.get(pk)
        if row is None:
            return False
        self._index_remove(row)
        del self._rows[pk]
        return True

    def clear(self) -> None:
        self._rows.clear()
        self._next_pk = 1
        for index in self._indexes.values():
            index.clear()
        for keyed in self._row_indexes:
            keyed.clear()

    # -- queries ---------------------------------------------------------------------

    def get(self, pk: int) -> Optional[Dict[str, Any]]:
        row = self._rows.get(pk)
        return dict(row) if row is not None else None

    def rows(self) -> List[Dict[str, Any]]:
        return [dict(row) for row in self._rows.values()]

    def matching_rows(self, where: Optional[Expression]) -> List[Dict[str, Any]]:
        """The live rows matching ``where`` (every row when ``None``).

        The rows every write mutates.  The cost model narrows the heap to
        an access path's candidates; the compiled predicate then filters
        them, unless the path is exact.  The rows stay live: callers hold
        the backend lock and must copy any row that escapes it.
        """
        rows, exact = self._narrowed_rows(where)
        if exact:
            return rows
        predicate = where.compile(self)
        return [row for row in rows if predicate(row)]

    def candidate_rows(self, where: Optional[Expression]) -> List[Dict[str, Any]]:
        """The live rows an index narrows ``where`` down to.

        A conservative superset of the matching rows, for readers that
        filter it themselves with ``where.compile(table)`` (to stream it, or
        to stop early).  Equality, ``IN (...)`` lists (the resolved form of a
        jid-subselect pushdown) and ``IS NULL`` probes on a hash-indexed
        column read the hash buckets, and range/``BETWEEN``/prefix-``LIKE``
        probes on an ordered-indexed column read the sorted entries --
        which is what keeps the memory backend's streaming DISTINCT and
        EXISTS paths O(matches) instead of O(table).  Like
        :meth:`matching_rows`, the rows stay live: callers hold the backend
        lock and must copy any row that escapes it.
        """
        rows, _exact = self._narrowed_rows(where)
        return rows

    def branch_index(self) -> Optional[BranchIndex]:
        """The facet-branch index a predicate compiled against this table
        reads (:meth:`Expression.compile`), or ``None``: the table has no
        ``jid``/``jvars`` columns, or ``use_indexes=False`` forces the
        string spelling, the reference the indexed one is fuzzed against."""
        return self._branches if self.use_indexes else None

    # -- planning ------------------------------------------------------------------------

    def statistics(self) -> TableStatistics:
        """A live snapshot of the statistics the cost model consumes."""
        return TableStatistics(
            row_count=len(self._rows),
            hash_indexes={
                column: len(index) for column, index in self._indexes.items()
            },
            ordered_indexes={
                name: index.columns for name, index in self._ordered.items()
            },
            ordered_cardinality={
                name: index.cardinality() for name, index in self._ordered.items()
            },
        )

    def plan(
        self,
        where: Optional[Expression],
        order_by: Sequence[Any] = (),
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> PlanChoice:
        """Cost the access paths for a read over this table."""
        return choose_plan(
            where,
            order_by,
            limit,
            offset,
            statistics=self.statistics(),
            use_indexes=self.use_indexes,
        )

    def rows_for_path(
        self, path: AccessPath, copy: bool = True
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Execute an access path, returning ``(candidate rows, exact)``.

        ``exact`` means the candidates are precisely the rows matching the
        predicate the path was planned for, so callers may skip per-row
        evaluation.  Rows arrive in index order when ``path.serves_order``
        (respecting ``path.descending``), heap order otherwise.  Records
        the served path in the ``plan.index.*`` observability counters.
        """
        rows, exact = self._path_rows(path)
        obs.add(_PATH_COUNTERS[path.kind])
        if copy:
            rows = [dict(row) for row in rows]
        return rows, exact

    def _path_rows(self, path: AccessPath) -> Tuple[List[Dict[str, Any]], bool]:
        if path.kind == "hash-probe":
            index = self._indexes.get(path.column, {})
            pks: set = set()
            for value in path.values or ():
                pks |= index.get(value, set())
            return [self._rows[pk] for pk in sorted(pks) if pk in self._rows], path.exact
        if path.kind == "ordered-range":
            if path.empty:
                # A NULL bound makes that conjunct UNKNOWN for every row:
                # nothing can match, exactly.
                return [], True
            ordered = self._ordered[path.index]
            try:
                pks = ordered.range_pks(path.low, path.high, path.descending)
            except TypeError:
                # Probe literal incomparable with stored values (mixed-type
                # query): fall back to the scan the planner would otherwise
                # have chosen.
                return list(self._rows.values()), False
            if not path.serves_order:
                # Without an ORDER BY to serve, candidates keep primary-key
                # order -- the same order the scan and hash paths produce,
                # so enabling the index never changes observable row order.
                pks = sorted(pks)
            return [self._rows[pk] for pk in pks if pk in self._rows], path.exact
        if path.kind == "ordered-scan":
            ordered = self._ordered[path.index]
            pks = ordered.scan_pks(path.descending)
            return [self._rows[pk] for pk in pks if pk in self._rows], False
        return list(self._rows.values()), False

    # -- indexes ------------------------------------------------------------------------

    def _narrowed_rows(
        self, where: Optional[Expression]
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Index-narrowed candidate rows plus an exactness flag.

        ``exact`` means the candidates are precisely the rows matching
        ``where`` -- the whole filter is one indexed probe whose bucket (or
        range) membership *is* the predicate -- so callers may skip per-row
        evaluation.  This is the narrowing behind set-oriented writes: the
        resolved ``jid IN (...)`` of a write plan mutates exactly its index
        buckets, O(matches) with no per-row predicate work.  The access
        path is chosen by the cost model in :mod:`repro.db.planner`.
        """
        if where is None:
            return list(self._rows.values()), True
        if not self.use_indexes:
            return list(self._rows.values()), False
        choice = self.plan(where)
        self.last_plan = choice
        return self.rows_for_path(choice.chosen, copy=False)

    def _index_add(self, row: Dict[str, Any], hashes=None, keyed=None) -> None:
        """Enter ``row`` in the ``hashes`` indexes and the ``keyed`` (ordered
        and facet-branch) indexes (default: all)."""
        pk = row[self.schema.primary_key.name]
        for column, index in (self._indexes if hashes is None else hashes).items():
            index.setdefault(row.get(column), set()).add(pk)
        for index in self._row_indexes if keyed is None else keyed:
            index.add(row, pk)

    def _index_remove(self, row: Dict[str, Any], hashes=None, keyed=None) -> None:
        """Drop ``row`` from the ``hashes`` and ``keyed`` indexes (default: all)."""
        pk = row[self.schema.primary_key.name]
        for column, index in (self._indexes if hashes is None else hashes).items():
            bucket = index.get(row.get(column))
            if bucket is not None:
                bucket.discard(pk)
        for index in self._row_indexes if keyed is None else keyed:
            index.remove(row, pk)

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, rows={len(self._rows)})"


#: Observability counter per executed access-path kind.
_PATH_COUNTERS = {
    "hash-probe": "plan.index.hash_probe",
    "ordered-range": "plan.index.range_probe",
    "ordered-scan": "plan.index.ordered_scan",
    "full-scan": "plan.index.full_scan",
}
