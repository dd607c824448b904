"""In-memory table storage with secondary indexes.

Two index families live beside the row heap:

* **hash indexes** (``Column(indexed=True)``): dict buckets serving exact
  ``=`` / ``IN`` / ``IS NULL`` probes;
* the **facet-branch index** of a table with ``jid`` and ``jvars``
  columns (:class:`BranchIndex`): the canonical facet rows of each
  policy-group branch, which a compiled ``FacetBranch`` test probes
  instead of building a string per row.

A read probes a hash index whenever its WHERE holds a probe on an indexed
column, and scans otherwise (:func:`repro.db.planner.choose_plan`);
``use_indexes=False`` forces the scan path and the string spelling of
``FacetBranch``, which is the oracle plan-parity fuzzing compares against.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.db.expr import Expression, canonical_branch, is_group_key
from repro.db.planner import AccessPath, choose_plan
from repro.db.schema import SchemaError, TableSchema


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
    """A heap of rows plus hash and facet-branch indexes.

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
        self._branches: Optional[BranchIndex] = None
        if schema.has_column("jid") and schema.has_column("jvars"):
            self._branches = BranchIndex(schema.name, schema.primary_key.name)
        #: The indexes that take whole rows: each names its ``columns``.
        self._row_indexes: List[BranchIndex] = (
            [] if self._branches is None else [self._branches]
        )
        #: ``False`` forces the scan path -- the oracle configuration the
        #: plan-parity fuzz harness runs against.
        self.use_indexes = True

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

        The rows every write mutates.  A hash probe narrows the heap to
        its buckets' rows; the compiled predicate then filters the
        candidates, unless the probe is exact.  The rows stay live: callers hold
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
        column read the hash buckets -- which is what keeps the memory
        backend's streaming DISTINCT path O(matches) instead of O(table).
        Like :meth:`matching_rows`, the rows stay live: callers hold the
        backend lock and must copy any row that escapes it.
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

    def plan(self, where: Optional[Expression]) -> AccessPath:
        """The access path a read of this table filtered by ``where`` takes."""
        return choose_plan(where, self._indexes, self.use_indexes)

    def _narrowed_rows(
        self, where: Optional[Expression]
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Index-narrowed candidate rows plus an exactness flag.

        ``exact`` means the candidates are precisely the rows matching
        ``where`` -- the whole filter is one hash probe whose bucket
        membership *is* the predicate -- so callers may skip per-row
        evaluation.  This is the narrowing behind set-oriented writes: the
        resolved ``jid IN (...)`` of a write plan mutates exactly its index
        buckets, O(matches) with no per-row predicate work.  Each filtered
        read counts its path under the ``plan.index.*`` counters; a hash
        probe returns its rows in primary-key order.
        """
        if where is None:
            return list(self._rows.values()), True
        path = self.plan(where)
        obs.add(_PATH_COUNTERS[path.kind])
        if path.column is None:
            return list(self._rows.values()), False
        index = self._indexes[path.column]
        pks: set = set()
        for value in path.values:
            pks |= index.get(value, set())
        return [self._rows[pk] for pk in sorted(pks) if pk in self._rows], path.exact

    # -- indexes ------------------------------------------------------------------------

    def _index_add(self, row: Dict[str, Any], hashes=None, keyed=None) -> None:
        """Enter ``row`` in the ``hashes`` indexes and the ``keyed``
        (facet-branch) indexes (default: all)."""
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
    "full-scan": "plan.index.full_scan",
}
