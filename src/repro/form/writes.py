"""FORM writes: one decision per write, then one statement or one rewrite.

Every FORM write stores, changes or removes whole records, each kept as
its facet rows (``jid``/``jvars``-annotated).  It makes one decision and
then runs exactly one of two things:

* **One planned statement.**  Records with no stored rows yet are new:
  :func:`store` expands them and writes every facet row with one
  ``insert_many``; under a path condition each row carries the pc's
  branches, since there is no previous content to keep outside it.
  ``QuerySet.update()``/``delete()`` compile to one ``UPDATE``/``DELETE``
  (:func:`repro.db.query.plan_update` / :func:`plan_delete`, filters
  pushed through a ``jid IN (SELECT DISTINCT jid ...)`` subselect) when no
  facet row needs recomputing: the assigned columns are outside every
  policy group and no public method reads them, the values are concrete,
  and the path condition is empty.  One guarded delete has a
  single-statement shape too (:func:`guarded_delete_values`).

* **The facet rewrite** (:func:`rewrite`), for everything else: saving a
  stored record, deleting one, and the ``QuerySet`` writes whose rows
  must be recomputed.  Under the FORM save lock it fetches the records'
  stored rows once (under a path condition only, and only when the caller
  has not fetched them already), merges each record's new rows through
  :func:`guarded_replacement`, and swaps all the rows with one chunked
  ``replace_rows``.  A delete is a rewrite with no new rows.

So ``JModel.save``, ``Manager.create`` and ``Manager.bulk_*`` are calls to
:func:`store`; ``JModel.delete`` and the ``QuerySet`` fallbacks are calls
to :func:`rewrite`.  A write runs a constant number of statements, never
one per record.  This module also holds the decision's eligibility
checks, the one row marshal (:func:`facet_db_row`) and the pc-guard
algebra.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.facets import UNASSIGNED, Facet, facet_map
from repro.db.expr import InList, col
from repro.db.query import Query
from repro.form.marshal import (
    JvarBranch,
    build_faceted_record,
    format_jvars,
    freeze_values,
    parse_jvars,
)

#: Column names that belong to the FORM, not the application row.
METADATA_COLUMNS = ("id", "jid", "jvars")

#: The most bound variables one statement may carry.  SQLite's default
#: SQLITE_MAX_VARIABLE_NUMBER is 32766; the batched rewrite paths chunk
#: their ``jid IN (?, ...)`` lists below it so a rewrite touching more
#: records than that cannot fail with "too many SQL variables".
MAX_BOUND_VARIABLES = 30_000


def chunked(items: Sequence[Any], size: Optional[int] = None) -> List[Sequence[Any]]:
    """Split a sequence into chunks of at most ``size`` items.

    ``size`` defaults to :data:`MAX_BOUND_VARIABLES`, read at call time so
    tests can lower the module attribute and exercise the chunked paths
    without materialising 32k records.

    >>> chunked([1, 2, 3, 4, 5], size=2)
    [[1, 2], [3, 4], [5]]
    """
    if size is None:
        size = MAX_BOUND_VARIABLES
    if len(items) <= size:
        return [items]
    return [items[start:start + size] for start in range(0, len(items), size)]


# -- update() argument resolution -------------------------------------------------------


def resolve_update_fields(meta, values: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """Validate ``update(**values)`` kwargs against a model's fields.

    Returns ``(name, field, value)`` triples.  Like filter lookups, a raw
    foreign-key column may be assigned via its ``<name>_id`` spelling --
    accepted only when ``<name>_id`` really is the field's backing column
    (a foreign key), so a typo like ``score_id`` on a plain ``score``
    field raises instead of silently overwriting a different column.

    >>> from repro.form import CharField, IntegerField, JModel
    >>> class _WDoc(JModel):
    ...     title = CharField()
    ...     score = IntegerField()
    >>> [(n, f.column_name) for n, f, _v in
    ...  resolve_update_fields(_WDoc._meta, {"title": "x"})]
    [('title', 'title')]
    >>> resolve_update_fields(_WDoc._meta, {"nope": 1})
    Traceback (most recent call last):
        ...
    ValueError: unknown field 'nope' on _WDoc
    >>> resolve_update_fields(_WDoc._meta, {"score_id": 0})
    Traceback (most recent call last):
        ...
    ValueError: unknown field 'score_id' on _WDoc
    """
    resolved = []
    for name, value in values.items():
        field = meta.fields.get(name)
        if field is None and name.endswith("_id"):
            candidate = meta.fields.get(name[:-3])
            if candidate is not None and candidate.column_name == name:
                field = candidate
        if field is None:
            raise ValueError(f"unknown field {name!r} on {meta.table_name}")
        resolved.append((name, field, value))
    return resolved


def fast_path_values(meta, resolved: Sequence[Tuple[str, Any, Any]]) -> Optional[Dict[str, Any]]:
    """The single-statement column assignment, or ``None`` to fall back.

    The decision procedure's per-column half: every assigned column must be
    outside all policy groups (its stored value is identical across the
    record's facet rows, so one ``SET col = ?`` preserves the encoding
    bit-for-bit) and every value concrete.  The caller separately requires
    an empty path condition.  Returns the marshalled ``{column: db value}``
    mapping on success.

    The eligibility check here is per *assigned column*; stored public
    facets of other (policied) fields are save-time snapshots the single
    statement does not recompute.  :func:`read_set_forced_columns` closes
    that gap: the caller forces the batched rewrite whenever an assigned
    column appears in some ``jacqueline_get_public_*`` method's statically
    inferred read set (see :mod:`repro.analysis.readsets`).
    """
    column_values: Dict[str, Any] = {}
    for _name, field, value in resolved:
        if isinstance(value, Facet):
            return None
        if meta.group_for_field(field.name) is not None:
            return None
        column_values[field.column_name] = field.to_db(value)
    return column_values


def read_set_forced_columns(meta, column_values: Dict[str, Any]) -> Tuple[str, ...]:
    """Assigned columns whose update must force the batched rewrite.

    A ``jacqueline_get_public_*`` method's stored result is a save-time
    snapshot; assigning a column such a method *reads* with one in-place
    ``UPDATE`` would leave that snapshot stale.  Read sets are inferred
    statically (:func:`repro.analysis.readsets.public_read_columns_for_model`,
    cached on the model meta); a TOP read set -- inference gave up -- forces
    conservatively, reported as the pseudo-column ``"*"``.

    Returns ``()`` when the fast path is safe: no public methods, or none
    of them reads any assigned column.
    """
    if not meta.public_methods:
        return ()
    reads = meta.public_read_columns()
    if reads is None:
        return ("*",)
    return tuple(sorted(set(column_values) & set(reads)))


def guarded_delete_values(meta, pc) -> Optional[Dict[str, Any]]:
    """The single-statement encoding of a pc-guarded delete, if one exists.

    A guarded delete keeps each record's previous contents for every label
    assignment falsifying the path condition.  When the model declares no
    policy groups and the pc is a single branch, a record stored as one
    unguarded row (``jvars = ''``) has exactly one surviving facet row: its
    old values confined to the negated branch.  That rewrite is expressible
    as ``SET jvars = '<negated branch>'`` -- no fetch, no per-record
    recomputation.  The caller must separately verify (under the save lock)
    that the table holds *only* empty-jvars rows and guard the statement
    with ``jvars = ''`` per row; any pre-existing facet structure falls
    back to the batched rewrite.

    Returns the ``{column: value}`` assignment, or ``None`` when the
    static shape does not apply (policied model, multi-branch pc).

    >>> class _GDMeta:
    ...     policy_groups = []
    >>> class _GDBranch:
    ...     class label: name = "Doc.3.owner"
    ...     positive = True
    >>> class _GDPc:
    ...     @staticmethod
    ...     def branches(): return [_GDBranch]
    >>> guarded_delete_values(_GDMeta, _GDPc)
    {'jvars': 'Doc.3.owner=False'}
    """
    if meta.policy_groups:
        return None
    branches = pc_branch_list(pc)
    if len(branches) != 1:
        return None
    (negated,) = complement_assignments(branches)
    return {"jvars": format_jvars(negated)}


# -- row marshalling --------------------------------------------------------------------


def facet_db_row(
    jid: Optional[int], values: Dict[str, Any], branches: Sequence[JvarBranch]
) -> Dict[str, Any]:
    """The concrete database row for one facet row of one record.

    The single marshal of every write (:func:`record_rows`), so all write
    paths store identically: ``jid``/``jvars`` meta-data columns added,
    unresolved facets scrubbed to NULL.

    >>> facet_db_row(7, {"title": "t"}, [("S.7.title", True)])
    {'title': 't', 'jid': 7, 'jvars': 'S.7.title=True'}
    """
    row = dict(values)
    row["jid"] = jid
    row["jvars"] = format_jvars(branches)
    return {
        name: (value if not isinstance(value, Facet) else None)
        for name, value in row.items()
    }


def application_values(row: Dict[str, Any]) -> Dict[str, Any]:
    """A stored row's application columns (meta-data columns stripped).

    >>> application_values({"id": 3, "jid": 1, "jvars": "", "title": "t"})
    {'title': 't'}
    """
    return {
        name: value for name, value in row.items() if name not in METADATA_COLUMNS
    }


def secret_row(rows: Sequence[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The stored row encoding a record's secret facet (all labels True).

    Prefers the row satisfied by the all-True assignment with the most
    explicit positive branches; falls back to the first row when every row
    mentions a negative branch (a record written under a path condition).

    >>> secret_row([{"jvars": "k=False", "v": 0}, {"jvars": "k=True", "v": 1}])
    {'jvars': 'k=True', 'v': 1}
    """
    best = None
    best_score = -1
    for row in rows:
        branches = parse_jvars(row.get("jvars"))
        score = sum(1 for _name, polarity in branches if polarity)
        if all(polarity for _name, polarity in branches) and score >= best_score:
            best, best_score = row, score
    if best is None and rows:
        best = rows[0]
    return best


# -- the pc-guard algebra ---------------------------------------------------------------


def pc_branch_list(pc) -> List[JvarBranch]:
    """A path condition's branches as jvars pairs (label name, polarity)."""
    return [(branch.label.name, branch.positive) for branch in pc.branches()]


def branches_contradictory(branches: Sequence[JvarBranch]) -> bool:
    """Whether a branch set assigns some label both polarities.

    >>> branches_contradictory([("k", True), ("k", False)])
    True
    >>> branches_contradictory([("k", True), ("m", False)])
    False
    """
    polarity: Dict[str, bool] = {}
    for name, value in branches:
        if name in polarity and polarity[name] != value:
            return True
        polarity[name] = value
    return False


def complement_assignments(
    pc_branches: Sequence[JvarBranch],
) -> List[Tuple[JvarBranch, ...]]:
    """All assignments of the pc labels that falsify the path condition.

    >>> complement_assignments([("k", True)])
    [(('k', False),)]
    """
    names = [name for name, _ in pc_branches]
    satisfied = tuple(pc_branches)
    result = []
    for assignment in itertools.product([True, False], repeat=len(names)):
        candidate = tuple(zip(names, assignment))
        if candidate != satisfied:
            result.append(candidate)
    return result


def guarded_replacement(
    jid: int,
    new_rows: Sequence[Tuple[Sequence[JvarBranch], Dict[str, Any]]],
    existing_rows: Sequence[Dict[str, Any]],
    pc_branches: Sequence[JvarBranch],
) -> List[Dict[str, Any]]:
    """The facet rows implementing a pc-guarded rewrite of one record.

    New rows apply where the path condition holds; the previously stored
    rows remain for every assignment falsifying it -- the Dagstuhl
    description example of the paper's Section 2.2.  Contradictory branch
    combinations are dropped, duplicates merged.  Every write under a
    non-empty pc stores through it (:func:`record_rows`): a new record
    has no stored rows, and a delete has no new ones.
    """
    obs.add("pc.guard.rewrites")
    replacement: List[Dict[str, Any]] = []
    seen = set()
    for branches, values in new_rows:
        combined = tuple(sorted(set(branches) | set(pc_branches)))
        if branches_contradictory(combined):
            continue
        key = (combined, freeze_values(values))
        if key not in seen:
            seen.add(key)
            replacement.append(facet_db_row(jid, values, combined))
    for old_row in existing_rows:
        old_branches = parse_jvars(old_row.get("jvars"))
        old_values = application_values(old_row)
        for negated in complement_assignments(pc_branches):
            combined = tuple(sorted(set(old_branches) | set(negated)))
            if branches_contradictory(combined):
                continue
            key = (combined, freeze_values(old_values))
            if key not in seen:
                seen.add(key)
                replacement.append(facet_db_row(jid, old_values, combined))
    return replacement


# -- the write path ---------------------------------------------------------------------


def group_rows_by_jid(rows: Sequence[Dict[str, Any]]) -> Dict[int, List[Dict[str, Any]]]:
    """Partition fetched facet rows by record, one pass.

    >>> grouped = group_rows_by_jid([{"jid": 1, "v": "a"}, {"jid": 1, "v": "b"}])
    >>> sorted(grouped), len(grouped[1])
    ([1], 2)
    """
    grouped: Dict[int, List[Dict[str, Any]]] = {}
    for row in rows:
        grouped.setdefault(int(row["jid"]), []).append(row)
    return grouped


def reconstruct_instance(model, jid: int, rows: Sequence[Dict[str, Any]]):
    """Rebuild the faceted instance a record's rows encode, for re-saving.

    The model's *own* policy-group labels (``Table.jid.group``) are
    stripped -- ``JModel._facet_rows`` re-generates them, recomputing the
    public facets -- but every **foreign** label (value facets stored on
    the columns, pc labels from earlier guarded saves) is rebuilt into a
    faceted field value, so a batched rewrite preserves facet structure
    the secret row alone cannot see.  Field values come from the rows on
    the record's secret side (own labels all True); a foreign assignment
    no stored secret row covers resolves to ``None``.
    """
    from repro.form.manager import _instances

    meta = model._meta
    own_prefix = f"{meta.table_name}.{jid}."
    secret_entries: List[Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]] = []
    for row in rows:
        branches = parse_jvars(row.get("jvars"))
        own = [(name, pol) for name, pol in branches if name.startswith(own_prefix)]
        if all(polarity for _name, polarity in own):
            foreign = tuple(
                (name, pol) for name, pol in branches if not name.startswith(own_prefix)
            )
            secret_entries.append((foreign, row))
    if not secret_entries:
        # Every row mentions a negative own label (should not happen for
        # records written by save/bulk_create): best-effort secret row.
        secret_entries = [((), secret_row(rows))]
    state: Dict[str, Any] = {"jid": jid}
    for field in meta.fields.values():
        column = field.column_name
        if all(not foreign for foreign, _row in secret_entries):
            state[column] = secret_entries[0][1].get(column)
        else:
            faceted = build_faceted_record(
                [(foreign, row.get(column)) for foreign, row in secret_entries]
            )
            state[column] = facet_map(
                lambda raw: None if raw is UNASSIGNED else raw, faceted
            )
    return _instances(model, [state])[0]


def record_rows(
    jid: int,
    new_rows: Sequence[Tuple[Sequence[JvarBranch], Dict[str, Any]]],
    stored: Sequence[Dict[str, Any]],
    pc_branches: Sequence[JvarBranch],
) -> List[Dict[str, Any]]:
    """The rows one record holds after a write of ``new_rows``.

    Outside a path condition the new facet rows are the record; under one
    they merge with its ``stored`` rows through :func:`guarded_replacement`.

    >>> record_rows(1, [((), {"body": "new"})], [], [])
    [{'body': 'new', 'jid': 1, 'jvars': ''}]
    >>> record_rows(1, [((), {"body": "new"})], [], [("pc", True)])
    [{'body': 'new', 'jid': 1, 'jvars': 'pc=True'}]
    """
    if pc_branches:
        return guarded_replacement(jid, new_rows, stored, pc_branches)
    return [facet_db_row(jid, values, branches) for branches, values in new_rows]


def store(model, form, instances: Sequence[Any]) -> None:
    """Save ``instances`` as records of ``model``: every save's one entry.

    ``JModel.save``, ``Manager.create`` and ``Manager.bulk_create`` /
    ``bulk_update`` / ``bulk_save`` call this.  When no instance has a jid
    yet, every record is new and the write is one planned statement: each
    instance gets a jid, and its facet rows (carrying the path
    condition's branches under a pc) go straight into one
    ``insert_many``, an atomic backend write, so a concurrent reader never
    sees a record with some facet rows missing.  Otherwise the whole
    batch, new records included, is one :func:`rewrite`.  A record listed
    twice keeps its last instance, as sequential saves would.
    """
    table = model._meta.table_name
    if all(instance.jid is None for instance in instances):
        pc_branches = pc_branch_list(form.runtime.current_pc())
        rows: List[Dict[str, Any]] = []
        for instance in instances:
            if instance.jid is not None:
                continue  # listed twice: its rows are in the batch already
            instance.jid = form.next_jid(table)
            rows.extend(
                record_rows(instance.jid, instance._facet_rows(form), (), pc_branches)
            )
        if rows:
            form.database.insert_many(table, rows)
        return
    latest: Dict[int, Any] = {}
    for instance in instances:
        if instance.jid is None:
            instance.jid = form.next_jid(table)
        else:
            form.note_jid(table, instance.jid)
        latest[instance.jid] = instance
    rewrite(
        form, table, {jid: instance._facet_rows(form) for jid, instance in latest.items()}
    )


def rewrite(
    form,
    table: str,
    records: Dict[int, Sequence[Tuple[Sequence[JvarBranch], Dict[str, Any]]]],
    stored: Optional[Dict[int, List[Dict[str, Any]]]] = None,
) -> int:
    """The facet rewrite: swap each record's rows for its new facet rows.

    ``records`` maps a jid to the record's new facet rows, as
    ``JModel._facet_rows`` expands them; no new rows delete it.  Under
    the FORM save lock, and under a path condition only, the records'
    stored rows are fetched once, unless the caller already fetched them
    under that lock and passes them as ``stored`` (grouped by jid).  Each
    record merges through :func:`record_rows`, and one chunked
    ``replace_rows`` (:func:`replace_records`) swaps every record's rows
    atomically, with one invalidation event.

    Returns the number of rows written; 0 means no record is left in any
    world.
    """
    pc_branches = pc_branch_list(form.runtime.current_pc())
    jids = list(records)
    with form._save_lock:
        if stored is None:
            stored = group_rows_by_jid(stored_rows(form, table, jids)) if pc_branches else {}
        rows: List[Dict[str, Any]] = []
        for jid, new_rows in records.items():
            rows.extend(record_rows(jid, new_rows, stored.get(jid, ()), pc_branches))
        replace_records(form, table, jids, rows)
    return len(rows)


def stored_rows(form, table: str, jids: Sequence[int]) -> List[Dict[str, Any]]:
    """Every stored facet row of the given records, via ``jid IN (...)``.

    Chunked at :data:`MAX_BOUND_VARIABLES` jids per statement so a match
    set larger than SQLite's bound-variable limit (SQLITE_MAX_VARIABLE_NUMBER,
    32766 by default) still compiles; the common case stays one fetch.
    """
    rows: List[Dict[str, Any]] = []
    for chunk in chunked(jids):
        rows.extend(form.database.execute(
            Query(table=table).filter(InList(col("jid"), tuple(chunk)))
        ))
    return rows


def replace_records(
    form, table: str, jids: Sequence[int], rows: List[Dict[str, Any]]
) -> None:
    """Atomically swap the facet rows of the given records for ``rows``.

    The ``jid IN (...)`` predicate is chunked at
    :data:`MAX_BOUND_VARIABLES`.  The common case (fewer jids than
    SQLite's bound-variable limit) stays a single ``replace_rows`` batch.
    Past the limit the swap proceeds one jid chunk at a time, each chunk
    replacing exactly its own records' rows, which is safe because the
    caller holds ``form._save_lock`` for the whole loop, so no concurrent
    write can interleave between chunks.
    """
    jids = list(jids)
    if len(jids) <= MAX_BOUND_VARIABLES:
        form.database.replace_rows(table, InList(col("jid"), tuple(jids)), rows)
        return
    by_jid = group_rows_by_jid(rows)
    for chunk in chunked(jids):
        chunk_rows = [row for jid in chunk for row in by_jid.get(jid, [])]
        form.database.replace_rows(table, InList(col("jid"), tuple(chunk)), chunk_rows)
