"""Set-oriented FORM writes: plan selection + the facet-rewrite algebra.

The write half of the Jacqueline API mirrors its read planners.  A bulk
write (``QuerySet.update()`` / ``QuerySet.delete()`` / ``Manager.bulk_*``)
chooses between two paths:

* **In-place (fast) path** -- the write compiles to *one* SQL statement
  (``UPDATE``/``DELETE`` with the filters pushed through a ``jid IN
  (SELECT DISTINCT jid ...)`` subselect, see
  :func:`repro.db.query.plan_update` / :func:`plan_delete`).  Eligible when
  no facet row needs to be *recomputed*: the assigned columns are not
  guarded by any policy group, the assigned values are concrete (not
  faceted), and the write happens outside any path condition.  Setting a
  non-policied column to one concrete value on every facet row of a record
  is exactly what a record-at-a-time ``save`` would have stored, so no
  fetch or unmarshal is needed.

* **Batched facet rewrite (slow) path** -- policied columns, faceted
  values or a non-empty path condition change *which rows exist*, so the
  write falls back to: one projected jid query, one fetch of the affected
  facet rows, a per-jid recomputation reusing ``JModel.save``'s expansion
  and pc-guard algebra (below), and one atomic ``replace_rows`` batch.
  Secret/public facets and guarded-update semantics are preserved exactly
  -- and even the slow path is O(1) statements, never one per record.

This module holds the shared pieces: eligibility checks, the row marshal
(:func:`facet_db_row`) used by every write path, and the pc-guard algebra
(:func:`guarded_replacement` / :func:`guarded_survivors`) that
``JModel.save`` and the batched paths both call.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.facets import UNASSIGNED, Facet, facet_map
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

    The single marshal shared by ``JModel.save``, ``Manager.bulk_create``
    and every batched rewrite, so all write paths store identically:
    ``jid``/``jvars`` meta-data columns added, unresolved facets scrubbed
    to NULL.

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


def expanded_rows(instance, form) -> List[Dict[str, Any]]:
    """Every database row of one instance: its full facet-row set.

    Expansion is ``JModel._facet_rows`` (value facets x policy groups with
    computed public facets), marshalled through :func:`facet_db_row`.
    """
    return [
        facet_db_row(instance.jid, values, branches)
        for branches, values in instance._facet_rows(form)
    ]


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
    combinations are dropped, duplicates merged.  This is the algebra
    behind ``JModel.save`` under a non-empty pc, shared verbatim with the
    batched ``QuerySet.update`` fallback.
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


def guarded_survivors(
    jid: int,
    existing_rows: Sequence[Dict[str, Any]],
    pc_branches: Sequence[JvarBranch],
) -> List[Dict[str, Any]]:
    """The facet rows surviving a pc-guarded *delete* of one record.

    A delete under a path condition removes the record only in the worlds
    satisfying the pc: the record's previous contents survive for every
    complement assignment.  Equivalent to a guarded rewrite with no new
    rows.
    """
    return guarded_replacement(jid, [], existing_rows, pc_branches)


# -- batched rewrites -------------------------------------------------------------------


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
    from repro.form.manager import _instance_from_row

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
    instance = _instance_from_row(model, secret_entries[0][1])
    for field in meta.fields.values():
        column = field.column_name
        if all(not foreign for foreign, _row in secret_entries):
            value = field.from_db(secret_entries[0][1].get(column))
        else:
            faceted = build_faceted_record(
                [(foreign, row.get(column)) for foreign, row in secret_entries]
            )
            value = facet_map(
                lambda raw, field=field: field.from_db(
                    None if raw is UNASSIGNED else raw
                ),
                faceted,
            )
        setattr(instance, column, value)
    return instance


def bulk_update_rows(
    model,
    form,
    jids: Sequence[int],
    existing_rows: Sequence[Dict[str, Any]],
    field_updates: Sequence[Tuple[str, Any, Any]],
) -> List[Dict[str, Any]]:
    """Replacement rows for a batched faceted update of many records.

    For each jid: rebuild the record's faceted instance from the
    already-fetched rows (:func:`reconstruct_instance` -- value facets on
    unassigned columns are preserved, not collapsed to their secret
    projection), assign the new field values, and re-expand its facet-row
    set exactly as ``JModel.save`` would (public facets of policied
    fields recomputed via the model's ``jacqueline_get_public_*``
    methods).  Under a non-empty path condition each record merges
    through :func:`guarded_replacement` instead, so complement
    assignments keep the previous contents.

    The caller flushes the result in one ``replace_rows`` batch -- a
    single atomic backend write with one invalidation event, regardless of
    how many records the update touched.
    """
    pc = form.runtime.current_pc()
    pc_branches = pc_branch_list(pc)
    rows_by_jid = group_rows_by_jid(existing_rows)
    replacement: List[Dict[str, Any]] = []
    for jid in jids:
        rows = rows_by_jid.get(jid)
        if not rows:
            continue
        instance = reconstruct_instance(model, jid, rows)
        for _name, field, value in field_updates:
            if isinstance(value, Facet):
                setattr(instance, field.column_name, value)
            else:
                setattr(instance, field.column_name, field.to_db(value))
        new_rows = instance._facet_rows(form)
        if pc_branches:
            replacement.extend(guarded_replacement(jid, new_rows, rows, pc_branches))
        else:
            replacement.extend(
                facet_db_row(jid, values, branches) for branches, values in new_rows
            )
    return replacement
