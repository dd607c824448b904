"""Managers and query sets: the Jacqueline query API.

``Model.objects`` exposes the Django-style entry points (``create``,
``all``, ``filter``, ``get``, ``count``); a :class:`QuerySet` describes one
query and executes it against the active FORM.

Each read decides once who prunes its rows (:meth:`QuerySet._plan`), and
every read verb and ``explain()`` run that one decision:

* **Faceted** (no viewer context): results are faceted collections that must
  be concretised with ``runtime.concretize(value, viewer)`` before display.
* **Pruned** (inside ``viewer_context(user)``): policies are resolved for the
  known viewer while unmarshalling and only the visible facet rows are kept,
  so results are plain Python lists of model instances.  This is the Early
  Pruning optimisation the paper's web benchmarks rely on.
* **Policy pushdown** (pruned, where the policy renders inline): the
  database prunes instead, inside the statement (:mod:`repro.form.pushdown`).
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import weakref
from operator import attrgetter
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Type,
)

from repro import obs
from repro.core.facets import Facet, facet_map
from repro.core.labels import Label
from repro.db.expr import InList, and_all, col, eq, eq_or_null, subquery_values
from repro.db.query import (
    Aggregate,
    DeletePlan,
    Query,
    UpdatePlan,
    limit_by_key,
    plan_aggregate,
    plan_bounded,
    plan_delete,
    plan_keys,
    plan_update,
)
from repro.form import pushdown as pushdown_sql
from repro.form import writes
from repro.form.aggregates import (
    FACET_AGGREGATE_FUNCTIONS,
    ColumnStats,
    check_aggregate_field,
    merge_stats,
    stats_of_values,
    visible_value,
)
from repro.form.context import FORM, current_form, current_viewer, viewer_context
from repro.form.fields import ForeignKey
from repro.form.model import JModel
from repro.form.policies import evaluate_policy
from repro.form.marshal import JvarBranch, build_faceted_collection, parse_jvars


class DoesNotExist(Exception):
    """Raised by :meth:`Manager.get_or_raise` when no record matches."""


#: Which per-partition SQL aggregates each user-facing function needs.  AVG
#: cannot merge from per-partition averages, so it ships (SUM, COUNT) and
#: divides after the faceted merge.
_STATS_SPECS: Dict[str, Tuple[str, ...]] = {
    "COUNT": ("COUNT",),
    "SUM": ("SUM",),
    "AVG": ("SUM", "COUNT"),
    "MIN": ("MIN",),
    "MAX": ("MAX",),
}


class _ReadPlan(NamedTuple):
    """One read's pruning decision, made once by :meth:`QuerySet._plan`."""

    #: ``"faceted"`` (no viewer), ``"policy-pushdown"`` (the database
    #: prunes) or ``"pruned"`` (Python prunes, :meth:`QuerySet._pruned`)
    mode: str
    #: the filters and joins, with any pruning conjuncts attached
    query: Query
    joined: List[str]
    #: whether the grouped jvars-partition statement can serve ``count()``
    #: and ``aggregate()``; otherwise they fetch and reduce in Python
    grouped: bool
    #: the fallback counter a pruned read of a policied model bumps when
    #: it runs (:func:`repro.form.pushdown.pruning_conjuncts`), or ``None``
    fallback: Optional[str] = None


class QuerySet:
    """A lazily executed query over one Jacqueline model."""

    #: ``(column, keys)`` of a batched load's ``column IN (keys)`` conjunct
    #: (see :func:`_load_batch`); ``None`` for every application query.
    _key_filter: Optional[Tuple[str, Tuple[Any, ...]]] = None

    def __init__(
        self,
        model: Type,
        filters: Optional[Dict[str, Any]] = None,
        order_fields: Tuple[Tuple[str, bool], ...] = (),
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> None:
        self.model = model
        self.filters = dict(filters or {})
        self.order_fields = order_fields
        self.limit = limit
        self.offset = offset

    # -- chaining -------------------------------------------------------------------

    def filter(self, **filters: Any) -> "QuerySet":
        combined = dict(self.filters)
        combined.update(filters)
        return QuerySet(self.model, combined, self.order_fields, self.limit, self.offset)

    def order_by(self, *fields: str) -> "QuerySet":
        order = list(self.order_fields)
        for field in fields:
            # Exactly one optional leading "-" selects descending order;
            # anything else ("", "-", "--name") is a caller error.
            ascending = not field.startswith("-")
            name = field[1:] if not ascending else field
            if not name or name.startswith("-"):
                raise ValueError(f"malformed order_by field {field!r}")
            order.append((name, ascending))
        return QuerySet(self.model, self.filters, tuple(order), self.limit, self.offset)

    def limited(self, limit: int, offset: int = 0) -> "QuerySet":
        """Bound the result to the first ``limit`` *records* (jids), skipping
        ``offset`` records first -- both counted per record, never per facet
        row, and pushed into the database as a jid subselect."""
        return QuerySet(self.model, self.filters, self.order_fields, limit, offset)

    # -- execution --------------------------------------------------------------------

    def fetch(self) -> Any:
        """Execute the query.

        Returns a plain list of instances inside a viewer context, or a
        faceted collection otherwise.  The members of a viewer-context
        list of two or more records share their per-record lookups, which
        then run once for the whole list (batched loading, see
        :func:`_batched_lookup`).
        """
        return self._fetch(current_form(), self._plan())

    def __iter__(self) -> Iterator[Any]:
        result = self.fetch()
        if isinstance(result, Facet):
            raise TypeError(
                "cannot iterate a faceted result directly; use runtime.jfor or "
                "run the query inside viewer_context()"
            )
        return iter(result)

    def __len__(self) -> int:
        result = self.fetch()
        if isinstance(result, Facet):
            raise TypeError("faceted result has no plain length; use count()")
        return len(result)

    def first(self) -> Any:
        """The first *visible* matching record (or ``None`` / a faceted option).

        Inside a viewer context this compiles to the bounded jid-subselect
        form (``LIMIT 1`` on distinct jids) instead of fetching the full
        match set -- what makes ``get()`` by unique fields constant-cost on
        large tables.  The bound selects the first *matching* record
        pre-pruning; when that record turns out to be invisible to the
        viewer (the filter matched a secret facet, or the record was
        persisted under a path condition), the query falls back to the
        unbounded scan so the next visible match is still found -- ``get``
        can never report ``None`` for a record the viewer could see.

        Outside a viewer context the full faceted result is kept: its first
        element differs per possible world, which a pre-pruning ``LIMIT 1``
        cannot express (the facet sharing collapse would hand every viewer
        the one fetched record).
        """
        viewer = current_viewer()
        if self.limit is None and viewer is not None:
            form = current_form()
            bounded = self.limited(1, self.offset)
            instances, branches = bounded._fetch_entries(form, bounded._plan())
            if not instances:
                return None  # no matching record at all: no fallback needed
            pruned = bounded._pruned(form, instances, branches, viewer)
            if pruned:
                return pruned[0]
            # The one bounded record exists but is invisible to this viewer:
            # only now pay for the unbounded scan (rare -- requires a filter
            # that matched an inaccessible facet).
        result = self.fetch()
        if isinstance(result, Facet):
            return facet_map(lambda items: items[0] if items else None, result)
        return result[0] if result else None

    def count(self) -> Any:
        """The number of matching facet rows, per world.

        Compiles to one grouped statement -- ``SELECT jvars..., COUNT(*)
        ... GROUP BY jvars...`` -- instead of fetching the matching rows
        and reducing in Python.  Outside a viewer context the per-partition
        counts merge into a ``Facet`` of per-world counts (identical to
        what ``facet_map(len, fetch())`` would produce); inside one, only
        the partitions visible to the viewer are summed.  When the read
        plan pushes the viewer's pruning predicate (policy pushdown,
        :mod:`repro.form.pushdown`) the count stays one statement.
        Bounded sets (the bound counts records, which the grouped plan
        cannot see) and every other policied count fetch and prune in
        Python (see :meth:`_aggregate`).
        """
        return self._aggregate("COUNT", None, attrgetter("count"))

    def exists(self) -> Any:
        """Whether any record matches, per world: :meth:`count`'s grouped
        statement, reduced to ``COUNT(*) > 0``.

        Not a bare ``SELECT EXISTS``: a row's existence in the database
        does not mean every world sees it, so existence is per label
        assignment.  (The relational layer's ``EXISTS`` pushdown serves the
        baseline ORM, where rows are world-independent.)
        """
        return self._aggregate("COUNT", None, lambda stats: stats.count > 0)

    def aggregate(self, field_name: str, function: str) -> Any:
        """Aggregate a field over the matching rows, per world.

        ``function`` is one of COUNT, SUM, AVG, MIN or MAX, with SQL's NULL
        rules (NULL field values are skipped; SUM/AVG/MIN/MAX of no values
        is ``None``, COUNT is 0).  Like :meth:`count`, this compiles to one
        grouped jvars-partition statement and merges per world: outside a
        viewer context the result is faceted exactly where the aggregate
        genuinely differs between worlds; inside one it is the plain
        aggregate over the facet rows the viewer would have seen.
        """
        function = function.upper()
        if function not in FACET_AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {function!r}")
        column = self._aggregate_column(self.model._meta, field_name, function)
        return self._aggregate(function, column, lambda stats: stats.finalise(function))

    def sum(self, field_name: str) -> Any:
        """``SUM(field)`` per world (NULLs skipped; ``None`` if no values)."""
        return self.aggregate(field_name, "SUM")

    def avg(self, field_name: str) -> Any:
        """``AVG(field)`` per world (NULLs skipped; ``None`` if no values)."""
        return self.aggregate(field_name, "AVG")

    def min(self, field_name: str) -> Any:
        """``MIN(field)`` per world (``None`` if no values)."""
        return self.aggregate(field_name, "MIN")

    def max(self, field_name: str) -> Any:
        """``MAX(field)`` per world (``None`` if no values)."""
        return self.aggregate(field_name, "MAX")

    def update(self, **values: Any) -> int:
        """Set fields on every matching record, set-oriented.

        A record matches when *any* of its facet rows satisfies the filters
        (the same record-level matching as :meth:`delete` and the faceted
        read path); the write then covers **all** of the record's facet
        rows, so the faceted encoding stays consistent.  Matching is
        viewer-independent: writes are not pruned by ``viewer_context``.

        Decision procedure (:meth:`_update_plan`; see ``repro.form.writes``):

        * assigning concrete values to columns outside every policy group,
          with an empty path condition, compiles to **one** SQL statement --
          ``UPDATE t SET ... WHERE jid IN (SELECT DISTINCT jid ...)`` -- on
          both backends: no fetch, no unmarshal, bounds (``limited``) and
          join filters included in the subselect;
        * policied fields, faceted values, or a non-empty path condition
          fall back to the facet rewrite every save of a stored record
          runs (:func:`repro.form.writes.rewrite`): one projected jid
          query, one row fetch, each record rebuilt with the new values and
          re-expanded as ``JModel.save`` expands it, and one atomic
          ``replace_rows`` batch;
        * an otherwise-eligible assignment to a column some
          ``jacqueline_get_public_*`` method *reads* is **forced** onto the
          batched rewrite (counted as ``writes.forced_fallback.read_set``):
          the stored public snapshots depend on that column and only the
          rewrite recomputes them.  Read sets are inferred statically by
          :mod:`repro.analysis.readsets` and cached on the model meta.

        Returns the number of facet rows the write affected (records span
        several rows; use ``count()`` for record counts).  Either path
        publishes write-through invalidation on the cache bus via the
        backend's write event.
        """
        if not values:
            return 0
        form = current_form()
        meta = self.model._meta
        plan, resolved, forced = self._update_plan(form, values)
        if forced:
            obs.add("writes.forced_fallback.read_set")
        if plan is not None:
            obs.add("writes.fast_path")
            obs.add("plan.update_pushdown")
            with form._save_lock, obs.span("form.update.fast", model=meta.table_name):
                return form.database.execute_update(plan)
        # The facet rewrite, given the rows fetched here to rebuild each
        # record from.
        obs.add("writes.fallback")
        with form._save_lock, obs.span("form.update.rewrite", model=meta.table_name):
            jids = self._matching_jids(form)
            if not jids:
                return 0
            existing = writes.stored_rows(form, meta.table_name, jids)
            stored = writes.group_rows_by_jid(existing)
            records = {}
            for jid in jids:
                if jid not in stored:
                    continue
                instance = writes.reconstruct_instance(self.model, jid, stored[jid])
                for _name, field, value in resolved:
                    setattr(
                        instance, field.column_name,
                        value if isinstance(value, Facet) else field.to_db(value),
                    )
                records[jid] = instance._facet_rows(form)
            writes.rewrite(form, meta.table_name, records, stored)
            return len(existing)

    def delete(self) -> int:
        """Delete every facet row of every matching record, set-oriented.

        Outside any path condition this compiles to **one** SQL statement
        on both backends -- ``DELETE FROM t WHERE jid IN (SELECT DISTINCT
        jid ...)`` -- with the query set's filters, joins, ordering and
        bound pushed into the subselect: no fetch, no unmarshal, no
        per-record statement.  Under a non-empty path condition the delete
        is *guarded*: matching jids are collected with one projected
        ``SELECT DISTINCT jid`` query (no instance unmarshalling), their
        rows fetched once, and the facet rewrite with no new rows
        (:func:`repro.form.writes.rewrite`) swaps in the complement-assignment
        survivors with one atomic ``replace_rows`` batch -- viewers outside
        the branch keep seeing the records.  One guarded shape still
        compiles to a single statement (see :meth:`_delete_plan`).

        Returns the number of facet rows removed (guarded: rewritten).
        Runs under the FORM save lock so deletions cannot interleave with a
        concurrent update's delete+reinsert and be silently undone.
        """
        form = current_form()
        meta = self.model._meta
        with form._save_lock:
            plan = self._delete_plan(form)
            if plan is not None:
                obs.add("writes.fast_path")
                if isinstance(plan, DeletePlan):
                    obs.add("plan.delete_pushdown")
                    with obs.span("form.delete.fast", model=meta.table_name):
                        return form.database.execute_delete(plan)
                obs.add("plan.delete_guarded_pushdown")
                with obs.span("form.delete.guarded_pushdown", model=meta.table_name):
                    return form.database.execute_update(plan)
            obs.add("writes.fallback")
            with obs.span("form.delete.guarded", model=meta.table_name):
                jids = self._matching_jids(form)
                if not jids:
                    return 0
                existing = writes.stored_rows(form, meta.table_name, jids)
                writes.rewrite(
                    form, meta.table_name, dict.fromkeys(jids, ()),
                    writes.group_rows_by_jid(existing),
                )
                return len(existing)

    def explain(self, operation: str = "fetch", **values: Any) -> Dict[str, Any]:
        """The plan and SQL this query set would run, without executing it.

        A read reports the record of :meth:`_plan`, the one its verb runs:
        ``mode`` is ``"faceted"`` outside a viewer context,
        ``"policy-pushdown"`` when the viewer's pruning predicate joins the
        statement and ``"pruned"`` when Python prunes, with ``fallback``
        naming the counter such a read of a policied model bumps when it
        runs, and ``fallback_reason`` why the query's first opaque model
        is opaque (:func:`repro.form.pushdown.profile_for`).  Like
        :meth:`repro.db.Database.explain`, a read's report
        carries the backend's plan detail (the memory engine's
        ``chosen_plan``/``considered_plans``, SQLite's ``sqlite_plan``).
        Explaining runs no statement and bumps no counter.  A write reports
        what :meth:`_update_plan` / :meth:`_delete_plan` return, the
        helpers its verb runs.  ``operation`` selects the entry point:

        * ``"fetch"`` -- the row-fetching statement behind :meth:`fetch`;
        * ``"count"`` / ``"aggregate"`` -- the grouped jvars-partition
          statement (pass ``field`` and ``function`` keywords for
          ``aggregate``); when the plan cannot group, the report names the
          fetching fallback (``plan: "fetch-fallback"`` and a ``reason``);
        * ``"update"`` -- pass the assignment as keywords, exactly as
          :meth:`update` takes them; ``path`` reports ``"fast"`` (one
          pushed-down statement, whose SQL is returned) or ``"fallback"``
          (the batched facet rewrite, whose jid-projection SQL is
          returned).  A fallback forced by read-set inference additionally
          reports ``forced_by: "read_set"`` and the assigned columns some
          public method reads (``forced_columns``);
        * ``"delete"`` -- like update, keyed on the current path condition;
          a guarded delete meeting the static pushdown shape reports
          ``plan: "guarded-delete-pushdown"`` with ``path: "fast"``.

        The returned ``sql`` string is exactly the statement a statement
        observer (:class:`repro.db.StatementLog`) captures when the
        operation runs.
        """
        form = current_form()
        meta = self.model._meta
        if operation in ("fetch", "count", "aggregate"):
            plan = self._plan()
            if operation != "fetch" and plan.grouped:
                function, column = "COUNT", None
                if operation == "aggregate":
                    function = str(values.get("function", "COUNT")).upper()
                    field_name = values.get("field")
                    if field_name is not None:
                        column = self._aggregate_column(meta, field_name, function)
                query = self._grouped_query(plan, function, column)
            else:
                query = self._fetch_query(plan)
            report = form.database.explain(query)
            if operation != "fetch" and not plan.grouped:
                report["plan"] = "fetch-fallback"
                report["reason"] = (
                    "bounded query set" if self.limit is not None or self.offset
                    else "pruned query on a policied model"
                )
            report["mode"] = plan.mode
            if plan.fallback is not None:
                report["fallback"] = plan.fallback
            if plan.fallback == "plan.policy_pushdown.opaque_fallback":
                tables = (meta.table_name, *plan.joined)
                report["fallback_reason"] = next(
                    profile.reason
                    for profile in (
                        pushdown_sql.profile_for(form.model_for(table)) for table in tables
                    )
                    if profile.tier == "opaque"
                )
        elif operation in ("update", "delete"):
            forced: Tuple[str, ...] = ()
            if operation == "update":
                write, _resolved, forced = self._update_plan(form, values)
            else:
                write = self._delete_plan(form)
            if write is None:
                report = self._keys_query().explain()
                report.update(plan="batched-facet-rewrite", path="fallback")
            else:
                report = write.explain()
                report["path"] = "fast"
                if operation == "delete" and isinstance(write, UpdatePlan):
                    report["plan"] = "guarded-delete-pushdown"
            if forced:
                report.update(forced_by="read_set", forced_columns=list(forced))
        else:
            raise ValueError(f"unknown explain operation {operation!r}")
        report["operation"] = operation
        return report

    # -- the read plan ------------------------------------------------------------------

    def _plan(self) -> _ReadPlan:
        """Decide who prunes this read's rows, once (the F-PRUNE rule).

        Outside a viewer context nobody does: the result is faceted.
        Inside one, the database prunes when
        :func:`repro.form.pushdown.pruning_conjuncts` renders the viewer's
        pruning predicate, which the plan's query then carries; otherwise
        Python prunes (:meth:`_pruned`), and a fallback is counted under
        its reason.  Bounded sets never push: their record bound counts
        *matching* records pre-pruning, and :meth:`first`'s invisible-match
        fallback depends on seeing them.

        Every read verb runs the record this returns and :meth:`explain`
        reports it, so the reported statement is the executed one.  The
        record names the fallback counter, which the read bumps once when
        it runs (:meth:`_fetch`, or :meth:`_aggregate`'s grouped branch).

        Each table the read touches must have a model registered with the
        FORM (:meth:`FORM.model_for`): that model's policies decide the
        table's labels, whoever prunes.
        """
        form = current_form()
        meta = self.model._meta
        query, joined = self._filtered_query(meta)
        models = [form.model_for(table) for table in (meta.table_name, *joined)]
        bounded = self.limit is not None or bool(self.offset)
        viewer = current_viewer()
        if viewer is None:
            return _ReadPlan("faceted", query, joined, not bounded)
        conjuncts, fallback = None, None
        if not bounded:
            conjuncts, fallback = pushdown_sql.pruning_conjuncts(form, models, viewer)
        if conjuncts:
            for conjunct in conjuncts:
                query = query.filter(conjunct)
            return _ReadPlan("policy-pushdown", query, joined, True)
        # Early Pruning on a policied model evaluates its policies against
        # the fetched secret facets, which a grouped statement cannot return.
        grouped = not bounded and not models[0]._meta.policy_groups
        return _ReadPlan("pruned", query, joined, grouped, fallback)

    def _fetch(self, form: FORM, plan: _ReadPlan) -> Any:
        """Run a read plan's row-fetching statement and prune per its mode."""
        if plan.fallback is not None:
            obs.add(plan.fallback)
        with obs.span("form.fetch", model=self.model._meta.table_name):
            result, branches = self._fetch_entries(form, plan)
            if plan.mode == "policy-pushdown":
                # The statement's pruning predicate already kept exactly the
                # facet rows visible to this viewer: no label resolution.
                obs.add("plan.policy_pushdown")
            elif plan.mode == "faceted":
                obs.add("worlds.merged", len(result))
                return build_faceted_collection(list(zip(branches, result)))
            else:
                result = self._pruned(form, result, branches, current_viewer())
            _note_visible_fk_ids(self.model, result)
            return result

    def _fetch_query(self, plan: _ReadPlan) -> Query:
        """The row-fetching statement of a read plan.

        A bounded set compiles to the jid-subselect pushdown: the LIMIT
        counts DISTINCT jids inside a subquery, so the database prunes to
        the first n records instead of this side scanning the full match
        set and truncating.
        """
        query = self._ordered_query(self.model._meta, plan.query, plan.joined)
        if self.limit is None and not self.offset:
            return query
        return plan_bounded(query, "jid", self.limit, self.offset)

    def _fetch_entries(
        self, form: FORM, plan: _ReadPlan
    ) -> Tuple[List[Any], Optional[List[Tuple[JvarBranch, ...]]]]:
        """Run a plan's row-fetching statement and build one instance per
        facet row: ``(instances, branches)``, ``branches[i]`` being the jvar
        branches of ``instances[i]``'s row, or ``None`` for a pushed read.

        Each row's dict becomes its instance's state (:func:`_states`,
        :func:`_instances`), so an uncached read copies nothing per row.
        Results are served from the FORM's faceted query cache when
        enabled.  The cache stores the finished states and branches -- the
        pre-pruning result shared by every viewer -- and each read, the one
        filling the entry included, adopts copies of the states, so
        per-request state attached to instances (resolved foreign keys,
        siblings, application mutations) never crosses fetches or viewers.
        Policy-pushdown statements embed the viewer's bound values in their
        inline predicate (and so in the cache key): their already-pruned
        states are shared only by viewers binding the same values, which
        the predicate prunes identically.  A pushed read parses no
        ``jvars``: its rows are the viewer's facet.

        Inside a viewer context, instances spanning two or more records
        share one :class:`_Siblings` (a batched load's own instances
        excepted): the policies ``_pruned`` evaluates on them can then
        batch their per-record lookups.
        """
        if self.limit is not None or self.offset:
            obs.add("plan.bounded")
        states, branches = self._cached(
            form, self._fetch_query(plan), functools.partial(self._read_result, plan)
        )
        if self.limit is not None:
            states, branches = self._limit_entries(states, branches)
        if form.caches.enabled:
            # Cached states are shared by every hit: adopt copies.
            states = list(map(dict.copy, states))
        siblings = None
        if len(states) > 1 and self._key_filter is None:
            viewer = current_viewer()
            if viewer is not None:
                siblings = _Siblings(form, viewer)
        instances = _instances(self.model, states, siblings)
        obs.add("facet.rows.unmarshalled", len(instances))
        return instances, branches

    def _read_result(
        self, plan: _ReadPlan, rows: List[Dict[str, Any]]
    ) -> Tuple[List[Dict[str, Any]], Optional[List[Tuple[JvarBranch, ...]]]]:
        """A row-fetching statement's rows as ``(states, branches)``: the
        finished instance states (:func:`_states`) and, unless the
        statement pruned them (a pushed read), each row's jvar branches,
        the joined tables' included (Table 2)."""
        meta = self.model._meta
        joined = plan.joined
        branches = None
        if plan.mode != "policy-pushdown":
            tables = (meta.table_name, *joined)
            keys = [f"{table}.jvars" for table in tables] if joined else ["jvars"]
            branches = [
                tuple(dict.fromkeys(
                    branch for key in keys for branch in parse_jvars(row.get(key))
                ))
                for row in rows
            ]
        if joined:
            rows = [self._base_values(meta, row) for row in rows]
        return _states(meta, rows), branches

    def _cached(self, form: FORM, query: Query, convert: Callable[[Any], Any]) -> Any:
        """``convert`` of ``query``'s rows, through the faceted query cache
        when it is enabled.

        Bounded queries carry their jid subselect in the query (and so in
        the cache key): each (filters, ordering, limit, offset) combination
        caches its own already-bounded result.  The entry's stamp, taken
        before the statement runs, covers ``tables_read()`` -- base, joined
        and subquery tables -- so a write to any of them makes it a miss.
        """
        if not form.caches.enabled:
            return convert(form.database.execute(query))
        cache = form.caches.queries
        key = cache.key_for(self.model._meta.table_name, query)
        stamp = cache.stamp_for(form.database.invalidation, query)
        value = cache.get(key, stamp)
        if value is None:
            rows = form.database.execute(query)
            value = convert(rows)
            cache.put(key, stamp, value, len(rows))
        return value

    def _limit_entries(
        self, states: List[Dict[str, Any]], branches: Optional[List[Tuple[JvarBranch, ...]]]
    ) -> Tuple[List[Dict[str, Any]], Optional[List[Tuple[JvarBranch, ...]]]]:
        """Apply ``self.limit`` per distinct record (jid), not per facet row.

        With the jid-subselect pushdown the database already bounds the
        result to ``limit`` distinct jids (offset included), making this a
        no-op safety net; it still guarantees -- independently of backend
        behaviour -- that a limited result can never undercount records or
        show a viewer the wrong facet of a record.  Record order follows
        first appearance, which matches the query's ORDER BY.  New lists
        are returned: the given ones may be a cache entry's.
        """
        kept = limit_by_key(range(len(states)), lambda i: states[i]["jid"], self.limit)
        return (
            [states[i] for i in kept],
            None if branches is None else [branches[i] for i in kept],
        )

    def _filtered_query(self, meta) -> Tuple[Query, List[str]]:
        """The filter/join part of the query (no ordering, no bound).

        The common input of the read plan (:meth:`_plan`) and the write
        plans; the row-fetching statement adds ORDER BY and the bounded
        jid subselect, the aggregate statement the jvars GROUP BY instead.
        """
        query = Query(table=meta.table_name)
        joined: List[str] = []
        has_join = any("__" in lookup for lookup in self.filters)
        for lookup, value in self.filters.items():
            query = self._apply_filter(meta, query, joined, lookup, value, has_join)
        if self._key_filter is not None:
            column, keys = self._key_filter
            query = query.filter(InList(col(column), keys))
        return query, joined

    def _ordered_query(self, meta, query: Query, joined: List[str]) -> Query:
        """A filter/join query plus ordering and the raw record bound.

        ``limit``/``offset`` ride on the query verbatim: the read path
        wraps them in the jid subselect (:meth:`_fetch_query`), and the
        write planners (``plan_update``/``plan_delete``/``plan_keys``) push
        the whole query into their own jid subselect.
        """
        for field, ascending in self.order_fields:
            column = self._column_for(meta, field)
            if joined and "." not in column:
                # Under a join, both tables carry jid/jvars (and possibly
                # application columns with the same name); an unqualified
                # ORDER BY column is ambiguous on SQLite and resolved
                # arbitrarily by the in-memory engine.
                column = f"{meta.table_name}.{column}"
            query = query.ordered_by(column, ascending)
        if self.limit is not None or self.offset:
            query = query.limited(self.limit, self.offset)
        return query

    # -- aggregates ---------------------------------------------------------------------

    def _aggregate(
        self,
        function: str,
        column: Optional[str],
        finish: Callable[[ColumnStats], Any],
    ) -> Any:
        """The one aggregate path behind :meth:`count`, :meth:`exists` and
        :meth:`aggregate`; ``column`` ``None`` aggregates ``*``.

        ``finish`` maps the merged :class:`ColumnStats` of the rows a world
        sees to the result.  When the read plan can group, one statement
        returns the per-jvars-partition stats (:meth:`_grouped_query`),
        merged per world without a viewer and over the visible partitions
        with one.  Otherwise -- a bounded set, or Early Pruning that must
        evaluate policies against the fetched secret facets -- the plan's
        fetch runs and its instances reduce with the same SQL NULL rules,
        so both paths agree on every edge case.

        Grouped results are cached in the faceted query cache under the
        statement's own key, stamped with the write generations of its
        base and joined tables, so any write to them turns the cached
        partitions into a miss.
        """
        form = current_form()
        plan = self._plan()
        if not plan.grouped:
            def reduce(items: List[Any]) -> Any:
                if column is None:
                    return finish(ColumnStats(count=len(items)))
                return finish(stats_of_values([getattr(item, column, None) for item in items]))

            result = self._fetch(form, plan)
            return facet_map(reduce, result) if isinstance(result, Facet) else reduce(result)
        if plan.fallback is not None:
            obs.add(plan.fallback)
        query = self._grouped_query(plan, function, column)
        obs.add("plan.aggregate_pushdown")

        def partitions(rows):
            groups = []
            for row in rows:
                branches: List[JvarBranch] = []
                for group_column in query.group_by:
                    branches.extend(parse_jvars(row.get(group_column)))
                stats = self._stats_from_row(row, query.aggregates)
                groups.append((tuple(dict.fromkeys(branches)), stats))
            return groups

        groups = self._cached(form, query, partitions)
        if plan.mode == "faceted":
            return facet_map(finish, merge_stats(groups))
        resolve = None
        if plan.mode == "policy-pushdown":
            # Every partition is fully visible to the viewer (the pruning
            # predicate saw to that) and carries no branch to resolve.
            obs.add("plan.policy_pushdown")
        else:
            resolve = self._label_resolver(form, current_viewer())
        return finish(visible_value(groups, resolve, ColumnStats.combine, ColumnStats()))

    def _grouped_query(
        self, plan: _ReadPlan, function: str, column: Optional[str]
    ) -> Query:
        """The grouped statement of an aggregate over a read plan:
        ``SELECT jvars..., AGG... GROUP BY jvars...``.

        Every joined table's jvars column joins the grouping, exactly as
        its branches would have joined each row's branch set.  A pushed
        plan drops the GROUP BY entirely: with the engine pruning,
        partitioning by label assignment would only split one visible world
        across thousands of per-record groups to be re-summed in Python.
        Result rows are keyed by the query's ``group_by`` columns and its
        aggregates' ``result_key()``, both qualified under joins by
        :func:`~repro.db.query.plan_aggregate`.
        """
        specs = [
            Aggregate(name) if column is None else Aggregate(name, column)
            for name in _STATS_SPECS.get(function, (function,))
        ]
        group_columns: List[str] = []
        if plan.mode != "policy-pushdown":
            group_columns.append("jvars")
            group_columns.extend(f"{table}.jvars" for table in plan.joined)
        return plan_aggregate(plan.query, group_columns, specs)

    @staticmethod
    def _stats_from_row(row: Dict[str, Any], specs: Sequence[Aggregate]) -> ColumnStats:
        """One partition's :class:`ColumnStats` from its aggregate row."""
        values = {spec.function.upper(): row.get(spec.result_key()) for spec in specs}
        return ColumnStats(
            count=int(values.get("COUNT") or 0),
            total=values.get("SUM"),
            minimum=values.get("MIN"),
            maximum=values.get("MAX"),
        )

    # -- write plans --------------------------------------------------------------------

    def _update_plan(
        self, form: FORM, values: Dict[str, Any]
    ) -> Tuple[Optional[UpdatePlan], Dict[str, Any], Tuple[str, ...]]:
        """Decide how :meth:`update` writes ``values``.

        Returns ``(plan, resolved, forced)``: the one-statement plan, or
        ``None`` for the batched facet rewrite; the resolved field
        assignments the rewrite applies; and the assigned columns some
        public method reads, which force the rewrite.
        """
        meta = self.model._meta
        resolved = writes.resolve_update_fields(meta, values)
        column_values = writes.fast_path_values(meta, resolved)
        if column_values is None or form.runtime.current_pc():
            return None, resolved, ()
        forced = writes.read_set_forced_columns(meta, column_values)
        if forced:
            return None, resolved, forced
        query = self._ordered_query(meta, *self._filtered_query(meta))
        return plan_update(query, column_values, key_column="jid"), resolved, ()

    def _delete_plan(self, form: FORM) -> "DeletePlan | UpdatePlan | None":
        """The one statement :meth:`delete` runs, or ``None`` for the
        guarded facet rewrite.

        Outside a path condition: ``DELETE FROM t WHERE jid IN (SELECT
        DISTINCT jid ...)``.  Under one, a single-branch pc on a model with
        no policy groups, over a table holding no facet rows (the
        write-maintained facet state), has a static shape: every matching
        record's sole facet row survives confined to the negated branch, so
        the whole delete is ``UPDATE t SET jvars = '<negated>' WHERE jid IN
        (...) AND jvars = ''``.  :meth:`delete` calls this under the FORM
        save lock, so no write lands between the facet-state check and the
        statement; the per-row ``jvars = ''`` guard is the second line of
        defence, leaving any row with facet structure untouched.
        """
        meta = self.model._meta
        query = self._ordered_query(meta, *self._filtered_query(meta))
        pc = form.runtime.current_pc()
        if not pc:
            return plan_delete(query, key_column="jid")
        values = writes.guarded_delete_values(meta, pc)
        if values is None or form.database.may_have_facets(meta.table_name):
            return None
        plan = plan_update(query, values, key_column="jid")
        guard = eq("jvars", "")
        return dataclasses.replace(
            plan, where=and_all([w for w in (plan.where, guard) if w is not None])
        )

    def _keys_query(self) -> Query:
        """The projected ``SELECT DISTINCT jid`` query of the matching records.

        ``plan_keys`` keeps the filters and joins (and, for bounded sets,
        the ordering and bound), selecting only the jid column -- the slow
        write path's replacement for unmarshalling full instances just to
        read their jids.
        """
        meta = self.model._meta
        return plan_keys(self._ordered_query(meta, *self._filtered_query(meta)), "jid")

    def _matching_jids(self, form: FORM) -> List[int]:
        """The DISTINCT jids matching this query set (:meth:`_keys_query`)."""
        subquery = self._keys_query()
        obs.add("plan.keys")
        return [int(value) for value in
                subquery_values(form.database.execute(subquery), subquery)]

    # -- label resolution ---------------------------------------------------------------

    def _label_resolver(
        self, form: FORM, viewer: Any, fetched: Optional[Dict[int, Any]] = None
    ):
        """A ``label name -> polarity`` resolver for one viewer, memoised
        within the call.

        The one label-resolution pipeline shared by Early Pruning
        (``_pruned``, which passes the secret facets it fetched) and the
        aggregate path's visibility filter.  Each label resolves once per
        call through :func:`_resolve_label`, against the system's state at
        that moment; no outcome outlives the call.
        """
        model = self.model
        memo: Dict[str, bool] = {}

        def resolve(label_name: str) -> bool:
            outcome = memo.get(label_name)
            if outcome is None:
                outcome = memo[label_name] = _resolve_label(
                    form, label_name, viewer, model, fetched
                )
                obs.add("labels.resolved")
            return outcome

        return resolve

    def _apply_filter(
        self, meta, query: Query, joined: List[str], lookup: str, value: Any, has_join: bool = False
    ) -> Query:
        if "__" in lookup:
            fk_name, _, related = lookup.partition("__")
            field = meta.fields.get(fk_name)
            if not isinstance(field, ForeignKey):
                raise ValueError(f"{lookup!r}: {fk_name!r} is not a foreign key")
            target = field.target_model()
            target_meta = target._meta
            if target_meta.table_name not in joined:
                query = query.join(
                    target_meta.table_name, field.column_name, "jid"
                )
                joined.append(target_meta.table_name)
            column = (
                "jid"
                if related in ("jid", "pk")
                else target_meta.field_column(related)
            )
            if isinstance(value, JModel):
                value = value.jid
            return query.filter(eq_or_null(f"{target_meta.table_name}.{column}", value))

        if lookup in ("jid", "pk"):
            column = f"{meta.table_name}.jid" if has_join else "jid"
            return query.filter(eq_or_null(column, value))
        field = meta.fields.get(lookup)
        if field is None and lookup.endswith("_id"):
            # Allow filtering on the raw foreign-key column (``event_id=...``).
            field = meta.fields.get(lookup[:-3])
        if field is None:
            raise ValueError(f"unknown field {lookup!r} on {meta.table_name}")
        if isinstance(value, JModel):
            value = value.jid
        elif not isinstance(value, Facet):
            value = field.to_db(value)
        column = field.column_name
        if has_join:
            column = f"{meta.table_name}.{column}"
        return query.filter(eq_or_null(column, value))

    @staticmethod
    def _column_for(meta, field_name: str) -> str:
        if field_name in ("jid", "pk", "id"):
            return "jid"
        field = meta.fields.get(field_name)
        return field.column_name if field is not None else field_name

    @staticmethod
    def _aggregate_column(meta, field_name: str, function: str) -> str:
        """Resolve and validate the column behind an aggregated field
        (shared gate: :func:`repro.form.aggregates.check_aggregate_field`)."""
        if field_name in ("jid", "pk", "id"):
            return "jid"
        return check_aggregate_field(
            field_name, meta.fields.get(field_name), meta.table_name, function
        )

    @staticmethod
    def _base_values(meta, row: Dict[str, Any]) -> Dict[str, Any]:
        """The base table's columns of a joined row, unqualified."""
        prefix = f"{meta.table_name}."
        return {
            name[len(prefix):]: value for name, value in row.items() if name.startswith(prefix)
        }

    def _pruned(
        self,
        form: FORM,
        instances: List[Any],
        branches: List[Tuple[JvarBranch, ...]],
        viewer: Any,
    ) -> List[Any]:
        """Early Pruning: keep only the facet rows visible to ``viewer``.

        ``branches[i]`` are the jvar branches of ``instances[i]``'s row.
        Policies of *this* model are evaluated against the secret facet
        instance already fetched by the query (when present), so a pruned
        page resolves each policy exactly once per record instead of
        re-reading the row -- the effect behind the paper's observation that
        Jacqueline can beat hand-coded checks on some pages.
        """
        prefix = f"{self.model._meta.table_name}."
        fetched: Dict[int, Any] = {}
        for instance, row_branches in zip(instances, branches):
            own = [polarity for name, polarity in row_branches if name.startswith(prefix)]
            if all(own):
                fetched.setdefault(instance.jid, instance)
        resolve = self._label_resolver(form, viewer, fetched)
        return [
            instance
            for instance, row_branches in zip(instances, branches)
            if all(resolve(name) == polarity for name, polarity in row_branches)
        ]


class Manager:
    """The per-model query entry point (``Model.objects``)."""

    def __init__(self, model: Type) -> None:
        self.model = model

    def __get__(self, instance: Any, owner: Type) -> "Manager":
        return self

    # -- creation ---------------------------------------------------------------------

    def create(self, **kwargs: Any) -> Any:
        instance = self.model(**kwargs)
        writes.store(self.model, current_form(), [instance])
        return instance

    def get_or_create(
        self, defaults: Optional[Dict[str, Any]] = None, **filters: Any
    ) -> Tuple[Any, bool]:
        """The matching record, creating it when missing.

        Returns ``(instance, created)`` like Django.  ``defaults`` supplies
        extra field values used only on creation; join lookups
        (``fk__field``) cannot be turned into field values and are rejected
        when creation is required.

        The check-then-create section is transactional with respect to other
        ``get_or_create`` calls on the same FORM: concurrent callers with the
        same filters serialise on a (striped) per-key creation lock, so
        exactly one of them creates the record and the rest observe it --
        while creations for unrelated keys proceed in parallel.
        """
        found = self.get(**filters)
        if found is not None:
            return found, False
        joined = [lookup for lookup in filters if "__" in lookup]
        if joined:
            raise ValueError(
                f"get_or_create cannot build a record from join lookups {joined!r}"
            )
        form = current_form()
        with form.creation_lock(self._creation_key(filters)):
            # Re-check under the lock: another thread may have created the
            # record between the optimistic get above and lock acquisition.
            found = self.get(**filters)
            if found is not None:
                return found, False
            params = dict(filters)
            params.update(defaults or {})
            return self.create(**params), True

    def _creation_key(self, filters: Dict[str, Any]) -> Tuple:
        """A stable lock key for get_or_create's check-then-create section.

        Values are marshalled the way the query itself marshals them (jid
        for model instances, ``to_db`` for field values), so two callers
        racing on the same logical record always hash to the same lock --
        ``repr`` of live instances would not be stable across copies.
        """
        meta = self.model._meta
        parts = []
        for name, value in filters.items():
            if isinstance(value, JModel):
                value = value.jid
            else:
                field = meta.fields.get(name)
                if field is None and name.endswith("_id"):
                    field = meta.fields.get(name[:-3])
                if field is not None and not isinstance(value, Facet):
                    value = field.to_db(value)
            parts.append((name, repr(value)))
        return (meta.table_name, tuple(sorted(parts)))

    def bulk_create(self, instances: Sequence[Any]) -> List[Any]:
        """Save many instances with one bulk database write.

        Facet-row expansion is identical to :meth:`JModel.save`.  When every
        instance is new, the rows of the whole batch, path-condition
        branches attached under a pc, flush through one
        ``Database.insert_many`` (one backend write, one invalidation
        event) instead of one insert per facet row.  Instances that already
        have a jid make the batch one facet rewrite instead
        (:func:`repro.form.writes.store`).
        """
        pending = list(instances)
        writes.store(self.model, current_form(), pending)
        return pending

    def bulk_update(self, instances: Sequence[Any]) -> List[Any]:
        """Rewrite many saved records' facet rows in one batched write.

        The set-oriented form of heterogeneous per-instance edits: each
        instance's facet-row set is expanded exactly as :meth:`JModel.save`
        would (public facets recomputed), and the whole batch is one facet
        rewrite (:func:`repro.form.writes.rewrite`): one atomic
        ``replace_rows``, one invalidation event, preceded under a path
        condition by one fetch of the stored rows the guarded update keeps.
        When the same record appears twice, the *last* instance wins
        (matching sequential saves).  Every instance must already have a
        jid.
        """
        pending = list(instances)
        if any(instance.jid is None for instance in pending):
            raise ValueError(
                "bulk_update requires saved instances (use bulk_save "
                "to mix creates and updates)"
            )
        writes.store(self.model, current_form(), pending)
        return pending

    def bulk_save(self, instances: Sequence[Any]) -> List[Any]:
        """Persist a heterogeneous batch: creates and updates, both batched.

        All new: one ``insert_many``.  Any saved instance: one facet
        rewrite for the whole batch, whose ``replace_rows`` also inserts
        the new records' rows (:func:`repro.form.writes.store`).  So the
        batch costs one statement, or two under a path condition, instead
        of one per record.
        """
        pending = list(instances)
        writes.store(self.model, current_form(), pending)
        return pending

    # -- querying ----------------------------------------------------------------------

    def all(self) -> QuerySet:
        return QuerySet(self.model)

    def filter(self, **filters: Any) -> QuerySet:
        return QuerySet(self.model, filters)

    def get(self, **filters: Any) -> Any:
        """The matching record, or ``None`` (the Jacqueline API never raises
        for a missing row, unlike Django -- see Figure 7 vs Figure 8).

        A foreign-key filter set to a member of a viewer-context result
        list (the Figure 7 policy's ``paper=paper``) is answered from one
        batched load over the whole list -- see :func:`_batched_get`.
        """
        found = _batched_get(self.model, filters)
        if found is _PER_RECORD:
            found = QuerySet(self.model, filters).first()
        return found

    def get_or_raise(self, **filters: Any) -> Any:
        found = self.get(**filters)
        if found is None:
            raise DoesNotExist(f"{self.model.__name__} matching {filters!r} does not exist")
        return found

    def get_by_jid(self, jid: Any) -> Any:
        if isinstance(jid, Facet):
            return facet_map(lambda j: self.get(jid=j) if j is not None else None, jid)
        return self.get(jid=jid)

    def count(self) -> Any:
        return QuerySet(self.model).count()

    def exists(self) -> Any:
        return QuerySet(self.model).exists()

    def aggregate(self, field_name: str, function: str) -> Any:
        return QuerySet(self.model).aggregate(field_name, function)


# -- batched loading ------------------------------------------------------------------

#: Returned by the batched lookups when a call must take the per-record path.
_PER_RECORD = object()


class _Siblings:
    """The batch state shared by the members of one viewer-context result list.

    Holds the list's jids, the foreign-key ids of its visible members and
    the memo of batched lookups made on them -- never the members
    themselves, so no instance -> siblings -> instance cycle forms.  The
    FORM and viewer are held weakly for the same reason: a viewer may be a
    member of the list it speculated on.
    """

    __slots__ = ("_form", "_viewer", "_thread", "jids", "fk_ids", "memo")

    def __init__(self, form: FORM, viewer: Any) -> None:
        self._form = weakref.ref(form)
        try:
            self._viewer = weakref.ref(viewer)
        except TypeError:  # viewers that cannot be weakly referenced
            self._viewer = lambda: viewer
        self._thread = threading.get_ident()
        #: the list's distinct jids, in order (set by :func:`_instances`)
        self.jids: Tuple[int, ...] = ()
        #: foreign-key field name -> the visible members' distinct ids
        self.fk_ids: Dict[str, Tuple[Any, ...]] = {}
        #: lookup key -> (stamp, {key value: visible matches})
        self.memo: Dict[Tuple, Tuple[Tuple[int, int, int], Dict[Any, List[Any]]]] = {}

    def serves(self, form: FORM, viewer: Any) -> bool:
        """Whether a call on this thread, FORM and viewer may use the memo.

        ``viewer`` must not be ``None``: a collected viewer's weak reference
        answers ``None`` too, and a call outside any viewer context must
        never see a pruned answer.
        """
        return (
            viewer is not None
            and self._thread == threading.get_ident()
            and self._form() is form
            and self._viewer() is viewer
        )

    def dereference(self, field: ForeignKey, target_jid: Any) -> Any:
        """``member.<field>``, answered from one load of every visible
        member's target when :func:`_batched_lookup` allows it."""
        target = field.target_model()
        keys = self.fk_ids.get(field.name)
        found = _PER_RECORD
        if keys is not None:
            found = _batched_lookup(
                self, target, "jid", target_jid, keys, {}, (field.name,)
            )
        if found is _PER_RECORD:
            found = target.objects.get_by_jid(target_jid)
        return found


def _note_visible_fk_ids(model: Type, visible: List[Any]) -> None:
    """Record the foreign-key ids of a pruned list's visible members."""
    siblings = visible[0]._siblings if visible else None
    if siblings is None:
        return
    for name, field in model._meta.fields.items():
        if isinstance(field, ForeignKey):
            ids = dict.fromkeys(map(attrgetter(field.column_name), visible))
            ids.pop(None, None)
            siblings.fk_ids[name] = tuple(ids)


def _batched_get(model: Type, filters: Dict[str, Any]) -> Any:
    """``model.objects.get(**filters)`` from a batched load, or :data:`_PER_RECORD`.

    Applies when exactly one filter value is a member of a viewer-context
    result list, set on a foreign-key field of ``model``, and every other
    value is a plain hashable value or a record (compared by jid).  The
    load covers every member's jid with the other filters unchanged.
    """
    batched = None
    others: List[Tuple[str, str, Any]] = []
    for lookup, value in filters.items():
        if isinstance(value, JModel):
            siblings = value._siblings
            if siblings is None:
                others.append((lookup, type(value).__name__, value.jid))
            elif batched is None:
                batched = (lookup, value, siblings)
            else:
                return _PER_RECORD
        elif "__" in lookup or isinstance(value, Facet):
            return _PER_RECORD
        else:
            try:
                hash(value)
            except TypeError:
                return _PER_RECORD
            others.append((lookup, type(value).__name__, value))
    if batched is None:
        return _PER_RECORD
    lookup, record, siblings = batched
    field = model._meta.fields.get(lookup)
    if not isinstance(field, ForeignKey):
        return _PER_RECORD
    rest = {name: value for name, value in filters.items() if name != lookup}
    memo_key = (model._meta.table_name, lookup, tuple(sorted(others)))
    return _batched_lookup(
        siblings, model, field.column_name, record.jid, siblings.jids, rest, memo_key
    )


def _batched_lookup(
    siblings: _Siblings,
    model: Type,
    column: str,
    key: Any,
    keys: Tuple[Any, ...],
    filters: Dict[str, Any],
    memo_key: Tuple,
) -> Any:
    """The record of ``model`` whose ``column`` equals ``key`` under
    ``filters``, answered from one load over all of ``keys``.

    Returns a copy of the one visible match, ``None`` when nothing
    visible matches, or :data:`_PER_RECORD` whenever the answer might
    differ from the per-record ``get()``: another thread, FORM or viewer;
    a label resolution in flight while ``model`` may carry labels (its
    load would see the re-entrancy guard's optimistic answers); a write,
    schema change or policy-epoch bump since the load; or several matches
    (``get()`` would pick one in engine order).  Keys are jids, so any
    other key (a faceted or application-assigned value) is per-record too.
    """
    form = current_form()
    if not isinstance(key, int) or not siblings.serves(form, current_viewer()):
        return _PER_RECORD
    meta = model._meta
    if _resolving_labels(form) and (
        meta.policy_groups or form.database.may_have_facets(meta.table_name)
    ):
        obs.add("plan.batched_load.fallback.resolving")
        return _PER_RECORD
    stamp = form.database.invalidation.stamp()
    batch = siblings.memo.get(memo_key)
    if batch is None:
        if key not in keys:
            return _PER_RECORD
        # Stamped before the load, so a write racing it leaves the memo stale.
        batch = (stamp, _load_batch(model, column, keys, filters))
        siblings.memo[memo_key] = batch
    elif batch[0] != stamp:
        obs.add("plan.batched_load.fallback.stale")
        return _PER_RECORD
    matches = batch[1].get(key)
    if matches is None:
        return _PER_RECORD
    if len(matches) > 1:
        obs.add("plan.batched_load.fallback.multiple_matches")
        return _PER_RECORD
    return _detached_copy(matches[0]) if matches else None


def _load_batch(
    model: Type, column: str, keys: Tuple[Any, ...], filters: Dict[str, Any]
) -> Dict[Any, List[Any]]:
    """Fetch ``model`` rows with ``column IN (keys)`` under ``filters`` for
    the current viewer, grouped by key (every key present).

    The IN list is chunked at :data:`repro.form.writes.MAX_BOUND_VARIABLES`,
    as :func:`repro.form.writes.stored_rows` chunks its jid lists.
    """
    answers: Dict[Any, List[Any]] = {key: [] for key in keys}
    for chunk in writes.chunked(keys):
        obs.add("plan.batched_load")
        batch = QuerySet(model, filters)
        batch._key_filter = (column, tuple(chunk))
        for instance in batch.fetch():
            matches = answers.get(getattr(instance, column))
            if matches is not None:
                matches.append(instance)
    return answers


def _detached_copy(instance: Any) -> Any:
    """A fresh instance with ``instance``'s state, so no two members of a
    list share the record a batched lookup returns."""
    copy = type(instance).__new__(type(instance))
    copy.__dict__.update(instance.__dict__)
    return copy


def _resolving_labels(form: FORM) -> set:
    """This thread's set of labels currently being resolved on ``form``.

    Per-thread on purpose: the optimistic-visibility answer for a label mid-
    resolution is only sound inside the resolution cycle asking for it.  A
    concurrent request thread hitting the same (label, viewer) must block on
    nothing and evaluate the policy for real, or a denied viewer could be
    shown the secret facet whenever another request happens to be resolving
    the same label.
    """
    local = form._resolving_local
    labels = getattr(local, "labels", None)
    if labels is None:
        labels = set()
        local.labels = labels
    return labels


def _states(meta, rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One statement's rows of ``meta``'s table as instance states: ``jid``
    and the model's field columns.

    Every backend returns fresh row dicts
    (:meth:`repro.db.backend.Backend.execute`), so each row becomes its
    state in place, its ``id`` and ``jvars`` deleted: a facet row's
    primary key or branches would tell a viewer which facet it was
    served.  The columns are checked once, on the first row, since every
    row of one ``SELECT *`` has the same keys.  When they are not the
    table schema's -- a SQLite file created by an older model keeps
    columns the model no longer declares -- each state is built column by
    column instead, so no instance exposes them.
    """
    if rows and rows[0].keys() == meta.row_columns:
        for row in rows:
            del row["id"], row["jvars"]
        return rows
    columns = meta.state_columns
    return [{column: row.get(column) for column in columns} for row in rows]


def _instances(
    model: Type, states: List[Dict[str, Any]], siblings: Optional[_Siblings] = None
) -> List[Any]:
    """One instance of ``model`` per state, the state becoming the
    instance's ``__dict__``: the caller hands over states no one else holds.

    With ``siblings``, every instance shares it when the states span two
    or more records (the jids are collected in the same pass).
    """
    new = object.__new__
    instances: List[Any] = []
    append = instances.append
    if siblings is None:
        for state in states:
            instance = new(model)
            instance.__dict__ = state
            append(instance)
        return instances
    jids: Dict[Any, None] = {}
    for state in states:
        state["_siblings"] = siblings
        jids[state["jid"]] = None
        instance = new(model)
        instance.__dict__ = state
        append(instance)
    siblings.jids = tuple(jids)
    if len(jids) < 2:  # the facet rows of one record: nothing to batch
        for state in states:
            del state["_siblings"]
    return instances


def _secret_instance(model: Type, jid: int, form: FORM) -> Any:
    """The secret (all labels True) facet of a record, freshly read.

    Used when evaluating policies: the policy sees the actual field values of
    the row at the time of output.
    """
    meta = model._meta
    rows = form.database.find(meta.table_name, jid=jid)
    if not rows:
        return None
    return _instances(model, _states(meta, [writes.secret_row(rows)]))[0]


def form_label(form: FORM, label_name: str) -> Optional[Tuple[Type, int, Any]]:
    """The model, record jid and policy group a FORM label names, or ``None``.

    FORM labels are named ``Table.jid.group``
    (:func:`repro.form.marshal.label_name_for`), and the model is the one
    ``form`` registered for ``Table``.  A label of a table the FORM did not
    register, or of a group its model does not declare, is no FORM label.
    This is the one lookup behind Early Pruning (:func:`_resolve_label`)
    and concretisation (:func:`label_policy`).
    """
    parts = label_name.split(".")
    if len(parts) != 3:
        return None
    table, jid_text, group_key = parts
    model = form._models.get(table)
    if model is None or not jid_text.isdecimal():
        return None
    for group in model._meta.policy_groups:
        if group.key == group_key:
            return model, int(jid_text), group
    return None


def label_policy(form: FORM, label: Label) -> Optional[Callable[[Any], Any]]:
    """The policy of a FORM label (:func:`form_label`), or ``None`` for any
    other label.

    Each FORM installs this as its runtime's ``PolicyEnv.label_policy``,
    so ``runtime.concretize`` finds the policy of every FORM label it meets
    -- the read's own, a joined model's, or one carried in a value facet --
    and no read registers anything.  The policy runs as Early Pruning runs
    it (:func:`_concretised_label`), so both agree on every viewer: the
    Projection Theorem.
    """
    if form_label(form, label.name) is None:
        return None
    return functools.partial(_concretised_label, form, label.name)


def _concretised_label(form: FORM, label_name: str, viewer: Any) -> bool:
    """Resolve a FORM label for ``viewer`` at concretisation.

    Through :func:`_resolve_label` inside ``viewer_context(viewer)``, with
    its re-entrancy guard: a read the policy makes (a conflict lookup) is
    pruned for the viewer, as during Early Pruning, instead of returning a
    faceted value that ``is not None`` would read as a hit for everyone.
    """
    with viewer_context(viewer):
        return _resolve_label(form, label_name, viewer)


def _label_outcome(
    form: FORM, model: Type, jid: int, group: Any, viewer: Any, row: Any = None
) -> Any:
    """Run one record's policy group for ``viewer``.

    The policy sees the record's secret facet: ``row`` when the caller
    already holds it, else a fresh read, so it is enforced against the
    state of the system at the time of output.  A deleted record's label
    hides.
    """
    if row is None:
        row = _secret_instance(model, jid, form)
        if row is None:
            return False
    return evaluate_policy(group.method, row, viewer)


def _resolve_label(
    form: FORM,
    label_name: str,
    viewer: Any,
    model: Optional[Type] = None,
    fetched: Optional[Dict[int, Any]] = None,
) -> bool:
    """Resolve one label for a known viewer (Early Pruning).

    A FORM label (:func:`form_label`) runs its policy group directly
    (:func:`_label_outcome`), on ``fetched[jid]`` when the read already
    holds the record's secret facet: ``fetched`` holds the instances of the
    read's own ``model`` only.  Other labels (e.g. created by application
    code through the runtime) resolve through the runtime's policy
    environment.

    Policies may depend on the data they guard (the guest-list example of
    Section 2.3): evaluating such a policy issues a query whose pruning asks
    for the very label being resolved.  Mirroring the constraint semantics --
    which prefers the show-maximising consistent assignment -- a label that
    is already being resolved is optimistically treated as visible inside its
    own policy evaluation.
    """
    resolving = _resolving_labels(form)
    key = (label_name, id(viewer))
    if key in resolving:
        return True
    resolving.add(key)
    try:
        found = form_label(form, label_name)
        if found is not None:
            label_model, jid, group = found
            row = None
            if fetched and label_model._meta.table_name == model._meta.table_name:
                row = fetched.get(jid)
            outcome = _label_outcome(form, label_model, jid, group, viewer, row)
        else:
            obs.add("policy.evaluations")
            outcome = form.runtime.policy_env.evaluate(
                Label(hint=label_name, name=label_name), viewer
            )
        if isinstance(outcome, Facet):
            outcome = form.runtime.concretize(outcome, viewer)
        return bool(outcome)
    finally:
        resolving.discard(key)
