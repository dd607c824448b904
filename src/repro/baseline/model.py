"""The baseline ORM: plain models over the relational substrate.

This mirrors Django's behaviour where the paper's comparison depends on it:

* models store exactly what the application gives them (no facets, no
  meta-data columns);
* ``Model.objects.get(...)`` raises :class:`DoesNotExist` when no row matches
  (the paper's Figure 8 wraps policy checks in ``try/except`` because of it);
* policy enforcement is entirely the application's responsibility: views must
  call policy functions and scrub fields by hand.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from repro.db.engine import Database
from repro.db.expr import eq, eq_or_null
from repro.db.query import (
    Aggregate,
    Query,
    limit_by_key,
    plan_aggregate,
    plan_bounded,
    plan_delete,
    plan_update,
)
from repro.db.schema import Column, ColumnType, TableSchema
from repro.form.fields import Field
from repro.baseline.fields import ForeignKey


class DoesNotExist(Exception):
    """Raised by ``get`` when no record matches (Django behaviour)."""


class BaselineDB:
    """A database handle for baseline models (thread-local stack)."""

    def __init__(self, database: Optional[Database] = None) -> None:
        self.database = database if database is not None else Database()
        self._models: Dict[str, type] = {}

    def register(self, model: type) -> None:
        self.database.create_table(model._meta.table_schema())
        self._models[model._meta.table_name] = model

    def register_all(self, models: List[type]) -> None:
        for model in models:
            self.register(model)

    def clear(self) -> None:
        self.database.clear()


_state = threading.local()


def _db_stack() -> List[BaselineDB]:
    stack = getattr(_state, "stack", None)
    if stack is None:
        stack = [BaselineDB()]
        _state.stack = stack
    return stack


def current_baseline_db() -> BaselineDB:
    return _db_stack()[-1]


@contextlib.contextmanager
def use_baseline_db(db: BaselineDB) -> Iterator[BaselineDB]:
    stack = _db_stack()
    stack.append(db)
    try:
        yield db
    finally:
        stack.pop()


class BaselineRegistry:
    """Name → baseline model class registry (for string foreign keys)."""

    _models: Dict[str, type] = {}

    @classmethod
    def register(cls, model: type) -> None:
        cls._models[model.__name__] = model

    @classmethod
    def get(cls, name: str) -> type:
        try:
            return cls._models[name]
        except KeyError as exc:
            raise LookupError(f"unknown baseline model {name!r}") from exc


class BaselineOptions:
    """Per-model metadata for the baseline ORM."""

    def __init__(self, model: type, fields: Dict[str, Field]) -> None:
        self.model = model
        self.table_name = model.__name__
        self.fields = fields

    def table_schema(self) -> TableSchema:
        columns: List[Column] = [Column("id", ColumnType.INTEGER, primary_key=True)]
        for field in self.fields.values():
            columns.append(field.to_column())
        return TableSchema(self.table_name, tuple(columns))

    def field_column(self, name: str) -> str:
        return self.fields[name].column_name


class BaselineMeta(type):
    """Collects fields into ``cls._meta`` and attaches a manager."""

    def __new__(mcls, name: str, bases: Tuple[type, ...], namespace: Dict[str, Any]):
        cls = super().__new__(mcls, name, bases, dict(namespace))
        if name in {"Model"} and not bases:
            return cls
        fields: Dict[str, Field] = {}
        for base in bases:
            base_meta = getattr(base, "_meta", None)
            if base_meta is not None:
                fields.update(base_meta.fields)
        for attr_name, attr_value in list(namespace.items()):
            if isinstance(attr_value, Field):
                attr_value.name = attr_name
                attr_value.model = cls
                fields[attr_name] = attr_value
                delattr(cls, attr_name)
        cls._meta = BaselineOptions(cls, fields)
        BaselineRegistry.register(cls)
        cls.objects = BaselineManager(cls)
        cls.DoesNotExist = DoesNotExist
        return cls


class Model(metaclass=BaselineMeta):
    """Base class for baseline (non-faceted) models."""

    _meta: BaselineOptions

    def __init__(self, **kwargs: Any) -> None:
        self.pk: Optional[int] = kwargs.pop("pk", None) or kwargs.pop("id", None)
        meta = type(self)._meta
        for name, field in meta.fields.items():
            if name in kwargs:
                value = kwargs.pop(name)
                if isinstance(field, ForeignKey) and isinstance(value, Model):
                    self.__dict__[f"_fk_cache_{name}"] = value
                    setattr(self, field.column_name, value.pk)
                else:
                    setattr(self, field.column_name, value)
            elif isinstance(field, ForeignKey) and f"{name}_id" in kwargs:
                setattr(self, f"{name}_id", kwargs.pop(f"{name}_id"))
            else:
                setattr(self, field.column_name, field.default)
        if kwargs:
            raise TypeError(f"unexpected field(s) {sorted(kwargs)} for {type(self).__name__}")

    # -- identity ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        if type(self) is not type(other):
            return False
        if self.pk is None or other.pk is None:
            return self is other
        return self.pk == other.pk

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.pk if self.pk is not None else id(self)))

    def __repr__(self) -> str:
        meta = type(self)._meta
        parts = [f"pk={self.pk}"]
        for name, field in list(meta.fields.items())[:4]:
            parts.append(f"{name}={getattr(self, field.column_name, None)!r}")
        return f"{type(self).__name__}({', '.join(parts)})"

    # -- foreign keys --------------------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        meta = type(self).__dict__.get("_meta") or type(self)._meta
        field = meta.fields.get(name)
        if isinstance(field, ForeignKey):
            cache_name = f"_fk_cache_{name}"
            if cache_name in self.__dict__:
                return self.__dict__[cache_name]
            target_pk = self.__dict__.get(field.column_name)
            if target_pk is None:
                return None
            resolved = field.target_model().objects.get(pk=target_pk)
            self.__dict__[cache_name] = resolved
            return resolved
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- persistence -----------------------------------------------------------------------

    def field_values(self) -> Dict[str, Any]:
        meta = type(self)._meta
        return {
            field.column_name: field.to_db(self.__dict__.get(field.column_name))
            for field in meta.fields.values()
        }

    def save(self) -> "Model":
        db = current_baseline_db().database
        meta = type(self)._meta
        values = self.field_values()
        if self.pk is None:
            self.pk = db.insert_row(meta.table_name, values)
        else:
            db.update(meta.table_name, eq("id", self.pk), **values)
        return self

    def delete(self) -> None:
        """Remove this row; clears ``pk`` so a later ``save`` re-creates it
        (Django behaviour -- a stale pk would resurrect the record through
        the UPDATE path instead)."""
        if self.pk is None:
            return
        db = current_baseline_db().database
        db.delete(type(self)._meta.table_name, eq("id", self.pk))
        self.pk = None


class BaselineQuerySet:
    """A lazily executed query over one baseline model."""

    def __init__(
        self,
        model: Type[Model],
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

    def filter(self, **filters: Any) -> "BaselineQuerySet":
        combined = dict(self.filters)
        combined.update(filters)
        return BaselineQuerySet(
            self.model, combined, self.order_fields, self.limit, self.offset
        )

    def order_by(self, *fields: str) -> "BaselineQuerySet":
        order = list(self.order_fields)
        for field in fields:
            order.append((field.lstrip("-"), not field.startswith("-")))
        return BaselineQuerySet(
            self.model, self.filters, tuple(order), self.limit, self.offset
        )

    def limited(self, limit: int, offset: int = 0) -> "BaselineQuerySet":
        return BaselineQuerySet(
            self.model, self.filters, self.order_fields, limit, offset
        )

    # -- execution ----------------------------------------------------------------------

    def fetch(self) -> List[Model]:
        db = current_baseline_db().database
        meta = self.model._meta
        query, joined = self._build_query(meta)
        rows = db.execute(query)
        instances = []
        for row in rows:
            values = self._base_values(meta, row, joined)
            instances.append(_instance_from_row(self.model, values))
        if joined:
            # The bounded pushdown already restricts a joined query to the
            # selected pks; this distinct-record truncation (same helper the
            # FORM uses per jid) stays as a backend-independent safety net.
            instances = limit_by_key(instances, lambda inst: inst.pk, self.limit)
        return instances

    def __iter__(self) -> Iterator[Model]:
        return iter(self.fetch())

    def __len__(self) -> int:
        return len(self.fetch())

    def first(self) -> Optional[Model]:
        """The first match, fetched with ``LIMIT 1`` pushed to the database."""
        bounded = self if self.limit is not None else self.limited(1, self.offset)
        rows = bounded.fetch()
        return rows[0] if rows else None

    def count(self) -> int:
        """The number of matching records, in one ``COUNT(DISTINCT id)``.

        Counting DISTINCT primary keys (rather than raw rows) keeps the
        count per *record* under joins, where one record spans one row per
        join match -- the same record-counting discipline as the FORM's
        jid-based count.  Bounded query sets keep the fetching path: the
        bound itself counts records, which a scalar plan cannot see.
        """
        if self.limit is not None or self.offset:
            return len(self.fetch())
        db = current_baseline_db().database
        query, _joined = self._build_query(self.model._meta)
        return db.aggregate(
            plan_aggregate(query, (), [Aggregate("COUNT", "id", distinct=True)])
        )

    def exists(self) -> bool:
        """Whether any record matches, via one ``SELECT EXISTS(...)``.

        The database answers the probe without returning rows: SQLite stops
        at its first hit and the memory engine early-exits its scan.
        """
        if self.limit is not None or self.offset:
            return bool(self.fetch())
        db = current_baseline_db().database
        query, _joined = self._build_query(self.model._meta)
        return db.aggregate(plan_aggregate(query, (), [Aggregate("EXISTS")]))

    def aggregate(self, field_name: str, function: str) -> Any:
        """Aggregate a field over the matching rows in one SQL statement.

        ``function`` is COUNT, SUM, AVG, MIN or MAX with SQL's NULL rules
        (NULLs skipped; SUM/AVG/MIN/MAX of no values is ``None``, COUNT is
        0).  Under a join the aggregate ranges over the joined rows, like
        Django's -- a record matched by several join rows contributes each
        of them.  Bounded query sets reduce the fetched instances instead.
        """
        function = function.upper()
        meta = self.model._meta
        if field_name in ("id", "pk"):
            column = "id"
        else:
            from repro.form.aggregates import check_aggregate_field

            column = check_aggregate_field(
                field_name, meta.fields.get(field_name), meta.table_name, function
            )
        if self.limit is not None or self.offset:
            from repro.form.aggregates import stats_of_values

            # Instances expose the primary key as ``pk``, not ``id``.
            attribute = "pk" if column == "id" else column
            values = [getattr(instance, attribute, None) for instance in self.fetch()]
            return stats_of_values(values).finalise(function)
        db = current_baseline_db().database
        query, _joined = self._build_query(meta)
        return db.aggregate(plan_aggregate(query, (), [Aggregate(function, column)]))

    def sum(self, field_name: str) -> Any:
        """``SUM(field)`` in one statement (``None`` when no values)."""
        return self.aggregate(field_name, "SUM")

    def avg(self, field_name: str) -> Any:
        """``AVG(field)`` in one statement (``None`` when no values)."""
        return self.aggregate(field_name, "AVG")

    def min(self, field_name: str) -> Any:
        """``MIN(field)`` in one statement (``None`` when no values)."""
        return self.aggregate(field_name, "MIN")

    def max(self, field_name: str) -> Any:
        """``MAX(field)`` in one statement (``None`` when no values)."""
        return self.aggregate(field_name, "MAX")

    def update(self, **values: Any) -> int:
        """Set columns on every matching record in one UPDATE statement.

        Django semantics: no instances are fetched or saved, and the number
        of affected rows is returned.  Joined filters and bounds compile to
        the id-subselect pushdown (``UPDATE t SET ... WHERE id IN (SELECT
        DISTINCT id ...)``); plain single-table filters apply directly.
        """
        if not values:
            return 0
        from repro.form.writes import resolve_update_fields

        db = current_baseline_db().database
        meta = self.model._meta
        column_values: Dict[str, Any] = {}
        # Same kwarg-to-field resolution as the FORM's update(); only the
        # instance marshalling differs (pk here, jid there).
        for _name, field, value in resolve_update_fields(meta, values):
            column_values[field.column_name] = (
                value.pk if isinstance(value, Model) else field.to_db(value)
            )
        query, joined = self._raw_query(meta)
        key = "id" if (joined or self.limit is not None or self.offset) else None
        return db.execute_update(plan_update(query, column_values, key_column=key))

    def delete(self) -> int:
        """Delete every matching record in one DELETE statement.

        Replaces the fetch-then-delete-per-row loop: joined or bounded
        query sets push their filters through the id subselect, plain ones
        delete directly on their WHERE clause.  Returns the number of rows
        removed.
        """
        db = current_baseline_db().database
        meta = self.model._meta
        query, joined = self._raw_query(meta)
        key = "id" if (joined or self.limit is not None or self.offset) else None
        return db.execute_delete(plan_delete(query, key_column=key))

    # -- internals ---------------------------------------------------------------------------

    def _raw_query(self, meta: BaselineOptions) -> Tuple[Query, List[str]]:
        """Filters, joins, ordering and the raw bound -- no plan applied.

        Shared input of the read planner (:meth:`_build_query`) and the
        write planners (``plan_update``/``plan_delete``).
        """
        query = Query(table=meta.table_name)
        joined: List[str] = []
        has_join = any("__" in lookup for lookup in self.filters)
        for lookup, value in self.filters.items():
            query = self._apply_filter(meta, query, joined, lookup, value, has_join)
        for field, ascending in self.order_fields:
            column = meta.fields[field].column_name if field in meta.fields else field
            if joined and "." not in column:
                # Qualify with the base table: the joined table may carry a
                # column of the same name, which SQLite rejects as ambiguous.
                column = f"{meta.table_name}.{column}"
            query = query.ordered_by(column, ascending)
        if self.limit is not None or self.offset:
            query = query.limited(self.limit, self.offset)
        return query, joined

    def _build_query(self, meta: BaselineOptions) -> Tuple[Query, List[str]]:
        query, joined = self._raw_query(meta)
        if joined and (query.limit is not None or query.offset):
            # A row LIMIT under a join would count join-duplicated rows, so a
            # bounded joined query compiles to the id-subselect pushdown (the
            # same plan the FORM uses with jid), bounding *records* in SQL.
            query = plan_bounded(query, "id", query.limit, query.offset)
        return query, joined

    def _apply_filter(
        self,
        meta: BaselineOptions,
        query: Query,
        joined: List[str],
        lookup: str,
        value: Any,
        has_join: bool,
    ) -> Query:
        if "__" in lookup:
            fk_name, _, related = lookup.partition("__")
            field = meta.fields.get(fk_name)
            if not isinstance(field, ForeignKey):
                raise ValueError(f"{lookup!r}: {fk_name!r} is not a foreign key")
            target_meta = field.target_model()._meta
            if target_meta.table_name not in joined:
                query = query.join(target_meta.table_name, field.column_name, "id")
                joined.append(target_meta.table_name)
            column = "id" if related in ("id", "pk") else target_meta.field_column(related)
            if isinstance(value, Model):
                value = value.pk
            return query.filter(eq_or_null(f"{target_meta.table_name}.{column}", value))
        if lookup in ("id", "pk"):
            column = f"{meta.table_name}.id" if has_join else "id"
            return query.filter(eq_or_null(column, value))
        field = meta.fields.get(lookup)
        if field is None and lookup.endswith("_id"):
            field = meta.fields.get(lookup[:-3])
        if field is None:
            raise ValueError(f"unknown field {lookup!r} on {meta.table_name}")
        if isinstance(value, Model):
            value = value.pk
        else:
            value = field.to_db(value)
        column = field.column_name
        if has_join:
            column = f"{meta.table_name}.{column}"
        return query.filter(eq_or_null(column, value))

    @staticmethod
    def _base_values(meta: BaselineOptions, row: Dict[str, Any], joined: List[str]) -> Dict[str, Any]:
        if not joined:
            return dict(row)
        prefix = f"{meta.table_name}."
        return {
            name[len(prefix):]: value for name, value in row.items() if name.startswith(prefix)
        }


class BaselineManager:
    """``Model.objects`` for baseline models."""

    def __init__(self, model: Type[Model]) -> None:
        self.model = model

    def __get__(self, instance: Any, owner: Type) -> "BaselineManager":
        return self

    def create(self, **kwargs: Any) -> Model:
        instance = self.model(**kwargs)
        instance.save()
        return instance

    def all(self) -> BaselineQuerySet:
        return BaselineQuerySet(self.model)

    def filter(self, **filters: Any) -> BaselineQuerySet:
        return BaselineQuerySet(self.model, filters)

    def get(self, **filters: Any) -> Model:
        """Django semantics: raise :class:`DoesNotExist` when nothing matches."""
        found = BaselineQuerySet(self.model, filters).first()
        if found is None:
            raise DoesNotExist(
                f"{self.model.__name__} matching {filters!r} does not exist"
            )
        return found

    def count(self) -> int:
        return BaselineQuerySet(self.model).count()

    def exists(self) -> bool:
        return BaselineQuerySet(self.model).exists()

    def aggregate(self, field_name: str, function: str) -> Any:
        return BaselineQuerySet(self.model).aggregate(field_name, function)


def _instance_from_row(model: Type[Model], values: Dict[str, Any]) -> Model:
    meta = model._meta
    instance = model.__new__(model)
    instance.pk = values.get("id")
    for field in meta.fields.values():
        instance.__dict__[field.column_name] = values.get(field.column_name)
    return instance
