"""Jacqueline model classes (the ``JModel`` base and its metaclass).

A model declares fields, optional ``jacqueline_get_public_<field>`` methods
computing public facets, and ``@label_for`` policies.  The metaclass collects
these into :class:`ModelOptions`; instances carry (possibly faceted) field
values; ``save`` expands them into jid/jvars-annotated rows.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro import obs
from repro.core.facets import Facet
from repro.db.schema import Column, ColumnType, TableSchema
from repro.form import writes
from repro.form.context import FORM, current_form
from repro.form.fields import Field, ForeignKey
from repro.form.marshal import (
    JvarBranch,
    expand_value_facets,
    label_name_for,
    merge_rows,
)
from repro.form.policies import POLICY_ATTRIBUTE, PUBLIC_METHOD_PREFIX


class PolicyGroup:
    """One ``@label_for`` declaration: a set of fields guarded by one label."""

    def __init__(self, fields: Tuple[str, ...], method: Callable[[Any, Any], Any]) -> None:
        self.fields = fields
        self.method = method
        #: stable key used in label names; the first guarded field.
        self.key = fields[0]

    def __repr__(self) -> str:
        return f"PolicyGroup(fields={self.fields!r})"


class ModelRegistry:
    """Global name → model class registry (resolves string foreign keys)."""

    _models: Dict[str, Type["JModel"]] = {}

    @classmethod
    def register(cls, model: Type["JModel"]) -> None:
        cls._models[model.__name__] = model

    @classmethod
    def get(cls, name: str) -> Type["JModel"]:
        try:
            return cls._models[name]
        except KeyError as exc:
            raise LookupError(f"unknown model {name!r}") from exc


class ModelOptions:
    """Per-model metadata: fields, policies, public-value methods, schema."""

    #: Names of the FORM meta-data columns added to every table.
    METADATA_COLUMNS = ("jid", "jvars")

    def __init__(self, model: Type["JModel"], fields: Dict[str, Field]) -> None:
        self.model = model
        self.table_name = model.__name__
        self.fields = fields
        self.policy_groups: List[PolicyGroup] = []
        self.public_methods: Dict[str, Callable[[Any], Any]] = {}
        #: the column names :meth:`table_schema` declares: the keys of each
        #: row a ``SELECT *`` returns from a table the model created
        self.row_columns = frozenset(column.name for column in self.table_schema().columns)
        #: the columns of an instance's state: ``jid`` and each field's
        self.state_columns = ("jid", *(field.column_name for field in fields.values()))

    # -- schema -------------------------------------------------------------------

    def table_schema(self) -> TableSchema:
        """The augmented schema: application columns plus ``jid``/``jvars``."""
        columns: List[Column] = [Column("id", ColumnType.INTEGER, primary_key=True)]
        columns.extend(field.to_column() for field in self.fields.values())
        columns.append(Column("jid", ColumnType.INTEGER, indexed=True))
        columns.append(Column("jvars", ColumnType.TEXT, default=""))
        return TableSchema(self.table_name, tuple(columns))

    # -- policies ------------------------------------------------------------------

    def group_for_field(self, field_name: str) -> Optional[PolicyGroup]:
        for group in self.policy_groups:
            if field_name in group.fields:
                return group
        return None

    def public_value(self, field_name: str, instance: "JModel") -> Any:
        """The public facet of a field, computed by the declared method.

        Falls back to ``None`` when no ``jacqueline_get_public_<field>``
        method exists (the field is simply hidden).
        """
        method = self.public_methods.get(field_name)
        if method is None:
            return None
        return method(instance)

    def public_read_columns(self) -> Optional[frozenset]:
        """Columns the model's public-facet methods read, or ``None`` (TOP).

        Statically inferred once per model class
        (:func:`repro.analysis.readsets.public_read_columns_for_model`) and
        cached; the write decision procedure consults it to force the
        batched rewrite when a fast-path update would stale a stored
        public snapshot.  ``None`` means "may read anything" -- inference
        gave up or the method source is unavailable -- and forces
        conservatively.  Imported lazily: the analysis package depends on
        nothing in the form, but the form only needs it once models with
        public methods are actually updated.
        """
        try:
            return self._public_read_columns
        except AttributeError:
            from repro.analysis.readsets import public_read_columns_for_model

            self._public_read_columns = public_read_columns_for_model(self.model)
        return self._public_read_columns

    def field_column(self, field_name: str) -> str:
        return self.fields[field_name].column_name

    def __repr__(self) -> str:
        return f"ModelOptions({self.table_name!r})"


class ModelMeta(type):
    """Collects fields and policy declarations into ``cls._meta``."""

    def __new__(mcls, name: str, bases: Tuple[type, ...], namespace: Dict[str, Any]):
        cls = super().__new__(mcls, name, bases, dict(namespace))
        if name in {"JModel"} and not bases:
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

        options = ModelOptions(cls, fields)

        for attr_name, attr_value in namespace.items():
            target = attr_value.__func__ if isinstance(attr_value, staticmethod) else attr_value
            guarded = getattr(target, POLICY_ATTRIBUTE, None)
            if guarded:
                options.policy_groups.append(PolicyGroup(tuple(guarded), target))
            if attr_name.startswith(PUBLIC_METHOD_PREFIX) and callable(target):
                field_name = attr_name[len(PUBLIC_METHOD_PREFIX):]
                options.public_methods[field_name] = target

        cls._meta = options
        ModelRegistry.register(cls)

        from repro.form.manager import Manager  # deferred to break the import cycle

        cls.objects = Manager(cls)
        return cls


class JModel(metaclass=ModelMeta):
    """Base class for Jacqueline models.

    Instances are plain attribute bags; field values may be faceted.  The
    ``jid`` attribute identifies the logical record across its facet rows
    (``None`` until the instance is saved).
    """

    _meta: ModelOptions
    #: The batch state shared with the other members of the viewer-context
    #: result list this instance came from (``repro.form.manager._Siblings``);
    #: ``None`` for every other instance.
    _siblings: Any = None

    def __init__(self, **kwargs: Any) -> None:
        self.jid: Optional[int] = kwargs.pop("jid", None)
        meta = type(self)._meta
        for name, field in meta.fields.items():
            if name in kwargs:
                self._set_field(name, field, kwargs.pop(name))
            elif isinstance(field, ForeignKey) and f"{name}_id" in kwargs:
                setattr(self, f"{name}_id", kwargs.pop(f"{name}_id"))
            else:
                setattr(self, field.column_name, field.default)
        if kwargs:
            raise TypeError(f"unexpected field(s) {sorted(kwargs)} for {type(self).__name__}")

    def _set_field(self, name: str, field: Field, value: Any) -> None:
        if isinstance(field, ForeignKey):
            if isinstance(value, JModel) or isinstance(value, Facet):
                object.__setattr__(self, f"_fk_cache_{name}", value)
                setattr(self, field.column_name, field.to_db(value) if not isinstance(value, Facet) else value)
            else:
                setattr(self, field.column_name, value)
        else:
            setattr(self, name, value)

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JModel):
            return NotImplemented
        if type(self) is not type(other):
            return False
        if self.jid is None or other.jid is None:
            return self is other
        return self.jid == other.jid

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.jid if self.jid is not None else id(self)))

    def __repr__(self) -> str:
        meta = type(self)._meta
        parts = [f"jid={self.jid}"]
        for name, field in list(meta.fields.items())[:4]:
            parts.append(f"{name}={getattr(self, field.column_name, None)!r}")
        return f"{type(self).__name__}({', '.join(parts)})"

    # -- foreign key resolution ----------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        meta = type(self).__dict__.get("_meta") or type(self)._meta
        field = meta.fields.get(name)
        if isinstance(field, ForeignKey):
            cache_name = f"_fk_cache_{name}"
            if cache_name in self.__dict__:
                return self.__dict__[cache_name]
            target_jid = self.__dict__.get(field.column_name)
            if target_jid is None:
                return None
            # A member of a viewer-context result list loads the targets of
            # all its visible siblings at once (batched loading).
            if self._siblings is not None:
                resolved = self._siblings.dereference(field, target_jid)
            else:
                resolved = field.target_model().objects.get_by_jid(target_jid)
            self.__dict__[cache_name] = resolved
            return resolved
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- persistence -------------------------------------------------------------------------

    def field_values(self) -> Dict[str, Any]:
        """Current column values of this instance (possibly faceted)."""
        meta = type(self)._meta
        values: Dict[str, Any] = {}
        for name, field in meta.fields.items():
            raw = self.__dict__.get(field.column_name)
            values[field.column_name] = raw if isinstance(raw, Facet) else field.to_db(raw)
        return values

    def save(self, form: Optional[FORM] = None) -> "JModel":
        """Write this instance to the database as jid/jvars-annotated facet rows.

        A new instance gets a jid and is inserted; a saved one has its facet
        rows rewritten (:func:`repro.form.writes.store`).  Saving under a
        non-empty path condition (inside ``runtime.jif`` on a sensitive
        condition) guards the update: viewers outside the branch keep seeing
        the previous contents, as in the Dagstuhl-description example of
        Section 2.2.
        """
        writes.store(type(self), form or current_form(), [self])
        return self

    def delete(self, form: Optional[FORM] = None) -> None:
        """Remove this record: a facet rewrite with no new rows.

        The rewrite (:func:`repro.form.writes.rewrite`) holds the FORM save
        lock, so a delete cannot interleave with a concurrent update's
        read-modify-write and be undone by its reinsert.  Under a non-empty
        path condition the delete is *guarded*: rows survive for every
        assignment falsifying the pc, so viewers outside the branch keep
        seeing the record.

        ``jid`` is cleared once no row survives, so a later :meth:`save`
        re-creates the record as a fresh one instead of silently
        resurrecting the old jid through the update path; it stays set
        while the record still exists in some world.
        """
        if self.jid is None:
            return
        form = form or current_form()
        if not writes.rewrite(form, type(self)._meta.table_name, {self.jid: ()}):
            self.jid = None

    # -- row expansion ----------------------------------------------------------------------------

    def _facet_rows(self, form: FORM) -> List[Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]]:
        """Expand this instance into (branches, concrete column values) rows.

        Two sources of facets are combined: facets already present in the
        field values (data derived from other sensitive data) and the policy
        groups declared on the model (each contributing one fresh label whose
        False side holds the computed public values).
        """
        meta = type(self)._meta
        base_rows = expand_value_facets(self.field_values())

        group_labels: List[Tuple[str, PolicyGroup]] = []
        for group in meta.policy_groups:
            group_labels.append((label_name_for(meta.table_name, self.jid, group.key), group))

        if not group_labels:
            obs.add("facet.rows.expanded", len(base_rows))
            return base_rows

        expanded: List[Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]] = []
        for branches, values in base_rows:
            for assignment in itertools.product([True, False], repeat=len(group_labels)):
                row_values = dict(values)
                row_branches = list(branches)
                for (label_name, group), visible in zip(group_labels, assignment):
                    row_branches.append((label_name, visible))
                    if not visible:
                        for field_name in group.fields:
                            column = meta.field_column(field_name)
                            field = meta.fields[field_name]
                            public = meta.public_value(field_name, self)
                            row_values[column] = (
                                field.to_db(public) if not isinstance(public, Facet) else public
                            )
                expanded.append((tuple(row_branches), row_values))
        result = merge_rows(expanded)
        obs.add("facet.rows.expanded", len(result))
        return result
