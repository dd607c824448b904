"""Model field declarations (the Django-like schema vocabulary)."""

from __future__ import annotations

import datetime
from typing import Any, Optional, TYPE_CHECKING, Type

from repro.db.schema import Column, ColumnType

if TYPE_CHECKING:  # pragma: no cover
    from repro.form.model import JModel


class Field:
    """Base class for model fields.

    The metaclass assigns ``name`` and ``model`` when the model class is
    created.  ``column_name`` is the database column backing the field
    (foreign keys use ``<name>_id``).
    """

    column_type: ColumnType = ColumnType.TEXT

    def __init__(
        self,
        nullable: bool = True,
        default: Any = None,
        indexed: bool = False,
    ) -> None:
        self.nullable = nullable
        self.default = default
        self.indexed = indexed
        self.name: str = ""
        self.model: Optional[type] = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    @property
    def column_name(self) -> str:
        return self.name

    def to_column(self) -> Column:
        """The database column definition for this field."""
        return Column(
            self.column_name,
            self.column_type,
            nullable=self.nullable,
            default=self.default,
            indexed=self.indexed,
        )

    def to_db(self, value: Any) -> Any:
        """Convert a Python value to its database representation.

        Reads need no converse: every backend returns each column's
        Python value (SQLite decodes BOOLEAN and DATETIME columns).
        """
        return value


class CharField(Field):
    """A bounded text field (``max_length`` is advisory, as in SQLite)."""

    column_type = ColumnType.TEXT

    def __init__(self, max_length: int = 255, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.max_length = max_length

    def to_db(self, value: Any) -> Any:
        if value is None:
            return None
        return str(value)[: self.max_length]


class TextField(Field):
    """Unbounded text."""

    column_type = ColumnType.TEXT

    def to_db(self, value: Any) -> Any:
        return None if value is None else str(value)


class IntegerField(Field):
    column_type = ColumnType.INTEGER

    def to_db(self, value: Any) -> Any:
        return None if value is None else int(value)


class FloatField(Field):
    column_type = ColumnType.REAL

    def to_db(self, value: Any) -> Any:
        return None if value is None else float(value)


class BooleanField(Field):
    column_type = ColumnType.BOOLEAN

    def to_db(self, value: Any) -> Any:
        return None if value is None else bool(value)


class DateTimeField(Field):
    column_type = ColumnType.DATETIME

    def to_db(self, value: Any) -> Any:
        if value is None or isinstance(value, datetime.datetime):
            return value
        if isinstance(value, str):
            return datetime.datetime.fromisoformat(value)
        raise TypeError(f"cannot store {value!r} in a DateTimeField")


class ForeignKey(Field):
    """A reference to another model.

    The backing column is ``<name>_id`` and stores the *jid* of the target
    record (not its primary key), as required for faceted joins (Section
    3.1.1).  Attribute access resolves the reference through the target's
    manager, so the result respects the current viewer context.
    """

    column_type = ColumnType.INTEGER

    def __init__(self, to: Any, **kwargs: Any) -> None:
        kwargs.setdefault("indexed", True)
        super().__init__(**kwargs)
        self._to = to

    @property
    def column_name(self) -> str:
        return f"{self.name}_id"

    def target_model(self) -> Type["JModel"]:
        """Resolve the referenced model (supports string forward references)."""
        if isinstance(self._to, str):
            from repro.form.model import ModelRegistry

            return ModelRegistry.get(self._to)
        return self._to

    def to_db(self, value: Any) -> Any:
        from repro.form.model import JModel

        if value is None:
            return None
        if isinstance(value, JModel):
            return value.jid
        return int(value)
