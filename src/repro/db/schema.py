"""Table schemas and column types."""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple


class ColumnType(enum.Enum):
    """The scalar column types supported by both backends."""

    INTEGER = "INTEGER"
    REAL = "REAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATETIME = "DATETIME"

    def coerce(self, value: Any) -> Any:
        """Coerce a Python value into this column type (``None`` passes)."""
        if value is None:
            return None
        if self is ColumnType.INTEGER:
            return int(value)
        if self is ColumnType.REAL:
            return float(value)
        if self is ColumnType.TEXT:
            return str(value)
        if self is ColumnType.BOOLEAN:
            if isinstance(value, str):
                return value.lower() in {"1", "true", "yes"}
            return bool(value)
        if self is ColumnType.DATETIME:
            if isinstance(value, datetime.datetime):
                return value
            if isinstance(value, str):
                return datetime.datetime.fromisoformat(value)
            raise TypeError(f"cannot coerce {value!r} to DATETIME")
        raise TypeError(f"unknown column type {self!r}")  # pragma: no cover

    def sql_type(self) -> str:
        """The SQLite storage class used for this column."""
        return {
            ColumnType.INTEGER: "INTEGER",
            ColumnType.REAL: "REAL",
            ColumnType.TEXT: "TEXT",
            ColumnType.BOOLEAN: "INTEGER",
            ColumnType.DATETIME: "TEXT",
        }[self]


@dataclass(frozen=True)
class Column:
    """A single column definition.

    ``indexed`` requests a hash index on the memory engine (exact
    ``=``/``IN``/``IS NULL`` probes) and a ``CREATE INDEX`` on SQLite.
    """

    name: str
    type: ColumnType
    primary_key: bool = False
    nullable: bool = True
    default: Any = None
    indexed: bool = False

    def coerce(self, value: Any) -> Any:
        if value is None:
            if not self.nullable and not self.primary_key:
                raise ValueError(f"column {self.name!r} is not nullable")
            return None
        return self.type.coerce(value)


class SchemaError(Exception):
    """Raised for malformed schemas or rows that violate them."""


@dataclass
class TableSchema:
    """A table schema: an ordered list of columns with one primary key.

    The primary key must be an INTEGER column; both backends auto-assign it
    on insert when left unset (mirroring Django's implicit ``id``).

    >>> schema = TableSchema("Paper", (
    ...     Column("id", ColumnType.INTEGER, primary_key=True),
    ...     Column("jid", ColumnType.INTEGER, indexed=True),
    ...     Column("title", ColumnType.TEXT)))
    >>> [column.name for column in schema.indexed_columns()]
    ['jid']
    >>> schema.validate_row({"title": "facets"})
    {'id': None, 'jid': None, 'title': 'facets'}
    """

    name: str
    columns: Tuple[Column, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        primary = [column for column in self.columns if column.primary_key]
        if len(primary) != 1:
            raise SchemaError(f"table {self.name!r} must have exactly one primary key")
        if primary[0].type is not ColumnType.INTEGER:
            raise SchemaError(f"primary key of {self.name!r} must be INTEGER")
        self._by_name: Dict[str, Column] = {column.name: column for column in self.columns}
        self._primary_key: Column = primary[0]

    # -- queries ---------------------------------------------------------------

    @property
    def primary_key(self) -> Column:
        # Cached at construction: per-row index maintenance on the write
        # paths reads this once per row, which a column scan would dominate.
        return self._primary_key

    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from exc

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def indexed_columns(self) -> List[Column]:
        return [column for column in self.columns if column.indexed]

    # -- row helpers -------------------------------------------------------------

    def validate_row(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """Coerce and validate a row dict, filling defaults for missing columns."""
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown column(s) {sorted(unknown)} for table {self.name!r}")
        row: Dict[str, Any] = {}
        for column in self.columns:
            if column.name in values:
                row[column.name] = column.coerce(values[column.name])
            elif column.primary_key:
                row[column.name] = None
            elif column.default is not None:
                row[column.name] = column.coerce(column.default)
            elif column.nullable:
                row[column.name] = None
            else:
                raise SchemaError(
                    f"missing value for non-nullable column {column.name!r} of "
                    f"table {self.name!r}"
                )
        return row

    def with_extra_columns(self, extra: Sequence[Column]) -> "TableSchema":
        """A copy of this schema with additional columns appended.

        Used by the FORM to augment application schemas with the ``jid`` and
        ``jvars`` meta-data columns, and by the legacy-data migration helper.
        """
        existing = set(self.column_names())
        appended = tuple(column for column in extra if column.name not in existing)
        return TableSchema(self.name, self.columns + appended)
