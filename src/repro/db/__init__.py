"""Relational database substrate.

The faceted object-relational mapping stores faceted values in *ordinary*
relational tables augmented with ``jid``/``jvars`` meta-data columns, and the
paper stresses that this works with existing relational database
implementations.  This package provides two interchangeable backends behind a
single interface:

* :class:`repro.db.memory_backend.MemoryBackend` -- a pure-Python relational
  engine (tables, typed schemas, where-expressions, joins, ordering,
  aggregation, secondary indexes);
* :class:`repro.db.sqlite_backend.SqliteBackend` -- the same interface on top
  of the standard library's ``sqlite3`` (a real relational database).

:mod:`repro.db.sqlgen` renders queries to SQL text, reproducing the Table 2
translation between Django-style and Jacqueline-style queries.
"""

from repro.db.schema import Column, ColumnType, TableSchema
from repro.db.expr import (
    AndExpr,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    InSubquery,
    Like,
    Literal,
    NotExpr,
    OrExpr,
    between,
    col,
    gt,
    gte,
    in_subquery,
    like,
    lit,
    lt,
    lte,
    prefix_range,
    string_successor,
)
from repro.db.planner import AccessPath, choose_plan
from repro.db.query import (
    Aggregate,
    DeletePlan,
    Join,
    Order,
    Query,
    UpdatePlan,
    plan_aggregate,
    plan_bounded,
    plan_delete,
    plan_keys,
    plan_update,
)
from repro.db.table import Table
from repro.db.engine import Database
from repro.db.backend import Backend
from repro.db.memory_backend import MemoryBackend
from repro.db.observe import StatementEvent, StatementLog
from repro.db.sqlite_backend import SqliteBackend
from repro.db.sqlgen import delete_to_sql, query_to_sql, schema_to_sql, update_to_sql

__all__ = [
    "Column",
    "ColumnType",
    "TableSchema",
    "Expression",
    "ColumnRef",
    "Literal",
    "Comparison",
    "AndExpr",
    "OrExpr",
    "NotExpr",
    "InList",
    "Between",
    "Like",
    "col",
    "lit",
    "gt",
    "gte",
    "lt",
    "lte",
    "between",
    "like",
    "prefix_range",
    "string_successor",
    "AccessPath",
    "choose_plan",
    "Query",
    "Join",
    "Order",
    "Aggregate",
    "InSubquery",
    "in_subquery",
    "UpdatePlan",
    "DeletePlan",
    "plan_aggregate",
    "plan_bounded",
    "plan_delete",
    "plan_keys",
    "plan_update",
    "Table",
    "Database",
    "Backend",
    "MemoryBackend",
    "SqliteBackend",
    "StatementEvent",
    "StatementLog",
    "query_to_sql",
    "schema_to_sql",
    "update_to_sql",
    "delete_to_sql",
]
