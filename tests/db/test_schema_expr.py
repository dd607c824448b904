"""Tests for schemas, column types and where-expressions."""

import datetime

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.db.expr import (
    AndExpr,
    ColumnRef,
    Comparison,
    FacetBranch,
    InList,
    InSubquery,
    IsNull,
    Literal,
    NotExpr,
    NullSafeEq,
    OrExpr,
    and_all,
    col,
    eq,
    filters_to_expr,
    like,
    lit,
    ne,
)
from repro.db.query import Query
from repro.db.schema import Column, ColumnType, SchemaError, TableSchema


def make_schema(**extra):
    columns = [
        Column("id", ColumnType.INTEGER, primary_key=True),
        Column("name", ColumnType.TEXT),
        Column("age", ColumnType.INTEGER),
        Column("active", ColumnType.BOOLEAN, default=True),
        Column("joined", ColumnType.DATETIME),
    ]
    return TableSchema("Person", tuple(columns))


def test_column_type_coercion():
    assert ColumnType.INTEGER.coerce("7") == 7
    assert ColumnType.REAL.coerce(3) == 3.0
    assert ColumnType.TEXT.coerce(5) == "5"
    assert ColumnType.BOOLEAN.coerce("true") is True
    assert ColumnType.BOOLEAN.coerce(0) is False
    stamp = datetime.datetime(2026, 6, 14, 12, 0)
    assert ColumnType.DATETIME.coerce(stamp.isoformat()) == stamp
    assert ColumnType.INTEGER.coerce(None) is None
    with pytest.raises(TypeError):
        ColumnType.DATETIME.coerce(12345)


def test_schema_validation_rules():
    with pytest.raises(SchemaError):
        TableSchema("T", ())
    with pytest.raises(SchemaError):
        TableSchema("T", (Column("a", ColumnType.TEXT, primary_key=True),))
    with pytest.raises(SchemaError):
        TableSchema(
            "T",
            (
                Column("id", ColumnType.INTEGER, primary_key=True),
                Column("id", ColumnType.TEXT),
            ),
        )
    with pytest.raises(SchemaError):
        TableSchema(
            "T",
            (
                Column("id", ColumnType.INTEGER, primary_key=True),
                Column("other", ColumnType.INTEGER, primary_key=True),
            ),
        )


def test_schema_queries_and_row_validation():
    schema = make_schema()
    assert schema.primary_key.name == "id"
    assert schema.column_names() == ["id", "name", "age", "active", "joined"]
    assert schema.has_column("name") and not schema.has_column("missing")
    with pytest.raises(SchemaError):
        schema.column("missing")

    row = schema.validate_row({"name": "Ada", "age": "36"})
    assert row["age"] == 36
    assert row["active"] is True  # default applied
    assert row["joined"] is None
    with pytest.raises(SchemaError):
        schema.validate_row({"nonexistent": 1})


def test_non_nullable_columns_enforced():
    schema = TableSchema(
        "T",
        (
            Column("id", ColumnType.INTEGER, primary_key=True),
            Column("required", ColumnType.TEXT, nullable=False),
        ),
    )
    with pytest.raises(SchemaError):
        schema.validate_row({})
    with pytest.raises(ValueError):
        schema.column("required").coerce(None)


def test_with_extra_columns_is_idempotent():
    schema = make_schema()
    extra = (Column("jid", ColumnType.INTEGER), Column("jvars", ColumnType.TEXT))
    augmented = schema.with_extra_columns(extra)
    assert augmented.has_column("jid") and augmented.has_column("jvars")
    again = augmented.with_extra_columns(extra)
    assert len(again.columns) == len(augmented.columns)


def test_expression_evaluation():
    row = {"name": "Ada", "age": 36, "Person.city": "London"}
    assert eq("name", "Ada").evaluate(row)
    assert not eq("name", "Bob").evaluate(row)
    assert ne("age", 35).evaluate(row)
    assert Comparison("<", col("age"), lit(40)).evaluate(row)
    assert Comparison(">=", col("age"), lit(36)).evaluate(row)
    assert (eq("name", "Ada") & ne("age", 0)).evaluate(row)
    assert (eq("name", "Bob") | eq("name", "Ada")).evaluate(row)
    assert (~eq("name", "Bob")).evaluate(row)
    assert InList(col("age"), (35, 36)).evaluate(row)
    assert IsNull(col("missing_column"), negated=False).evaluate({"missing_column": None})
    # Qualified and unqualified lookups resolve either way.
    assert eq("city", "London").evaluate(row)
    assert eq("Person.age", 36).evaluate(row)


def test_expression_to_sql_parameters():
    sql, params = (eq("name", "Ada") & ne("age", 3)).to_sql()
    assert "AND" in sql and params == ["Ada", 3]
    sql, params = InList(col("age"), (1, 2, 3)).to_sql()
    assert sql.count("?") == 3
    sql, params = (~eq("name", "x")).to_sql()
    assert sql.startswith("(NOT") and params == ["x"]


def test_comparison_rejects_unknown_operator():
    with pytest.raises(ValueError):
        Comparison("~=", col("a"), lit(1))


def test_filters_to_expr_and_and_all():
    expression = filters_to_expr({"a": 1, "b": 2})
    assert expression.evaluate({"a": 1, "b": 2})
    assert not expression.evaluate({"a": 1, "b": 3})
    assert and_all([]) is None
    assert filters_to_expr({}) is None


@given(st.integers(), st.integers())
def test_comparison_property_matches_python(left, right):
    row = {"x": left}
    assert Comparison("<", col("x"), lit(right)).evaluate(row) == (left < right)
    assert eq("x", right).evaluate(row) == (left == right)


# -- the generated evaluator and its shape cache -----------------------------------


def _generated(run):
    """How many evaluator sources ``run`` generated (shape-cache misses)."""
    with obs.tracing():
        before = obs.totals.get("db.predicate.generated")
        run()
        return obs.totals.get("db.predicate.generated") - before


def test_null_and_non_null_literals_of_one_tree():
    for value, expected in ((3, True), (4, False), (None, None)):
        assert eq("n", value).evaluate({"n": 3}) is expected
        assert (~eq("n", value)).evaluate({"n": 3}) is (None if expected is None else not expected)
    assert eq("n", 3).evaluate({"n": None}) is None
    assert NullSafeEq(col("n"), lit(None)).evaluate({"n": None}) is True
    assert NullSafeEq(col("n"), lit(None)).evaluate({"n": 3}) is False
    assert NullSafeEq(col("n"), lit(3), negated=True).evaluate({"n": None}) is True


@pytest.mark.parametrize(
    "values, operand, expected",
    [
        ((), None, False),  # an empty list is FALSE, even for NULL
        ((), 1, False),
        ((1, None), 1, True),
        ((1, None), 2, None),  # a miss against a listed NULL is UNKNOWN
        ((1, None), None, None),
        ((1, 2), 2, True),
        ((1, 2), 3, False),
        ((1, 2), None, None),
        (([1],), [1], True),  # unhashable list values
        ((1, 2), [1], False),  # an unhashable operand value
        ((1, None), [1], None),
    ],
)
def test_in_lists(values, operand, expected):
    assert InList(col("x"), values).evaluate({"x": operand}) is expected
    negated = None if expected is None else not expected
    assert NotExpr(InList(col("x"), values)).evaluate({"x": operand}) is negated


def test_facet_branch_names_resolve_qualified_and_bare():
    # test_expression_evaluation covers the same fallback for comparisons.
    branch = FacetBranch("Doc", "title", True, qualify=True)
    assert branch.evaluate({"jid": 7, "jvars": "Doc.7.title=True"}) is True
    assert FacetBranch("Doc", "title", False).evaluate(
        {"Doc.jid": 7, "Doc.jvars": "Doc.7.title=True"}
    ) is False
    with pytest.raises(KeyError):
        eq("missing", 1).evaluate({"name": "x"})


def test_rare_paths_still_raise():
    with pytest.raises(TypeError):  # unorderable mixed types
        Comparison("<", col("age"), lit("x")).evaluate({"age": 3})
    with pytest.raises(TypeError):  # unresolved subquery
        (eq("a", 1) & InSubquery(col("id"), Query("T").select("id"))).compile()


def test_a_seen_shape_with_new_constants_generates_no_source():
    def statement(jid, names, pattern):
        return (eq("shape_probe", jid) | InList(col("name"), names)) & like("name", pattern)

    statement(1, ("a", "b"), "a%").compile()

    def again():
        pred = statement(2, ("c", "d", "e"), "%d").compile()
        assert pred({"shape_probe": 2, "name": "xd"}) is True
        assert pred({"shape_probe": 3, "name": "e"}) is False
        assert pred({"shape_probe": None, "name": "zzd"}) is None

    assert _generated(again) == 0
    # A NULL literal changes the shape: its comparison is always UNKNOWN.
    assert _generated(lambda: statement(None, ("c",), "c").compile()) == 1
