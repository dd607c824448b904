"""Policy pushdown: compile Early Pruning into the SQL statement itself.

The Python Early Pruning path (``QuerySet._pruned``) fetches every facet
row and resolves each guarding label -- O(labels) policy evaluations per
request.  When a model's one policy group compiles
(:mod:`repro.analysis.symbolic`) to a predicate over own-row columns,
viewer attributes and constants, this module renders that predicate into
the WHERE clause instead, one conjunct per involved table::

    jvars = ''                                         -- unfaceted rows
    OR (jvars = 'T.<jid>.g=True'  AND <predicate>)     -- secret facet rows
    OR (jvars = 'T.<jid>.g=False' AND NOT <predicate>) -- public facet rows

and the *database engine* prunes -- one SQL statement for
``filter().fetch()``, ``count()`` and ``aggregate()`` on both backends.
The viewer-only parts of the predicate fold to booleans when it binds.

Every other viewer-context read of a policied model takes the Python
path, which is also the differential-testing oracle (``tests/fuzz/``),
and counts its reason when it runs (``QuerySet.explain()`` reports it):

* a model in the query has the ``"opaque"`` tier
  (:func:`repro.analysis.classify.model_tier`), whose ``reason`` names
  why (``plan.policy_pushdown.opaque_fallback``);
* the predicate does not bind for this viewer
  (``plan.policy_pushdown.fallback.bind``);
* a table holds facet rows the branch test cannot read, or its facet
  state is unknown (``plan.policy_pushdown.fallback.facet_rows``).

>>> from repro.apps.conf.models import ConfUser, Review
>>> profile_for(ConfUser).tier, profile_for(Review).tier
('inline', 'opaque')
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.analysis import symbolic as sym
from repro.analysis.classify import PolicyTier, model_tier
from repro.analysis.facts import facts_for_model
from repro.db.expr import (
    AndExpr,
    ColumnRef,
    Comparison,
    Expression,
    FacetBranch,
    IsNull,
    Literal,
    NotExpr,
    NullSafeEq,
    OrExpr,
    eq,
    prefix_range,
)


def profile_for(model: type) -> PolicyTier:
    """The tier of a model class (:func:`repro.analysis.classify.model_tier`),
    cached on its meta."""
    meta = model._meta
    try:
        return meta._pushdown_profile
    except AttributeError:
        pass
    try:
        profile = model_tier(facts_for_model(model))
    except Exception as error:
        # A class whose facts cannot be built: the Python evaluator stays
        # the oracle, and the profile says why.
        profile = PolicyTier("opaque", reason=f"cannot derive the tier: {error!r}")
    meta._pushdown_profile = profile
    return profile


# -- inline predicate rendering ----------------------------------------------------


class _Demote(Exception):
    """Raised during binding when the inline predicate cannot render for
    this viewer: the read takes the Python path."""


def _viewer_value(source: sym.ViewerAttr, viewer: Any) -> Any:
    """Resolve a ``viewer.a.b`` chain against the live viewer object."""
    value = viewer
    for index, attr in enumerate(source.path):
        last = index == len(source.path) - 1
        try:
            if last and source.has_default:
                value = getattr(value, attr, source.default)
            else:
                value = getattr(value, attr)
        except AttributeError:
            # The oracle would raise here too: the Python path reproduces
            # that, since it evaluates the policy itself.
            raise _Demote(f"viewer has no attribute {attr!r}")
    return value


def _bind_value(source: sym.Source, viewer: Any) -> Any:
    if isinstance(source, sym.ConstVal):
        return source.value
    if isinstance(source, sym.ViewerAttr):
        return _viewer_value(source, viewer)
    if isinstance(source, sym.ViewerSelf):
        return viewer
    raise _Demote(f"unbindable source {type(source).__name__}")


def _bound_literal(column: sym.OwnColumn, value: Any) -> Any:
    """Validate a bound value against the column's kind; demote on doubt.

    Values bind *raw* (no ``to_db`` coercion): Python ``==`` inside the
    oracle compares the unconverted viewer value, so coercing here would
    make e.g. ``5 == "5"`` true in SQL but false in Python.  For the same
    reason the value's type must match the column's kind -- SQLite applies
    column affinity to comparison operands (``owner_id IS '5'`` matches
    ``5``), which Python equality never does.  Model instances demote:
    their equality semantics live in ``JModel.__eq__``, not in the stored
    foreign-key integer.
    """
    import datetime

    from repro.form.model import JModel

    if isinstance(value, JModel):
        raise _Demote("model-instance operand binds through JModel.__eq__")
    if value is None:
        return None
    kind = column.kind
    if kind == "text":
        ok = isinstance(value, str)
    elif kind in ("int", "float"):
        ok = isinstance(value, (int, float))
    elif kind == "bool":
        ok = isinstance(value, (bool, int))
    elif kind == "datetime":
        ok = isinstance(value, datetime.datetime)
    else:
        ok = False
    if not ok:
        raise _Demote(f"value {value!r} does not match column kind {kind!r}")
    return value


_PY_OPS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
    "not-in": lambda a, b: a not in b,
    "prefix": lambda a, b: a.startswith(b),
}

_RANGE_SQL = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _fold_viewer_atom(atom: sym.Atom, viewer: Any) -> bool:
    """Evaluate an atom with no own-column operand to a plain boolean."""
    lhs = _bind_value(atom.lhs, viewer)
    try:
        if atom.op == "is-null":
            return lhs is None
        if atom.op == "not-null":
            return lhs is not None
        if atom.op == "truthy":
            return bool(lhs)
        rhs = _bind_value(atom.rhs, viewer)
        return bool(_PY_OPS[atom.op](lhs, rhs))
    except _Demote:
        raise
    except Exception as error:
        # The oracle would raise evaluating this: the Python path
        # reproduces the behaviour faithfully.
        raise _Demote(f"viewer-side evaluation failed: {error}")


def _bind_atom(
    atom: sym.Atom, model: type, viewer: Any, colname
) -> "bool | Expression":
    lhs, rhs = atom.lhs, atom.rhs
    if {type(lhs), type(rhs)} == {sym.RowSelf, sym.ViewerSelf}:
        # ``viewer == row``: JModel.__eq__ is type-strict and compares
        # jids; an unsaved viewer (jid None) falls back to object identity,
        # which no fetched record satisfies.
        if type(viewer) is model and viewer.jid is not None:
            return NullSafeEq(
                ColumnRef(colname("jid")), Literal(viewer.jid), atom.op == "ne"
            )
        return atom.op == "ne"
    if not isinstance(lhs, sym.OwnColumn):
        return _fold_viewer_atom(atom, viewer)
    column = ColumnRef(colname(lhs.column))
    if atom.op in ("is-null", "not-null"):
        return IsNull(column, negated=atom.op == "not-null")
    if atom.op == "truthy":
        return NullSafeEq(column, Literal(True))
    if isinstance(rhs, sym.OwnColumn):
        other = ColumnRef(colname(rhs.column))
        if atom.op in ("eq", "ne"):
            return NullSafeEq(column, other, atom.op == "ne")
        if atom.op in _RANGE_SQL and not lhs.nullable and not rhs.nullable:
            return Comparison(_RANGE_SQL[atom.op], column, other)
        raise _Demote(f"column/column op {atom.op!r} not renderable")
    if atom.op in ("in", "not-in"):
        values = _bind_value(rhs, viewer)
        members = [
            NullSafeEq(column, Literal(_bound_literal(lhs, item)))
            for item in values
        ]
        if not members:
            return atom.op == "not-in"
        matched: Expression = members[0]
        for member in members[1:]:
            matched = OrExpr(matched, member)
        return NotExpr(matched) if atom.op == "not-in" else matched
    value = _bound_literal(lhs, _bind_value(rhs, viewer))
    if atom.op in ("eq", "ne"):
        return NullSafeEq(column, Literal(value), atom.op == "ne")
    if atom.op == "prefix":
        if not isinstance(value, str):
            raise _Demote("prefix bound to a non-string value")
        return prefix_range(colname(lhs.column), value)
    if atom.op in _RANGE_SQL:
        if value is None:
            raise _Demote("range bound to None")
        return Comparison(_RANGE_SQL[atom.op], column, Literal(value))
    raise _Demote(f"op {atom.op!r} not renderable")


def _bind_predicate(
    pred: sym.Pred, model: type, viewer: Any, colname
) -> "bool | Expression":
    """Render IR to a two-valued expression, folding viewer-only parts.

    Returns a plain bool when the whole predicate folds.  Raises
    :class:`_Demote` when some part cannot be rendered for this viewer.
    """
    if isinstance(pred, sym.Const):
        return pred.value
    if isinstance(pred, (sym.And, sym.Or)):
        is_and = isinstance(pred, sym.And)
        absorbing = not is_and
        parts: List[Expression] = []
        for item in pred.items:
            bound = _bind_predicate(item, model, viewer, colname)
            if isinstance(bound, bool):
                if bound == absorbing:
                    return absorbing
                continue
            parts.append(bound)
        if not parts:
            return not absorbing
        combined = parts[0]
        for part in parts[1:]:
            combined = AndExpr(combined, part) if is_and else OrExpr(combined, part)
        return combined
    if isinstance(pred, sym.Not):
        bound = _bind_predicate(pred.item, model, viewer, colname)
        if isinstance(bound, bool):
            return not bound
        # Sound because every rendered atom is two-valued (IS-family,
        # IS NULL, or ranges over non-nullable columns).
        return NotExpr(bound)
    if isinstance(pred, sym.Atom):
        return _bind_atom(pred, model, viewer, colname)
    raise _Demote(f"unrenderable node {type(pred).__name__}")


def _inline_conjunct(model: type, viewer: Any, qualify: bool) -> Expression:
    """The pruning conjunct of one table: ``jvars = ''`` for an unpolicied
    model, the bound inline predicate for an ``"inline"`` one.

    Raises :class:`_Demote` when the predicate does not bind against this
    viewer: an attribute chain fails, a value does not match its column's
    kind, or a viewer-only atom raises.

    The conjunct admits unguarded rows (``jvars = ''``), positive-branch
    rows where the bound predicate holds, and negative-branch rows where
    its (two-valued) negation holds.  The predicate provably reads no
    guarded column, so evaluating it on either facet row of a record gives
    the record's policy outcome.
    """
    meta = model._meta
    table = meta.table_name
    colname = (lambda name: f"{table}.{name}") if qualify else (lambda name: name)
    unguarded = eq(colname("jvars"), "")
    profile = profile_for(model)
    if profile.tier == "none":
        return unguarded
    bound = _bind_predicate(profile.predicate, model, viewer, colname)
    group = meta.policy_groups[0]
    positive = FacetBranch(table, group.key, True, qualify)
    negative = FacetBranch(table, group.key, False, qualify)
    if bound is True:
        return OrExpr(unguarded, positive)
    if bound is False:
        return OrExpr(unguarded, negative)
    return OrExpr(
        unguarded,
        OrExpr(AndExpr(positive, bound), AndExpr(negative, NotExpr(bound))),
    )


def _canonical_facet_rows(form: Any, model: type) -> bool:
    """Whether one :class:`~repro.db.expr.FacetBranch` match selects each
    record's branch in the model's table.

    Holds when every facet row is a canonical single-group branch of one
    of the model's policy groups (``Database.facet_branch_keys``, known
    from the table's creation), so an unpolicied table must hold no facet
    rows at all.
    """
    meta = model._meta
    try:
        branch_keys = form.database.facet_branch_keys(meta.table_name)
    except Exception:
        return False
    return branch_keys is not None and branch_keys <= {
        group.key for group in meta.policy_groups
    }


# -- the planning entry point ----------------------------------------------------


def pruning_conjuncts(
    form: Any,
    model: type,
    joined_tables: List[str],
    viewer: Any,
) -> Tuple[Optional[List[Expression]], Optional[str]]:
    """``(conjuncts, fallback)`` for a viewer-context query.

    ``conjuncts`` are the per-table pruning predicates, one per involved
    table (base plus joins), each from :func:`_inline_conjunct`; ``None``
    when the Python path must prune.  ``fallback`` then names the counter
    a policied read that falls back bumps when it runs (``None`` when
    nothing in the query is policied).  Runs no statement and counts
    nothing, so ``QuerySet.explain()`` makes the same decision as the read
    it reports.
    """
    if not getattr(form, "policy_pushdown_enabled", True):
        return None, None
    from repro.form.model import ModelRegistry

    models = [model]
    for table in joined_tables:
        try:
            models.append(ModelRegistry.get(table))
        except LookupError:
            return None, None
    if not any(m._meta.policy_groups for m in models):
        # Nothing policied anywhere in the query: the existing paths are
        # already optimal (and unpolicied pc-label rows stay on the
        # resolver path, whose semantics they were written against).
        return None, None
    if any(profile_for(m).tier == "opaque" for m in models):
        return None, "plan.policy_pushdown.opaque_fallback"
    if not all(_canonical_facet_rows(form, m) for m in models):
        return None, "plan.policy_pushdown.fallback.facet_rows"
    qualify = bool(joined_tables)
    try:
        return [_inline_conjunct(m, viewer, qualify) for m in models], None
    except _Demote:
        return None, "plan.policy_pushdown.fallback.bind"
