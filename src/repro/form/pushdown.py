"""Policy pushdown: compile Early Pruning into the SQL statement itself.

The Python Early Pruning path (``QuerySet._pruned``) fetches every facet
row and resolves each guarding label -- O(labels) policy evaluations per
request.  When every policy group of a model compiles
(:mod:`repro.analysis.symbolic`) to a predicate over own-row columns,
viewer attributes, module globals, constants and lookups on unpolicied
models, this module renders the predicates into the WHERE clause
instead, one conjunct per involved table and one branch pair per group::

    jvars = ''                                           -- unfaceted rows
    OR (jvars = 'T.<jid>.g=True'  AND <predicate g>)     -- secret facet rows
    OR (jvars = 'T.<jid>.g=False' AND NOT <predicate g>) -- public facet rows
    OR ...                                               -- the next group

and the *database engine* prunes -- one SQL statement for
``filter().fetch()``, ``count()`` and ``aggregate()`` on both backends.
The parts of a predicate that read no column fold to booleans when it
binds: the viewer's attributes, and globals read from the policy
function's ``__globals__``.  A lookup renders as ``IN (SELECT ...)`` over
the looked-up model's unfaceted rows.  A public facet row whose predicate
still reads a column its group guards tests its record's secret row
through a subquery (:func:`_group_pair`).  A model's bound conjunct is
kept per binding key (:class:`_Inline`).

Every other viewer-context read of a policied model takes the Python
path, which is also the differential-testing oracle (``tests/fuzz/``,
``tests/analysis/test_policy_ir_oracle.py``), and counts its reason when
it runs (``QuerySet.explain()`` reports it):

* a model in the query has the ``"opaque"`` tier
  (:func:`repro.analysis.classify.model_tier`), whose ``reason`` names
  why (``plan.policy_pushdown.opaque_fallback``; ``explain()`` reports
  the reason as ``fallback_reason``);
* a predicate does not bind for this viewer
  (``plan.policy_pushdown.fallback.bind``);
* a table holds facet rows the branch test cannot read, its facet state
  is unknown, or a lookup's table holds facet rows
  (``plan.policy_pushdown.fallback.facet_rows``).

>>> from repro.apps.conf.models import ConfUser, Paper, Review
>>> profile_for(ConfUser).tier, profile_for(Paper).tier, profile_for(Review).tier
('inline', 'inline', 'opaque')
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis import symbolic as sym
from repro.analysis.classify import PolicyTier, model_tier
from repro.analysis.facts import facts_for_model
from repro.db.expr import (
    AndExpr,
    ColumnRef,
    Comparison,
    Expression,
    FacetBranch,
    InSubquery,
    IsNull,
    Literal,
    NotExpr,
    NullSafeEq,
    OrExpr,
    eq,
    prefix_range,
)
from repro.db.query import Query


def profile_for(model: type) -> PolicyTier:
    """The tier of a model class (:func:`repro.analysis.classify.model_tier`),
    cached on its meta."""
    meta = model._meta
    try:
        return meta._pushdown_profile
    except AttributeError:
        pass
    try:
        profile = (
            model_tier(facts_for_model(model)) if meta.policy_groups else PolicyTier("none")
        )
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


class _Env(NamedTuple):
    """What one policy group's predicate binds against."""

    model: type
    viewer: Any
    #: the policy function's ``__globals__``, where global sources resolve
    namespace: Dict[str, Any]
    #: column name -> the name the statement spells it with
    colname: Callable[[str], str]


#: The value types a global source may bind (exact types, not subclasses).
_GLOBAL_TYPES = (str, int, float, bool, type(None))


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


def _global_value(source: sym.GlobalAttr, namespace: Dict[str, Any]) -> Any:
    """Resolve a module-level ``Name.a.b`` chain in the policy's globals.

    Only a str, int, float, bool or ``None`` binds: the value is folded
    into the statement text.
    """
    head, *rest = source.path
    if head not in namespace:
        raise _Demote(f"no module-level name {head!r}")
    value = namespace[head]
    for attr in rest:
        try:
            value = getattr(value, attr)
        except Exception as error:
            raise _Demote(f"global {'.'.join(source.path)} does not resolve: {error}")
    if type(value) not in _GLOBAL_TYPES:
        raise _Demote(f"global {'.'.join(source.path)} is not a scalar")
    return value


def _bind_value(source: sym.Source, env: _Env) -> Any:
    if isinstance(source, sym.ConstVal):
        return source.value
    if isinstance(source, sym.ViewerAttr):
        return _viewer_value(source, env.viewer)
    if isinstance(source, sym.ViewerSelf):
        return env.viewer
    if isinstance(source, sym.GlobalAttr):
        return _global_value(source, env.namespace)
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


def _fold_viewer_atom(atom: sym.Atom, env: _Env) -> bool:
    """Evaluate an atom with no own-column operand to a plain boolean."""
    lhs = _bind_value(atom.lhs, env)
    try:
        if atom.op == "is-null":
            return lhs is None
        if atom.op == "not-null":
            return lhs is not None
        if atom.op == "truthy":
            return bool(lhs)
        rhs = _bind_value(atom.rhs, env)
        return bool(_PY_OPS[atom.op](lhs, rhs))
    except _Demote:
        raise
    except Exception as error:
        # The oracle would raise evaluating this: the Python path
        # reproduces the behaviour faithfully.
        raise _Demote(f"viewer-side evaluation failed: {error}")


def _lookup_key(source: sym.Source, env: _Env) -> Any:
    """A lookup operand, bound as ``QuerySet._apply_filter`` binds a
    ``get()`` keyword: a record by its jid, ``None`` as ``IS NULL``."""
    from repro.form.model import JModel

    value = _bind_value(source, env)
    if isinstance(value, JModel):
        return value.jid
    if value is None:
        return None
    raise _Demote(f"lookup operand {value!r} is neither a record nor None")


def _bind_lookup(atom: sym.Atom, env: _Env) -> Expression:
    """``column [NOT] IN (SELECT f FROM M WHERE g IS ? ...)``.

    The subquery keeps ``M``'s unfaceted rows and drops NULL keys, so the
    membership test is two-valued; the viewer binds before the statement
    runs, so nothing in it is correlated.
    """
    lookup = atom.rhs
    subquery = Query(lookup.table).select(lookup.column)
    for column, source in lookup.keys:
        subquery = subquery.filter(
            NullSafeEq(ColumnRef(column), Literal(_lookup_key(source, env)))
        )
    subquery = subquery.filter(IsNull(ColumnRef(lookup.column), negated=True))
    subquery = subquery.filter(eq("jvars", ""))
    member = InSubquery(ColumnRef(env.colname(atom.lhs.column)), subquery)
    return member if atom.op == "in" else NotExpr(member)


def _bind_atom(atom: sym.Atom, env: _Env) -> "bool | Expression":
    lhs, rhs = atom.lhs, atom.rhs
    colname = env.colname
    if {type(lhs), type(rhs)} == {sym.RowSelf, sym.ViewerSelf}:
        # ``viewer == row``: JModel.__eq__ is type-strict and compares
        # jids; an unsaved viewer (jid None) falls back to object identity,
        # which no fetched record satisfies.
        viewer = env.viewer
        if type(viewer) is env.model and viewer.jid is not None:
            return NullSafeEq(
                ColumnRef(colname("jid")), Literal(viewer.jid), atom.op == "ne"
            )
        return atom.op == "ne"
    if not isinstance(lhs, sym.OwnColumn):
        return _fold_viewer_atom(atom, env)
    if isinstance(rhs, sym.Lookup):
        return _bind_lookup(atom, env)
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
        values = _bind_value(rhs, env)
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
    value = _bound_literal(lhs, _bind_value(rhs, env))
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


def _bind_predicate(pred: sym.Pred, env: _Env) -> "bool | Expression":
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
            bound = _bind_predicate(item, env)
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
        bound = _bind_predicate(pred.item, env)
        if isinstance(bound, bool):
            return not bound
        # Sound because every rendered atom is two-valued (IS-family,
        # IS NULL, NULL-free IN, or ranges over non-nullable columns).
        return NotExpr(bound)
    if isinstance(pred, sym.Atom):
        return _bind_atom(pred, env)
    raise _Demote(f"unrenderable node {type(pred).__name__}")


def _plain(name: str) -> str:
    return name


def _group_pair(
    model: type, group: Any, predicate: sym.Pred, viewer: Any, qualify: bool
) -> Expression:
    """The facet rows of one policy group's branches the viewer sees.

    A positive-branch row is the record's secret facet, so it tests the
    bound predicate on itself.  A negative-branch row tests the negation,
    on itself when the bound predicate reads no column the group guards;
    otherwise its guarded columns hold public values, so it tests the
    record's secret row instead:
    ``NOT (jid IN (SELECT jid FROM T WHERE <positive branch> AND P))``.
    """
    table = model._meta.table_name
    colname = (lambda name: f"{table}.{name}") if qualify else _plain
    env = _Env(model, viewer, group.method.__globals__, colname)
    bound = _bind_predicate(predicate, env)
    positive = FacetBranch(table, group.key, True, qualify)
    negative = FacetBranch(table, group.key, False, qualify)
    if bound is True:
        return positive
    if bound is False:
        return negative
    guarded = {model._meta.fields[name].column_name for name in group.fields}
    hidden = bound.operand if isinstance(bound, NotExpr) else NotExpr(bound)
    if guarded & {name.rsplit(".", 1)[-1] for name in bound.columns()}:
        inner = _bind_predicate(predicate, env._replace(colname=_plain)) if qualify else bound
        secret = Query(table).select("jid").filter(
            AndExpr(FacetBranch(table, group.key, True), inner)
        )
        hidden = NotExpr(InSubquery(ColumnRef(colname("jid")), secret))
    return OrExpr(AndExpr(positive, bound), AndExpr(negative, hidden))


#: Bound conjuncts kept per model; past this many binding keys the model's
#: store starts over.
BINDINGS_PER_MODEL = 128


def _bound_sources(pred: sym.Pred) -> List[sym.Source]:
    """The viewer and global sources a predicate binds, lookup keys
    included, each once."""
    sources: Dict[sym.Source, None] = {}
    for atom in sym.iter_atoms(pred):
        operands = [atom.lhs, atom.rhs]
        if isinstance(atom.rhs, sym.Lookup):
            operands += [source for _column, source in atom.rhs.keys]
        for source in operands:
            if isinstance(source, (sym.ViewerSelf, sym.ViewerAttr, sym.GlobalAttr)):
                sources[source] = None
    return list(sources)


class _Inline:
    """One ``"inline"`` model's conjunct, bound once per binding key.

    A bound conjunct is a function of the values its predicates bind: the
    viewer's attribute chains, the globals, and the viewer object itself,
    which the IR only null-tests, compares with the row by type and jid
    (``viewer == row``) or binds as a lookup key (its jid).  So the key is
    those values, with their types, and a viewer that is ``None`` or a
    saved record by ``(type, jid)``; a viewer of any other kind, an
    unhashable value or a chain that does not resolve binds afresh.
    """

    def __init__(self, model: type, profile: PolicyTier) -> None:
        self.profile = profile
        #: (source, the namespace its policy's globals resolve in), each once
        sources: Dict[Tuple[sym.Source, int], Tuple[sym.Source, Dict[str, Any]]] = {}
        for group, predicate in zip(model._meta.policy_groups, profile.predicates):
            namespace = group.method.__globals__
            for source in _bound_sources(predicate):
                sources[source, id(namespace)] = (source, namespace)
        self.sources = list(sources.values())
        self.bound: Dict[Tuple[Any, ...], Expression] = {}

    def conjunct(self, model: type, viewer: Any, qualify: bool) -> Expression:
        key = self._key(viewer, qualify)
        conjunct = self.bound.get(key) if key is not None else None
        if conjunct is None:
            conjunct = _bind_conjunct(model, self.profile, viewer, qualify)
            if key is not None:
                if len(self.bound) >= BINDINGS_PER_MODEL:
                    self.bound.clear()
                self.bound[key] = conjunct
        return conjunct

    def _key(self, viewer: Any, qualify: bool) -> Optional[Tuple[Any, ...]]:
        from repro.form.model import JModel

        key: List[Any] = [qualify]
        for source, namespace in self.sources:
            kind = type(source)
            if kind is sym.ViewerSelf:
                if viewer is None:
                    key.append(None)
                elif isinstance(viewer, JModel) and viewer.jid is not None:
                    key.append((type(viewer), viewer.jid))
                else:
                    return None
                continue
            try:
                if kind is sym.ViewerAttr:
                    value = _viewer_value(source, viewer)
                else:
                    value = _global_value(source, namespace)
                hash(value)
            except (_Demote, TypeError):
                return None
            key.append((type(value), value))
        return tuple(key)


def _bind_conjunct(
    model: type, profile: PolicyTier, viewer: Any, qualify: bool
) -> Expression:
    conjunct: Expression = eq(_unguarded_column(model, qualify), "")
    for group, predicate in zip(model._meta.policy_groups, profile.predicates):
        conjunct = OrExpr(conjunct, _group_pair(model, group, predicate, viewer, qualify))
    return conjunct


def _unguarded_column(model: type, qualify: bool) -> str:
    return f"{model._meta.table_name}.jvars" if qualify else "jvars"


def _inline_conjunct(model: type, viewer: Any, qualify: bool) -> Expression:
    """The pruning conjunct of one table: ``jvars = ''`` for an unpolicied
    model; for an ``"inline"`` one, also one branch pair per policy group
    (:func:`_group_pair`), bound through the model's :class:`_Inline`.

    Raises :class:`_Demote` when a predicate does not bind against this
    viewer: an attribute chain or global fails, a value does not match its
    column's kind, a lookup operand is neither a record nor ``None``, or a
    viewer-only atom raises.

    Sound while every facet row of the table is a canonical single-group
    branch (:func:`_canonical_facet_rows`): a record's rows then split on
    at most one group, whose pair selects one of them, and a column
    another group guards holds the same value in both.
    """
    profile = profile_for(model)
    if profile.tier == "none":
        return eq(_unguarded_column(model, qualify), "")
    meta = model._meta
    inline = getattr(meta, "_pushdown_inline", None)
    if inline is None or inline.profile is not profile:
        inline = _Inline(model, profile)
        meta._pushdown_inline = inline
    return inline.conjunct(model, viewer, qualify)


def _canonical_facet_rows(form: Any, model: type) -> bool:
    """Whether one :class:`~repro.db.expr.FacetBranch` match selects each
    record's branch in the model's table.

    Holds when every facet row is a canonical single-group branch of one
    of the model's policy groups (``Database.facet_branch_keys``, known
    from the table's creation), so an unpolicied table must hold no facet
    rows at all.
    """
    meta = model._meta
    branch_keys = form.database.facet_branch_keys(meta.table_name)
    return branch_keys is not None and branch_keys <= {
        group.key for group in meta.policy_groups
    }


def _facet_free(form: Any, table: str) -> bool:
    """Whether a lookup's table is registered and holds no facet rows: its
    rows are then exactly what the Python path's ``get()`` sees, which
    would otherwise resolve the rows' labels.  An unregistered table
    demotes the read (``fallback.facet_rows``), whose ``get()`` the FORM
    then refuses on the Python path as well."""
    try:
        form.model_for(table)
    except LookupError:
        return False
    return form.database.facet_branch_keys(table) == frozenset()


# -- the planning entry point ----------------------------------------------------


def pruning_conjuncts(
    form: Any, models: List[type], viewer: Any
) -> Tuple[Optional[List[Expression]], Optional[str]]:
    """``(conjuncts, fallback)`` for a viewer-context query.

    ``models`` are the models ``form`` registered for the query's tables,
    the base table first, then each join: the same models whose policies
    resolve the tables' labels on the Python path and at concretisation.
    ``conjuncts`` are the per-table pruning predicates, one per model,
    each from :func:`_inline_conjunct`; ``None`` when the Python path must
    prune.  ``fallback`` then names the counter a policied read that falls
    back bumps when it runs (``None`` when nothing in the query is
    policied).  Runs no statement and counts nothing, so
    ``QuerySet.explain()`` makes the same decision as the read it reports.
    """
    if not getattr(form, "policy_pushdown_enabled", True):
        return None, None
    if not any(m._meta.policy_groups for m in models):
        # Nothing policied anywhere in the query: the existing paths are
        # already optimal (and unpolicied pc-label rows stay on the
        # resolver path, whose semantics they were written against).
        return None, None
    if any(profile_for(m).tier == "opaque" for m in models):
        return None, "plan.policy_pushdown.opaque_fallback"
    if not all(
        _canonical_facet_rows(form, m)
        and all(_facet_free(form, table) for table in profile_for(m).lookups)
        for m in models
    ):
        return None, "plan.policy_pushdown.fallback.facet_rows"
    qualify = len(models) > 1
    try:
        return [_inline_conjunct(m, viewer, qualify) for m in models], None
    except _Demote:
        return None, "plan.policy_pushdown.fallback.bind"
