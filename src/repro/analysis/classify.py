"""Policy tiers: how a model's viewer-context reads prune, decided once.

Every model gets one tier, decided from its compiled policy predicates
(:mod:`repro.analysis.symbolic`) alone.  The pushdown planner caches the
decision per model class (``repro.form.pushdown.profile_for``) and the
analyzer CLI prints it in its ``policies`` report, so the two never
disagree:

* ``inline`` -- every policy group's predicate renders in the WHERE
  clause with two-valued SQL: one statement prunes, with one branch pair
  per group (a group reading a column it guards tests the record's
  secret row on the public one);
* ``opaque`` -- the Python Early Pruning path prunes.  ``reason`` names
  the first check the model fails, group by group: a ``Top`` in the
  predicate (its own reason), or an atom with no two-valued rendering;
* ``none`` -- the model has no policy groups.

>>> from repro.analysis.facts import facts_for_source
>>> mod = facts_for_source('''
... class Paper(JModel):
...     title = CharField()
...     author = ForeignKey("User")
...     @staticmethod
...     @label_for("title")
...     def restrict_title(paper, viewer):
...         return viewer is not None and viewer.jid == paper.author_id
... class Event(JModel):
...     name = CharField()
...     @staticmethod
...     @label_for("name")
...     def restrict_name(event, viewer):
...         if viewer is None:
...             return False
...         return Guest.objects.get(event=event, guest=viewer) is not None
... ''', "m.py")
>>> model_tier(mod.models[0]).tier
'inline'
>>> model_tier(mod.models[1])
PolicyTier(tier='opaque', predicates=None, reason="lookup on unknown model 'Guest'", lookups=frozenset())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis import symbolic as sym
from repro.analysis.facts import ModelFacts, ModuleFacts

# Called through this module's own name, which perfbench's traced runs
# time as the analysis.compile layer.
from repro.analysis.symbolic import compile_policy


@dataclass(frozen=True)
class PolicyTier:
    """The tier of one model.

    ``predicates`` are the compiled predicates of an ``inline`` model, one
    per policy group in declaration order, and ``reason`` the first failed
    check of an ``opaque`` one; both are ``None`` otherwise.  ``lookups``
    names the tables the predicates' membership atoms read.
    """

    tier: str
    predicates: Optional[Tuple[sym.Pred, ...]] = None
    reason: Optional[str] = None
    lookups: FrozenSet[str] = frozenset()


def _atom_renders(atom: sym.Atom) -> bool:
    """Whether an atom renders as two-valued SQL or folds at bind time.

    Atoms not reading an own-row column fold to booleans at bind time with
    Python semantics, so any op is fine.  Own-column atoms must render with
    *two-valued* SQL: equality-family ops use ``IS``-style comparisons;
    range and prefix ops are only exact on non-nullable columns (a NULL
    would be UNKNOWN in SQL where Python raises).
    """
    lhs, rhs = atom.lhs, atom.rhs
    lhs_own = isinstance(lhs, sym.OwnColumn)
    rhs_own = isinstance(rhs, sym.OwnColumn)
    if not lhs_own and not rhs_own:
        if {type(lhs), type(rhs)} == {sym.RowSelf, sym.ViewerSelf}:
            return atom.op in ("eq", "ne")
        # viewer/constant/global only: folds at bind time
        return not isinstance(lhs, sym.RowSelf) and not isinstance(rhs, sym.RowSelf)
    if not lhs_own:
        return False  # own column in a non-canonical position (e.g. prefix rhs)
    value_ok = isinstance(
        rhs, (sym.ConstVal, sym.ViewerAttr, sym.GlobalAttr, sym.OwnColumn)
    )
    if atom.op in ("eq", "ne"):
        return value_ok
    if atom.op in ("in", "not-in"):
        if isinstance(rhs, sym.Lookup):
            # ``column IN (SELECT ...)`` over non-NULL values: two-valued.
            return not lhs.nullable
        return isinstance(rhs, sym.ConstVal) and isinstance(rhs.value, tuple)
    if atom.op in ("is-null", "not-null"):
        return True
    if atom.op == "truthy":
        return lhs.kind == "bool"
    if atom.op in ("lt", "le", "gt", "ge"):
        return value_ok and not lhs.nullable and not (rhs_own and rhs.nullable)
    if atom.op == "prefix":
        return lhs.kind == "text" and not lhs.nullable and not rhs_own and value_ok
    return False


def model_tier(facts: ModelFacts) -> PolicyTier:
    """The tier of one model, with the first check an opaque model fails."""
    if not facts.groups:
        return PolicyTier("none")
    predicates = []
    for group in facts.groups:
        predicate = compile_policy(group, facts)
        top = sym.first_top(predicate)
        if top is not None:
            return PolicyTier("opaque", reason=top.reason or "TOP")
        for atom in sym.iter_atoms(predicate):
            if not _atom_renders(atom):
                reason = f"no two-valued rendering for {sym.atom_text(atom)}"
                return PolicyTier("opaque", reason=reason)
        predicates.append(predicate)
    lookups = frozenset().union(*map(sym.lookup_tables, predicates))
    return PolicyTier("inline", tuple(predicates), lookups=lookups)


def classify_module(module: ModuleFacts) -> List[Dict[str, Any]]:
    """One record per policy group declared in a module: the group, its
    model's tier and reason, and the group's compiled predicate."""
    records = []
    for model in module.models:
        decision = model_tier(model)
        for group in model.groups:
            records.append({
                "model": model.name,
                "group": group.key,
                "fields": list(group.fields),
                "policy": group.method_name,
                "tier": decision.tier,
                "reason": decision.reason,
                "predicate": sym.predicate_json(compile_policy(group, model)),
            })
    return records
