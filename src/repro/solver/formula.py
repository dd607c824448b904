"""Boolean formula AST.

Formulas are immutable trees built from variables, constants and the usual
connectives.  They support structural equality, hashing, evaluation under a
(partial) assignment, substitution, and lightweight simplification.  The
Jeeves runtime builds formulas of the shape ``k => policy_k(viewer)`` where
the policy result may itself mention other labels (mutual dependencies,
Section 2.3 of the paper).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional


class Formula:
    """Base class for boolean formulas.

    Subclasses are immutable; all connectives are exposed both as classes
    (:class:`And`, :class:`Or`, ...) and as operators (``&``, ``|``, ``~``,
    ``>>`` for implication).
    """

    __slots__ = ()

    # -- construction helpers -------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, _coerce(other))

    def __rand__(self, other: object) -> "Formula":
        return And(_coerce(other), self)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, _coerce(other))

    def __ror__(self, other: object) -> "Formula":
        return Or(_coerce(other), self)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, _coerce(other))

    # -- queries ---------------------------------------------------------------

    def free_vars(self) -> FrozenSet[str]:
        """Return the names of all variables occurring in the formula."""
        raise NotImplementedError

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate under a *total* assignment; raises ``KeyError`` if a
        variable is missing."""
        raise NotImplementedError

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> "Formula":
        """Substitute known variables and simplify; unknown variables remain."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Formula"]) -> "Formula":
        """Replace variables by formulas."""
        raise NotImplementedError

    def simplify(self) -> "Formula":
        """Apply constant folding and shallow boolean identities."""
        return self


def _coerce(value: object) -> Formula:
    """Coerce Python booleans into formula constants."""
    if isinstance(value, Formula):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    raise TypeError(f"cannot use {value!r} as a boolean formula")


class Const(Formula):
    """A boolean constant (use the module-level ``TRUE`` / ``FALSE``)."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Const is immutable")

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))

    def free_vars(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.value

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> Formula:
        return self

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return self


TRUE = Const(True)
FALSE = Const(False)


class Var(Formula):
    """A named boolean variable (one per information-flow label)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Var is immutable")

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))

    def free_vars(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return bool(assignment[self.name])

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> Formula:
        if self.name in assignment:
            return TRUE if assignment[self.name] else FALSE
        return self

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return mapping.get(self.name, self)


class Not(Formula):
    """Logical negation."""

    __slots__ = ("operand",)

    def __init__(self, operand: Formula) -> None:
        object.__setattr__(self, "operand", _coerce(operand))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Not is immutable")

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("Not", self.operand))

    def free_vars(self) -> FrozenSet[str]:
        return self.operand.free_vars()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> Formula:
        inner = self.operand.partial_evaluate(assignment)
        return Not(inner).simplify()

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return Not(self.operand.substitute(mapping)).simplify()

    def simplify(self) -> Formula:
        inner = self.operand.simplify()
        if isinstance(inner, Const):
            return FALSE if inner.value else TRUE
        if isinstance(inner, Not):
            return inner.operand
        return Not(inner)


class _Binary(Formula):
    """Shared implementation for binary connectives."""

    __slots__ = ("left", "right")
    _name = "?"

    def __init__(self, left: Formula, right: Formula) -> None:
        object.__setattr__(self, "left", _coerce(left))
        object.__setattr__(self, "right", _coerce(right))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right))

    def free_vars(self) -> FrozenSet[str]:
        return self.left.free_vars() | self.right.free_vars()


class And(_Binary):
    """Logical conjunction."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.left.evaluate(assignment) and self.right.evaluate(assignment)

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> Formula:
        return And(
            self.left.partial_evaluate(assignment),
            self.right.partial_evaluate(assignment),
        ).simplify()

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return And(
            self.left.substitute(mapping), self.right.substitute(mapping)
        ).simplify()

    def simplify(self) -> Formula:
        left = self.left.simplify()
        right = self.right.simplify()
        if left == FALSE or right == FALSE:
            return FALSE
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        if left == right:
            return left
        return And(left, right)


class Or(_Binary):
    """Logical disjunction."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.left.evaluate(assignment) or self.right.evaluate(assignment)

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> Formula:
        return Or(
            self.left.partial_evaluate(assignment),
            self.right.partial_evaluate(assignment),
        ).simplify()

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return Or(
            self.left.substitute(mapping), self.right.substitute(mapping)
        ).simplify()

    def simplify(self) -> Formula:
        left = self.left.simplify()
        right = self.right.simplify()
        if left == TRUE or right == TRUE:
            return TRUE
        if left == FALSE:
            return right
        if right == FALSE:
            return left
        if left == right:
            return left
        return Or(left, right)


class Implies(_Binary):
    """Logical implication ``left => right``."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return (not self.left.evaluate(assignment)) or self.right.evaluate(assignment)

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> Formula:
        return Implies(
            self.left.partial_evaluate(assignment),
            self.right.partial_evaluate(assignment),
        ).simplify()

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return Implies(
            self.left.substitute(mapping), self.right.substitute(mapping)
        ).simplify()

    def simplify(self) -> Formula:
        left = self.left.simplify()
        right = self.right.simplify()
        if left == FALSE or right == TRUE:
            return TRUE
        if left == TRUE:
            return right
        if right == FALSE:
            return Not(left).simplify()
        return Implies(left, right)


class Iff(_Binary):
    """Logical equivalence ``left <=> right``."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.left.evaluate(assignment) == self.right.evaluate(assignment)

    def partial_evaluate(self, assignment: Mapping[str, bool]) -> Formula:
        return Iff(
            self.left.partial_evaluate(assignment),
            self.right.partial_evaluate(assignment),
        ).simplify()

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return Iff(
            self.left.substitute(mapping), self.right.substitute(mapping)
        ).simplify()

    def simplify(self) -> Formula:
        left = self.left.simplify()
        right = self.right.simplify()
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        if left == FALSE:
            return Not(right).simplify()
        if right == FALSE:
            return Not(left).simplify()
        if left == right:
            return TRUE
        return Iff(left, right)


def conj(formulas: Iterable[object]) -> Formula:
    """Conjunction of an iterable of formulas (``TRUE`` for empty input)."""
    result: Formula = TRUE
    for item in formulas:
        result = And(result, _coerce(item)).simplify()
    return result


def disj(formulas: Iterable[object]) -> Formula:
    """Disjunction of an iterable of formulas (``FALSE`` for empty input)."""
    result: Formula = FALSE
    for item in formulas:
        result = Or(result, _coerce(item)).simplify()
    return result


def from_bool(value: object) -> Formula:
    """Convert a Python bool (or formula) into a :class:`Formula`."""
    return _coerce(value)


def nnf(formula: Formula) -> Formula:
    """Convert to negation normal form (negations only on variables)."""
    formula = formula.simplify()
    if isinstance(formula, (Const, Var)):
        return formula
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, (Const, Var)):
            return formula.simplify()
        if isinstance(inner, Not):
            return nnf(inner.operand)
        if isinstance(inner, And):
            return Or(nnf(Not(inner.left)), nnf(Not(inner.right))).simplify()
        if isinstance(inner, Or):
            return And(nnf(Not(inner.left)), nnf(Not(inner.right))).simplify()
        if isinstance(inner, Implies):
            return And(nnf(inner.left), nnf(Not(inner.right))).simplify()
        if isinstance(inner, Iff):
            return nnf(
                Or(
                    And(inner.left, Not(inner.right)),
                    And(Not(inner.left), inner.right),
                )
            )
        raise TypeError(f"unknown formula node {inner!r}")
    if isinstance(formula, And):
        return And(nnf(formula.left), nnf(formula.right)).simplify()
    if isinstance(formula, Or):
        return Or(nnf(formula.left), nnf(formula.right)).simplify()
    if isinstance(formula, Implies):
        return Or(nnf(Not(formula.left)), nnf(formula.right)).simplify()
    if isinstance(formula, Iff):
        return nnf(
            And(Implies(formula.left, formula.right), Implies(formula.right, formula.left))
        )
    raise TypeError(f"unknown formula node {formula!r}")
