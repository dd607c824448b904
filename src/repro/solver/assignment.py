"""Label assignment: the bridge between policies and the SAT solver.

At a computation sink the Jeeves runtime has, for every label ``k`` reachable
from the output value (the ``closeK`` closure), a boolean formula
``policy_k`` describing whether the viewer may see data guarded by ``k``.
Policies may themselves mention labels (mutual dependencies), so the
constraint system is

    for every label k:   k  =>  policy_k

The all-``False`` assignment is always a model; the runtime wants the model
that shows as much as possible, which the preference-guided DPLL search
provides by trying ``True`` first for every label, greedily in a fixed order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.solver.cnf import CNF, to_cnf
from repro.solver.dpll import DPLLSolver
from repro.solver.formula import FALSE, TRUE, Const, Formula, Implies, Var, conj


class UnsatisfiableError(Exception):
    """Raised when a constraint system has no satisfying assignment.

    With well-formed policy constraints this cannot happen (all-False is a
    model); it can only arise from extra user-supplied hard constraints.
    """


class LabelAssigner:
    """Finds show-maximising assignments for label constraint systems."""

    def __init__(self) -> None:
        self._extra: List[Formula] = []

    def add_constraint(self, formula: Formula) -> None:
        """Add an extra hard constraint (used by tests and extensions)."""
        self._extra.append(formula)

    def assign(
        self,
        policies: Mapping[str, Formula],
        prefer: Optional[Mapping[str, bool]] = None,
        order: Optional[Iterable[str]] = None,
    ) -> Dict[str, bool]:
        """Solve ``{k => policies[k]}`` plus any extra constraints.

        ``policies`` maps label names to fully evaluated policy formulas whose
        only free variables are label names.  Returns a total assignment over
        every mentioned label.
        """
        label_names = list(policies.keys())
        constraints: List[Formula] = []
        for name, policy in policies.items():
            constraints.append(Implies(Var(name), policy).simplify())
        constraints.extend(self._extra)
        system = conj(constraints)

        if isinstance(system, Const):
            if not system.value:
                raise UnsatisfiableError("constraint system is unsatisfiable")
            assignment = {}
        else:
            cnf = to_cnf(system)
            preferences = {name: True for name in label_names}
            if prefer:
                preferences.update(prefer)
            solver = DPLLSolver(cnf, prefer=preferences, decision_order=order or label_names)
            model = solver.solve()
            if model is None:
                raise UnsatisfiableError("constraint system is unsatisfiable")
            assignment = model

        result: Dict[str, bool] = {}
        for name in label_names:
            if name in assignment:
                result[name] = assignment[name]
            else:
                result[name] = (prefer or {}).get(name, True)
        # Variables mentioned by policies but not themselves policy labels
        # (free auxiliary variables) are also reported.
        for name, policy in policies.items():
            for free in policy.free_vars():
                if free not in result:
                    result[free] = assignment.get(free, True)
        return result
