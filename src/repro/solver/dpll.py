"""A DPLL SAT solver with unit propagation and pure-literal elimination.

The solver accepts a *preference* mapping that biases the branching order:
when a variable must be decided, the preferred polarity is tried first.  The
Jeeves runtime uses ``prefer=True`` for every label so that, among all
satisfying assignments, the solver finds one that shows as much data as
possible ("Jacqueline always attempts to show values unless policies require
otherwise", Section 2.3).  Assigning every label ``False`` is always a model
of the constraint system ``k => policy_k``, so the instances handed to the
solver are never unsatisfiable; the solver nevertheless reports
unsatisfiability correctly for general inputs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.solver.cnf import CNF, Clause, Literal


class DPLLSolver:
    """Davis-Putnam-Logemann-Loveland search over a CNF instance."""

    def __init__(
        self,
        cnf: CNF,
        prefer: Optional[Mapping[str, bool]] = None,
        decision_order: Optional[Iterable[str]] = None,
    ) -> None:
        self.cnf = cnf
        self.prefer = dict(prefer or {})
        self._order = list(decision_order or [])
        self.statistics = {"decisions": 0, "propagations": 0, "conflicts": 0}

    # -- public API ------------------------------------------------------------

    def solve(self) -> Optional[Dict[str, bool]]:
        """Return a satisfying assignment over all variables, or ``None``.

        Variables that remain unconstrained after the search are filled with
        their preferred polarity (default ``True``).
        """
        clauses = [set(clause) for clause in self.cnf.clauses]
        assignment: Dict[str, bool] = {}
        result = self._search(clauses, assignment)
        if result is None:
            return None
        for name in self.cnf.variables():
            if name not in result:
                result[name] = self.prefer.get(name, True)
        return result

    # -- search ----------------------------------------------------------------

    def _search(
        self, clauses: List[Set[Literal]], assignment: Dict[str, bool]
    ) -> Optional[Dict[str, bool]]:
        clauses, assignment, conflict = self._propagate(clauses, assignment)
        if conflict:
            self.statistics["conflicts"] += 1
            return None
        clauses, assignment = self._pure_literals(clauses, assignment)
        if not clauses:
            return assignment
        variable = self._pick_variable(clauses)
        self.statistics["decisions"] += 1
        first = self.prefer.get(variable, True)
        for value in (first, not first):
            trial_clauses = [set(clause) for clause in clauses]
            trial_assignment = dict(assignment)
            trial_assignment[variable] = value
            reduced = self._assign(trial_clauses, variable, value)
            if reduced is None:
                continue
            result = self._search(reduced, trial_assignment)
            if result is not None:
                return result
        return None

    def _propagate(
        self, clauses: List[Set[Literal]], assignment: Dict[str, bool]
    ) -> Tuple[List[Set[Literal]], Dict[str, bool], bool]:
        """Repeatedly assign variables forced by unit clauses."""
        clauses = [set(clause) for clause in clauses]
        assignment = dict(assignment)
        while True:
            unit: Optional[Literal] = None
            for clause in clauses:
                if len(clause) == 0:
                    return clauses, assignment, True
                if len(clause) == 1:
                    unit = next(iter(clause))
                    break
            if unit is None:
                return clauses, assignment, False
            name, polarity = unit
            assignment[name] = polarity
            self.statistics["propagations"] += 1
            reduced = self._assign(clauses, name, polarity)
            if reduced is None:
                return clauses, assignment, True
            clauses = reduced

    def _pure_literals(
        self, clauses: List[Set[Literal]], assignment: Dict[str, bool]
    ) -> Tuple[List[Set[Literal]], Dict[str, bool]]:
        """Assign variables that appear with a single polarity.

        A pure literal is only eliminated when its polarity agrees with the
        caller's preference for that variable: assigning against the
        preference would be sound for satisfiability but could needlessly
        hide data (the solver must find the show-maximising model).
        """
        polarities: Dict[str, Set[bool]] = {}
        for clause in clauses:
            for name, polarity in clause:
                polarities.setdefault(name, set()).add(polarity)
        assignment = dict(assignment)
        pure = {
            name: next(iter(values))
            for name, values in polarities.items()
            if len(values) == 1 and next(iter(values)) == self.prefer.get(name, next(iter(values)))
        }
        if not pure:
            return clauses, assignment
        for name, polarity in pure.items():
            assignment[name] = polarity
        remaining = [
            clause
            for clause in clauses
            if not any(
                name in pure and pure[name] == polarity for name, polarity in clause
            )
        ]
        return remaining, assignment

    def _assign(
        self, clauses: List[Set[Literal]], name: str, value: bool
    ) -> Optional[List[Set[Literal]]]:
        """Apply an assignment to the clause set.

        Returns ``None`` on an immediate conflict (an emptied clause).
        """
        result: List[Set[Literal]] = []
        for clause in clauses:
            if (name, value) in clause:
                continue
            if (name, not value) in clause:
                reduced = set(clause)
                reduced.discard((name, not value))
                if not reduced:
                    return None
                result.append(reduced)
            else:
                result.append(set(clause))
        return result

    def _pick_variable(self, clauses: List[Set[Literal]]) -> str:
        """Pick the next decision variable.

        Caller-supplied decision order wins; otherwise pick the variable with
        the highest occurrence count (a cheap activity heuristic).
        """
        present: Set[str] = set()
        counts: Dict[str, int] = {}
        for clause in clauses:
            for name, _ in clause:
                present.add(name)
                counts[name] = counts.get(name, 0) + 1
        for name in self._order:
            if name in present:
                return name
        return max(counts, key=lambda name: (counts[name], name))


def solve(
    cnf: CNF,
    prefer: Optional[Mapping[str, bool]] = None,
    decision_order: Optional[Iterable[str]] = None,
) -> Optional[Dict[str, bool]]:
    """Convenience wrapper: solve a CNF instance and return a model or ``None``."""
    return DPLLSolver(cnf, prefer=prefer, decision_order=decision_order).solve()
