"""Tests for the label assignment front end (k => policy_k systems)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.assignment import LabelAssigner, UnsatisfiableError
from repro.solver.formula import FALSE, TRUE, And, Implies, Not, Or, Var


def test_independent_policies_resolve_directly():
    assigner = LabelAssigner()
    result = assigner.assign({"k1": TRUE, "k2": FALSE})
    assert result["k1"] is True
    assert result["k2"] is False


def test_show_maximising_preference():
    # k may be shown; the solver should prefer showing it.
    assigner = LabelAssigner()
    assert assigner.assign({"k": TRUE})["k"] is True


def test_mutually_dependent_policies():
    # Policy for k requires k itself (the guest-list-guards-itself example):
    # both all-False and all-True satisfy k => k; prefer True.
    assigner = LabelAssigner()
    result = assigner.assign({"k": Var("k")})
    assert result["k"] is True


def test_mutual_exclusion_between_labels():
    # k1 may be shown only if k2 is hidden and vice versa.
    assigner = LabelAssigner()
    result = assigner.assign({"k1": Not(Var("k2")), "k2": Not(Var("k1"))})
    assert result["k1"] != result["k2"] or (not result["k1"] and not result["k2"])
    # The constraint system must hold.
    assert (not result["k1"]) or (not result["k2"])


def test_chained_dependencies():
    assigner = LabelAssigner()
    result = assigner.assign({"k1": Var("k2"), "k2": Var("k3"), "k3": TRUE})
    assert result == {"k1": True, "k2": True, "k3": True}


def test_forced_hidden_propagates():
    assigner = LabelAssigner()
    result = assigner.assign({"k1": Var("k2"), "k2": FALSE})
    assert result["k2"] is False
    assert result["k1"] is False


def test_extra_constraints_can_make_unsat():
    assigner = LabelAssigner()
    assigner.add_constraint(Var("k"))
    assigner.add_constraint(Not(Var("k")))
    with pytest.raises(UnsatisfiableError):
        assigner.assign({"k": TRUE})


_label_names = ["k1", "k2", "k3"]


def _policy_formulas():
    atoms = st.one_of(
        st.just(TRUE),
        st.just(FALSE),
        st.sampled_from(_label_names).map(Var),
        st.sampled_from(_label_names).map(lambda name: Not(Var(name))),
    )
    return st.one_of(
        atoms,
        st.tuples(atoms, atoms).map(lambda pair: And(*pair)),
        st.tuples(atoms, atoms).map(lambda pair: Or(*pair)),
    )


@given(st.fixed_dictionaries({name: _policy_formulas() for name in _label_names}))
@settings(max_examples=80)
def test_assignment_always_satisfies_every_policy_constraint(policies):
    """For every label k, the produced assignment satisfies k => policy_k."""
    assigner = LabelAssigner()
    result = assigner.assign(policies)
    env = {name: result.get(name, False) for name in _label_names}
    for name, policy in policies.items():
        if env[name]:
            assert policy.evaluate(env), f"constraint violated for {name}"
