"""Policies and the policy environment.

A policy is a predicate over the viewing context: ``policy(viewer)`` returns
a boolean (possibly faceted, when the policy itself reads sensitive data).
The policy environment maps labels to policies; ``restrict`` conjoins a new
policy onto a label's existing one so policies only become more restrictive
(rule F-RESTRICT).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

from repro.core.errors import PolicyError
from repro.core.facets import facet_apply, mk_facet_branches
from repro.core.labels import Label
from repro.core.pathcondition import EMPTY_PC, PathCondition

#: A policy takes the viewing context and returns a (possibly faceted) boolean.
PolicyFn = Callable[[Any], Any]


def always_allow(viewer: Any) -> bool:
    """The default policy attached to freshly allocated labels."""
    return True


def never_allow(viewer: Any) -> bool:
    """A policy that always hides the guarded data."""
    return False


class Policy:
    """A conjunctive stack of policy predicates attached to one label."""

    __slots__ = ("_checks",)

    def __init__(self, checks: Optional[Iterable[PolicyFn]] = None) -> None:
        self._checks = list(checks) if checks is not None else []

    def __repr__(self) -> str:
        return f"Policy(checks={len(self._checks)})"

    def conjoin(self, check: PolicyFn) -> "Policy":
        """Return a new policy requiring this policy *and* ``check``."""
        if not callable(check):
            raise PolicyError(f"policy must be callable, got {check!r}")
        return Policy(self._checks + [check])

    def checks(self) -> Iterable[PolicyFn]:
        return tuple(self._checks)

    def evaluate(self, viewer: Any) -> Any:
        """Evaluate all checks for ``viewer``; result may be faceted.

        The conjunction is computed with faceted AND so that policies reading
        sensitive values yield faceted booleans rather than leaking.
        """
        result: Any = True
        for check in self._checks:
            try:
                outcome = check(viewer)
            except Exception as exc:  # a failing policy must fail closed
                raise PolicyError(f"policy {check!r} raised {exc!r}") from exc
            result = facet_apply(lambda a, b: bool(a) and bool(b), result, outcome)
        return result


class PolicyEnv:
    """Maps labels to their policies (the label portion of the store Σ).

    ``label_policy`` maps a label to the one policy it has (``None``: the
    label takes its policy from ``declare``/``restrict``).  A FORM installs
    its label lookup here, so a ``Table.jid.group`` label finds its
    record's policy without being declared.  That policy is the label's
    whole policy: Early Pruning and policy pushdown apply the model's
    policy alone, so ``restrict`` refuses such a label rather than let
    concretisation conjoin a check the other paths never see.  The hook is
    consulted whenever a policy is looked up, so it reflects the models the
    FORM has registered by then.
    """

    def __init__(
        self, label_policy: Optional[Callable[[Label], Optional[PolicyFn]]] = None
    ) -> None:
        self._policies: Dict[Label, Policy] = {}
        self.label_policy = label_policy

    def __contains__(self, label: Label) -> bool:
        return label in self._policies

    def __len__(self) -> int:
        return len(self._policies)

    def declare(self, label: Label) -> None:
        """Register a fresh label with the default always-allow policy
        (rule F-LABEL)."""
        if label not in self._policies:
            self._policies[label] = Policy([always_allow])

    def restrict(self, label: Label, check: PolicyFn, pc: PathCondition = EMPTY_PC) -> None:
        """Attach an additional policy check to ``label`` (rule F-RESTRICT).

        The check is guarded by the current path condition so that attaching
        a policy inside a sensitive branch cannot itself leak: for viewers
        outside the branch the added check behaves as always-allow.  A label
        that ``label_policy`` answers is refused with :class:`PolicyError`.
        """
        if self.label_policy is not None and self.label_policy(label) is not None:
            raise PolicyError(
                f"label {label.name!r} takes its policy from its model; it cannot be restricted"
            )
        self.declare(label)
        if pc:
            guarded_branches = tuple(pc.branches())

            def guarded(viewer: Any, _check: PolicyFn = check) -> Any:
                return mk_facet_branches(guarded_branches, _check(viewer), True)

            effective: PolicyFn = guarded
        else:
            effective = check
        self._policies[label] = self._policies[label].conjoin(effective)

    def policy_for(self, label: Label) -> Policy:
        """``label``'s ``label_policy`` when the hook answers one, else the
        policy attached to it (default allow)."""
        check = self.label_policy(label) if self.label_policy is not None else None
        if check is not None:
            return Policy([check])
        return self._policies.get(label, Policy([always_allow]))

    def labels(self) -> Iterable[Label]:
        return tuple(self._policies.keys())

    def evaluate(self, label: Label, viewer: Any) -> Any:
        """Evaluate ``label``'s policy for ``viewer``."""
        return self.policy_for(label).evaluate(viewer)

    def copy(self) -> "PolicyEnv":
        clone = PolicyEnv(self.label_policy)
        clone._policies = {
            label: Policy(policy.checks()) for label, policy in self._policies.items()
        }
        return clone
