"""Policy declaration decorators.

``@label_for("field", ...)`` marks a (static) method on a model as the
information-flow policy guarding one or more fields.  A policy receives the
row object and the viewing context and returns a boolean (it may issue
further ORM queries; the FORM evaluates it at output time).

``@jacqueline`` is the marker the paper places on policy methods to indicate
they run under the Jeeves runtime.  In this reproduction it is a transparent
marker kept for source compatibility with the paper's listings.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

POLICY_ATTRIBUTE = "_jacqueline_label_for"
JACQUELINE_ATTRIBUTE = "_jacqueline_policy"

#: The naming convention used to find public-facet computations.
PUBLIC_METHOD_PREFIX = "jacqueline_get_public_"


def label_for(*field_names: str) -> Callable[[Callable], Callable]:
    """Mark a method as the policy for the given fields.

    Fields named in one ``label_for`` share a single label per record: they
    are revealed or hidden together, exactly as ``name`` and ``location``
    share a label in the paper's calendar example (Figure 2).
    """
    if not field_names:
        raise ValueError("label_for requires at least one field name")

    def decorate(fn: Callable) -> Callable:
        target = fn.__func__ if isinstance(fn, staticmethod) else fn
        setattr(target, POLICY_ATTRIBUTE, tuple(field_names))
        return fn

    return decorate


def jacqueline(fn: Callable) -> Callable:
    """Mark a policy method as running under the Jeeves runtime (a no-op marker)."""
    target = fn.__func__ if isinstance(fn, staticmethod) else fn
    setattr(target, JACQUELINE_ATTRIBUTE, True)
    return fn


def evaluate_policy(method: Callable, row: Any, viewer: Any) -> Any:
    """Invoke one policy method, counting it as a policy evaluation.

    The single choke point every FORM policy invocation goes through
    (Early Pruning hints, lazy policy closures, direct label resolution),
    so the ``policy.evaluations`` observability counter measures exactly
    the paper's per-record policy-check cost.
    """
    from repro import obs

    obs.add("policy.evaluations")
    return method(row, viewer)
