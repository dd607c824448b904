"""The Jeeves runtime: faceted execution for Python code.

The runtime owns the label/policy environment and the current path
condition.  Policy-agnostic application code uses it to:

* allocate labels and attach policies (``label`` / ``restrict``);
* build sensitive values (``mk_sensitive``);
* branch and loop on sensitive data without leaking (``jif`` / ``jfor``);
* perform guarded mutation (``cell`` / ``namespace``);
* resolve outputs for a concrete viewer (``concretize`` / ``jprint``).

The original implementation rewrites Python source with MacroPy so plain
``if``/``for`` statements become faceted; this reproduction exposes the same
semantics through explicit combinators (see DESIGN.md, substitution 1).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.core.concretize import concretize as _concretize
from repro.core.concretize import resolve_labels as _resolve_labels
from repro.core.errors import PathConditionError
from repro.core.facets import (
    UNASSIGNED,
    Facet,
    Unassigned,
    facet_apply,
    facet_cond,
    mk_facet,
    mk_facet_branches,
    prune,
)
from repro.core.labels import Branch, Label, View
from repro.core.namespace import Cell, Namespace
from repro.core.pathcondition import EMPTY_PC, PathCondition
from repro.core.policy import PolicyEnv, PolicyFn


class JeevesRuntime:
    """Coordinates labels, policies and path conditions for one application."""

    def __init__(self) -> None:
        self.policy_env = PolicyEnv()
        # The path condition is control-flow state, so it is per-thread: two
        # request workers sharing one runtime each get their own stack and
        # cannot observe (or corrupt) each other's speculative branches.
        self._pc_state = threading.local()

    # -- labels and policies -----------------------------------------------------

    def label(self, hint: str = "k") -> Label:
        """Allocate a fresh label with the default allow-all policy."""
        label = Label(hint=hint)
        self.policy_env.declare(label)
        return label

    def restrict(self, label: Label, policy: PolicyFn) -> None:
        """Attach a policy to ``label`` (guarded by the current pc)."""
        self.policy_env.restrict(label, policy, self.current_pc())

    def mk_sensitive(self, label: Label, high: Any, low: Any) -> Any:
        """Create the sensitive value ``<label ? high : low>``."""
        return mk_facet(label, high, low)

    def mk_labeled(self, high: Any, low: Any, policy: PolicyFn, hint: str = "k") -> Any:
        """Allocate a label, attach ``policy`` and build the sensitive value."""
        label = self.label(hint)
        self.restrict(label, policy)
        return self.mk_sensitive(label, high, low)

    # -- path condition management ------------------------------------------------

    def _pc_stack(self) -> List[PathCondition]:
        stack = getattr(self._pc_state, "stack", None)
        if stack is None:
            stack = [EMPTY_PC]
            self._pc_state.stack = stack
        return stack

    def current_pc(self) -> PathCondition:
        return self._pc_stack()[-1]

    @contextlib.contextmanager
    def under_pc(self, pc: PathCondition):
        """Run a block with an explicit path condition (used by the FORM)."""
        stack = self._pc_stack()
        stack.append(pc)
        try:
            yield pc
        finally:
            stack.pop()

    @contextlib.contextmanager
    def under_branch(self, label: Label, positive: bool):
        """Run a block with the current pc extended by one branch."""
        new_pc = self.current_pc().extend_label(label, positive)
        stack = self._pc_stack()
        stack.append(new_pc)
        try:
            yield new_pc
        finally:
            stack.pop()

    # -- faceted control flow -------------------------------------------------------

    def jif(
        self,
        condition: Any,
        then_fn: Callable[[], Any],
        else_fn: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Faceted conditional.

        ``condition`` may be faceted.  Both branches are executed under the
        appropriate extended path conditions (rule F-SPLIT); their side
        effects on :class:`Cell`/:class:`Namespace` state are guarded
        automatically.  The return value is the faceted merge of the branch
        results.
        """
        if isinstance(condition, Facet):
            label = condition.label
            pc = self.current_pc()
            polarity = pc.polarity_of(label)
            if polarity is True:
                return self.jif(condition.high, then_fn, else_fn)
            if polarity is False:
                return self.jif(condition.low, then_fn, else_fn)
            with self.under_branch(label, True):
                high = self.jif(condition.high, then_fn, else_fn)
            with self.under_branch(label, False):
                low = self.jif(condition.low, then_fn, else_fn)
            return mk_facet(label, high, low)
        if isinstance(condition, Unassigned):
            return UNASSIGNED
        if condition:
            return then_fn()
        if else_fn is not None:
            return else_fn()
        return None

    def jfor(self, iterable: Any, body: Callable[[Any], Any]) -> List[Any]:
        """Faceted iteration.

        ``iterable`` may be a faceted list (e.g. the result of a faceted
        query).  The body runs once per element, under the path condition
        that makes the element visible; results are collected in order.
        """
        results: List[Any] = []

        def run_over(collection: Any) -> None:
            if isinstance(collection, Facet):
                label = collection.label
                pc = self.current_pc()
                polarity = pc.polarity_of(label)
                if polarity is True:
                    run_over(collection.high)
                    return
                if polarity is False:
                    run_over(collection.low)
                    return
                with self.under_branch(label, True):
                    run_over(collection.high)
                with self.under_branch(label, False):
                    run_over(collection.low)
                return
            if isinstance(collection, Unassigned):
                return
            for item in collection:
                results.append(body(item))

        run_over(iterable)
        return results

    def jfun(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Apply a strict Python function to possibly-faceted arguments."""
        if kwargs:
            return facet_apply(lambda *a: fn(*a, **kwargs), *args, pc=self.current_pc())
        return facet_apply(fn, *args, pc=self.current_pc())

    def jcond(self, condition: Any, then_value: Any, else_value: Any) -> Any:
        """Pure faceted selection between two already-computed values."""
        return facet_cond(condition, then_value, else_value)

    # -- guarded state ---------------------------------------------------------------

    def cell(self, initial: Any = UNASSIGNED) -> Cell:
        """A mutable reference with pc-guarded writes."""
        return Cell(self, initial)

    def namespace(self, **initial: Any) -> Namespace:
        """An attribute namespace with pc-guarded assignment."""
        return Namespace(self, **initial)

    def guarded(self, new_value: Any, old_value: Any) -> Any:
        """``⟨⟨pc ? new : old⟩⟩`` under the current path condition."""
        pc = self.current_pc()
        if not pc:
            return new_value
        return mk_facet_branches(pc.branches(), new_value, old_value)

    # -- output ----------------------------------------------------------------------

    def concretize(self, value: Any, viewer: Any) -> Any:
        """Resolve all facets of ``value`` for ``viewer`` per the policies."""
        return _concretize(value, viewer, self.policy_env)

    def resolve_labels(self, value: Any, viewer: Any) -> Dict[Label, bool]:
        """The label assignment concretisation would use (for inspection)."""
        return _resolve_labels(value, self.policy_env, viewer)

    def view_for(self, value: Any, viewer: Any) -> View:
        """The concrete :class:`View` induced by the policies for ``viewer``."""
        assignment = self.resolve_labels(value, viewer)
        return View(label for label, visible in assignment.items() if visible)

    def jprint(self, value: Any, viewer: Any, sink: Callable[[str], None] = print) -> str:
        """The ``print {viewer} value`` computation sink.

        Returns the rendered string and also forwards it to ``sink``.
        """
        concrete = self.concretize(value, viewer)
        text = str(concrete)
        sink(text)
        return text

    # -- Early Pruning -----------------------------------------------------------------

    def prune_for_viewer(self, value: Any, viewer: Any) -> Any:
        """Early Pruning at the value level.

        Resolves the labels *currently* reachable from ``value`` for
        ``viewer`` and collapses the facets accordingly.  Sound when
        policy-relevant state will not change before output (Section 3.2).
        """
        assignment = self.resolve_labels(value, viewer)
        branches = [Branch(label, visible) for label, visible in assignment.items()]
        pc = PathCondition(branches)
        return prune(value, pc)

    # -- reset (used between test cases / benchmark iterations) -----------------------

    def reset(self) -> None:
        """Drop all policies and path conditions (fresh application state)."""
        self.policy_env = PolicyEnv()
        self._pc_state = threading.local()


_runtime_local = threading.local()


def get_runtime() -> JeevesRuntime:
    """The per-thread default runtime used by the FORM and the web framework."""
    runtime = getattr(_runtime_local, "runtime", None)
    if runtime is None:
        runtime = JeevesRuntime()
        _runtime_local.runtime = runtime
    return runtime


def set_runtime(runtime: JeevesRuntime) -> None:
    """Replace the per-thread default runtime (tests and benchmarks)."""
    _runtime_local.runtime = runtime


def reset_runtime() -> JeevesRuntime:
    """Install and return a fresh default runtime."""
    runtime = JeevesRuntime()
    _runtime_local.runtime = runtime
    return runtime
