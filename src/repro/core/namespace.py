"""Faceted mutable state: cells and namespaces.

The original Jeeves embedding replaces a function's local scope with a
``Namespace`` object so that assignments inside faceted conditionals create
facets instead of overwriting (Section 5.1.1).  We expose the same mechanism
explicitly:

* :class:`Cell` -- a single mutable reference whose writes are guarded by
  the runtime's current path condition (rule F-ASSIGN);
* :class:`Namespace` -- an attribute bag backed by cells, convenient for
  porting imperative code.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, TYPE_CHECKING

from repro.core.facets import UNASSIGNED, mk_facet_branches

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.runtime import JeevesRuntime


class Cell:
    """A mutable reference with facet-aware writes.

    Reading returns the stored (possibly faceted) value.  Writing under a
    non-empty path condition stores ``⟨⟨pc ? new : old⟩⟩`` so that viewers on
    other paths keep observing the old value.
    """

    __slots__ = ("_runtime", "_value")

    def __init__(self, runtime: "JeevesRuntime", initial: Any = UNASSIGNED) -> None:
        self._runtime = runtime
        self._value = initial

    def get(self) -> Any:
        """The current (possibly faceted) contents."""
        return self._value

    def set(self, value: Any) -> None:
        """Store ``value``, guarded by the runtime's current path condition."""
        pc = self._runtime.current_pc()
        if pc:
            self._value = mk_facet_branches(pc.branches(), value, self._value)
        else:
            self._value = value

    def __repr__(self) -> str:
        return f"Cell({self._value!r})"


class Namespace:
    """An attribute namespace whose assignments respect path conditions.

    Example::

        ns = runtime.namespace(total=0)
        runtime.jif(secret_flag, lambda: setattr(ns, "total", ns.total + 1))
        # ns.total is now a faceted integer
    """

    def __init__(self, runtime: "JeevesRuntime", **initial: Any) -> None:
        object.__setattr__(self, "_runtime", runtime)
        object.__setattr__(self, "_cells", {})
        for name, value in initial.items():
            self._cells[name] = Cell(runtime, value)

    def __getattr__(self, name: str) -> Any:
        cells: Dict[str, Cell] = object.__getattribute__(self, "_cells")
        if name in cells:
            return cells[name].get()
        raise AttributeError(f"namespace has no attribute {name!r}")

    def __setattr__(self, name: str, value: Any) -> None:
        cells: Dict[str, Cell] = object.__getattribute__(self, "_cells")
        runtime: "JeevesRuntime" = object.__getattribute__(self, "_runtime")
        if name not in cells:
            cells[name] = Cell(runtime, UNASSIGNED)
        cells[name].set(value)

    def __contains__(self, name: str) -> bool:
        return name in object.__getattribute__(self, "_cells")

    def __iter__(self) -> Iterator[str]:
        return iter(object.__getattribute__(self, "_cells"))

    def cell(self, name: str) -> Cell:
        """The underlying cell for an attribute (creates it if missing)."""
        cells: Dict[str, Cell] = object.__getattribute__(self, "_cells")
        runtime: "JeevesRuntime" = object.__getattribute__(self, "_runtime")
        if name not in cells:
            cells[name] = Cell(runtime, UNASSIGNED)
        return cells[name]

    def snapshot(self) -> Dict[str, Any]:
        """A plain dict of the current (possibly faceted) attribute values."""
        cells: Dict[str, Cell] = object.__getattribute__(self, "_cells")
        return {name: cell.get() for name, cell in cells.items()}
