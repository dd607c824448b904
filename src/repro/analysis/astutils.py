"""Shared ``ast`` helpers for the static analyzer.

Stdlib-only: parsing, dotted-name resolution, parent links and source
recovery for live functions.  Everything downstream (facts extraction,
read-set inference, rules, the tier decision) builds on these few primitives.

>>> import ast
>>> node = ast.parse("Paper.objects.get(author=row)").body[0].value
>>> dotted_name(node.func)
'Paper.objects.get'
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
import weakref
from typing import Iterator, Optional


def parse_source(source: str, filename: str = "<string>") -> ast.Module:
    """Parse source text into a module AST (syntax errors propagate)."""
    return ast.parse(source, filename=filename)


def dotted_name(node: ast.AST) -> Optional[str]:
    """The ``a.b.c`` spelling of a Name/Attribute chain, or ``None``.

    Chains interrupted by calls, subscripts or literals do not resolve --
    callers treat that as "not a simple reference".

    >>> import ast
    >>> dotted_name(ast.parse("a.b.c").body[0].value)
    'a.b.c'
    >>> dotted_name(ast.parse("f().b").body[0].value) is None
    True
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def const_str(node: ast.AST) -> Optional[str]:
    """The value of a string constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with a ``_parent`` link (in place)."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._parent = parent  # type: ignore[attr-defined]


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``_parent`` links outward (requires :func:`attach_parents`)."""
    current = getattr(node, "_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_parent", None)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    """The nearest enclosing function definition, via parent links."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def positional_params(func: ast.AST) -> list:
    """The positional parameter names of a function definition node."""
    args = func.args
    return [a.arg for a in list(args.posonlyargs) + list(args.args)]


def decorator_names(func: ast.AST) -> list:
    """Dotted names of a function's decorators (call decorators by callee).

    >>> import ast
    >>> fn = ast.parse("@staticmethod\\n@label_for('x')\\ndef p(r, v): pass").body[0]
    >>> decorator_names(fn)
    ['staticmethod', 'label_for']
    """
    names = []
    for deco in func.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name is not None:
            names.append(name)
    return names


#: Parsed definitions by function object.  A function's source does not
#: change while it lives, and recovering it costs a tokenize and a parse.
_FUNCTION_ASTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def function_ast(func) -> Optional[ast.FunctionDef]:
    """The definition AST of a live function, or ``None`` when unavailable.

    ``None`` (source lost: doctest/exec-defined functions, builtins) is the
    conservative answer -- read-set inference maps it to TOP.  Each
    function is parsed once.
    """
    target = getattr(func, "__func__", func)
    if not isinstance(target, types.FunctionType):
        return None
    if target not in _FUNCTION_ASTS:
        _FUNCTION_ASTS[target] = _parse_function(target)
    return _FUNCTION_ASTS[target]


def _parse_function(target: types.FunctionType) -> Optional[ast.FunctionDef]:
    try:
        source = textwrap.dedent(inspect.getsource(target))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    return None
