"""A tiny template engine.

Supports the constructs the case-study pages need::

    {{ expression }}                      -- HTML-escaped interpolation
    {% for item in items %} ... {% endfor %}
    {% if condition %} ... {% else %} ... {% endif %}

A template source is parsed and compiled once, to the source of one Python
function that is ``exec``'d and kept with the parsed template (see
:func:`render_template`'s cache).  Rendering is one call of that function:
loop variables are its locals, and nothing is interpreted per row.

Expressions are dotted lookups (``paper.title``), written out as inline
code with these rules:

* the first name is the innermost enclosing loop variable of that name,
  else the context's value (``None`` when missing); it is never called;
* each later name is a dict's ``.get(name)``, else ``getattr(value, name,
  None)``.  A callable result that is not a class is then called with no
  arguments, and kept uncalled if the call raises :class:`TypeError`;
* a ``None`` stops the chain: the expression is ``None``.

``{% if %}`` tests the value's truth, and ``{% for %}`` over ``None``
renders nothing.  Each node evaluates its own expressions, in template
order, every time it renders: no lookup is shared or hoisted, so a
foreign-key load or a callable in a path runs exactly as often as the
template names it.  Every interpolation is ``html.escape(str(value))``,
and ``None`` renders as nothing, so templates cannot smuggle raw values
out by accident.  Template text and names reach the generated source only
through ``repr()`` or generated local names.

>>> Template("{% for p in papers %}<{{ p.title }}>{% endfor %}").render(
...     {"papers": [{"title": "A&B"}, {"title": None}]})
'<A&amp;B><>'
"""

from __future__ import annotations

import functools
import html
import re
from typing import Any, Dict, List, Optional, Tuple

_TOKEN = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)

#: ``for``/``if`` blocks nested inside one generated function.  A deeper
#: body becomes a function of its own: Python caps a function at 20
#: statically nested blocks and 100 levels of indentation, and each level
#: here costs at most one block and two indents (a lookup adds a ``try``).
_MAX_NESTING = 10

#: One lookup step after the first name: ``{0}`` is the indent, ``{1}`` the
#: name's ``repr()``.
_STEP = """\
{0}if v is not None:
{0}    v = v.get({1}) if isinstance(v, dict) else getattr(v, {1}, None)
{0}    if callable(v) and not isinstance(v, type):
{0}        try:
{0}            v = v()
{0}        except TypeError:
{0}            pass"""


class TemplateError(Exception):
    """Raised for malformed templates or unresolvable expressions."""


class _Node:
    """One parsed construct; :class:`_Compiler` writes its code."""


class _Text(_Node):
    def __init__(self, text: str) -> None:
        self.text = text


class _Expr(_Node):
    def __init__(self, expression: str) -> None:
        self.expression = expression.strip()


class _If(_Node):
    def __init__(self, condition: str, then: List[_Node], orelse: List[_Node]) -> None:
        self.condition = condition.strip()
        self.then = then
        self.orelse = orelse


class _For(_Node):
    def __init__(self, var: str, expression: str, body: List[_Node]) -> None:
        self.var = var
        self.expression = expression
        self.body = body


#: Loop variables in scope, outermost first: (template name, local name).
_Scope = Tuple[Tuple[str, str], ...]


class _Compiler:
    """Writes the source of one template's render functions.

    ``_render0(ctx, _a)`` renders the whole template: ``ctx`` is the context
    dict and ``_a`` appends one piece of output.  A body nested deeper than
    :data:`_MAX_NESTING` blocks is written as ``_render<n>(ctx, _a, <loop
    locals>)`` and called where it stands.  The expression in hand is
    always the local ``v``; loop variables are ``_l<n>``.
    """

    def __init__(self) -> None:
        self.functions: List[List[str]] = []
        self.loops = 0

    def source(self, nodes: List[_Node]) -> str:
        self._function(nodes, ())
        return "\n".join(line for lines in self.functions for line in lines)

    def _function(self, nodes: List[_Node], scope: _Scope) -> str:
        name = f"_render{len(self.functions)}"
        lines = [f"def {name}({_arguments(scope)}):"]
        self.functions.append(lines)
        self._block(nodes, scope, lines, 1, 0)
        return name

    def _block(
        self, nodes: List[_Node], scope: _Scope, lines: List[str], indent: int, depth: int
    ) -> None:
        if depth > _MAX_NESTING:
            lines.append("    " * indent + f"{self._function(nodes, scope)}({_arguments(scope)})")
            return
        pad = "    " * indent
        start = len(lines)
        for node in nodes:
            if isinstance(node, _Text):
                lines.append(f"{pad}_a({node.text!r})")
            elif isinstance(node, _Expr):
                self._path(node.expression, scope, lines, pad)
                lines += [f"{pad}if v is not None:", f"{pad}    _a(escape(str(v)))"]
            elif isinstance(node, _If):
                self._path(node.condition, scope, lines, pad)
                lines.append(f"{pad}if v:")
                self._block(node.then, scope, lines, indent + 1, depth + 1)
                if node.orelse:
                    lines.append(f"{pad}else:")
                    self._block(node.orelse, scope, lines, indent + 1, depth + 1)
            else:
                self._path(node.expression, scope, lines, pad)
                local = f"_l{self.loops}"
                self.loops += 1
                lines += [f"{pad}if v is not None:", f"{pad}    for {local} in v:"]
                inner = scope + ((node.var, local),)
                self._block(node.body, inner, lines, indent + 2, depth + 1)
        if len(lines) == start:
            lines.append(f"{pad}pass")

    @staticmethod
    def _path(expression: str, scope: _Scope, lines: List[str], pad: str) -> None:
        """Lines that leave the value of a dotted ``expression`` in ``v``."""
        head, *steps = expression.split(".")
        local = next((local for name, local in reversed(scope) if name == head), None)
        lines.append(f"{pad}v = {local}" if local else f"{pad}v = ctx.get({head!r})")
        for step in steps:
            lines.append(_STEP.format(pad, repr(step)))


def _arguments(scope: _Scope) -> str:
    return ", ".join(["ctx", "_a"] + [local for _, local in scope])


class Template:
    """A template compiled to one Python function, ready to render repeatedly."""

    def __init__(self, source: str) -> None:
        self.source = source
        tokens = [token for token in _TOKEN.split(source) if token]
        nodes, remainder = self._parse(tokens, 0, ())
        if remainder != len(tokens):
            raise TemplateError("unbalanced template blocks")
        namespace: Dict[str, Any] = {"escape": html.escape}
        exec(compile(_Compiler().source(nodes), "<template>", "exec"), namespace)
        self._render = namespace["_render0"]

    def _parse(
        self, tokens: List[str], index: int, stop: Tuple[str, ...]
    ) -> Tuple[List[_Node], int]:
        nodes: List[_Node] = []
        while index < len(tokens):
            token = tokens[index]
            if token.startswith("{{"):
                nodes.append(_Expr(token[2:-2]))
                index += 1
            elif token.startswith("{%"):
                directive = token[2:-2].strip()
                if not directive:
                    raise TemplateError(f"empty directive {token!r}")
                keyword = directive.split()[0]
                if keyword in stop:
                    return nodes, index
                if keyword == "for":
                    match = re.match(r"for\s+(\w+)\s+in\s+(.+)", directive, re.DOTALL)
                    if match is None:
                        raise TemplateError(f"malformed for: {directive!r}")
                    body, index = self._parse(tokens, index + 1, ("endfor",))
                    nodes.append(_For(match.group(1), match.group(2).strip(), body))
                    index += 1  # consume endfor
                elif keyword == "if":
                    condition = directive[2:].strip()
                    then, index = self._parse(tokens, index + 1, ("else", "endif"))
                    orelse: List[_Node] = []
                    if tokens[index][2:-2].strip().startswith("else"):
                        orelse, index = self._parse(tokens, index + 1, ("endif",))
                    nodes.append(_If(condition, then, orelse))
                    index += 1  # consume endif
                else:
                    raise TemplateError(f"unknown directive {directive!r}")
            else:
                nodes.append(_Text(token))
                index += 1
        if stop:
            raise TemplateError(f"missing closing tag for {stop}")
        return nodes, index

    def render(self, context: Optional[Dict[str, Any]] = None) -> str:
        out: List[str] = []
        self._render(dict(context or {}), out.append)
        return "".join(out)


#: Template source -> compiled Template, bounded so applications rendering
#: many distinct template strings cannot grow it without limit.
_compiled = functools.lru_cache(maxsize=512)(Template)


def render_template(source: str, context: Optional[Dict[str, Any]] = None) -> str:
    """Render template source, compiling each source once (cached)."""
    return _compiled(source).render(context)
