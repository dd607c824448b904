"""A tiny template engine.

Supports the constructs the case-study pages need::

    {{ expression }}                      -- HTML-escaped interpolation
    {% for item in items %} ... {% endfor %}
    {% if condition %} ... {% else %} ... {% endif %}

Expressions are dotted lookups (``paper.title``) evaluated against the
context; attribute access falls back to dictionary lookup.  Everything is
escaped on output, so templates cannot smuggle raw values out by accident.
"""

from __future__ import annotations

import html
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

_TOKEN = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)


class TemplateError(Exception):
    """Raised for malformed templates or unresolvable expressions."""


class _Node:
    def render(self, context: Dict[str, Any]) -> str:
        raise NotImplementedError


class _Text(_Node):
    def __init__(self, text: str) -> None:
        self.text = text

    def render(self, context: Dict[str, Any]) -> str:
        return self.text


class _Expr(_Node):
    def __init__(self, expression: str) -> None:
        self.expression = expression.strip()

    def render(self, context: Dict[str, Any]) -> str:
        value = _lookup(self.expression, context)
        if value is None:
            return ""
        return html.escape(str(value))


class _If(_Node):
    def __init__(self, condition: str, then: List[_Node], orelse: List[_Node]) -> None:
        self.condition = condition.strip()
        self.then = then
        self.orelse = orelse

    def render(self, context: Dict[str, Any]) -> str:
        branch = self.then if _truthy(_lookup(self.condition, context)) else self.orelse
        return "".join(node.render(context) for node in branch)


class _For(_Node):
    def __init__(self, var: str, expression: str, body: List[_Node]) -> None:
        self.var = var
        self.expression = expression
        self.body = body

    def render(self, context: Dict[str, Any]) -> str:
        items = _lookup(self.expression, context)
        if items is None:
            return ""
        pieces = []
        for item in items:
            scoped = dict(context)
            scoped[self.var] = item
            pieces.append("".join(node.render(scoped) for node in self.body))
        return "".join(pieces)


def _truthy(value: Any) -> bool:
    return bool(value)


def _lookup(expression: str, context: Dict[str, Any]) -> Any:
    """Resolve a dotted expression against the context."""
    parts = expression.split(".")
    if parts[0] not in context:
        return None
    value: Any = context[parts[0]]
    for part in parts[1:]:
        if value is None:
            return None
        if isinstance(value, dict):
            value = value.get(part)
        else:
            value = getattr(value, part, None)
        if callable(value) and not isinstance(value, type):
            try:
                value = value()
            except TypeError:
                pass
    return value


class Template:
    """A parsed template ready to render repeatedly."""

    def __init__(self, source: str) -> None:
        self.source = source
        tokens = [token for token in _TOKEN.split(source) if token]
        self.nodes, remainder = self._parse(tokens, 0, ())
        if remainder != len(tokens):
            raise TemplateError("unbalanced template blocks")

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
                keyword = directive.split()[0]
                if keyword in stop:
                    return nodes, index
                if keyword == "for":
                    match = re.match(r"for\s+(\w+)\s+in\s+(.+)", directive)
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
        context = dict(context or {})
        return "".join(node.render(context) for node in self.nodes)


from repro.cache.lru import LRUCache

#: Parse cache: template source -> parsed Template.  Bounded (unlike the
#: previous plain dict) so applications rendering many distinct template
#: strings cannot grow it without limit.
_template_cache = LRUCache(max_entries=512)


def render_template(source: str, context: Optional[Dict[str, Any]] = None) -> str:
    """Render template source with a per-source parse cache."""
    template = _template_cache.get(source)
    if template is None:
        template = Template(source)
        _template_cache.put(source, template)
    return template.render(context)
