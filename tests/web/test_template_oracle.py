"""Differential fuzzing: compiled templates vs the reference interpreter.

:class:`_ReferenceTemplate` below is the tree-walking interpreter the
template engine used before it compiled each template to one Python
function: the same parser, a ``render`` method per node, a ``_lookup``
that re-splits each dotted path and a context dict copied per loop
iteration.  Each seeded case draws a random template and a random context
and renders it with both.  The output, or the exception type and message,
must be equal, and so must the log of every call the context's callables
received, in order: a callable in a path runs exactly as often, and at
the same points, as the interpreter ran it.

Templates hold text with ``<>&"'``, backslashes, newlines and ``}%``; 1-3
part paths; and nested ``for``/``if``/``else`` blocks whose loop
variables shadow a context name, iterate over their own name, or are used
after their loop.  Contexts hold dicts, attribute objects, zero-argument
callables, callables that need an argument or raise, classes, ``None``
mid-path, missing names, and strings used as iterables.  Fixed cases
cover 30 nested ``for``\\ s and 120 nested ``if``\\ s, deeper than one
Python function can nest.  Every template compiles with
:class:`SyntaxWarning` as an error.

``FUZZ_ITERATIONS`` (default 20, that is 200 templates; CI runs 200) and
``FUZZ_SEED`` tune the sweep from the environment.
"""

import html
import os
import random
import re
import warnings
from typing import Any, Dict, List, Optional, Tuple

from repro.web.templates import Template, TemplateError

TEMPLATES_PER_ITERATION = 10

# -- the reference interpreter -----------------------------------------------------

_TOKEN = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)


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
        branch = self.then if bool(_lookup(self.condition, context)) else self.orelse
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


def _lookup(expression: str, context: Dict[str, Any]) -> Any:
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


class _ReferenceTemplate:
    def __init__(self, source: str) -> None:
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
                    index += 1
                elif keyword == "if":
                    condition = directive[2:].strip()
                    then, index = self._parse(tokens, index + 1, ("else", "endif"))
                    orelse: List[_Node] = []
                    if tokens[index][2:-2].strip().startswith("else"):
                        orelse, index = self._parse(tokens, index + 1, ("endif",))
                    nodes.append(_If(condition, then, orelse))
                    index += 1
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


# -- context values ----------------------------------------------------------------

#: Names a context may bind; loop variables are drawn from these too, so
#: they shadow context names.
NAMES = ("a", "b", "items", "s", "f")
#: Loop variable names, context names included.
LOOP_VARS = ("x", "y", "a", "items")
#: Names never bound anywhere.
MISSING = ("nope",)
#: Attribute and key names the context's dicts and objects bind.
FIELDS = ("x", "y", "f", "items")
#: Later path steps besides those: ``upper`` and ``__len__`` are
#: zero-argument methods of builtins, ``__class__`` is a class (never
#: called) and ``count`` a method that needs an argument.
BUILTIN_ATTRS = ("upper", "count", "__class__", "__len__", "real")
#: Template text; no ``{``, so text never opens a tag.
TEXT_CHARS = "ab <>&\"'\\\n}%."


class _Obj:
    """An attribute object with a stable ``str``."""

    def __init__(self, label: str, attrs: Dict[str, Any]) -> None:
        self.__dict__.update(attrs)
        self._label = label

    def count(self, needle: Any) -> int:
        return 0

    def __str__(self) -> str:
        return f"<obj {self._label} & \"co\">"

    __repr__ = __str__


class _Call:
    """A zero-argument callable that logs each call and may raise."""

    def __init__(self, label: str, result: Any, log: List[str], raises: Any = None) -> None:
        self.label = label
        self.result = result
        self.log = log
        self.raises = raises

    def __call__(self) -> Any:
        self.log.append(self.label)
        if self.raises is not None:
            raise self.raises(f"{self.label} failed")
        return self.result

    def __str__(self) -> str:
        return f"call<{self.label}>"

    __repr__ = __str__


class _NeedsArg(_Call):
    """A callable that needs an argument: a zero-argument call is a TypeError."""

    def __call__(self, arg: Any) -> Any:  # type: ignore[override]
        self.log.append(self.label)
        return self.result


class _Kind:
    """A class in the context: callable, but never called by a lookup."""


def _text(rng: random.Random, low: int = 0) -> str:
    return "".join(rng.choice(TEXT_CHARS) for _ in range(rng.randint(low, 6)))


def _value(rng: random.Random, log: List[str], depth: int, labels: List[int]) -> Any:
    labels[0] += 1
    label = f"v{labels[0]}"
    if depth == 0:
        kind = rng.choice(("none", "int", "bool", "text", "text"))
    else:
        kind = rng.choices(
            ("none", "int", "bool", "text", "list", "dict", "obj", "call",
             "needs_arg", "raise_type", "raise_value", "kind"),
            (2, 1, 1, 2, 3, 4, 4, 8, 1, 1, 0.1, 1),
        )[0]
    if kind == "none":
        return None
    if kind == "int":
        return rng.randint(-2, 5)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "text":
        return _text(rng)
    if kind == "list":
        return [_value(rng, log, depth - 1, labels) for _ in range(rng.randint(0, 3))]
    if kind in ("dict", "obj"):
        attrs = {
            name: _value(rng, log, depth - 1, labels)
            for name in rng.sample(FIELDS, rng.randint(2, len(FIELDS)))
        }
        return attrs if kind == "dict" else _Obj(label, attrs)
    if kind == "call":
        return _Call(label, _value(rng, log, depth - 1, labels), log)
    if kind == "needs_arg":
        return _NeedsArg(label, _value(rng, log, depth - 1, labels), log)
    if kind == "raise_type":
        return _Call(label, None, log, raises=TypeError)
    if kind == "raise_value":
        return _Call(label, None, log, raises=ValueError)
    return _Kind


def _context(rng: random.Random, log: List[str]) -> Dict[str, Any]:
    labels = [0]
    return {
        name: _value(rng, log, 3, labels)
        for name in NAMES
        if rng.random() < 0.85
    }


# -- templates ---------------------------------------------------------------------


def _space(rng: random.Random) -> str:
    return rng.choice(["", " ", " ", "  ", "\n"])


def _path(rng: random.Random, scope: List[str], head: Optional[str] = None) -> str:
    if head is None:
        heads = list(NAMES) + list(MISSING) + scope * 3
        head = rng.choice(heads)
    steps = [
        rng.choice(FIELDS if rng.random() < 0.75 else BUILTIN_ATTRS)
        for _ in range(rng.choice((0, 1, 1, 2, 2)))
    ]
    return ".".join([head] + steps)


def _template(rng: random.Random, depth: int, scope: List[str]) -> str:
    pieces = []
    for _ in range(rng.randint(0, 4) if depth else rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.3:
            pieces.append(_text(rng, low=1))
        elif roll < 0.6 or depth >= 4:
            pieces.append("{{" + _space(rng) + _path(rng, scope) + _space(rng) + "}}")
        elif roll < 0.8:
            var = rng.choice(LOOP_VARS)
            # Sometimes the loop iterates over its own name's outer value.
            iterable = _path(rng, scope, head=var if rng.random() < 0.25 else None)
            body = _template(rng, depth + 1, scope + [var])
            pieces.append(
                "{%" + _space(rng) + f"for {var} in {iterable}" + _space(rng) + "%}"
                + body + "{% endfor %}"
            )
            if rng.random() < 0.4:  # the loop variable's name after its loop
                pieces.append("{{ " + _path(rng, scope, head=var) + " }}")
        else:
            then = _template(rng, depth + 1, scope)
            orelse = ""
            if rng.random() < 0.5:
                orelse = "{%" + _space(rng) + "else" + _space(rng) + "%}" + _template(
                    rng, depth + 1, scope
                )
            pieces.append(
                "{% if " + _path(rng, scope) + " %}" + then + orelse + "{%endif%}"
            )
    return "".join(pieces)


# -- the oracle --------------------------------------------------------------------


def _outcome(render, context: Dict[str, Any], log: List[str]) -> Tuple[Any, ...]:
    """What one render gives: its output or error, and the calls it made."""
    del log[:]
    try:
        result: Tuple[Any, ...] = ("ok", render(context))
    except Exception as exc:  # compared, not hidden: both sides must raise alike
        result = ("raised", type(exc).__name__, str(exc))
    return result + (list(log),)


def _compile(source: str) -> Template:
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        return Template(source)


def _assert_parity(source: str, context: Dict[str, Any], log: List[str], note: str) -> None:
    expected = _outcome(_ReferenceTemplate(source).render, context, log)
    actual = _outcome(_compile(source).render, context, log)
    assert actual == expected, (
        f"template parity violated ({note}):\n  source={source!r}\n"
        f"  context={context!r}\n  reference={expected!r}\n  compiled={actual!r}"
    )


def test_compiled_templates_render_what_the_interpreter_renders():
    iterations = int(os.environ.get("FUZZ_ITERATIONS", "20"))
    base_seed = int(os.environ.get("FUZZ_SEED", "20160613"))
    for index in range(iterations * TEMPLATES_PER_ITERATION):
        seed = base_seed + index
        rng = random.Random(seed)
        log: List[str] = []
        source = _template(rng, 0, [])
        for _ in range(3):
            _assert_parity(source, _context(rng, log), log, f"seed={seed}")


def test_nested_fors_deeper_than_one_python_function():
    depth = 30
    source = "".join(
        "{% for x in x %}<{{ x.__len__ }}" + ("{{ y.f }}" if level % 7 == 0 else "")
        for level in range(depth)
    ) + "{{ x }}" + "{% endfor %}>" * depth + "{{ x }}"
    log: List[str] = []
    nested: Any = "leaf"
    for level in range(depth):
        nested = [nested, nested] if level % 10 == 0 else [nested]
    context = {"x": nested, "y": _Obj("y", {"f": _Call("f", "&", log)})}
    _assert_parity(source, context, log, "30 nested fors")
    assert "leaf" in _compile(source).render(context)


def test_nested_ifs_deeper_than_one_python_function():
    depth = 120
    source = "".join(
        "{% if a." + ("f" if level == 100 else "x") + " %}" + str(level)
        + ("{{ a.f }}" if level % 9 == 0 else "{{ b }}")
        for level in range(depth)
    ) + "core" + "{% else %}&{{ a.f }}{% endif %}" * depth
    log: List[str] = []
    for flag in (True, False):
        context = {"a": _Obj("a", {"x": True, "f": _Call("f", flag, log)}), "b": "<b>"}
        _assert_parity(source, context, log, f"120 nested ifs, flag={flag}")
        assert ("core" in _compile(source).render(context)) is flag
