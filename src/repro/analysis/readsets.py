"""Read-set inference: which columns a trusted method reads from its row.

The write decision procedure needs to know, for every
``jacqueline_get_public_*`` method, which *stored columns* of the record
its result depends on: a single-statement ``UPDATE`` of such a column
would leave the save-time public snapshot stale, so the FORM forces the
batched facet rewrite instead (``writes.read_set_forced_columns``).

Inference is a conservative abstract interpretation over the method's
AST.  The row parameter (and simple aliases of it) is tracked; every way
a value can flow out of it either maps to a concrete column or poisons
the result to **TOP** (meaning "may read anything"):

* ``row.attr`` / ``getattr(row, "attr")`` -- the attribute's backing
  column (a foreign key ``author`` reads column ``author_id``);
* ``row == x`` / ``x is row`` / ``row in xs`` -- reads ``jid`` (model
  equality is jid identity);
* ``Other.objects.get(field=row)`` -- reads ``jid`` (the row matches as
  a filter value by key);
* ``row.helper(...)`` / ``helper(row, ...)`` -- recurse into same-class
  methods and same-module helpers (depth-capped, cycle-guarded);
* anything else that touches the row -- an unknown attribute, the row
  escaping into a call the analyzer cannot see, dynamic ``getattr`` --
  is TOP.

TOP is sound, never silent: a TOP public method simply forces the
batched rewrite on every eligible update (and trips lint rule JQL009).

>>> from repro.analysis.facts import facts_for_source
>>> mod = facts_for_source('''
... class Doc(JModel):
...     title = CharField()
...     priority = IntegerField()
...     def jacqueline_get_public_title(self):
...         return "urgent" if self.priority > 3 else "normal"
... ''', "m.py")
>>> model = mod.models[0]
>>> name, node = model.public_methods["title"]
>>> sorted(infer_method_reads(node, model).columns)
['priority']
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.astutils import (
    attach_parents,
    const_str,
    dotted_name,
    positional_params,
)
from repro.analysis.facts import ModelFacts, first_param

#: Recursion depth cap for helper/method inlining.
MAX_DEPTH = 6

#: FORM metadata attributes a method may legitimately read.
_METADATA_ATTRS = ("jid", "jvars")

#: ``X.objects.<verb>`` verbs that use their arguments as filter values.
_QUERY_VERBS = ("get", "filter", "exclude", "get_or_raise", "get_by_jid")

_IDENTITY_OPS = (ast.Eq, ast.NotEq, ast.Is, ast.IsNot, ast.In, ast.NotIn)


class ReadSet:
    """A set of column names, or TOP ("may read anything").

    >>> reads = ReadSet()
    >>> reads.add_column("title"); sorted(reads.columns)
    ['title']
    >>> reads.mark_top("row escaped"); reads.top
    True
    """

    __slots__ = ("columns", "top", "top_reason", "cross_record")

    def __init__(self) -> None:
        self.columns: Set[str] = set()
        self.top = False
        self.top_reason: Optional[str] = None
        #: whether the method dereferences *other* records (fk chains,
        #: ORM queries) -- their columns are beyond this model's rewrites.
        self.cross_record = False

    def add_column(self, column: str) -> None:
        self.columns.add(column)

    def mark_top(self, reason: str) -> None:
        if not self.top:
            self.top = True
            self.top_reason = reason

    def merge(self, other: "ReadSet") -> None:
        self.columns |= other.columns
        self.cross_record = self.cross_record or other.cross_record
        if other.top:
            self.mark_top(other.top_reason or "TOP")

    def report(self):
        """The JSON-friendly rendering: ``"TOP"`` or a sorted column list."""
        return "TOP" if self.top else sorted(self.columns)

    def __repr__(self) -> str:
        return f"ReadSet({self.report()!r})"


def _alias_names(node: ast.FunctionDef, row_param: str) -> Set[str]:
    """Names bound (anywhere) to the bare row value, flow-insensitively."""
    aliases = {row_param}
    changed = True
    while changed:
        changed = False
        for stmt in ast.walk(node):
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Name)
                and stmt.value.id in aliases
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id not in aliases:
                        aliases.add(target.id)
                        changed = True
    return aliases


def infer_method_reads(
    node: Optional[ast.FunctionDef],
    facts: ModelFacts,
    row_param: Optional[str] = None,
    _depth: int = 0,
    _stack: Optional[Tuple[str, ...]] = None,
) -> ReadSet:
    """Infer the stored columns ``node`` reads from its row parameter.

    ``row_param`` defaults to the function's first positional parameter
    (``self`` for public methods, ``row`` for policies).  A lost body
    (``node is None``) or a parameterless function that cannot name the
    row returns TOP / the empty set respectively.
    """
    reads = ReadSet()
    if node is None:
        reads.mark_top("method source unavailable")
        return reads
    if row_param is None:
        row_param = first_param(node)
    if row_param is None:
        return reads
    if _depth > MAX_DEPTH:
        reads.mark_top("helper recursion too deep")
        return reads
    stack = _stack or ()
    if node.name in stack:
        return reads  # recursive helper: the outer frame owns its reads
    stack = stack + (node.name,)

    attach_parents(node)
    aliases = _alias_names(node, row_param)
    consumed: Set[int] = set()

    def consume(name_node: ast.AST) -> None:
        consumed.add(id(name_node))

    def handle_attribute_read(attr: str, attribute: ast.AST, line: int) -> None:
        column = facts.column_for(attr)
        if column is not None:
            reads.add_column(column)
            field = facts.fields.get(attr)
            parent = getattr(attribute, "_parent", None)
            if (
                field is not None
                and field.is_foreign_key
                and isinstance(parent, ast.Attribute)
            ):
                # row.author.level: author_id is read here; .level lives on
                # another record, beyond this model's rewrites.
                reads.cross_record = True
            return
        if attr in _METADATA_ATTRS:
            reads.add_column(attr)
            return
        method = facts.methods.get(attr)
        if method is not None:
            parent = getattr(attribute, "_parent", None)
            if isinstance(parent, ast.Call) and parent.func is attribute:
                reads.merge(
                    infer_method_reads(
                        method, facts, first_param(method), _depth + 1, stack
                    )
                )
                return
            reads.mark_top(f"method reference .{attr} escapes (line {line})")
            return
        reads.mark_top(f"unknown attribute .{attr} (line {line})")

    # Pass 1: structured patterns, consuming the row references they explain.
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name) \
                and sub.value.id in aliases:
            if all(isinstance(t, ast.Name) for t in sub.targets):
                consume(sub.value)  # pure aliasing, tracked by _alias_names
            continue
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id in aliases:
            if isinstance(sub.ctx, ast.Load):
                consume(sub.value)
                handle_attribute_read(sub.attr, sub, sub.lineno)
            # Store/Del on a row attribute is a side effect (JQL003's
            # business), not a read; the Name itself is accounted for.
            else:
                consume(sub.value)
            continue
        if isinstance(sub, ast.Compare):
            operands = [sub.left] + list(sub.comparators)
            row_operands = [
                op for op in operands
                if isinstance(op, ast.Name) and op.id in aliases
            ]
            if row_operands and all(
                isinstance(op, _IDENTITY_OPS) for op in sub.ops
            ):
                for operand in row_operands:
                    consume(operand)
                    reads.add_column("jid")
            continue
        if isinstance(sub, ast.Call):
            func_name = dotted_name(sub.func)
            # getattr(row, "attr") / getattr(row, dynamic)
            if func_name == "getattr" and sub.args \
                    and isinstance(sub.args[0], ast.Name) \
                    and sub.args[0].id in aliases:
                consume(sub.args[0])
                attr = const_str(sub.args[1]) if len(sub.args) > 1 else None
                if attr is None:
                    reads.mark_top(f"dynamic getattr (line {sub.lineno})")
                else:
                    handle_attribute_read(attr, sub, sub.lineno)
                continue
            row_args = [
                a for a in sub.args if isinstance(a, ast.Name) and a.id in aliases
            ]
            row_kwargs = [
                kw for kw in sub.keywords
                if isinstance(kw.value, ast.Name) and kw.value.id in aliases
            ]
            if not row_args and not row_kwargs:
                continue
            # Other.objects.get(author=row): the row matches by record key.
            if func_name is not None and ".objects." in func_name \
                    and func_name.rsplit(".", 1)[-1] in _QUERY_VERBS:
                for kw in row_kwargs:
                    consume(kw.value)
                    reads.add_column("jid")
                for arg in row_args:
                    consume(arg)
                    reads.add_column("jid")
                reads.cross_record = True
                continue
            # helper(row, ...): inline same-module helpers.
            helper = facts.helper(func_name) if func_name else None
            if helper is not None:
                params = positional_params(helper)
                bound: List[str] = []
                for index, arg in enumerate(sub.args):
                    if arg in row_args and index < len(params):
                        consume(arg)
                        bound.append(params[index])
                for kw in row_kwargs:
                    if kw.arg is not None and kw.arg in params:
                        consume(kw.value)
                        bound.append(kw.arg)
                for param in bound:
                    reads.merge(
                        infer_method_reads(helper, facts, param, _depth + 1, stack)
                    )
                continue
            # The row escapes into a call the analyzer cannot see.
            target = func_name or "<dynamic>"
            reads.mark_top(f"row escapes into {target}() (line {sub.lineno})")
            for arg in row_args:
                consume(arg)
            for kw in row_kwargs:
                consume(kw.value)
            continue

    # Pass 2: any remaining bare use of the row is an escape.
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Name)
            and sub.id in aliases
            and id(sub) not in consumed
            and isinstance(sub.ctx, ast.Load)
        ):
            reads.mark_top(f"row value escapes (line {sub.lineno})")
            break
    return reads


def model_read_sets(facts: ModelFacts) -> Dict[str, ReadSet]:
    """Read sets of a model's ``jacqueline_get_public_*`` methods, by
    method name (the CLI's ``read_sets`` report)."""
    return {
        method_name: infer_method_reads(node, facts)
        for _field, (method_name, node) in sorted(facts.public_methods.items())
    }


def public_read_columns(facts: ModelFacts) -> Optional[FrozenSet[str]]:
    """The union of all public methods' read columns; ``None`` means TOP."""
    union: Set[str] = set()
    for _field, (_name, node) in facts.public_methods.items():
        reads = infer_method_reads(node, facts)
        if reads.top:
            return None
        union |= reads.columns
    return frozenset(union)


def public_read_columns_for_model(model) -> Optional[FrozenSet[str]]:
    """Runtime entry: inferred public read columns of a live model.

    ``None`` is TOP -- returned both when inference gives up and when it
    *fails* (any exception, counted as ``analysis.read_set.failed``), so
    the write decision procedure errs toward the always-correct batched
    rewrite, never toward staleness.
    """
    from repro.analysis.facts import facts_for_model

    try:
        return public_read_columns(facts_for_model(model))
    except Exception:
        obs.add("analysis.read_set.failed")
        return None
