"""Symbolic policy compilation: typed predicate IR from policy bodies.

A policy ``def jacqueline_restrict_f(row, viewer)`` is trusted code; this
module runs a small abstract interpreter over its AST and produces a
normalized predicate IR — and/or/not trees over :class:`Atom` leaves
``(lhs op rhs)`` whose value sources are constants (:class:`ConstVal`),
own-row columns (:class:`OwnColumn`), viewer attribute chains
(:class:`ViewerAttr`), module-level names (:class:`GlobalAttr`), the
row/viewer objects themselves, or the hits of a lookup on an unpolicied
model (:class:`Lookup`, from ``M.objects.get(...) is not None``).  An
``if`` lowers to a guarded disjunction.  Anything the interpreter cannot
model soundly becomes :class:`Top` ("unknown"), and every consumer treats
TOP conservatively: pushdown falls back to the Python path, and the
unsatisfiability check treats it as satisfiable.

The interpreter is *typed*: own-row attribute reads resolve through the
model's :class:`~repro.analysis.types.TypeEnv`, so each :class:`OwnColumn`
carries its value kind and nullability — the information pushdown needs to
decide whether an atom can be rendered with exact SQL semantics.

>>> from repro.analysis.facts import facts_for_source
>>> mod = facts_for_source('''
... class Doc(JModel):
...     title = CharField()
...     owner = ForeignKey("User")
...     @staticmethod
...     @label_for("title")
...     def restrict_title(doc, ctxt):
...         return ctxt is not None and doc.owner_id == ctxt.jid
... ''', "m.py")
>>> model = mod.models[0]
>>> pred = compile_policy(model.groups[0], model)
>>> print(predicate_text(pred))
(viewer is not None and owner_id == viewer.jid)
>>> sorted(own_columns(pred))
['owner_id']
>>> contains_top(pred)
False

Unsatisfiable predicates are detected by a bounded DNF expansion:

>>> bad = And((Atom("eq", OwnColumn("n", "int"), ConstVal(1)),
...            Atom("eq", OwnColumn("n", "int"), ConstVal(2))))
>>> [atom_text(a) for a in unsatisfiable(bad)]
['n == 1', 'n == 2']
>>> unsatisfiable(Atom("eq", OwnColumn("n", "int"), ConstVal(1))) is None
True
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.astutils import const_str, dotted_name, positional_params
from repro.analysis.facts import GroupFacts, ModelFacts
from repro.analysis.types import TypeEnv, type_env

#: Maximum helper-inlining depth (mirrors read-set inference).
MAX_DEPTH = 6

#: Maximum number of DNF conjuncts explored by the satisfiability check.
DNF_LIMIT = 128


# ---------------------------------------------------------------------------
# IR node types
# ---------------------------------------------------------------------------


class Source:
    """Base class of atom value sources."""

    __slots__ = ()


@dataclass(frozen=True)
class ConstVal(Source):
    """A Python constant (lists/tuples/sets are stored as tuples)."""

    value: Any


@dataclass(frozen=True)
class OwnColumn(Source):
    """A column of the row being guarded, with its inferred type."""

    column: str
    kind: str = "unknown"
    nullable: bool = True


@dataclass(frozen=True)
class ViewerAttr(Source):
    """A ``viewer.a.b`` attribute chain, resolved at bind time."""

    path: Tuple[str, ...]
    has_default: bool = False
    default: Any = None


@dataclass(frozen=True)
class ViewerSelf(Source):
    """The viewer object itself (``ctxt is None``, ``ctxt == row``)."""


@dataclass(frozen=True)
class RowSelf(Source):
    """The guarded row itself; equality against it compares ``jid``."""


@dataclass(frozen=True)
class GlobalAttr(Source):
    """A module-level name and its attribute chain (``Phase.current``).

    Bound when a read plans, from the policy function's ``__globals__``,
    and folded like a viewer attribute.
    """

    path: Tuple[str, ...]


@dataclass(frozen=True)
class Lookup(Source):
    """The ``column`` values of the unpolicied model ``table``'s rows whose
    ``keys`` columns equal the paired sources: the right-hand side of a
    membership atom, ``M.objects.get(f=<row>, g=<value>) is not None``
    reading ``row-operand in M(g=<value>).f``."""

    table: str
    column: str
    keys: Tuple[Tuple[str, Source], ...]


class Pred:
    """Base class of predicate IR nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Pred):
    value: bool


@dataclass(frozen=True)
class Top(Pred):
    """Unknown — the interpreter could not model this subtree."""

    reason: str = ""


@dataclass(frozen=True)
class And(Pred):
    items: Tuple[Pred, ...]


@dataclass(frozen=True)
class Or(Pred):
    items: Tuple[Pred, ...]


@dataclass(frozen=True)
class Not(Pred):
    item: Pred


@dataclass(frozen=True)
class Atom(Pred):
    """One comparison leaf.  ``rhs`` is ``None`` for unary ops."""

    op: str  # eq ne lt le gt ge in not-in is-null not-null prefix truthy
    lhs: Source
    rhs: Optional[Source] = None


#: Exact negations used for NNF conversion (prefix/truthy have none).
_NEG = {
    "eq": "ne",
    "ne": "eq",
    "lt": "ge",
    "ge": "lt",
    "gt": "le",
    "le": "gt",
    "in": "not-in",
    "not-in": "in",
    "is-null": "not-null",
    "not-null": "is-null",
}

_MIRROR = {"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt", "le": "ge", "ge": "le"}

_COMPARE_OPS = {
    ast.Eq: "eq",
    ast.NotEq: "ne",
    ast.Lt: "lt",
    ast.LtE: "le",
    ast.Gt: "gt",
    ast.GtE: "ge",
    ast.In: "in",
    ast.NotIn: "not-in",
}

#: Row metadata columns the IR may not read (jvars encodes the labels
#: themselves; reading it inside a policy is circular — see JQL005).
_FORBIDDEN_COLUMNS = frozenset({"jvars"})


# ---------------------------------------------------------------------------
# Abstract interpreter
# ---------------------------------------------------------------------------

_ROW = "row"
_VIEWER = "viewer"

Binding = Union[str, Source, None]


class _Compiler:
    """Interprets one function body under a parameter-binding scope."""

    def __init__(
        self,
        facts: ModelFacts,
        env: TypeEnv,
        scope: Dict[str, Binding],
        depth: int,
        stack: Tuple[str, ...],
    ) -> None:
        self.facts = facts
        self.env = env
        self.scope = scope
        self.depth = depth
        self.stack = stack
        self.locals: Dict[str, ast.expr] = {}
        self._resolving: Set[str] = set()

    # -- statements ---------------------------------------------------

    def run(self, node: ast.FunctionDef) -> Pred:
        return self._block(node.body)

    def _block(self, stmts: List[ast.stmt]) -> Pred:
        """The outcome of running ``stmts`` to their ``return``.

        ``if c: A`` followed by ``B`` lowers to ``(c and A;B) or (not c
        and else;B)``, where a branch ending in ``return`` drops ``B``.  A
        local assigned inside a branch stays in that branch.
        """
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Assign):
                if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
                    return Top("unsupported assignment")
                name = stmt.targets[0].id
                if name in self.locals or name in self.scope:
                    # Locals resolve by substitution at their use.
                    return Top(f"reassigned local {name!r}")
                self.locals[name] = stmt.value
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is None:
                    return Const(False)
                return self.boolean(stmt.value)
            if isinstance(stmt, ast.If):
                rest = stmts[index + 1:]
                cond = self.boolean(stmt.test)
                return Or((
                    And((cond, self._branch(stmt.body, rest))),
                    And((Not(cond), self._branch(stmt.orelse, rest))),
                ))
            return Top(f"unsupported statement {type(stmt).__name__}")
        return Top("no return statement")

    def _branch(self, body: List[ast.stmt], rest: List[ast.stmt]) -> Pred:
        """One arm of an ``if``: its body, then ``rest`` unless it returns."""
        stmts = body if body and isinstance(body[-1], ast.Return) else body + rest
        saved = dict(self.locals)
        try:
            return self._block(stmts)
        finally:
            self.locals = saved

    # -- boolean interpretation ---------------------------------------

    def boolean(self, node: ast.expr) -> Pred:
        if isinstance(node, ast.BoolOp):
            items = tuple(self.boolean(value) for value in node.values)
            return And(items) if isinstance(node.op, ast.And) else Or(items)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return Not(self.boolean(node.operand))
        if isinstance(node, ast.Constant):
            return Const(bool(node.value))
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.IfExp):
            cond = self.boolean(node.test)
            return Or((
                And((cond, self.boolean(node.body))),
                And((Not(cond), self.boolean(node.orelse))),
            ))
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Name) and node.id in self.locals:
            resolved = self._local(node.id)
            if resolved is not None:
                return self.boolean(resolved)
            return Top(f"unresolvable local {node.id!r}")
        source = self.source(node)
        if isinstance(source, ConstVal):
            return Const(bool(source.value))
        if isinstance(source, (ViewerAttr, GlobalAttr)):
            return Atom("truthy", source)
        if isinstance(source, OwnColumn):
            if source.kind == "bool":
                return Atom("truthy", source)
            return Top(f"truthiness of non-boolean column {source.column!r}")
        return Top(f"unsupported expression {type(node).__name__}")

    def _local(self, name: str) -> Optional[ast.expr]:
        if name in self._resolving:
            return None
        return self.locals.get(name)

    def _compare(self, node: ast.Compare) -> Pred:
        if len(node.ops) != 1:
            return Top("chained comparison")
        op_node = node.ops[0]
        lookup = self._lookup_test(node.left, op_node, node.comparators[0])
        if lookup is not None:
            return lookup
        left = self.source(node.left)
        right = self.source(node.comparators[0])
        if isinstance(op_node, (ast.Is, ast.IsNot)):
            negated = isinstance(op_node, ast.IsNot)
            return self._identity(left, right, negated)
        op = _COMPARE_OPS.get(type(op_node))
        if op is None:
            return Top(f"unsupported comparison {type(op_node).__name__}")
        if op in ("in", "not-in"):
            if left is None or not isinstance(right, ConstVal):
                return Top("membership test on non-constant collection")
            if not isinstance(right.value, tuple):
                return Top("membership test on non-collection constant")
            return Atom(op, left, right)
        if left is None or right is None:
            return Top("operand is not a column, constant, or viewer chain")
        # ``x == None`` behaves as a null test for our value types.
        if isinstance(right, ConstVal) and right.value is None and op in ("eq", "ne"):
            return self._identity(left, right, op == "ne")
        if isinstance(left, ConstVal) and left.value is None and op in ("eq", "ne"):
            return self._identity(right, left, op == "ne")
        return self._binary(op, left, right)

    def _identity(
        self, left: Optional[Source], right: Optional[Source], negated: bool
    ) -> Pred:
        op = "not-null" if negated else "is-null"
        if isinstance(right, ConstVal) and right.value is None:
            right = None
        elif isinstance(left, ConstVal) and left.value is None:
            left, right = right, None
        else:
            # ``viewer is row`` — identity between the two objects.
            if {type(left), type(right)} == {RowSelf, ViewerSelf}:
                return Atom("ne" if negated else "eq", RowSelf(), ViewerSelf())
            return Top("identity test between non-None operands")
        if left is None:
            return Top("null test on unmodelled operand")
        if isinstance(left, ConstVal):
            return Const((left.value is None) != negated)
        if isinstance(left, RowSelf):
            return Const(negated)  # a fetched row is never None
        return Atom(op, left)

    def _binary(self, op: str, left: Source, right: Source) -> Pred:
        # Canonical form keeps the own-row column on the left-hand side.
        if isinstance(right, OwnColumn) and not isinstance(left, OwnColumn):
            mirrored = _MIRROR.get(op)
            if mirrored is None:
                return Top(f"cannot mirror operator {op!r}")
            left, right, op = right, left, mirrored
        if {type(left), type(right)} == {RowSelf, ViewerSelf} and op in ("eq", "ne"):
            return Atom(op, RowSelf(), ViewerSelf())
        if isinstance(left, (RowSelf, ViewerSelf)) or isinstance(
            right, (RowSelf, ViewerSelf)
        ):
            return Top("object compared against a value")
        return Atom(op, left, right)

    def _lookup_test(
        self, left: ast.expr, op_node: ast.cmpop, right: ast.expr
    ) -> Optional[Pred]:
        """``M.objects.get(...) is [not] None`` as a membership atom, or
        ``None`` when the comparison has another shape.

        ``M`` must be an unpolicied model of the module, and exactly one
        keyword operand must come from the row: the row itself or a
        non-nullable own integer column, compared with an integer column
        of ``M``.  Every other operand must be a viewer, constant or
        global source.  Any other lookup is TOP with its reason.
        """
        if not isinstance(op_node, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)):
            return None
        if isinstance(right, ast.Constant) and right.value is None:
            call = left
        elif isinstance(left, ast.Constant) and left.value is None:
            call = right
        else:
            return None
        if isinstance(call, ast.Name) and call.id not in self.scope:
            call = self._local(call.id) or call
        name = dotted_name(call.func) if isinstance(call, ast.Call) else None
        if name is None or not name.endswith(".objects.get") or name.count(".") != 2:
            return None
        model_name = name.split(".", 1)[0]
        if model_name in self.scope or model_name in self.locals:
            return None
        target = self.facts.model(model_name)
        if target is None:
            return Top(f"lookup on unknown model {model_name!r}")
        if target.groups:
            return Top(f"lookup on policied model {model_name!r}")
        if call.args:
            return Top("lookup with positional arguments")
        target_env = type_env(target)
        row_operand: Optional[OwnColumn] = None
        column = ""
        keys: List[Tuple[str, Source]] = []
        for keyword in call.keywords:
            key_column = _lookup_column(target, keyword.arg)
            if key_column is None:
                return Top(f"lookup on unknown field {keyword.arg!r} of {model_name}")
            value = self.source(keyword.value)
            if isinstance(value, RowSelf):
                value = OwnColumn("jid", "int", nullable=False)
            if isinstance(value, OwnColumn):
                if row_operand is not None:
                    return Top("lookup with several row operands")
                if value.nullable:
                    return Top(f"lookup keyed on nullable column {value.column}")
                ctype = target_env.lookup(key_column)
                if value.kind != "int" or ctype is None or ctype.kind != "int":
                    return Top(f"lookup compares {value.column} with {key_column}")
                row_operand, column = value, key_column
            elif isinstance(value, (ViewerSelf, ViewerAttr, ConstVal, GlobalAttr)):
                keys.append((key_column, value))
            else:
                return Top("lookup operand is not a row, viewer, constant or global")
        if row_operand is None:
            return Top("lookup without a row operand")
        negated = isinstance(op_node, (ast.IsNot, ast.NotEq))
        return Atom("in" if negated else "not-in", row_operand,
                    Lookup(target.name, column, tuple(keys)))

    def _call(self, node: ast.Call) -> Pred:
        if node.keywords:
            return Top("call with keyword arguments")
        # row.column.startswith(prefix) / viewer.attr.startswith(prefix)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
            and len(node.args) == 1
        ):
            target = self.source(node.func.value)
            prefix = self.source(node.args[0])
            if target is None or prefix is None:
                return Top("startswith on unmodelled operands")
            if isinstance(target, (RowSelf, ViewerSelf)) or isinstance(
                prefix, (RowSelf, ViewerSelf)
            ):
                return Top("startswith on a non-string object")
            return Atom("prefix", target, prefix)
        name = dotted_name(node.func)
        if name is None or "." in name:
            return Top("unsupported call target")
        if name == "getattr":
            source = self.source(node)
            if isinstance(source, ViewerAttr):
                return Atom("truthy", source)
            return Top("getattr in boolean position")
        if name in self.stack or self.depth >= MAX_DEPTH:
            return Top(f"helper {name!r} recursion or depth limit")
        helper = self.facts.helper(name)
        if helper is None:
            return Top(f"unknown helper {name!r}")
        params = positional_params(helper)
        if len(params) != len(node.args):
            return Top(f"helper {name!r} arity mismatch")
        scope: Dict[str, Binding] = {}
        for param, arg in zip(params, node.args):
            arg_source = self.source(arg)
            if isinstance(arg_source, RowSelf):
                scope[param] = _ROW
            elif isinstance(arg_source, ViewerSelf):
                scope[param] = _VIEWER
            else:
                scope[param] = arg_source  # Source or None (= unmodelled)
        child = _Compiler(
            self.facts, self.env, scope, self.depth + 1, self.stack + (name,)
        )
        return child.run(helper)

    # -- source resolution --------------------------------------------

    def source(self, node: ast.expr) -> Optional[Source]:
        if isinstance(node, ast.Constant):
            return ConstVal(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            values = []
            for elt in node.elts:
                if not isinstance(elt, ast.Constant):
                    return None
                values.append(elt.value)
            return ConstVal(tuple(values))
        if isinstance(node, ast.Name):
            binding = self.scope.get(node.id)
            if binding == _ROW:
                return RowSelf()
            if binding == _VIEWER:
                return ViewerSelf()
            if isinstance(binding, Source):
                return binding
            if node.id in self.scope:
                return None  # unmodelled helper argument
            if node.id in self.locals:
                expr = self._local(node.id)
                if expr is None:
                    return None
                self._resolving.add(node.id)
                try:
                    return self.source(expr)
                finally:
                    self._resolving.discard(node.id)
            return GlobalAttr((node.id,))
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Call):
            return self._getattr_call(node)
        return None

    def _attribute(self, node: ast.Attribute) -> Optional[Source]:
        path: List[str] = []
        base: ast.expr = node
        while isinstance(base, ast.Attribute):
            path.append(base.attr)
            base = base.value
        path.reverse()
        root = self.source(base)
        if isinstance(root, RowSelf):
            if len(path) != 1:
                return None  # cross-record traversal
            return self._own_column(path[0])
        if isinstance(root, ViewerSelf):
            return ViewerAttr(tuple(path))
        if isinstance(root, ViewerAttr):
            return ViewerAttr(root.path + tuple(path))
        if isinstance(root, GlobalAttr):
            return GlobalAttr(root.path + tuple(path))
        return None

    def _getattr_call(self, node: ast.Call) -> Optional[Source]:
        if (
            dotted_name(node.func) != "getattr"
            or node.keywords
            or len(node.args) not in (2, 3)
        ):
            return None
        attr = const_str(node.args[1])
        if attr is None:
            return None
        root = self.source(node.args[0])
        if isinstance(root, RowSelf):
            return self._own_column(attr)
        if isinstance(root, (ViewerSelf, ViewerAttr)):
            prefix = root.path if isinstance(root, ViewerAttr) else ()
            if len(node.args) == 3:
                if not isinstance(node.args[2], ast.Constant):
                    return None
                return ViewerAttr(prefix + (attr,), True, node.args[2].value)
            return ViewerAttr(prefix + (attr,))
        return None

    def _own_column(self, attr: str) -> Optional[Source]:
        if attr == "jid":
            return OwnColumn("jid", "int", nullable=False)
        column = self.facts.column_for(attr)
        if column is None or column in _FORBIDDEN_COLUMNS:
            return None
        ctype = self.env.lookup(column)
        if ctype is None:
            return OwnColumn(column)
        return OwnColumn(column, ctype.kind, ctype.nullable)


def _lookup_column(model: ModelFacts, name: Optional[str]) -> Optional[str]:
    """The column of ``model`` a ``get()`` keyword filters on, resolved as
    ``QuerySet._apply_filter`` resolves it, or ``None``."""
    if name is None or "__" in name:
        return None
    if name in ("jid", "pk"):
        return "jid"
    field = model.fields.get(name)
    if field is None and name.endswith("_id"):
        field = model.fields.get(name[:-3])
    return field.column if field is not None else None


def compile_policy(
    group: GroupFacts, facts: ModelFacts, env: Optional[TypeEnv] = None
) -> Pred:
    """Compile one policy group's body to normalized predicate IR.

    Never raises: any modelling failure yields :class:`Top` with a reason.
    """
    node = group.node
    if node is None:
        return Top("policy source unavailable")
    params = positional_params(node)
    if len(params) < 2:
        return Top("policy does not take (row, viewer) parameters")
    if env is None:
        env = type_env(facts)
    scope: Dict[str, Binding] = {params[0]: _ROW, params[1]: _VIEWER}
    try:
        compiler = _Compiler(facts, env, scope, 0, (group.method_name,))
        return normalize(compiler.run(node))
    except RecursionError:  # pragma: no cover - defensive
        return Top("policy too deeply nested")


# ---------------------------------------------------------------------------
# Normalization and queries over the IR
# ---------------------------------------------------------------------------


def normalize(pred: Pred) -> Pred:
    """Flatten nested and/or, fold constants, push double negation."""
    if isinstance(pred, (And, Or)):
        is_and = isinstance(pred, And)
        absorbing, neutral = (False, True) if is_and else (True, False)
        items: List[Pred] = []
        for item in pred.items:
            norm = normalize(item)
            if isinstance(norm, Const):
                if norm.value == absorbing:
                    return Const(absorbing)
                continue  # neutral element
            if isinstance(norm, And if is_and else Or):
                items.extend(norm.items)
            elif norm not in items:
                items.append(norm)
        if not items:
            return Const(neutral)
        if len(items) == 1:
            return items[0]
        return And(tuple(items)) if is_and else Or(tuple(items))
    if isinstance(pred, Not):
        inner = normalize(pred.item)
        if isinstance(inner, Const):
            return Const(not inner.value)
        if isinstance(inner, Not):
            return inner.item
        if isinstance(inner, Top):
            return inner
        if isinstance(inner, Atom) and inner.op in _NEG:
            return Atom(_NEG[inner.op], inner.lhs, inner.rhs)
        return Not(inner)
    if isinstance(pred, Atom):
        return _fold_atom(pred)
    return pred


def _fold_atom(atom: Atom) -> Pred:
    """Constant-fold atoms whose operands are all constants."""
    lhs, rhs = atom.lhs, atom.rhs
    if not isinstance(lhs, ConstVal):
        return atom
    try:
        if atom.op == "truthy":
            return Const(bool(lhs.value))
        if atom.op == "is-null":
            return Const(lhs.value is None)
        if atom.op == "not-null":
            return Const(lhs.value is not None)
        if not isinstance(rhs, ConstVal):
            return atom
        pairs = {
            "eq": lambda a, b: a == b,
            "ne": lambda a, b: a != b,
            "lt": lambda a, b: a < b,
            "le": lambda a, b: a <= b,
            "gt": lambda a, b: a > b,
            "ge": lambda a, b: a >= b,
            "in": lambda a, b: a in b,
            "not-in": lambda a, b: a not in b,
            "prefix": lambda a, b: a.startswith(b),
        }
        fold = pairs.get(atom.op)
        if fold is None:
            return atom
        return Const(bool(fold(lhs.value, rhs.value)))
    except (TypeError, AttributeError):
        return atom


def iter_atoms(pred: Pred) -> Iterator[Atom]:
    if isinstance(pred, Atom):
        yield pred
    elif isinstance(pred, (And, Or)):
        for item in pred.items:
            yield from iter_atoms(item)
    elif isinstance(pred, Not):
        yield from iter_atoms(pred.item)


def first_top(pred: Pred) -> Optional[Top]:
    """The first :class:`Top` of the predicate, depth first, or ``None``."""
    if isinstance(pred, Top):
        return pred
    if isinstance(pred, (And, Or)):
        items = pred.items
    elif isinstance(pred, Not):
        items = (pred.item,)
    else:
        return None
    for item in items:
        top = first_top(item)
        if top is not None:
            return top
    return None


def contains_top(pred: Pred) -> bool:
    return first_top(pred) is not None


def own_columns(pred: Pred) -> Set[str]:
    """Backing columns the predicate reads from the guarded row itself."""
    columns: Set[str] = set()
    for atom in iter_atoms(pred):
        for source in (atom.lhs, atom.rhs):
            if isinstance(source, OwnColumn):
                columns.add(source.column)
            elif isinstance(source, RowSelf):
                columns.update(("jid",))
    return columns


def lookup_tables(pred: Pred) -> Set[str]:
    """Tables the predicate's membership atoms read."""
    return {
        atom.rhs.table for atom in iter_atoms(pred) if isinstance(atom.rhs, Lookup)
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def source_text(source: Optional[Source]) -> str:
    if source is None:
        return "?"
    if isinstance(source, ConstVal):
        return repr(source.value)
    if isinstance(source, OwnColumn):
        return source.column
    if isinstance(source, ViewerAttr):
        return "viewer." + ".".join(source.path)
    if isinstance(source, ViewerSelf):
        return "viewer"
    if isinstance(source, RowSelf):
        return "row"
    if isinstance(source, GlobalAttr):
        return ".".join(source.path)
    if isinstance(source, Lookup):
        keys = ", ".join(f"{column}={source_text(value)}" for column, value in source.keys)
        return f"{source.table}({keys}).{source.column}"
    return "?"


_OP_TEXT = {
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "in": "in", "not-in": "not in",
}


def atom_text(atom: Atom) -> str:
    """Human-readable rendering of one atom (used by JQL010 messages)."""
    lhs = source_text(atom.lhs)
    if atom.op == "is-null":
        return f"{lhs} is None"
    if atom.op == "not-null":
        return f"{lhs} is not None"
    if atom.op == "truthy":
        return f"bool({lhs})"
    if atom.op == "prefix":
        return f"{lhs}.startswith({source_text(atom.rhs)})"
    return f"{lhs} {_OP_TEXT[atom.op]} {source_text(atom.rhs)}"


def predicate_text(pred: Pred) -> str:
    """Human-readable rendering of a whole predicate.

    >>> predicate_text(Or((Const(True), Top("x"))))
    '(True or TOP[x])'
    """
    if isinstance(pred, Const):
        return str(pred.value)
    if isinstance(pred, Top):
        return f"TOP[{pred.reason}]" if pred.reason else "TOP"
    if isinstance(pred, And):
        return "(" + " and ".join(predicate_text(i) for i in pred.items) + ")"
    if isinstance(pred, Or):
        return "(" + " or ".join(predicate_text(i) for i in pred.items) + ")"
    if isinstance(pred, Not):
        return f"not {predicate_text(pred.item)}"
    return atom_text(pred)


def _source_json(source: Optional[Source]) -> Any:
    if source is None:
        return None
    if isinstance(source, ConstVal):
        value = source.value
        if isinstance(value, tuple):
            value = list(value)
        return {"const": value}
    if isinstance(source, OwnColumn):
        return {"column": source.column, "type": source.kind,
                "nullable": source.nullable}
    if isinstance(source, ViewerAttr):
        out: Dict[str, Any] = {"viewer": ".".join(source.path)}
        if source.has_default:
            out["default"] = source.default
        return out
    if isinstance(source, ViewerSelf):
        return {"viewer-self": True}
    if isinstance(source, RowSelf):
        return {"row-self": True}
    if isinstance(source, GlobalAttr):
        return {"global": ".".join(source.path)}
    if isinstance(source, Lookup):
        return {"lookup": {
            "table": source.table,
            "select": source.column,
            "where": {column: _source_json(value) for column, value in source.keys},
        }}
    return None


def predicate_json(pred: Pred) -> Any:
    """JSON-serializable form of the IR (stable across runs).

    >>> predicate_json(Atom("eq", OwnColumn("owner_id", "int"),
    ...                     ViewerAttr(("jid",))))
    {'atom': 'eq', 'lhs': {'column': 'owner_id', 'type': 'int', \
'nullable': True}, 'rhs': {'viewer': 'jid'}}
    """
    if isinstance(pred, Const):
        return {"const": pred.value}
    if isinstance(pred, Top):
        return {"top": pred.reason}
    if isinstance(pred, And):
        return {"and": [predicate_json(item) for item in pred.items]}
    if isinstance(pred, Or):
        return {"or": [predicate_json(item) for item in pred.items]}
    if isinstance(pred, Not):
        return {"not": predicate_json(pred.item)}
    if isinstance(pred, Atom):
        out: Dict[str, Any] = {"atom": pred.op, "lhs": _source_json(pred.lhs)}
        if pred.rhs is not None or pred.op not in (
            "is-null", "not-null", "truthy"
        ):
            out["rhs"] = _source_json(pred.rhs)
        return out
    return {"top": "unserializable"}


# ---------------------------------------------------------------------------
# Satisfiability (sound in the unsat direction only)
# ---------------------------------------------------------------------------

#: A literal is an atom with a polarity; negative literals only survive NNF
#: for ops without an exact negation (prefix, truthy).
_Literal = Tuple[bool, Atom]


def _nnf(pred: Pred, negate: bool) -> Pred:
    if isinstance(pred, Const):
        return Const(pred.value != negate)
    if isinstance(pred, Top):
        return pred
    if isinstance(pred, Not):
        return _nnf(pred.item, not negate)
    if isinstance(pred, And):
        items = tuple(_nnf(item, negate) for item in pred.items)
        return Or(items) if negate else And(items)
    if isinstance(pred, Or):
        items = tuple(_nnf(item, negate) for item in pred.items)
        return And(items) if negate else Or(items)
    assert isinstance(pred, Atom)
    if negate and pred.op in _NEG:
        return Atom(_NEG[pred.op], pred.lhs, pred.rhs)
    return Not(pred) if negate else pred


def _dnf(pred: Pred) -> Optional[List[List[Pred]]]:
    """Lists of literal lists; ``None`` when the expansion exceeds the cap.

    Literals are Atom, Not(Atom), Top, or Const nodes.
    """
    if isinstance(pred, Or):
        conjuncts: List[List[Pred]] = []
        for item in pred.items:
            sub = _dnf(item)
            if sub is None:
                return None
            conjuncts.extend(sub)
            if len(conjuncts) > DNF_LIMIT:
                return None
        return conjuncts
    if isinstance(pred, And):
        conjuncts = [[]]
        for item in pred.items:
            sub = _dnf(item)
            if sub is None:
                return None
            conjuncts = [left + right for left in conjuncts for right in sub]
            if len(conjuncts) > DNF_LIMIT:
                return None
        return conjuncts
    return [[pred]]


def _source_key(source: Optional[Source]) -> Optional[str]:
    if isinstance(source, OwnColumn):
        return f"col:{source.column}"
    if isinstance(source, ViewerAttr):
        return "viewer:" + ".".join(source.path)
    if isinstance(source, ViewerSelf):
        return "viewer-self"
    if isinstance(source, RowSelf):
        return "row-self"
    if isinstance(source, GlobalAttr):
        return "global:" + ".".join(source.path)
    return None


def _const(source: Optional[Source]) -> Tuple[bool, Any]:
    if isinstance(source, ConstVal):
        return True, source.value
    return False, None


def _conflicting(a: Atom, b: Atom) -> bool:
    """True only when the two atoms definitely cannot both hold."""
    key = _source_key(a.lhs)
    if key is None or key != _source_key(b.lhs):
        return False
    a_const, a_val = _const(a.rhs)
    b_const, b_val = _const(b.rhs)
    ops = {a.op, b.op}
    try:
        if ops == {"is-null", "not-null"}:
            return True
        if "is-null" in ops:
            other = b if a.op == "is-null" else a
            o_const, o_val = _const(other.rhs)
            if other.op == "eq" and o_const and o_val is not None:
                return True
            if other.op == "in" and o_const and None not in o_val:
                return True
            return False
        if a.op == "eq" and b.op == "eq":
            return a_const and b_const and a_val != b_val
        if ops == {"eq", "ne"}:
            eq, ne = (a, b) if a.op == "eq" else (b, a)
            return eq.rhs == ne.rhs and eq.rhs is not None
        if ops == {"eq", "in"} or ops == {"eq", "not-in"}:
            eq, mem = (a, b) if a.op == "eq" else (b, a)
            e_const, e_val = _const(eq.rhs)
            m_const, m_val = _const(mem.rhs)
            if not (e_const and m_const):
                return False
            inside = e_val in m_val
            return not inside if mem.op == "in" else inside
        if a.op == "in" and b.op == "in":
            if a_const and b_const:
                return not set(a_val) & set(b_val)
            return False
        if ops == {"in", "not-in"}:
            pos, neg = (a, b) if a.op == "in" else (b, a)
            p_const, p_val = _const(pos.rhs)
            n_const, n_val = _const(neg.rhs)
            return p_const and n_const and set(p_val) <= set(n_val)
        range_ops = {"eq", "lt", "le", "gt", "ge"}
        if ops <= range_ops and a_const and b_const:
            low, low_strict = None, False
            high, high_strict = None, False
            for atom, value in ((a, a_val), (b, b_val)):
                if atom.op in ("gt", "ge"):
                    low, low_strict = value, atom.op == "gt"
                elif atom.op in ("lt", "le"):
                    high, high_strict = value, atom.op == "lt"
                else:  # eq acts as both bounds
                    low = high = value
            if low is None or high is None:
                return False
            if low > high:
                return True
            return low == high and (low_strict or high_strict)
    except TypeError:
        return False
    return False


def unsatisfiable(pred: Pred, limit: int = DNF_LIMIT) -> Optional[List[Atom]]:
    """Offending atoms when the predicate can never hold, else ``None``.

    Sound in one direction only: a non-``None`` result means *definitely*
    unsatisfiable; ``None`` means satisfiable **or** unknown (TOP subtrees,
    expansion over ``limit`` conjuncts, or incomparable constants).
    """
    norm = normalize(pred)
    if isinstance(norm, Const):
        return [] if not norm.value else None
    conjuncts = _dnf(_nnf(norm, False))
    if conjuncts is None or not conjuncts:
        return None
    offending: List[Atom] = []
    for conjunct in conjuncts:
        if any(isinstance(lit, Top) for lit in conjunct):
            return None
        if any(isinstance(lit, Const) and lit.value for lit in conjunct):
            return None
        witnesses: Optional[Tuple[Atom, ...]] = None
        if any(isinstance(lit, Const) and not lit.value for lit in conjunct):
            witnesses = ()
        atoms = [lit for lit in conjunct if isinstance(lit, Atom)]
        negated = [lit.item for lit in conjunct if isinstance(lit, Not)]
        if witnesses is None:
            for i, first in enumerate(atoms):
                if witnesses is not None:
                    break
                if first in negated:
                    witnesses = (first,)
                    break
                for second in atoms[i + 1:]:
                    if _conflicting(first, second):
                        witnesses = (first, second)
                        break
        if witnesses is None:
            return None  # this conjunct may be satisfiable
        for atom in witnesses:
            if atom not in offending:
                offending.append(atom)
    return offending
