"""Compiled predicate execution: lower ``Expr`` trees to one closure.

``Expr.eval`` walks an :class:`~repro.rdb.predicate.Expr` tree per row
— five to ten Python method calls and dict hops for a two-term
conjunction.  This module lowers a tree to a **single Python function**
exactly once per statement:

* the tree is rendered to the source of one function body
  (``def _compiled(r): return ...``) and compiled with
  :func:`compile`/``exec`` so the per-row cost collapses to one call
  frame plus inline comparisons;
* what has no source form — an :class:`~repro.rdb.predicate.Apply`
  node's opaque callable, the bound ``eval`` of an ``Expr`` subclass
  this module has never heard of — is hoisted into the generated
  function's namespace as a constant and called from the source, the
  same way frozensets and regex ``match`` methods are.

Compiled callables are cached on the expression instance, so repeated
statements over the same predicate pay compilation once.  Semantics are
bit-identical to ``Expr.eval`` — both operands of a comparison are
evaluated before the SQL null check (a missing column raises KeyError
from either side, exactly as the interpreter does), boolean connectives
short-circuit exactly as the interpreter does, and hashability /
type-mismatch errors surface identically.  A Hypothesis differential
suite (``tests/rdb/test_compile_properties.py``) pins this equivalence.

Generated code runs under a restricted ``__builtins__`` whitelist
(:data:`_SAFE_BUILTINS`) so a compiled predicate can never capture I/O
or nondeterministic builtins; the ``codegen-namespace`` lint rule audits
this module for exactly that property.

This is the only executor: ``Expr.eval`` stays in
:mod:`repro.rdb.predicate` as the definition of the semantics and as the
oracle the test suites judge this module against, but nothing under
``src/`` runs a statement through it.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.rdb import predicate as _p

__all__ = [
    "DEFAULT_BATCH",
    "compiled_predicate",
    "batch_filter",
    "predicate_fn",
    "compiled_source",
]

#: Rows pulled (and filtered) per batch by the vectorized executor.
DEFAULT_BATCH = 256

#: The only builtins generated code may reference.  Deliberately tiny:
#: no import machinery, no I/O, no reflection, no entropy sources.  The
#: ``codegen-namespace`` lint rule fails the build if this whitelist
#: ever grows a banned name.
_SAFE_BUILTINS: dict[str, Any] = {
    "bool": bool,
    "isinstance": isinstance,
    "str": str,
}

_COMPILED_ATTR = "_rdb_compiled"
_BATCH_ATTR = "_rdb_batch_filter"
_SOURCE_ATTR = "_rdb_compile_source"


# ---------------------------------------------------------------------------
# Runtime helpers hoisted into generated namespaces.  Exact twins of the
# interpreted null/TypeError semantics in repro.rdb.predicate.
# ---------------------------------------------------------------------------
def _in_check(value: Any, values: frozenset) -> bool:
    if value is None:
        return False
    try:
        return value in values
    except TypeError:
        return False


def _contains_check(value: Any, item: Any) -> bool:
    if value is None:
        return False
    try:
        return item in value
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# Codegen
# ---------------------------------------------------------------------------
#: Node types whose emitted source is guaranteed boolean-valued, so a
#: boolean context (AND/OR operand) can skip the ``bool()`` wrap the
#: interpreter applies — the wrap only matters for value-typed subtrees
#: (bare columns/literals), where truthiness must collapse to a bool.
_BOOL_TYPED = (
    _p.Compare,
    _p.And,
    _p.Or,
    _p.Not,
    _p.IsNull,
    _p.In,
    _p.Like,
    _p.Contains,
)

#: Literal types for which ``value == None``-style reflected comparison
#: is guaranteed False, letting ``==`` against such a literal skip the
#: explicit null guard (``None == lit`` is False either way).
_PLAIN_LITERALS = (bool, int, float, str, bytes, tuple, list, dict, frozenset, set)


class _Codegen:
    """Renders one Expr tree to a Python expression string.

    Non-inlinable values (frozensets, regex match methods, helper
    functions, opaque callables, floats — ``repr(inf)`` is not valid
    source) are hoisted into the namespace the generated function is
    exec'd under.
    """

    def __init__(self) -> None:
        self.consts: dict[str, Any] = {}
        self._temps = 0

    def const(self, value: Any) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    # -- value rendering ---------------------------------------------------
    def value(self, value: Any) -> str:
        """Literal source for ``value``: inline when repr round-trips."""
        if value is None or value is True or value is False:
            return repr(value)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return repr(value)
        return self.const(value)

    # -- node rendering ----------------------------------------------------
    def emit(self, node: _p.Expr) -> str:
        if isinstance(node, _p.ColumnRef):
            return f"r[{node.name!r}]"
        if isinstance(node, _p.Literal):
            return f"({self.value(node.value)})"
        if isinstance(node, _p.Compare):
            return self._emit_compare(node)
        if isinstance(node, _p.And):
            return (
                f"({self.emit_bool(node.left)} and {self.emit_bool(node.right)})"
            )
        if isinstance(node, _p.Or):
            return (
                f"({self.emit_bool(node.left)} or {self.emit_bool(node.right)})"
            )
        if isinstance(node, _p.Not):
            return f"(not {self.emit(node.inner)})"
        if isinstance(node, _p.IsNull):
            test = "is" if node.expect_null else "is not"
            return f"(({self.emit(node.inner)}) {test} None)"
        if isinstance(node, _p.In):
            helper = self.const(_in_check)
            values = self.const(node.values)
            return f"{helper}({self.emit(node.inner)}, {values})"
        if isinstance(node, _p.Like):
            match = self.const(node._regex.match)
            temp = self.temp()
            return (
                f"(isinstance(({temp} := {self.emit(node.inner)}), str)"
                f" and {match}({temp}) is not None)"
            )
        if isinstance(node, _p.Contains):
            helper = self.const(_contains_check)
            item = self.const(node.item)
            return f"{helper}({self.emit(node.inner)}, {item})"
        if isinstance(node, _p.Apply):
            return f"{self.const(node.fn)}({self.emit(node.inner)})"
        # Foreign Expr subclass: its own eval is the only correct semantics.
        return f"{self.const(node.eval)}(r)"

    def emit_bool(self, node: _p.Expr) -> str:
        """Source for ``node`` in a boolean context (AND/OR operand).

        The interpreter wraps operands in ``bool()``; emitted sources of
        boolean-typed nodes already are bools, so the wrap is dropped —
        value-typed subtrees keep it to collapse truthiness.
        """
        code = self.emit(node)
        if isinstance(node, _BOOL_TYPED):
            return code
        return f"bool({code})"

    def _emit_compare(self, node: _p.Compare) -> str:
        left, right, op = node.left, node.right, node.op
        left_lit = isinstance(left, _p.Literal)
        right_lit = isinstance(right, _p.Literal)
        if (left_lit and left.value is None) or (right_lit and right.value is None):
            # A null operand compares false — but the other side must
            # still be evaluated so a missing column raises KeyError
            # exactly as the interpreter's eager operand evaluation does.
            sides = [self.emit(s) for s in (left, right) if not isinstance(s, _p.Literal)]
            if not sides:
                return "(False)"
            evaluated = ", ".join(sides)
            return f"((({evaluated},)) and False)"
        if right_lit and not left_lit:
            if op == "==" and isinstance(right.value, _PLAIN_LITERALS):
                # None == <plain literal> is False, which is exactly the
                # SQL null rule — the explicit guard is redundant.
                return f"(({self.emit(left)}) == {self.value(right.value)})"
            temp = self.temp()
            return (
                f"(({temp} := {self.emit(left)}) is not None"
                f" and ({temp} {op} {self.value(right.value)}))"
            )
        if left_lit and not right_lit:
            if op == "==" and isinstance(left.value, _PLAIN_LITERALS):
                return f"({self.value(left.value)} == ({self.emit(right)}))"
            temp = self.temp()
            return (
                f"(({temp} := {self.emit(right)}) is not None"
                f" and ({self.value(left.value)} {op} {temp}))"
            )
        # General form: evaluate both operands eagerly (left first), then
        # apply the SQL null rule — mirrors Compare.eval to the letter.
        t1, t2 = self.temp(), self.temp()
        return (
            f"(({t1} := {self.emit(left)}), ({t2} := {self.emit(right)}), "
            f"(False if {t1} is None or {t2} is None else ({t1} {op} {t2})))[2]"
        )


def _exec_generated(source: str, consts: dict[str, Any], name: str) -> Callable:
    code = compile(source, "<rdb.compile>", "exec")
    namespace: dict[str, Any] = {"__builtins__": _SAFE_BUILTINS}
    namespace.update(consts)
    exec(code, namespace)
    return namespace[name]


def _codegen(expr: _p.Expr) -> tuple[Callable[[Mapping[str, Any]], Any], str]:
    gen = _Codegen()
    body = gen.emit(expr)
    source = f"def _compiled(r):\n    return {body}\n"
    return _exec_generated(source, gen.consts, "_compiled"), source


def _codegen_batch(expr: _p.Expr) -> tuple[Callable[[list], list], str]:
    """A filter over a whole row batch, loop and predicate fused.

    The predicate is inlined into one list comprehension, so the per-row
    cost is the comparisons themselves — no call frame per row, no
    iterator adapters.  This is the vectorized form the scan path uses.
    """
    gen = _Codegen()
    body = gen.emit_bool(expr)
    source = f"def _compiled_batch(rows):\n    return [r for r in rows if {body}]\n"
    return _exec_generated(source, gen.consts, "_compiled_batch"), source


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def compiled_predicate(expr: _p.Expr) -> Callable[[Mapping[str, Any]], Any]:
    """The compiled closure for ``expr``, built once and cached on it.

    Returns exactly what ``expr.eval(row)`` would for every row,
    including raised exceptions (missing columns, unorderable types).
    """
    cached = getattr(expr, _COMPILED_ATTR, None)
    if cached is not None:
        return cached
    fn, source = _codegen(expr)
    # Expr subclasses declare __slots__ but the base class does not, so
    # instances carry a __dict__ we can cache the closure in.
    setattr(expr, _COMPILED_ATTR, fn)
    setattr(expr, _SOURCE_ATTR, source)
    return fn


def batch_filter(expr: _p.Expr) -> Callable[[list], list]:
    """A compiled batch filter: ``fn(rows) -> [row for row in rows if expr]``.

    Built once per expression and cached on it.
    """
    cached = getattr(expr, _BATCH_ATTR, None)
    if cached is not None:
        return cached
    fn, _source = _codegen_batch(expr)
    setattr(expr, _BATCH_ATTR, fn)
    return fn


def predicate_fn(
    expr: _p.Expr | None,
) -> Callable[[Mapping[str, Any]], Any] | None:
    """The row filter for an optional WHERE: ``None`` for no predicate,
    the compiled closure otherwise."""
    return None if expr is None else compiled_predicate(expr)


def compiled_source(expr: _p.Expr) -> str:
    """Generated source for ``expr``."""
    compiled_predicate(expr)
    return getattr(expr, _SOURCE_ATTR)
