"""Compiled predicate execution: lower ``Expr`` trees to one closure.

``Expr.eval`` walks an :class:`~repro.rdb.predicate.Expr` tree per row
— five to ten Python method calls and dict hops for a two-term
conjunction.  This module lowers a tree to a **single Python function**
and pays :func:`compile` exactly once per statement *shape*:

* the tree is rendered to the source of one function
  (``def _compiled_batch(rows): return [r for r in rows if ...]``, the
  loop and the test in one comprehension) in which every value is a
  parameter ``_c<n>``: literals (all but ``None``/``True``/``False``,
  which select the emitted form), frozensets, regex ``match`` methods,
  an :class:`~repro.rdb.predicate.Apply` node's opaque callable, the
  bound ``eval`` of an ``Expr`` subclass this module never heard of;
* that text holds no value, so it *is* the shape — whatever the codegen
  specialises on is in it by construction.  One bounded module-level
  store maps it to a factory ``def _factory(_c0, ...)`` compiled once;
  every later statement of the shape is emit, one dict hit and
  ``factory(*consts)``.  Literal values never reach :func:`compile`.

A grouped aggregate is one more shape in the same store
(:func:`grouped_form`): the WHERE test, the group key and the gathering
of each group's column values in one loop, and the fold of each group
into its output row in one comprehension.

Semantics are bit-identical to ``Expr.eval`` — both operands of a
comparison are evaluated before the SQL null check (a missing column
raises KeyError from either side, exactly as the interpreter does),
boolean connectives short-circuit exactly as the interpreter does, and
hashability / type-mismatch errors surface identically.  A Hypothesis
differential suite (``tests/rdb/test_compile_properties.py``) pins this
equivalence, across literal assignments sharing one compiled shape.

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

from textwrap import indent
from typing import Any, Callable, Collection, Iterable, Mapping

from repro.obs.instrument import OBS, Instrument
from repro.rdb import predicate as _p

__all__ = [
    "DEFAULT_BATCH",
    "batch_filter",
    "grouped_form",
    "cache_stats",
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

#: Shapes the store holds before it is cleared and refilled.  A front end
#: is a handful of shapes (each E22 workload compiles 3 to 6) and one
#: costs a ~70 us ``compile()`` to get back, so the bound only has to
#: stop machine-generated trees from growing the process without limit.
_MAX_SHAPES = 256

#: generated text -> ``_factory``; the text is the statement shape.
_FACTORIES: dict[str, Callable[..., Callable]] = {}
_STATS = {"hits": 0, "misses": 0, "evictions": 0}

COMPILES = Instrument("counter", "rdb.compile", "outcome", values=("hit", "miss"))

#: Loop and predicate fused into one list comprehension: no call frame
#: per row, no iterator adapters.  The form the scan path uses.
_BATCH_FORM = "def _compiled_batch(rows):\n    return [r for r in rows if {}]\n"
#: A grouped aggregate as two functions of one shape.  The first fuses
#: filter, group key and per-column appends into one loop: every
#: matching row's aggregated values go straight onto its group's lists.
#: The second folds each group, in key order, into its output row.  With
#: no WHERE the test is ``if True:``, which the compiler drops.
_GROUP_FORM = (
    "def _compiled_group(rows):\n"
    "    groups = {{}}\n"
    "    get = groups.get\n"
    "    for r in rows:\n"
    "        if {where}:\n"
    "            k = {key}\n"
    "            g = get(k)\n"
    "            if g is None:\n"
    "                g = groups[k] = ({empties})\n"
    "{appends}"
    "{no_rows}"
    "    return groups\n"
    "def _compiled_fold(groups):\n"
    "    return [{{{fields}}} for k in {order}(groups)"
    " for {lists} in (groups[k],){strip}]\n"
)
_APPEND = "            g[{}].append({})\n"
#: With no GROUP BY, no matching row still makes one (empty) group.
_NO_ROWS = "    if not groups:\n        groups[()] = ({})\n"
#: One group's non-null values of list ``l<n>``, a copy only if needed
#: (a one-element ``for`` in a comprehension is a plain assignment).
_STRIP = " for s{0} in (l{0} if None not in l{0} else [v for v in l{0} if v is not None],)"


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


def _null_first(value: Any) -> tuple[bool, Any]:
    return (value is not None, value)


def _single_key_order(groups: dict[Any, Any]) -> list[Any]:
    """Bare group keys in order, ``None`` first.  Without a ``None`` key
    every ``(is-not-None, value)`` pair is ``(True, v)`` and orders
    exactly as the bare key, so the pairs are built only for one."""
    if None in groups:
        return sorted(groups, key=_null_first)
    return sorted(groups)


def _tuple_key_order(groups: dict[tuple, Any]) -> list[tuple]:
    """Tuple group keys in order, ``None`` first in every position."""
    if any(None in key for key in groups):
        return sorted(groups, key=lambda key: tuple(map(_null_first, key)))
    return sorted(groups)


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

    Every value the tree carries — literals, frozensets, regex match
    methods, helper functions, opaque callables — is hoisted into
    ``consts`` and named ``_c<n>`` in the text, in emission order; the
    generated function takes them as its factory's parameters.
    """

    def __init__(self) -> None:
        self.consts: list[Any] = []
        self._temps = 0

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"_c{len(self.consts) - 1}"

    def key(self, name: Any) -> str:
        """Source for a column or output name: a ``str`` is inlined, as
        a column reference's is; any other key is a parameter."""
        return repr(name) if type(name) is str else self.const(name)

    def column(self, name: Any) -> str:
        """Source for the value of column ``name`` of row ``r``."""
        return f"r[{self.key(name)}]"

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    # -- value rendering ---------------------------------------------------
    def value(self, value: Any) -> str:
        """Source for a literal: a parameter, so the text stays free of
        values.  ``None``/``True``/``False`` alone are inlined — they
        select the emitted form (``1`` and ``True`` are equal and hash
        alike, but only one of them is a bool operand)."""
        if value is None or value is True or value is False:
            return repr(value)
        return self.const(value)

    # -- node rendering ----------------------------------------------------
    def emit(self, node: _p.Expr) -> str:
        if isinstance(node, _p.ColumnRef):
            return self.column(node.name)
        if isinstance(node, _p.Compare):
            return self._emit_compare(node)
        if isinstance(node, _p.And):
            return (
                f"({self.emit_bool(node.left)} and {self.emit_bool(node.right)})"
            )
        if isinstance(node, _p.Literal):
            return f"({self.value(node.value)})"
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


def _instantiate(name: str, source: str, consts: list[Any]) -> Any:
    """The function ``name`` that ``source`` defines (a tuple of them
    for ``"f, g"``), closed over ``consts``: ``compile()`` for the first
    statement of a shape, a dict hit and one call of the shape's factory
    for every later one."""
    factory = _FACTORIES.get(source)
    if factory is not None:
        outcome = "hit"
        _STATS["hits"] += 1
    else:
        outcome = "miss"
        _STATS["misses"] += 1
        if len(_FACTORIES) >= _MAX_SHAPES:
            _STATS["evictions"] += len(_FACTORIES)
            _FACTORIES.clear()
        params = ", ".join(f"_c{n}" for n in range(len(consts)))
        code = compile(
            f"def _factory({params}):\n{indent(source, '    ')}"
            f"    return {name}\n",
            "<rdb.compile>", "exec",
        )
        namespace: dict[str, Any] = {"__builtins__": _SAFE_BUILTINS}
        exec(code, namespace)
        factory = _FACTORIES[source] = namespace["_factory"]
    if OBS.enabled:
        COMPILES[outcome].inc()
    return factory(*consts)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------
def batch_filter(expr: _p.Expr) -> Callable[[list], list]:
    """A compiled batch filter: ``fn(rows) -> [row for row in rows if expr]``."""
    gen = _Codegen()
    return _instantiate(
        "_compiled_batch", _BATCH_FORM.format(gen.emit_bool(expr)), gen.consts
    )


def grouped_form(
    where: _p.Expr | None,
    group_by: tuple[Any, ...],
    aggregates: list[tuple[Any, Callable[[list[Any]], Any], Any]],
    never_null: Collection[Any] = (),
) -> tuple[Callable[[Iterable[Mapping[Any, Any]]], dict], Callable[[dict], list]]:
    """A compiled grouped aggregate: ``(group, fold)``.

    ``group(rows)`` puts each row that satisfies ``where`` in its group
    and appends its value of each aggregated column, nulls included, to
    the group's list for that column.  ``fold(groups)`` is one output
    row per group in key order (``None`` first): the ``group_by``
    values, then per ``(name, function, column)`` of ``aggregates`` the
    function over the group's non-null values of ``column`` (of a
    ``never_null`` column, all of them), or over its rows for no column.

    The key is the bare value for one ``group_by`` column, a tuple for
    several, ``()`` for none (an empty input is then one empty group);
    the first of several equal keys (``1``, ``True``, ``1.0``) names its
    group.  A row lacking a group or aggregated column raises
    :class:`KeyError` as it is read; the filter raises what
    ``where.eval`` would.
    """
    gen = _Codegen()
    # One list per distinct column; the rows themselves only for a
    # function other than count over no column, or when no column is
    # aggregated at all.  Every list has a group's length: count(*).
    slots: dict[Any, int] = {}
    for _name, function, column in aggregates:
        if column is not None or function is not len:
            slots.setdefault(column, len(slots))
    if not slots:
        slots[None] = 0
    empties = "[]," * len(slots)
    keys = [gen.column(name) for name in group_by]
    where_code = "True" if where is None else gen.emit_bool(where)
    if len(group_by) == 1:
        fields = [f"{gen.key(group_by[0])}: k"]
    else:
        fields = [f"{gen.key(name)}: k[{i}]" for i, name in enumerate(group_by)]
    stripped = set()
    for name, function, column in aggregates:
        if column is None:
            values = f"l{slots.get(None, 0)}"
        elif column in never_null:
            values = f"l{slots[column]}"
        else:
            stripped.add(slots[column])
            values = f"s{slots[column]}"
        fields.append(f"{gen.key(name)}: {gen.const(function)}({values})")
    order = gen.const(_single_key_order if len(group_by) == 1 else _tuple_key_order)
    source = _GROUP_FORM.format(
        where=where_code,
        key=keys[0] if len(keys) == 1 else f"({', '.join(keys)})",
        empties=empties,
        appends="".join(
            _APPEND.format(n, "r" if column is None else gen.column(column))
            for column, n in slots.items()
        ),
        no_rows="" if group_by else _NO_ROWS.format(empties),
        order=order,
        lists="".join(f"l{n}," for n in slots.values()),
        strip="".join(_STRIP.format(n) for n in sorted(stripped)),
        fields=", ".join(fields),
    )
    return _instantiate("_compiled_group, _compiled_fold", source, gen.consts)


def cache_stats() -> dict[str, int]:
    """What the shape store did: shapes held, statements served by a
    stored factory (hits), ``compile()`` calls (misses), shapes dropped
    at the bound (evictions)."""
    return {"shapes": len(_FACTORIES), **_STATS}
