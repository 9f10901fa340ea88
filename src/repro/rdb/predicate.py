"""A composable predicate / expression mini-language.

Queries filter rows with expression trees built from :func:`col` and
:func:`lit`::

    from repro.rdb import col

    where = (col("author") == "shih") & (col("version") >= 2)
    rows = db.select("scripts", where=where)

Expressions support comparisons, boolean algebra (``&``, ``|``, ``~``),
``is_null``/``not_null``, ``isin``, ``between``, ``like`` (SQL ``%``/``_``
wildcards) and ``contains`` for JSON list columns.  Evaluation is
null-aware in the SQL sense: comparisons against ``None`` are false
rather than raising.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, Iterable

__all__ = [
    "Expr",
    "col",
    "lit",
    "RangeBound",
    "conjunct_bindings",
    "predicate_cache_key",
]


class Expr:
    """A node in a predicate expression tree.

    Subclasses implement :meth:`eval` over a row mapping and
    :meth:`columns` for planner use (index selection inspects equality
    predicates on indexed columns).
    """

    def eval(self, row: dict[str, Any]) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def columns(self) -> frozenset[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- boolean algebra -------------------------------------------------
    def __and__(self, other: "Expr") -> "Expr":
        return And(self, _as_expr(other))

    def __or__(self, other: "Expr") -> "Expr":
        return Or(self, _as_expr(other))

    def __invert__(self) -> "Expr":
        return Not(self)

    # -- comparisons -----------------------------------------------------
    def __eq__(self, other: object) -> "Expr":  # type: ignore[override]
        return Compare(self, _as_expr(other), "==")

    def __ne__(self, other: object) -> "Expr":  # type: ignore[override]
        return Compare(self, _as_expr(other), "!=")

    def __lt__(self, other: object) -> "Expr":
        return Compare(self, _as_expr(other), "<")

    def __le__(self, other: object) -> "Expr":
        return Compare(self, _as_expr(other), "<=")

    def __gt__(self, other: object) -> "Expr":
        return Compare(self, _as_expr(other), ">")

    def __ge__(self, other: object) -> "Expr":
        return Compare(self, _as_expr(other), ">=")

    # -- SQL-ish extras ----------------------------------------------------
    def is_null(self) -> "Expr":
        return IsNull(self, expect_null=True)

    def not_null(self) -> "Expr":
        return IsNull(self, expect_null=False)

    def isin(self, values: Iterable[Any]) -> "Expr":
        return In(self, frozenset(values))

    def between(self, low: Any, high: Any) -> "Expr":
        """Inclusive range check, null-aware."""
        return (self >= low) & (self <= high)

    def like(self, pattern: str) -> "Expr":
        """SQL LIKE with ``%`` (any run) and ``_`` (single char)."""
        return Like(self, pattern)

    def contains(self, item: Any) -> "Expr":
        """Membership test for JSON-list or text columns."""
        return Contains(self, item)

    def apply(self, fn: Callable[[Any], Any], label: str = "apply") -> "Expr":
        """Escape hatch: arbitrary function of this expression's value."""
        return Apply(self, fn, label)

    # Exprs are structural; using == for comparison building means they
    # must hash by identity so they can live in sets during planning.
    def __hash__(self) -> int:  # pragma: no cover - trivial
        return id(self)

    def __bool__(self) -> bool:
        raise TypeError(
            "Expr has no truth value; combine predicates with & | ~ "
            "(not `and`/`or`/`not`)"
        )


class ColumnRef(Expr):
    """Reference to a column's value in the row under evaluation."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def eval(self, row: dict[str, Any]) -> Any:
        return row[self.name]

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expr):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def eval(self, row: dict[str, Any]) -> Any:
        return self.value

    def columns(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Compare(Expr):
    """Binary comparison; SQL-style null semantics (null compares false,
    except ``!=`` where a single null yields true only if the other side
    is non-null... we keep it simple: any null operand makes the
    comparison false, matching SQL's UNKNOWN treated as not-matching)."""

    __slots__ = ("left", "right", "op")

    def __init__(self, left: Expr, right: Expr, op: str) -> None:
        self.left = left
        self.right = right
        self.op = op

    def eval(self, row: dict[str, Any]) -> bool:
        a = self.left.eval(row)
        b = self.right.eval(row)
        if a is None or b is None:
            return False
        return _OPS[self.op](a, b)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def eval(self, row: dict[str, Any]) -> bool:
        return bool(self.left.eval(row)) and bool(self.right.eval(row))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


class Or(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def eval(self, row: dict[str, Any]) -> bool:
        return bool(self.left.eval(row)) or bool(self.right.eval(row))

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


class Not(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr) -> None:
        self.inner = inner

    def eval(self, row: dict[str, Any]) -> bool:
        return not bool(self.inner.eval(row))

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"~{self.inner!r}"


class IsNull(Expr):
    __slots__ = ("inner", "expect_null")

    def __init__(self, inner: Expr, expect_null: bool) -> None:
        self.inner = inner
        self.expect_null = expect_null

    def eval(self, row: dict[str, Any]) -> bool:
        return (self.inner.eval(row) is None) == self.expect_null

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        suffix = "is_null" if self.expect_null else "not_null"
        return f"{self.inner!r}.{suffix}()"


class In(Expr):
    __slots__ = ("inner", "values")

    def __init__(self, inner: Expr, values: frozenset) -> None:
        self.inner = inner
        self.values = values

    def eval(self, row: dict[str, Any]) -> bool:
        value = self.inner.eval(row)
        if value is None:
            return False
        try:
            return value in self.values
        except TypeError:
            return False

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.inner!r}.isin({sorted(map(repr, self.values))})"


class Like(Expr):
    __slots__ = ("inner", "pattern", "_regex")

    def __init__(self, inner: Expr, pattern: str) -> None:
        self.inner = inner
        self.pattern = pattern
        self._regex = _like_to_regex(pattern)

    def eval(self, row: dict[str, Any]) -> bool:
        value = self.inner.eval(row)
        if not isinstance(value, str):
            return False
        return self._regex.match(value) is not None

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.inner!r}.like({self.pattern!r})"


class Contains(Expr):
    __slots__ = ("inner", "item")

    def __init__(self, inner: Expr, item: Any) -> None:
        self.inner = inner
        self.item = item

    def eval(self, row: dict[str, Any]) -> bool:
        value = self.inner.eval(row)
        if value is None:
            return False
        try:
            return self.item in value
        except TypeError:
            return False

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.inner!r}.contains({self.item!r})"


class Apply(Expr):
    __slots__ = ("inner", "fn", "label")

    def __init__(self, inner: Expr, fn: Callable[[Any], Any], label: str) -> None:
        self.inner = inner
        self.fn = fn
        self.label = label

    def eval(self, row: dict[str, Any]) -> Any:
        return self.fn(self.inner.eval(row))

    def columns(self) -> frozenset[str]:
        return self.inner.columns()

    def __repr__(self) -> str:
        return f"{self.inner!r}.apply(<{self.label}>)"


@functools.lru_cache(maxsize=256)
def _like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern to an anchored regex.

    Cached: statements are often rebuilt with the same LIKE pattern
    (templated queries, retried requests), and ``re.compile`` dwarfs
    the cost of constructing the rest of the expression tree.
    """
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out) + r"\Z", re.DOTALL)


def col(name: str) -> ColumnRef:
    """Reference a column by name in a predicate expression."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Wrap a constant in a predicate expression."""
    return Literal(value)


def _as_expr(value: object) -> Expr:
    return value if isinstance(value, Expr) else Literal(value)


class RangeBound:
    """Accumulated comparison bounds on one column, from top-level
    AND conjuncts.  ``conjuncts`` records the source comparisons (as
    reprs) for EXPLAIN output."""

    __slots__ = ("column", "low", "high", "include_low", "include_high",
                 "conjuncts")

    def __init__(self, column: str) -> None:
        self.column = column
        self.low: Any = None
        self.high: Any = None
        self.include_low = True
        self.include_high = True
        self.conjuncts: list[str] = []

    def narrow_low(self, value: Any, inclusive: bool, conjunct: str) -> None:
        if self.low is None or value > self.low or (
            value == self.low and not inclusive
        ):
            self.low = value
            self.include_low = inclusive
        self.conjuncts.append(conjunct)

    def narrow_high(self, value: Any, inclusive: bool, conjunct: str) -> None:
        if self.high is None or value < self.high or (
            value == self.high and not inclusive
        ):
            self.high = value
            self.include_high = inclusive
        self.conjuncts.append(conjunct)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo = "(" if not self.include_low else "["
        hi = ")" if not self.include_high else "]"
        return f"RangeBound({self.column}: {lo}{self.low!r}, {self.high!r}{hi})"


# op -> (is_lower_bound, inclusive), as seen with the column on the LEFT.
_RANGE_OPS = {
    ">": (True, False),
    ">=": (True, True),
    "<": (False, False),
    "<=": (False, True),
}
# Flip when the literal is on the left (``lit(5) < col("x")`` == ``x > 5``).
_FLIPPED = {">": "<", ">=": "<=", "<": ">", "<=": ">="}


def conjunct_bindings(
    expr: Expr,
) -> tuple[dict[str, Any], list[tuple[str, frozenset]], dict[str, RangeBound]]:
    """Everything the top-level AND chain pins down, in one walk:
    ``(equalities, memberships, bounds)``.

    * ``equalities`` — ``column == literal`` bindings (either side);
    * ``memberships`` — ``(column, values)`` per ``column.isin(values)``;
    * ``bounds`` — per-column :class:`RangeBound` from ``column <op>
      literal`` for ``<``, ``<=``, ``>``, ``>=`` (a BETWEEN-shaped pair
      tightens both ends; ``None`` literals compare false everywhere
      and are skipped).

    Only conjunctions are walked — an OR branch can't guarantee that a
    binding holds.  The planner turns each into an index candidate; a
    candidate set is a superset of the matching rows, so the residual
    filter preserves exactness.
    """
    equalities: dict[str, Any] = {}
    memberships: list[tuple[str, frozenset]] = []
    bounds: dict[str, RangeBound] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Compare):
            left, right = node.left, node.right
            if isinstance(left, ColumnRef) and isinstance(right, Literal):
                column, value, op = left.name, right.value, node.op
            elif isinstance(right, ColumnRef) and isinstance(left, Literal):
                column, value = right.name, left.value
                op = _FLIPPED.get(node.op, node.op)
            else:
                continue
            if op == "==":
                equalities[column] = value
            elif op in _RANGE_OPS and value is not None:
                bound = bounds.get(column)
                if bound is None:
                    bound = bounds[column] = RangeBound(column)
                is_lower, inclusive = _RANGE_OPS[op]
                conjunct = f"{column} {op} {value!r}"
                if is_lower:
                    bound.narrow_low(value, inclusive, conjunct)
                else:
                    bound.narrow_high(value, inclusive, conjunct)
        elif isinstance(node, In) and isinstance(node.inner, ColumnRef):
            memberships.append((node.inner.name, node.values))
    return equalities, memberships, bounds


def predicate_cache_key(expr: Expr | None) -> str | None:
    """A stable structural key for result caching, or ``None`` when the
    predicate embeds opaque callables (:class:`Apply`) and therefore
    cannot be keyed safely.

    Two structurally identical trees produce the same key; reprs of
    every node type are deterministic (``In`` sorts its value reprs).
    """
    if expr is None:
        return ""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Apply):
            return None
        for slot in getattr(type(node), "__slots__", ()):
            child = getattr(node, slot, None)
            if isinstance(child, Expr):
                stack.append(child)
    return repr(expr)
