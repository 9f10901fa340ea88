"""Reference implementations the batched executor is judged against.

``repro.rdb`` has one executor; what it must agree with lives here, in
the tests, not behind a switch in ``src/``.  The naive scan oracle is a
one-liner over ``Expr.eval`` and is written inline where it is used;
the hash join below is the seed (pre-vectorization) ``join_rows``,
moved here verbatim in PR 13.  ``bench_e19`` times the vectorized join
against this same function.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def _reference_join(
    left_rows: Iterable[dict[str, Any]],
    right_rows: Iterable[dict[str, Any]],
    on: Sequence[tuple[str, str]],
    *,
    left_prefix: str = "l",
    right_prefix: str = "r",
    kind: str = "inner",
) -> list[dict[str, Any]]:
    right_list = list(right_rows)
    buckets: dict[tuple, list[dict[str, Any]]] = {}
    for row in right_list:
        key = tuple(row[rc] for _lc, rc in on)
        buckets.setdefault(key, []).append(row)
    right_columns: set[str] = set()
    for row in right_list:
        right_columns.update(row)
    out: list[dict[str, Any]] = []
    for left in left_rows:
        key = tuple(left[lc] for lc, _rc in on)
        matches = buckets.get(key, []) if None not in key else []
        if matches:
            for right in matches:
                merged = {f"{left_prefix}.{k}": v for k, v in left.items()}
                merged.update({f"{right_prefix}.{k}": v for k, v in right.items()})
                out.append(merged)
        elif kind == "left":
            merged = {f"{left_prefix}.{k}": v for k, v in left.items()}
            merged.update({f"{right_prefix}.{k}": None for k in right_columns})
            out.append(merged)
    return out
