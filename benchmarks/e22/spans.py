"""Span recorders installed on instances, from outside the program.

The benchmark may not edit ``src/``, so a layer boundary is recorded by
shadowing a bound method on one *instance* with a wrapper that notes
name, start, end and the span that was open when it started.  The load
generator is one thread, so "the span that caused it" is the top of a
stack.  Spans stay in memory until the run ends.

A layer's **self time** is its spans' duration minus the part their
direct children cover.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

__all__ = ["SpanRecorder", "self_times", "root_coverage"]

#: One finished span: (name, start, end, parent index or -1).
Span = tuple[str, float, float, int]


class SpanRecorder:
    """Records well-nested spans around patched instance methods.

    Spans are kept as four flat arrays rather than a list of tuples: a
    run records a few hundred thousand of them, and that many live
    container objects would make the cyclic collector — and so the
    traced program — measurably slower.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._names: list[str] = []
        self._name_ids = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str]] = []

    @property
    def spans(self) -> list[Span]:
        """Every finished span, in the order they started."""
        return [
            (self._names[name_id], start, end, parent)
            for name_id, start, end, parent
            in zip(self._name_ids, self._starts, self._ends, self._parents)
        ]

    # -- recording -----------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        name_ids, starts, ends, parents = (
            self._name_ids, self._starts, self._ends, self._parents
        )
        stack, clock = self._stack, self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def install(self, target: Any, attribute: str, name: str) -> None:
        """Shadow ``target.attribute`` on the instance with a traced
        wrapper; :meth:`restore` removes the shadow again."""
        if attribute in vars(target):
            raise RuntimeError(
                f"{type(target).__name__}.{attribute} is already patched"
            )
        setattr(target, attribute, self.wrap(name, getattr(target, attribute)))
        self._patched.append((target, attribute))

    def restore(self) -> None:
        """Remove every instance shadow this recorder installed."""
        while self._patched:
            target, attribute = self._patched.pop()
            delattr(target, attribute)

    # -- output --------------------------------------------------------------
    def dump(self, path: Path, **header: Any) -> None:
        """Write the spans (times relative to the first start) as JSON."""
        spans = self.spans
        origin = spans[0][1] if spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [name, round(start - origin, 7),
                         round(end - origin, 7), parent]
                        for name, start, end, parent in spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def self_times(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: ``(calls, total seconds, self seconds)``."""
    child_cover = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_cover[parent] += end - start
    out: dict[str, tuple[int, float, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        duration = end - start
        out[name] = (
            calls + 1, total + duration, own + duration - child_cover[index]
        )
    return out


def root_coverage(spans: list[Span]) -> float:
    """Seconds inside any span (root spans do not overlap)."""
    return sum(end - start for _n, start, end, parent in spans if parent < 0)
