"""Spans around calls into each qpusched module, recorded from outside.

The engine imports its collaborators by name and ``allocate`` looks up
``grow_region`` and ``resolve_conflict`` as module globals, so wrapping
means replacing those names in ``qpusched.engine`` and
``qpusched.allocator`` for the duration of a traced simulation.
``priority_key`` is deliberately not wrapped: it runs hundreds of
thousands of times per simulation and a wrapper would dominate it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import qpusched.allocator
import qpusched.engine

# (module, attribute, span name)
WRAPPED = (
    (qpusched.engine, "order_queue", "scheduler.order"),
    (qpusched.engine, "preemption_decision", "scheduler.preempt"),
    (qpusched.engine, "select_prefix", "merger.prefix"),
    (qpusched.engine, "group_by_exec_time", "merger.group"),
    (qpusched.engine, "allocate", "allocator.allocate"),
    (qpusched.allocator, "grow_region", "allocator.grow"),
    (qpusched.allocator, "resolve_conflict", "allocator.resolve"),
    (qpusched.engine, "compute_report", "metrics.report"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    sim: int
    work: tuple[int, ...] = ()  # layer-specific counts, see _work


def _work(name: str, args, result) -> tuple[int, ...]:
    if name == "scheduler.order":
        return (len(args[1]),)  # queue length sorted
    if name == "merger.group":
        return (len(result), len(args[0]))  # groups formed, jobs grouped
    if name == "allocator.grow":
        return (int(result.ok),)
    return ()


class Tracer:
    """Keeps spans in memory; ``wrapped()`` installs the recording wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.sim = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed code as one span, nested under the open one."""
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, time.perf_counter(), 0.0, parent, self.sim)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            s.work = _work(name, args, result)
            return result

        return wrapper

    @contextmanager
    def wrapped(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in WRAPPED]
        try:
            for mod, attr, name in WRAPPED:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out
