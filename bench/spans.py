"""In-memory span tracer that wraps library functions from outside.

A span records one call of a wrapped function: name, start, end, the span
that caused it, the thread it ran on and the exception it raised, if any.
Spans opened on a worker thread of a patched ``ThreadPoolExecutor`` are
parented to the span that was open on the submitting thread, so work that
``refine_over_particles`` fans out to its cell-build pool stays inside the
refine span.

Self time is a span's duration minus the union of its children's
intervals.  The union, not the sum, because children running on two
worker threads overlap in time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")
    thread: int = 0
    error: Optional[str] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children, each child
    clipped to the parent's interval."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in children[s.id])
        out[s.id] = s.duration - covered
    return out


def descendants(spans, root_id: int) -> list:
    """Spans below root_id, root excluded."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out, todo = [], [root_id]
    while todo:
        for c in children[todo.pop()]:
            out.append(c)
            todo.append(c.id)
    return out


class Tracer:
    """Records spans around patched callables; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ----- span stack -----
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        parent = self.current()
        span = Span(id=next(self._ids), name=name,
                    parent=parent.id if parent else None,
                    start=time.perf_counter(), thread=threading.get_ident())
        self._stack().append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run_under(self, parent: Optional[Span], fn, *args, **kwargs):
        """Call fn on this thread as if ``parent`` were the open span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    # ----- patching -----
    def wrap(self, owner, attr: str, name: str,
             observe: Optional[Callable] = None) -> None:
        """Replace owner.attr by a spanning wrapper.

        ``observe(span, args, kwargs, result)`` may add attributes to the
        span after a successful call.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_executor(self, module) -> None:
        """Make module.ThreadPoolExecutor carry the submitting span to workers."""
        original = vars(module)["ThreadPoolExecutor"]
        tracer = self

        class SpanExecutor(original):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(),
                                      fn, *args, **kwargs)

        self._patches.append((module, "ThreadPoolExecutor", original))
        module.ThreadPoolExecutor = SpanExecutor

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

