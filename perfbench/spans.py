"""In-memory span tracer that wraps library functions from the outside.

``Tracer.wrap`` replaces a module attribute with a wrapper that records one
span per call: name, start, end, parent span and thread.  Because the
library calls its own functions through module globals (and through
``module.function`` across modules), patching the attribute also catches
the calls the library makes internally.  ``Tracer.count`` is a cheaper
wrapper for functions called too often for a span each: it only adds to a
counter; each span records how far every counter moved while it was open.

Nothing here touches the library's source; every patch is undone when the
tracer's ``with`` block exits.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    thread: int = 0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans from patched module attributes; restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._counters: dict[str, list[int]] = {}
        self._marks: dict[int, dict[str, int]] = {}

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span hangs under the span that
                # the main thread has open while it waits for the worker
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1] if main_stack else None
            self.spans.append(Span(name, time.perf_counter(), parent=parent, thread=tid))
            index = len(self.spans) - 1
            stack.append(index)
            self._marks[index] = {k: cell[0] for k, cell in self._counters.items()}
        return index

    def _close(self, index: int, error: str | None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        with self._lock:
            self._stacks[span.thread].pop()
            marks = self._marks.pop(index)
            span.counts = {k: cell[0] - marks.get(k, 0) for k, cell in self._counters.items()}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        index = self._open(name)
        try:
            yield self.spans[index]
        except BaseException as exc:
            self._close(index, type(exc).__name__)
            raise
        self._close(index, None)

    def wrap(self, module, attr: str, keep_results: bool = False) -> None:
        """Record a span for every call of ``module.attr``."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        results = self.results.setdefault(name, [])

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = original(*args, **kwargs)
            except BaseException as exc:
                self._close(index, type(exc).__name__)
                raise
            self._close(index, None)
            if keep_results:
                results.append(out)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def count(self, module, attr: str) -> None:
        """Count calls of ``module.attr``; meant for the main thread only."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        cell = self._counters.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._patches.append((module, attr, original))

    def within(self, outer: Span) -> list[Span]:
        """Finished spans that started and ended inside ``outer``'s interval."""
        return [s for s in self.spans
                if s is not outer and s.start >= outer.start and s.end <= outer.end]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its children.

        Children on other threads run concurrently with their parent, so
        they are not subtracted.
        """
        covered = [0.0] * len(self.spans)
        for child in self.spans:
            if child.parent is not None and child.thread == self.spans[child.parent].thread:
                covered[child.parent] += child.duration
        return [span.duration - cov for span, cov in zip(self.spans, covered)]

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "thread": s.thread, "error": s.error, "counts": dict(s.counts)}
                for s in self.spans]

