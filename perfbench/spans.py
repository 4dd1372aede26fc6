"""In-memory span recorder for the traced benchmark run.

The tracer replaces public functions on the package's modules with thin
wrappers, at the names the package's own modules call them by (for example
``stlmpc.mpc.solve``, which ``mpc.run`` calls), so the package itself is not
modified.  Each call becomes a span with a name, start, end, parent span and
the id of the job (simulation or monitoring pass) it belongs to.  Spans stay
in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent=parent, job=self.job)
        self.spans.append(span)
        self._stack.append(span)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, job: int | None = None):
        if job is not None:
            self.job = job
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn, on_result=None):
        """Wrapper recording one span per call.  ``on_result(span, args, result)``
        runs after the span has ended, so its cost is not attributed to it;
        ``result`` is None when the call raised."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(s)
                s.attrs["error"] = type(exc).__name__
                if on_result is not None:
                    on_result(s, args, None)
                raise
            self._close(s)
            if on_result is not None:
                on_result(s, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, on_result))
        else:
            wrapped = self.wrap(name, original, on_result)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "job": s.job,
                                     **s.attrs}) + "\n")


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    kids = children_of(spans)
    return {s.id: s.duration - covered((c.start, c.end) for c in kids.get(s.id, ()))
            for s in spans}
