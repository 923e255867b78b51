"""Span recorder that wraps a layer's public calls from outside.

:meth:`SpanRecorder.wrap` replaces a class attribute with a wrapper
that records one :class:`Span` per call: name, start, end, the span
that was open when the call began (its parent) and a request id.  The
request id comes from the enclosing request span when there is one and
otherwise from the call's own job key, so a dispatcher thread's
executor run still joins up with the request that queued it.

Parent and request id live in a :mod:`contextvars` variable, which
asyncio copies into every task and which each new thread starts
empty.  Spans stay in memory until :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import self_time

#: (open span id, request id) of the innermost span in this context.
_CURRENT: "contextvars.ContextVar[Tuple[Optional[int], Optional[str]]]" = \
    contextvars.ContextVar("perfbench_span", default=(None, None))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    attrs: Dict[str, object] = field(default_factory=dict)


class SpanRecorder:
    """Collects spans in memory; thread- and task-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    def _open(self, name: str, rid: Optional[str], new_request: bool
              ) -> Tuple[Span, contextvars.Token]:
        parent, ctx_rid = _CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
        if new_request:
            rid = f"req-{span_id}"
        elif ctx_rid is not None:
            rid = ctx_rid
        span = Span(span_id, name, time.perf_counter(), 0.0, parent, rid)
        return span, _CURRENT.set((span_id, rid))

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner: type, attr: str, name: str,
             key: Optional[Callable[..., Optional[str]]] = None,
             note: Optional[Callable[..., Dict[str, object]]] = None,
             new_request: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        - ``key(*args, **kwargs)``: the job key, used as request id
          when no request span encloses the call.
        - ``note(result, *args, **kwargs)``: extra attributes taken
          from the call's return value.
        - ``new_request``: this span starts a new request id.

        Coroutine functions and static methods are handled.
        """
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        recorder = self

        def start(args, kwargs):
            rid = key(*args, **kwargs) if key is not None else None
            return recorder._open(name, rid, new_request)

        def finish(span, token, result, args, kwargs):
            if note is not None:
                span.attrs.update(note(result, *args, **kwargs))
            recorder._close(span, token)

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                span, token = start(args, kwargs)
                result = None
                try:
                    result = await func(*args, **kwargs)
                    return result
                finally:
                    finish(span, token, result, args, kwargs)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span, token = start(args, kwargs)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    finish(span, token, result, args, kwargs)

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: str) -> None:
        with self._lock:
            data = [asdict(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**d) for d in json.load(fh)]


def self_times(spans: Sequence[Span], name: str) -> List[float]:
    """Self time of every span called ``name``: its duration minus the
    part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [self_time(s.start, s.end, children.get(s.id, ()))
            for s in spans if s.name == name]


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [s.end - s.start for s in spans if s.name == name]
