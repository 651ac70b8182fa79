"""Wall-clock span tracing.

A *span* is one named, nested interval of wall-clock time on one thread —
the unit every timeline viewer (Perfetto, chrome://tracing) understands.
The tracer records spans two ways:

* :meth:`SpanTracer.span` — a context manager for structured code
  (``with tracer.span("update", device=3):``);
* :meth:`SpanTracer.begin` / :meth:`SpanTracer.end` — explicit tokens for
  code whose begin and end sites are different functions, such as the
  transfer handler's lazy write-back worker.

Each finished span keeps the thread id and name it ran on, a nesting
depth (per thread), and free-form attributes, so the Chrome-trace
exporter can reconstruct per-thread lanes with correct nesting.

A :class:`Span` is *the* interval record: built once, by
:meth:`SpanTracer.begin`, finished by :meth:`SpanTracer.end` on the
thread that ran it, and appended to that thread's own lane (single
writer, no lock); the engine's flight record refers to the same object.
``seq`` is its completion
order across every tracer in the process, which is also what "the
intervals since cursor N" means to a reader (:meth:`SpanTracer.since`).
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import TelemetryError


@dataclass
class Span:
    """One wall-clock interval: open from :meth:`SpanTracer.begin` (which
    returns it as the token; ``end`` is ``None`` and callers may attach
    attributes with :meth:`set`) until :meth:`SpanTracer.end` finishes
    and records it."""

    name: str
    start: float
    end: Optional[float]
    thread_id: int
    thread_name: str
    depth: int
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Completion order, process-wide (0: not recorded by a tracer).
    seq: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def event_attrs(self) -> Dict[str, object]:
        """What a flight-recorder dump shows for this span's event."""
        return {**self.attrs, "duration": self.duration}


#: next() is atomic in CPython; shared by every tracer so one cursor
#: stays meaningful across sessions.
_SEQ = itertools.count(1)
_seq_of = operator.attrgetter("seq")


class _NullSpan:
    """Do-nothing stand-in yielded when tracing is disabled."""

    __slots__ = ()

    def set(self, **_attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


#: Shared no-op span/context — the entire cost of a disabled trace point.
NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager pairing one begin/end on a tracer."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: "SpanTracer", token: Span) -> None:
        self._tracer = tracer
        self._token = token

    def __enter__(self) -> Span:
        return self._token

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            # Mark spans that exit via exception so post-mortem traces
            # and flight-recorder dumps show what was in flight at the
            # crash — the span still closes, it just closes "error".
            self._token.set(status="error",
                            error=f"{exc_type.__name__}: {exc}")
        self._tracer.end(self._token)
        return False


class SpanTracer:
    """Recorder of nested wall-clock spans, one lane per thread.

    ``clock`` is injectable for deterministic tests; it must be a
    monotonic float-seconds callable (default :func:`time.perf_counter`).
    Timestamps are stored relative to ``epoch`` (default: the tracer's
    creation instant, so exported traces start near t=0).  A worker
    process passes ``epoch=0.0`` and so records absolute clock values,
    which the parent's tracer rebases in :meth:`adopt` — on Linux
    ``perf_counter`` is CLOCK_MONOTONIC, one domain across processes.
    """

    def __init__(self, clock=time.perf_counter,
                 epoch: Optional[float] = None) -> None:
        self._clock = clock
        self.epoch = clock() if epoch is None else epoch
        self._local = threading.local()
        #: One list of finished spans per recording thread, each written
        #: by its thread alone (list appends are atomic in CPython).
        self._lanes: List[List[Span]] = []

    def _now(self) -> float:
        return self._clock() - self.epoch

    def _thread(self):
        """The calling thread's open-span stack and finished-span lane."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.lane = [], []
            self._lanes.append(local.lane)
        return local

    # ------------------------------------------------------------------
    # explicit begin/end (for split call sites, e.g. worker loops)
    # ------------------------------------------------------------------
    def begin(self, name: str, **attrs: object) -> Span:
        """Open a span on the calling thread and return it as its token."""
        thread = threading.current_thread()
        stack = self._thread().stack
        token = Span(name=name, start=self._now(), end=None,
                     thread_id=thread.ident or 0, thread_name=thread.name,
                     depth=len(stack), attrs=attrs)
        stack.append(token)
        return token

    def end(self, token: Span, **attrs: object) -> Span:
        """Finish ``token`` (on the thread that opened it) and record it."""
        if token.end is not None:
            raise TelemetryError(f"span {token.name!r} already ended")
        local = self._thread()
        stack = local.stack
        if any(open_span is token for open_span in stack):
            # Pop through the token: abandoned inner tokens (e.g. after an
            # exception skipped their end()) must not corrupt the depth of
            # later spans.
            while stack.pop() is not token:
                pass
        token.attrs.update(attrs)
        token.end = self._now()
        token.seq = next(_SEQ)
        local.lane.append(token)
        return token

    def adopt(self, span: Span) -> None:
        """Take over a span a worker process recorded against epoch 0:
        rebased onto this tracer's epoch, and new to every cursor."""
        span.start -= self.epoch
        span.end -= self.epoch
        span.seq = next(_SEQ)
        self._thread().lane.append(span)

    # ------------------------------------------------------------------
    # structured form
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _SpanContext:
        """``with tracer.span("name", k=v) as s: ... s.set(result=...)``"""
        return _SpanContext(self, self.begin(name, **attrs))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def since(self, cursor: int) -> List[Span]:
        """Finished spans with ``seq > cursor``, in completion order.

        Every lane is in ``seq`` order, so only the new tail of each is
        walked: the work is proportional to the spans returned.
        """
        fresh: List[Span] = []
        for lane in list(self._lanes):
            fresh.extend(itertools.takewhile(
                lambda span: span.seq > cursor, reversed(lane)))
        fresh.sort(key=_seq_of)
        return fresh

    @property
    def spans(self) -> List[Span]:
        """Every finished span, in completion order (a fresh list)."""
        return self.since(0)

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def clear(self) -> None:
        for lane in list(self._lanes):
            del lane[:]
