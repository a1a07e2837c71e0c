"""Zero-dependency span tracer for the imputation pipeline.

A :class:`Span` is one timed operation — an ``impute`` run, one cell's
imputation, one kernel call — with a name, attributes, point-in-time
events and monotonic start/end timestamps.  Spans nest: entering a span
while another is open records the parent, so a trace reconstructs the
phase -> cell -> kernel tree of a run.

The tracer shares the :class:`~repro.utils.timer.Timer` clock family
(:func:`time.perf_counter`): span durations and budget bookkeeping read
the same monotonic source, never the wall clock (see
``Timer.elapsed_ns``).  Wall-clock timestamps belong to the structured
logs, not to spans.

Disabled tracing must cost nothing measurable: :class:`NullTracer` (the
default everywhere) hands out one shared :data:`NULL_SPAN` whose every
method is a no-op, so instrumentation sites pay a single method call and
no allocation beyond the keyword dict.

Usage::

    tracer = Tracer()
    with tracer.span("impute", engine="vectorized"):
        with tracer.span("cell", row=3, attribute="City") as cell:
            cell.event("degradation", reason="kernel fault")

    for span in tracer.spans:         # completed spans, end order
        print(span.name, span.duration_seconds)
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_SPAN", "NULL_TRACER"]

_NS_PER_SECOND = 1_000_000_000


class Span:
    """One timed, attributed operation inside a trace.

    Spans are context managers: timing runs from ``__enter__`` to
    ``__exit__``; an exception escaping the block lands in
    :attr:`error` (and the span still closes).  Attributes are plain
    key/value pairs; events are timestamped markers attached to the
    span (budget trips, degradations, chaos faults).
    """

    __slots__ = (
        "name", "span_id", "parent_id", "attributes", "events",
        "error", "_tracer", "_start", "_end",
    )

    def __init__(
        self, tracer: "Tracer", name: str, span_id: int,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id: int | None = None
        self.attributes = attributes
        self.events: list[dict[str, Any]] = []
        self.error: str | None = None
        self._tracer = tracer
        self._start: float | None = None
        self._end: float | None = None

    # -- context manager -------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.error is None:
            self.error = f"{type(exc).__name__}: {exc}"
        self._tracer._pop(self)

    # -- recording -------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def event(self, name: str, **attributes: Any) -> None:
        """Record a timestamped point event on this span."""
        offset = None
        if self._start is not None:
            offset = self._tracer._clock() - self._start
        self.events.append({
            "name": name,
            "offset_seconds": offset,
            "attributes": attributes,
        })

    # -- reading ---------------------------------------------------------
    @property
    def start_seconds(self) -> float | None:
        """Monotonic start timestamp (tracer clock), if entered."""
        return self._start

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds: final once closed, live while open, 0 before."""
        if self._start is None:
            return 0.0
        end = self._end if self._end is not None else self._tracer._clock()
        return end - self._start

    @property
    def duration_ns(self) -> int:
        """:attr:`duration_seconds` as integer nanoseconds."""
        return int(self.duration_seconds * _NS_PER_SECOND)

    @property
    def closed(self) -> bool:
        return self._end is not None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (one trace line of the JSONL exporter)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_seconds": self._start,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
            "events": list(self.events),
            "error": self.error,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, "
            f"duration={self.duration_seconds:.6f}s)"
        )


class Tracer:
    """Collects spans for one process-local trace.

    Not thread-safe by design: one tracer belongs to one run, like the
    run's :class:`~repro.utils.timer.Timer`.  ``clock`` replaces
    :func:`time.perf_counter` (tests inject deterministic clocks the
    same way the chaos harness does for budgets).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or time.perf_counter
        #: Completed spans, in close order (children close before parents).
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; use as ``with tracer.span("verify") as span:``."""
        span = Span(self, name, self._next_id, attributes)
        self._next_id += 1
        return span

    def event(self, name: str, **attributes: Any) -> None:
        """Record an event on the innermost open span (dropped if none)."""
        if self._stack:
            self._stack[-1].event(name, **attributes)

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def ordered_spans(self) -> list[Span]:
        """Completed spans in trace order (start time, then span id)."""
        return sorted(
            self.spans,
            key=lambda span: (span.start_seconds or 0.0, span.span_id),
        )

    def clear(self) -> None:
        """Drop all completed spans (open spans are unaffected)."""
        self.spans.clear()

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    # -- span lifecycle (called by Span) ---------------------------------
    def _push(self, span: Span) -> None:
        if self._stack:
            span.parent_id = self._stack[-1].span_id
        span._start = self._clock()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span._end = self._clock()
        # Closing out of order (an exception tore through several
        # levels) settles every inner span too, innermost first.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top._end = span._end
            self.spans.append(top)
        self.spans.append(span)


class _NullSpan:
    """Shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def event(self, name: str, **attributes: Any) -> None:
        return None

    @property
    def duration_seconds(self) -> float:
        return 0.0

    @property
    def duration_ns(self) -> int:
        return 0


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every span is the shared no-op :data:`NULL_SPAN`.

    Instrumentation sites never need to test for it — the API matches
    :class:`Tracer` — but hot paths may check :attr:`enabled` to skip
    building expensive attributes.
    """

    enabled = False
    spans: tuple = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        return None

    @property
    def current(self) -> None:
        return None

    def ordered_spans(self) -> list:
        return []

    def clear(self) -> None:
        return None

    def __iter__(self) -> Iterator:
        return iter(())

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
