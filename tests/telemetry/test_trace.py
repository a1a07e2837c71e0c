"""Tests for the span tracer (repro.telemetry.trace)."""

import time

import pytest

from repro.telemetry import NULL_METRICS, NULL_SPAN, NULL_TRACER, Tracer


class FakeClock:
    """Deterministic monotonic clock: advances by ``step`` per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpanBasics:
    def test_span_times_with_the_tracer_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("impute") as span:
            pass
        assert span.closed
        assert span.duration_seconds == pytest.approx(1.0)
        assert span.duration_ns == 1_000_000_000

    def test_attributes_and_events(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("cell", row=3) as span:
            span.set_attribute("status", "imputed")
            span.event("degradation", reason="kernel fault")
        assert span.attributes == {"row": 3, "status": "imputed"}
        (event,) = span.events
        assert event["name"] == "degradation"
        assert event["attributes"] == {"reason": "kernel fault"}
        assert event["offset_seconds"] == pytest.approx(1.0)

    def test_error_recorded_and_span_closed(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("impute") as span:
                raise ValueError("boom")
        assert span.closed
        assert span.error == "ValueError: boom"
        assert tracer.spans == [span]

    def test_to_dict_is_json_shaped(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("impute", engine="scalar") as span:
            span.event("tick")
        data = span.to_dict()
        assert data["name"] == "impute"
        assert data["parent_id"] is None
        assert data["attributes"] == {"engine": "scalar"}
        assert data["events"][0]["name"] == "tick"
        assert data["error"] is None


class TestNesting:
    def test_parent_ids_reconstruct_the_tree(self):
        tracer = Tracer()
        with tracer.span("impute") as root:
            with tracer.span("cell") as cell:
                with tracer.span("kernel.is_faultless") as kernel:
                    pass
            with tracer.span("cell") as cell2:
                pass
        assert root.parent_id is None
        assert cell.parent_id == root.span_id
        assert kernel.parent_id == cell.span_id
        assert cell2.parent_id == root.span_id

    def test_spans_close_in_child_first_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [span.name for span in tracer.spans] == ["outer", "inner"][::-1]

    def test_ordered_spans_sorts_by_start(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.ordered_spans()] == [
            "outer", "inner"
        ]

    def test_current_tracks_the_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_tracer_event_lands_on_innermost_span(self):
        tracer = Tracer()
        tracer.event("dropped")  # no open span: silently dropped
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("budget_exceeded", scope="run")
        assert outer.events == []
        assert inner.events[0]["name"] == "budget_exceeded"

    def test_out_of_order_close_settles_inner_spans(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # skips inner.__exit__
        assert inner.closed and outer.closed
        assert len(tracer.spans) == 2
        assert tracer.current is None


class TestNullTracer:
    def test_null_tracer_hands_out_the_shared_span(self):
        span = NULL_TRACER.span("impute", engine="scalar")
        assert span is NULL_SPAN
        with span as entered:
            entered.set_attribute("k", "v")
            entered.event("tick", n=1)
        assert span.duration_seconds == 0.0
        assert span.duration_ns == 0

    def test_null_tracer_is_empty_and_disabled(self):
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0
        assert list(NULL_TRACER) == []
        assert NULL_TRACER.ordered_spans() == []
        assert NULL_TRACER.current is None
        NULL_TRACER.event("dropped")
        NULL_TRACER.clear()

    def test_noop_call_cost_is_sub_microsecond(self):
        # One disabled instrumentation site at its most expensive: a
        # span with keyword attributes, entered and exited, around a
        # counter bump.  The spine is a handful of attribute lookups;
        # if one site ever costs more than 5µs something regressed.
        span = NULL_TRACER.span
        counter = NULL_METRICS.counter("x_total", engine="test").inc
        iterations = 20_000
        start = time.perf_counter()
        for _ in range(iterations):
            with span("cell", row=0, attribute="x"):
                counter()
        assert (time.perf_counter() - start) / iterations < 5e-6
