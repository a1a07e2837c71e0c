"""repro.telemetry — the observability spine of the pipeline.

One :class:`Telemetry` object bundles the three signals of a run:

* **spans** (:mod:`repro.telemetry.trace`) — nested, attributed timings
  for every phase, cell and kernel call;
* **metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges and
  fixed-bucket histograms under Prometheus-style names;
* **logs** (:mod:`repro.telemetry.logs`) — the stdlib ``repro.*``
  logger hierarchy with an optional JSON formatter.

Everything accepts a ``telemetry=`` keyword and defaults to
:data:`NULL_TELEMETRY`, whose tracer and registry are shared no-op
singletons — the disabled path costs a method call per site.

Usage::

    from repro import Renuver, Telemetry
    from repro.telemetry import write_trace, write_metrics, profile_table

    telemetry = Telemetry()
    result = Renuver(rfds, telemetry=telemetry).impute(dirty)
    write_trace(telemetry.tracer, "trace.jsonl")
    write_metrics(telemetry.metrics, "metrics.prom")
    print(profile_table(telemetry.tracer))

Span taxonomy, metric names and exporter formats are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.telemetry.export import (
    prometheus_text,
    profile_table,
    read_trace,
    trace_to_jsonl,
    write_metrics,
    write_trace,
)
from repro.telemetry.logs import (
    JsonLogFormatter,
    configure_logging,
    get_logger,
    reset_logging,
)
from repro.telemetry.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.telemetry.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLogFormatter",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Span",
    "Telemetry",
    "Tracer",
    "configure_logging",
    "get_logger",
    "prometheus_text",
    "profile_table",
    "read_trace",
    "reset_logging",
    "trace_to_jsonl",
    "write_metrics",
    "write_trace",
]


class Telemetry:
    """A tracer plus a metrics registry, handed through the pipeline.

    ``Telemetry()`` builds live instances of both; pass ``tracer=`` /
    ``metrics=`` to share or replace either (e.g. a process-wide
    registry across many runs with a fresh tracer per run).
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | NullMetrics | None = None,
    ) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics

    @property
    def enabled(self) -> bool:
        """Whether any signal is live (tracer or metrics)."""
        return bool(self.tracer.enabled or self.metrics.enabled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(tracer={type(self.tracer).__name__}, "
            f"metrics={type(self.metrics).__name__}, "
            f"enabled={self.enabled})"
        )


#: The disabled default: shared no-op tracer and registry.
NULL_TELEMETRY = Telemetry(NULL_TRACER, NULL_METRICS)
