"""Deadline-aware admission control and overload brownout.

PR 5 guarded the imputation routes with a bare counting semaphore: a
request either got a permit immediately or was bounced with a constant
``Retry-After: 1``.  That sheds load but wastes headroom (a request
that could have waited 50 ms for a permit is refused) and tells a
saturated fleet of clients to all come back at the same instant.

:class:`AdmissionQueue` replaces the semaphore with a *bounded,
deadline-aware* queue:

* up to ``max_inflight`` requests run concurrently;
* up to ``max_queue_depth`` more may *wait* for a permit — but only as
  long as their deadline still permits (a request that would time out
  in the queue is shed immediately, never parked to die);
* everything beyond that is shed with a **load-derived** ``Retry-After``:
  the estimated time for the current backlog to drain through the
  permit pool, from an EWMA of observed service times — so clients
  back off proportionally to how overloaded the server actually is.

:class:`BrownoutController` watches the shed stream and, under
*sustained* saturation, steps the service down a documented ladder —
the service-level analogue of the per-cell degradation ladder of the
fault-tolerant runtime (``docs/ROBUSTNESS.md``):

====  ===========  ====================================================
lvl   tier         behaviour
====  ===========  ====================================================
0     ``normal``      requests run as configured
1     ``cache_only``  only requests answerable from warm artifacts are
                      admitted: pinned RFD sets and artifact-cache hits
                      run; anything needing fresh discovery is shed
                      with 429 + Retry-After
====  ===========  ====================================================

Every transition is recorded as a :class:`~repro.core.report
.Degradation` audit record (``row=-1, attribute="<service>"`` marks the
service scope) and counted in ``renuver_service_brownout_total{level}``;
the current level is exported as the ``renuver_service_brownout_level``
gauge and on ``GET /healthz/ready``.  Stepping *down* the ladder needs a
full ``cooldown_seconds`` without a single shed, so the level does not
flap at the saturation boundary.
"""

from __future__ import annotations

import collections
import math
import threading
import time
from typing import Any, Callable, Deque

from repro.core.report import Degradation
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.logs import get_logger

logger = get_logger("service.admission")

#: Brownout ladder tier names, by level.
BROWNOUT_TIERS = ("normal", "cache_only")

#: Audit-record coordinates marking a *service-scope* degradation (the
#: per-cell ladder uses real cell coordinates).
SERVICE_SCOPE = (-1, "<service>")

_SHED = "renuver_service_shed_total"
_HELP_SHED = "Requests shed by admission control, by reason."
_BROWNOUT = "renuver_service_brownout_total"
_HELP_BROWNOUT = "Brownout ladder transitions, by level stepped to."
_LEVEL = "renuver_service_brownout_level"
_HELP_LEVEL = "Current brownout ladder level (0 = normal)."
_DEPTH = "renuver_service_queue_depth"
_HELP_DEPTH = "Requests waiting for an admission permit."
_WAIT = "renuver_service_queue_wait_seconds"
_HELP_WAIT = "Time admitted requests spent queued for a permit."


class ShedRequest(Exception):
    """Admission refused this request; answer 429 with ``retry_after``."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


class AdmissionQueue:
    """Bounded, deadline-aware permit pool for the imputation routes.

    Parameters
    ----------
    max_inflight:
        Permits (requests running concurrently).
    max_queue_depth:
        Requests allowed to *wait* for a permit.
    max_queue_wait_seconds:
        Queue-wait cap for requests without a deadline.
    telemetry:
        Metrics registry for the shed/queue instruments.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        max_inflight: int,
        *,
        max_queue_depth: int = 16,
        max_queue_wait_seconds: float = 1.0,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self.max_queue_wait_seconds = max_queue_wait_seconds
        self.telemetry = telemetry or NULL_TELEMETRY
        self._clock = clock or time.perf_counter
        self._lock = threading.Lock()
        self._permits = threading.Semaphore(max_inflight)
        self._inflight = 0
        self._waiting = 0
        #: EWMA of observed service seconds (None until the first
        #: completion; the Retry-After fallback is 1 s before that).
        self._service_ewma: float | None = None
        self.shed_counts: dict[str, int] = collections.Counter()
        self.admitted = 0

    # ------------------------------------------------------------------
    def acquire(self, deadline: float | None = None) -> None:
        """Take a permit, queueing while the deadline allows.

        ``deadline`` is an absolute reading of this queue's clock (the
        request's arrival time plus its budget).  Raises
        :class:`ShedRequest` when the queue is full, when the deadline
        cannot be met, or when it expires while queued.
        """
        now = self._clock()
        # Fast path: a free permit admits immediately, so a depth-0
        # queue still serves up to ``max_inflight`` — it only forbids
        # *waiting*.  This also admits an already-expired deadline when
        # capacity is free: the engine answers it with whatever partial
        # result zero remaining budget buys, which beats refusing work
        # the server had room for.
        if self._permits.acquire(blocking=False):
            self._admit(now)
            return
        wait_cap = self.max_queue_wait_seconds
        if deadline is not None:
            remaining = deadline - now
            if remaining <= 0.0:
                self._shed("deadline")
            wait_cap = min(wait_cap, remaining)
        with self._lock:
            queue_full = self._waiting >= self.max_queue_depth
            if not queue_full:
                self._waiting += 1
                self._gauge_depth()
        if queue_full:
            self._shed("queue_full")
        try:
            admitted = self._permits.acquire(timeout=wait_cap)
        finally:
            with self._lock:
                self._waiting -= 1
                self._gauge_depth()
        if not admitted:
            reason = (
                "deadline" if deadline is not None
                and wait_cap < self.max_queue_wait_seconds
                else "queue_timeout"
            )
            self._shed(reason)
        self._admit(now)

    def _admit(self, arrived: float) -> None:
        with self._lock:
            self._inflight += 1
            self.admitted += 1
        waited = self._clock() - arrived
        self.telemetry.metrics.histogram(_WAIT, _HELP_WAIT).observe(waited)

    def release(self, service_seconds: float | None = None) -> None:
        """Return a permit; feed the service-time EWMA."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            if service_seconds is not None and service_seconds >= 0.0:
                if self._service_ewma is None:
                    self._service_ewma = service_seconds
                else:
                    self._service_ewma = (
                        0.8 * self._service_ewma + 0.2 * service_seconds
                    )
        self._permits.release()

    def shed(self, reason: str) -> None:
        """Count and raise an out-of-band shed (e.g. the brownout
        ladder's cache-only gate) with the same load-derived
        Retry-After an admission shed carries."""
        self._shed(reason)

    # ------------------------------------------------------------------
    def retry_after_seconds(self) -> float:
        """How long the current backlog takes to drain, roughly.

        ``(inflight + waiting) * ewma_service / max_inflight`` rounded
        up to a whole second and clamped to [1, 30] — load-derived, so a
        lightly loaded server says "1" and a deeply backed-up one
        spreads its retries out.
        """
        with self._lock:
            backlog = self._inflight + self._waiting
            ewma = self._service_ewma
        if ewma is None or backlog <= 0:
            return 1.0
        estimate = backlog * ewma / max(1, self.max_inflight)
        return float(min(30.0, max(1.0, math.ceil(estimate))))

    def snapshot(self) -> dict[str, Any]:
        """Cheap stats for the readiness endpoint."""
        with self._lock:
            return {
                "inflight": self._inflight,
                "waiting": self._waiting,
                "max_inflight": self.max_inflight,
                "max_queue_depth": self.max_queue_depth,
                "admitted": self.admitted,
                "shed": dict(self.shed_counts),
            }

    # ------------------------------------------------------------------
    def _shed(self, reason: str) -> None:
        self.shed_counts[reason] += 1
        self.telemetry.metrics.counter(
            _SHED, _HELP_SHED, reason=reason
        ).inc()
        raise ShedRequest(reason, self.retry_after_seconds())

    def _gauge_depth(self) -> None:
        self.telemetry.metrics.gauge(_DEPTH, _HELP_DEPTH).set(
            float(self._waiting)
        )


class BrownoutController:
    """Steps the service down (and back up) the brownout ladder.

    Saturation signal: sheds within a sliding ``window_seconds``.  When
    they reach ``step_up_sheds`` the level increments (one rung at a
    time) and the window resets, so sustained — not momentary —
    overload is what climbs the ladder.  A full ``cooldown_seconds``
    without any shed steps back down one rung.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        step_up_sheds: int = 4,
        window_seconds: float = 5.0,
        cooldown_seconds: float = 10.0,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] | None = None,
        max_audit: int = 64,
    ) -> None:
        self.enabled = enabled
        self.step_up_sheds = step_up_sheds
        self.window_seconds = window_seconds
        self.cooldown_seconds = cooldown_seconds
        self.telemetry = telemetry or NULL_TELEMETRY
        self._clock = clock or time.perf_counter
        self._lock = threading.Lock()
        self._level = 0
        self._shed_times: Deque[float] = collections.deque()
        self._last_shed: float | None = None
        #: Service-scope :class:`Degradation` audit trail (bounded).
        self.audit: Deque[Degradation] = collections.deque(maxlen=max_audit)
        self.transitions = 0

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def tier(self) -> str:
        return BROWNOUT_TIERS[self.level]

    @property
    def cache_only(self) -> bool:
        """Whether discovery-requiring requests must be shed."""
        return self.level >= 1

    # ------------------------------------------------------------------
    def record_shed(self) -> None:
        """One shed request: maybe climb the ladder."""
        if not self.enabled:
            return
        now = self._clock()
        with self._lock:
            self._last_shed = now
            self._shed_times.append(now)
            floor = now - self.window_seconds
            while self._shed_times and self._shed_times[0] < floor:
                self._shed_times.popleft()
            if (
                len(self._shed_times) >= self.step_up_sheds
                and self._level < len(BROWNOUT_TIERS) - 1
            ):
                self._transition(self._level + 1, (
                    f"{len(self._shed_times)} sheds in "
                    f"{self.window_seconds:.0f}s"
                ))
                self._shed_times.clear()

    def observe(self) -> int:
        """Housekeeping tick: step down after a quiet cooldown.

        Called on every admission decision (and cheap enough for
        that); returns the current level.
        """
        if not self.enabled:
            return 0
        now = self._clock()
        with self._lock:
            if (
                self._level > 0
                and (self._last_shed is None
                     or now - self._last_shed >= self.cooldown_seconds)
            ):
                self._transition(self._level - 1, (
                    f"no sheds for {self.cooldown_seconds:.0f}s"
                ))
                self._last_shed = now  # one rung per cooldown period
            return self._level

    # ------------------------------------------------------------------
    def _transition(self, level: int, reason: str) -> None:
        """Locked by the caller.  Audits + counts one ladder move."""
        row, attribute = SERVICE_SCOPE
        record = Degradation(
            row=row,
            attribute=attribute,
            from_tier=BROWNOUT_TIERS[self._level],
            to_tier=BROWNOUT_TIERS[level],
            reason=reason,
        )
        self.audit.append(record)
        self.transitions += 1
        self._level = level
        metrics = self.telemetry.metrics
        metrics.counter(
            _BROWNOUT, _HELP_BROWNOUT, level=str(level)
        ).inc()
        metrics.gauge(_LEVEL, _HELP_LEVEL).set(float(level))
        logger.warning(
            "brownout: %s -> %s (%s)",
            record.from_tier, record.to_tier, reason,
        )

    def snapshot(self) -> dict[str, Any]:
        """Readiness payload fragment."""
        with self._lock:
            level = self._level
            audit = [
                {
                    "from": record.from_tier,
                    "to": record.to_tier,
                    "reason": record.reason,
                }
                for record in list(self.audit)[-5:]
            ]
        return {
            "enabled": self.enabled,
            "level": level,
            "tier": BROWNOUT_TIERS[level],
            "transitions": self.transitions,
            "recent": audit,
        }


__all__ = [
    "AdmissionQueue",
    "BROWNOUT_TIERS",
    "BrownoutController",
    "ShedRequest",
    "SERVICE_SCOPE",
]
