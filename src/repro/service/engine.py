"""The prepared imputation engine behind the HTTP service.

:class:`PreparedEngine` is the service's amortization layer: it owns a
process-wide telemetry registry, an optional
:class:`~repro.service.artifacts.ArtifactStore`, and the default
discovery / RENUVER configurations — so that

* a **one-shot** request (:meth:`impute_once`) with an explicit RFD set
  is bit-identical to ``python -m repro impute`` on the same input, and
  one *without* an RFD set reuses cached discovery artifacts: a warm
  engine performs zero discovery work on a cache hit (no ``discover``
  span, ``renuver_artifact_cache_hits_total`` increments);
* a **session** (:meth:`open_session`) is an
  :class:`~repro.extensions.incremental.ImputationSession` — which,
  when no RFD set is pinned, maintains the dependency set as tuples
  arrive — for append-and-impute workloads where the accumulated
  instance keeps serving as donor pool.  :meth:`build_session` builds
  it, for a live request and for a crash replay alike.

Per-request deadlines reuse the budget/degradation machinery: a request
budget maps to ``RenuverConfig(time_budget_seconds=...,
on_budget="partial")``, so an overrunning request degrades to a partial
result (HTTP 200 with ``budget_exhausted: true``) instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.core.renuver import ImputationResult, Renuver, RenuverConfig
from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.discovery.dime import DiscoveryResult, discover_rfds
from repro.discovery.incremental import IncrementalDiscovery
from repro.distance.kernels import DistanceMemoPool
from repro.exceptions import ImputationError, ServiceError
from repro.extensions.incremental import ImputationSession
from repro.rfd.rfd import RFD
from repro.service.artifacts import ArtifactStore
from repro.telemetry import NULL_TELEMETRY, Telemetry, Tracer
from repro.telemetry.logs import get_logger

logger = get_logger("service.engine")


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs shared by the engine and the HTTP layer.

    Attributes
    ----------
    discovery:
        Default discovery configuration for requests that do not pin an
        RFD set (requests may override individual fields).
    renuver:
        Default RENUVER configuration; matches the CLI ``impute``
        defaults so one-shot responses stay bit-identical to it.
    request_budget_seconds:
        Default per-request deadline (``None`` = unbounded).  Overruns
        return partial results, never 500s.
    max_inflight:
        Imputation requests admitted concurrently; excess requests get
        an immediate ``429`` (``/healthz`` and ``/metrics`` are exempt).
    max_sessions:
        Live sessions the registry holds before ``POST /v1/sessions``
        answers ``429``.
    max_body_bytes:
        Request bodies larger than this are refused with ``413``.
    max_queue_depth:
        Requests allowed to *wait* for an admission permit (beyond the
        ``max_inflight`` running ones) before shedding starts; ``0``
        restores the PR 5 immediate-bounce behaviour.
    max_queue_wait_seconds:
        Queue-wait cap for requests without a deadline of their own.
    brownout_enabled:
        Whether sustained shedding steps the service down the brownout
        ladder (normal → cache-only; ``docs/SERVICE.md``).
    brownout_step_up_sheds / brownout_window_seconds:
        Sheds within the sliding window that climb one ladder rung.
    brownout_cooldown_seconds:
        Shed-free time required to step back down one rung.
    durable_sessions:
        Whether sessions are journaled to the artifact directory and
        recovered on restart (needs an artifact dir to take effect).
    """

    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    renuver: RenuverConfig = field(default_factory=RenuverConfig)
    request_budget_seconds: float | None = None
    max_inflight: int = 8
    max_sessions: int = 64
    max_body_bytes: int = 16 * 1024 * 1024
    max_queue_depth: int = 16
    max_queue_wait_seconds: float = 1.0
    brownout_enabled: bool = True
    brownout_step_up_sheds: int = 4
    brownout_window_seconds: float = 5.0
    brownout_cooldown_seconds: float = 10.0
    durable_sessions: bool = True

    def __post_init__(self) -> None:
        if (
            self.request_budget_seconds is not None
            and self.request_budget_seconds <= 0
        ):
            raise ServiceError(
                "request_budget_seconds must be positive when given"
            )
        if self.max_inflight < 1:
            raise ServiceError("max_inflight must be >= 1")
        if self.max_sessions < 1:
            raise ServiceError("max_sessions must be >= 1")
        if self.max_body_bytes < 1024:
            raise ServiceError("max_body_bytes must be >= 1024")
        if self.max_queue_depth < 0:
            raise ServiceError("max_queue_depth must be >= 0")
        if self.max_queue_wait_seconds <= 0:
            raise ServiceError("max_queue_wait_seconds must be positive")
        if self.brownout_step_up_sheds < 1:
            raise ServiceError("brownout_step_up_sheds must be >= 1")
        if self.brownout_window_seconds <= 0:
            raise ServiceError("brownout_window_seconds must be positive")
        if self.brownout_cooldown_seconds <= 0:
            raise ServiceError(
                "brownout_cooldown_seconds must be positive"
            )


class PreparedEngine:
    """A warm, long-lived imputation engine for repeated requests.

    Parameters
    ----------
    config:
        Optional :class:`ServiceConfig`.
    store:
        Optional artifact cache; without one every discovery request
        recomputes (sessions and one-shots still work).
    telemetry:
        Process-wide telemetry.  Per-request work runs under a *fresh
        tracer* sharing this registry (:meth:`request_telemetry`) —
        the span tracer is single-run by design.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        store: ArtifactStore | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.store = store
        if store is not None and store.telemetry is NULL_TELEMETRY:
            store.telemetry = self.telemetry
        #: The string-distance memos of every one-shot and session this
        #: engine serves: a request starts from the edit distances
        #: earlier requests computed (docs/SERVICE.md).
        self.memo_pool = DistanceMemoPool()

    # ------------------------------------------------------------------
    def request_telemetry(self) -> Telemetry:
        """A fresh tracer sharing the engine's metrics registry.

        The no-op engine default stays no-op (zero overhead per
        request); a live engine hands each request its own span tree.
        """
        if not self.telemetry.enabled:
            return NULL_TELEMETRY
        return Telemetry(tracer=Tracer(), metrics=self.telemetry.metrics)

    # ------------------------------------------------------------------
    def prepare_rfds(
        self,
        relation: Relation,
        rfds: Iterable[RFD] | None = None,
        *,
        discovery: DiscoveryConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> tuple[DiscoveryResult | None, list[RFD], str]:
        """The RFD set for ``relation``: provided, cached or discovered.

        Returns ``(discovery_result, rfds, source)`` where ``source``
        is ``"provided"`` (caller pinned a set — no discovery result),
        ``"cache"`` (artifact hit: zero discovery work) or
        ``"discovered"`` (computed now and, when a store is attached,
        persisted for the next request).
        """
        if rfds is not None:
            return None, list(rfds), "provided"
        config = discovery or self.config.discovery
        telemetry = telemetry or self.telemetry
        if self.store is not None:
            cached = self.store.load_discovery(relation, config)
            if cached is not None:
                return cached, cached.all_rfds, "cache"
        result = discover_rfds(relation, config, telemetry=telemetry)
        if self.store is not None:
            self.store.save_discovery(relation, config, result)
        return result, result.all_rfds, "discovered"

    # ------------------------------------------------------------------
    def impute_once(
        self,
        relation: Relation,
        rfds: Iterable[RFD] | None = None,
        *,
        discovery: DiscoveryConfig | None = None,
        overrides: dict | None = None,
        budget_seconds: float | None = None,
        telemetry: Telemetry | None = None,
    ) -> tuple[ImputationResult, str]:
        """One-shot imputation; returns ``(result, rfd_source)``.

        With an explicit ``rfds`` set and no overrides/budget this is
        bit-identical to the CLI ``impute`` path (same defaults, same
        engine).  ``overrides`` patches individual
        :class:`~repro.core.renuver.RenuverConfig` fields per request;
        ``budget_seconds`` (or the service default) adds a deadline
        that degrades to a partial result instead of raising.
        """
        _, prepared, source = self.prepare_rfds(
            relation, rfds, discovery=discovery, telemetry=telemetry
        )
        config = self._request_config(overrides, budget_seconds)
        engine = Renuver(
            prepared,
            config,
            telemetry=telemetry or self.telemetry,
            memo_pool=self.memo_pool,
        )
        return engine.impute(relation), source

    # ------------------------------------------------------------------
    def open_session(
        self,
        relation: Relation,
        rfds: Iterable[RFD] | None = None,
        *,
        discovery: DiscoveryConfig | None = None,
        overrides: dict | None = None,
        budget_seconds: float | None = None,
        incremental_discovery: bool = True,
        telemetry: Telemetry | None = None,
    ) -> tuple[ImputationSession, str, DiscoveryResult | None]:
        """A warm-start session over ``relation``.

        Returns ``(session, rfd_source, discovery_result)``.  With a
        pinned ``rfds`` set the dependency set is static (no
        maintenance, no discovery result); otherwise the initial set
        comes from the artifact cache when possible and the session
        maintains it as tuples arrive (``incremental_discovery=False``
        freezes it instead).  The discovery result is handed back so a
        durable session can journal it inline (crash recovery must not
        depend on the artifact cache surviving).
        """
        result, prepared, source = self.prepare_rfds(
            relation, rfds, discovery=discovery, telemetry=telemetry
        )
        session = self.build_session(
            relation,
            prepared,
            result,
            discovery=discovery,
            overrides=overrides,
            budget_seconds=budget_seconds,
            incremental_discovery=incremental_discovery,
        )
        return session, source, result

    def build_session(
        self,
        relation: Relation,
        rfds: Sequence[RFD],
        result: DiscoveryResult | None,
        *,
        discovery: DiscoveryConfig | None = None,
        overrides: dict | None = None,
        budget_seconds: float | None = None,
        incremental_discovery: bool = True,
    ) -> ImputationSession:
        """The session for already-prepared RFDs — shared by
        :meth:`open_session` and crash replay, which differ only in
        where ``result`` comes from.  A session over a discovery
        ``result`` maintains it unless ``incremental_discovery`` is
        false; a pinned set (``result=None``) stays static."""
        maintainer: IncrementalDiscovery | None = None
        if result is not None and incremental_discovery:
            maintainer = IncrementalDiscovery(
                relation,
                discovery or self.config.discovery,
                initial=result,
                memo_pool=self.memo_pool,
            )
        return ImputationSession(
            relation,
            rfds,
            self._request_config(overrides, budget_seconds),
            maintainer=maintainer,
            memo_pool=self.memo_pool,
        )

    # ------------------------------------------------------------------
    def _request_config(
        self, overrides: dict | None, budget_seconds: float | None
    ) -> RenuverConfig:
        """The run config for one request: defaults + overrides +
        deadline.  Bad override fields raise
        :class:`~repro.exceptions.ImputationError` (the HTTP layer maps
        that to 400)."""
        config = self.config.renuver
        if overrides:
            try:
                config = replace(config, **overrides)
            except TypeError as exc:
                raise ImputationError(
                    f"unknown config override: {exc}"
                ) from exc
        budget = (
            budget_seconds
            if budget_seconds is not None
            else self.config.request_budget_seconds
        )
        if budget is not None:
            # Deadline semantics: degrade to a partial result rather
            # than failing the request (PR 2 budget machinery).
            config = replace(
                config,
                time_budget_seconds=budget,
                on_budget="partial",
            )
        return config


def session_rows(rows: object) -> list[Sequence]:
    """Validate a JSON ``rows`` payload into a list of row sequences."""
    if not isinstance(rows, list) or not all(
        isinstance(row, list) for row in rows
    ):
        raise ImputationError("'rows' must be a list of lists")
    return rows
