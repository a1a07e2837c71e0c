"""Stdlib HTTP JSON API for the imputation service.

Endpoints (full reference with curl examples in ``docs/SERVICE.md``):

===========================================  ===============================
``POST /v1/impute``                          one-shot imputation — with an
                                             explicit ``rfds`` list the
                                             response CSV is bit-identical
                                             to the CLI ``impute`` command
``POST /v1/sessions``                        open a warm-start session
``GET /v1/sessions/{id}``                    session statistics
``POST /v1/sessions/{id}/tuples``            append tuples to a session
``POST /v1/sessions/{id}/impute``            run one imputation round
``DELETE /v1/sessions/{id}``                 close a session
``GET /healthz``                             liveness (alias of ``/live``)
``GET /healthz/live``                        liveness: the process serves
``GET /healthz/ready``                       readiness: sessions, brownout
                                             level, queue + corruption stats
``GET /metrics``                             Prometheus text exposition
===========================================  ===============================

Built on :class:`http.server.ThreadingHTTPServer` (one thread per
connection, non-daemon so a drain can join them).  Admission control is
an :class:`~repro.service.admission.AdmissionQueue`: up to
``max_inflight`` imputation requests run, up to ``max_queue_depth``
more wait — but only while their deadline still permits — and
everything else is shed with ``429`` and a *load-derived*
``Retry-After``.  Sustained shedding engages the
:class:`~repro.service.admission.BrownoutController` ladder
(vectorized → scalar → cache-only).  ``/healthz*`` and ``/metrics``
bypass admission so operators can always see in.

Deadlines propagate end to end: the request's budget (body or service
default) fixes an absolute deadline at arrival; queueing consumes it,
the engine receives only the *remaining* budget, and the response
reports what was left as ``X-Budget-Remaining-Seconds``.

Every request runs under a fresh ``service.request`` span (the tracer
is per-request; the metrics registry is process-wide) and lands in
``renuver_http_requests_total{route,code}`` and
``renuver_http_request_seconds{route}``.

Graceful drain:
:meth:`ImputationHTTPServer.drain` stops the accept loop, waits for
in-flight handler threads, and leaves settled state behind — the CLI
``serve`` subcommand maps SIGTERM/SIGINT onto it and exits 0.  With a
durable session store the drain loses nothing anyway: every
acknowledged session mutation is already journaled, and the next boot
replays it (``docs/SERVICE.md``).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import fields as dataclass_fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from socket import SO_LINGER, SOL_SOCKET
from struct import pack
from time import perf_counter
from typing import Any

from repro.core.report import ImputationReport
from repro.dataset.csv_io import read_csv_text, to_csv_text
from repro.dataset.missing import is_missing
from repro.discovery.config import DiscoveryConfig
from repro.exceptions import InjectedFaultError, ReproError, ServiceError
from repro.rfd.parser import parse_rfd
from repro.robustness.chaos import ChaosInjector
from repro.service.admission import (
    AdmissionQueue,
    BrownoutController,
    ShedRequest,
)
from repro.service.artifacts import ArtifactStore
from repro.service.durability import SessionStore, creation_record
from repro.service.engine import PreparedEngine, ServiceConfig, session_rows
from repro.service.sessions import SessionManager
from repro.telemetry import Telemetry, prometheus_text
from repro.telemetry.logs import get_logger

logger = get_logger("service.http")

#: RenuverConfig fields a request may override per call.  Everything
#: else (budgets, blocking, journals) is owned by the operator.
_CONFIG_OVERRIDES = frozenset(
    {"engine", "verify", "fallback", "max_candidates", "cluster_order"}
)

_DISCOVERY_ALIASES = {"limit": "threshold_limit", "max_lhs": "max_lhs_size"}
_DISCOVERY_FIELDS = frozenset(
    f.name for f in dataclass_fields(DiscoveryConfig)
)

_DEGRADED = "renuver_service_degraded_requests_total"
_HELP_DEGRADED = (
    "Requests that ran under a brownout tier below normal, by tier."
)
_CHAOS = "renuver_http_chaos_faults_total"
_HELP_CHAOS = "Injected HTTP faults applied to requests, by kind."


class _HTTPError(Exception):
    """An error with a status code; rendered as a JSON body."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


class ImputationHTTPServer(ThreadingHTTPServer):
    """The service's threading HTTP server (one engine, many requests)."""

    #: Non-daemon handler threads: ``server_close`` joins them, which is
    #: exactly the drain semantics the SIGTERM path needs.
    daemon_threads = False
    block_on_close = True

    def __init__(
        self,
        address: tuple[str, int],
        *,
        engine: PreparedEngine,
        telemetry: Telemetry,
        chaos: ChaosInjector | None = None,
    ) -> None:
        self.engine = engine
        self.telemetry = telemetry
        self.chaos = chaos
        config = engine.config
        session_store: SessionStore | None = None
        if config.durable_sessions and engine.store is not None:
            session_store = SessionStore(
                engine.store.root / "sessions", telemetry=telemetry
            )
        self.sessions = SessionManager(
            config.max_sessions, store=session_store
        )
        #: Boot-time session recovery happens before the socket binds,
        #: so the first accepted request already sees the warm state.
        self.recovery = self.sessions.recover(engine)
        self.admission = AdmissionQueue(
            config.max_inflight,
            max_queue_depth=config.max_queue_depth,
            max_queue_wait_seconds=config.max_queue_wait_seconds,
            telemetry=telemetry,
        )
        self.brownout = BrownoutController(
            enabled=config.brownout_enabled,
            step_up_sheds=config.brownout_step_up_sheds,
            window_seconds=config.brownout_window_seconds,
            cooldown_seconds=config.brownout_cooldown_seconds,
            telemetry=telemetry,
        )
        self.draining = threading.Event()
        try:
            super().__init__(address, _Handler)
        except OSError as exc:
            raise ServiceError(
                f"cannot bind {address[0]}:{address[1]}: {exc}"
            ) from exc

    @property
    def port(self) -> int:
        """The bound port (useful with ``--port 0``)."""
        return self.server_address[1]

    def drain(self) -> None:
        """Stop accepting, finish in-flight requests, release the socket.

        Idempotent; safe to call from a signal-driven thread while
        ``serve_forever`` runs in another.
        """
        if self.draining.is_set():
            return
        self.draining.set()
        logger.info("draining: refusing new work, finishing in-flight")
        self.shutdown()       # stop the accept loop
        self.server_close()   # join handler threads (block_on_close)
        logger.info("drain complete")


def build_server(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    config: ServiceConfig | None = None,
    artifact_dir: str | None = None,
    telemetry: Telemetry | None = None,
    chaos: ChaosInjector | None = None,
) -> ImputationHTTPServer:
    """Assemble a ready-to-serve engine + HTTP server.

    The server always runs with a live process-wide metrics registry
    (``/metrics`` must have something to expose); pass ``telemetry`` to
    share one.  ``artifact_dir`` enables the fingerprint-keyed artifact
    cache that lets warm requests skip discovery — and, with
    ``durable_sessions`` (the default), the journaled session envelopes
    that survive a ``kill -9``.  ``chaos`` arms the HTTP fault channel
    of :class:`~repro.robustness.chaos.ChaosInjector` (tests only).
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    store = (
        ArtifactStore(artifact_dir, telemetry=telemetry)
        if artifact_dir
        else None
    )
    engine = PreparedEngine(config, store=store, telemetry=telemetry)
    return ImputationHTTPServer(
        (host, port), engine=engine, telemetry=telemetry, chaos=chaos
    )


class _Handler(BaseHTTPRequestHandler):
    """Routes requests; all real work happens on the shared engine.

    One handler instance serves one request (``Connection: close``), so
    per-request state (body, deadline, fault plan) lives on ``self``.
    """

    protocol_version = "HTTP/1.1"
    server: ImputationHTTPServer  # narrowed for type checkers

    # -- entry points ----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("DELETE")

    def log_message(self, format: str, *args: Any) -> None:
        """Route the stdlib access log into the repro logger tree."""
        logger.debug("%s %s", self.address_string(), format % args)

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        route, handler, needs_admission = self._route(method)
        started = perf_counter()
        self._deadline: float | None = None
        self._body: dict[str, Any] = {}
        self._mid_kill = False
        status = 500
        admitted = False
        telemetry = self.server.engine.request_telemetry()
        try:
            fault = (
                self.server.chaos.http_fault()
                if self.server.chaos is not None else None
            )
            if fault is not None:
                kind = fault["kind"]
                self.server.telemetry.metrics.counter(
                    _CHAOS, _HELP_CHAOS, kind=kind
                ).inc()
                if kind == "reset":
                    status = 0
                    self._abort_connection()
                    return
                if kind == "slow_read":
                    time.sleep(fault["seconds"])
                elif kind == "mid_kill":
                    self._mid_kill = True
                elif kind == "crash":
                    raise InjectedFaultError("injected handler crash")
            if handler is None:
                raise _HTTPError(404, f"no route {method} {self.path}")
            if self.server.draining.is_set() and route not in (
                "/healthz", "/healthz/live", "/metrics"
            ):
                raise _HTTPError(503, "server is draining")
            if needs_admission:
                # The body is read *before* admission: the deadline it
                # carries decides how long this request may queue.
                self._body = self._read_json()
                budget = self._budget_from(self._body)
                if budget is None:
                    budget = self.server.engine.config.request_budget_seconds
                if budget is not None:
                    self._deadline = started + budget
                self.server.brownout.observe()
                self.server.admission.acquire(self._deadline)
                admitted = True
            try:
                with telemetry.tracer.span(
                    "service.request", route=route, method=method
                ) as span:
                    status, payload, content_type = handler(telemetry)
                    span.set_attribute("status", status)
            finally:
                if admitted:
                    self.server.admission.release(
                        perf_counter() - started
                    )
            self._respond(
                status, payload, content_type, self._budget_headers()
            )
        except ShedRequest as exc:
            # Overload (or brownout cache-only): counted, audited, and
            # answered 429 with a load-derived Retry-After — never 5xx.
            self.server.brownout.record_shed()
            status = 429
            retry_after = max(1, int(exc.retry_after))
            self._respond(
                429,
                json.dumps({
                    "error": f"request shed ({exc.reason}); retry after "
                             f"{retry_after}s",
                    "reason": exc.reason,
                    "brownout_tier": self.server.brownout.tier,
                }).encode("utf-8"),
                "application/json",
                {"Retry-After": str(retry_after)},
            )
        except _HTTPError as exc:
            status = exc.status
            headers = (
                {"Retry-After": str(max(
                    1, int(self.server.admission.retry_after_seconds())
                ))}
                if exc.status == 429 else None
            )
            self._respond(
                exc.status,
                json.dumps(exc.payload).encode("utf-8"),
                "application/json",
                headers,
            )
        except InjectedFaultError as exc:
            # A chaos handler crash is a *server* failure (it must not
            # masquerade as the 400 its ReproError parentage would get).
            status = 500
            self._respond(500, json.dumps({
                "error": f"internal error: {type(exc).__name__}",
            }).encode("utf-8"), "application/json")
        except ReproError as exc:
            # Client-data failures (bad CSV, bad RFD text, bad config)
            # are the request's fault, not the server's.
            status = 400
            self._respond(400, json.dumps({
                "error": str(exc), "type": type(exc).__name__,
            }).encode("utf-8"), "application/json")
        except BrokenPipeError:  # pragma: no cover - client went away
            status = 499
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            status = 500
            logger.exception("unhandled error on %s %s", method, route)
            self._respond(500, json.dumps({
                "error": f"internal error: {type(exc).__name__}",
            }).encode("utf-8"), "application/json")
        finally:
            self._observe(route, status, perf_counter() - started)

    def _route(self, method: str):
        """(route template, bound handler, needs admission)."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return "/healthz", self._handle_live, False
        if path == "/healthz/live" and method == "GET":
            return "/healthz/live", self._handle_live, False
        if path == "/healthz/ready" and method == "GET":
            return "/healthz/ready", self._handle_ready, False
        if path == "/metrics" and method == "GET":
            return "/metrics", self._handle_metrics, False
        if path == "/v1/impute" and method == "POST":
            return "/v1/impute", self._handle_impute, True
        if path == "/v1/sessions" and method == "POST":
            return "/v1/sessions", self._handle_session_create, True
        parts = path.split("/")
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "sessions":
            session_id = parts[3]
            if len(parts) == 4 and method == "GET":
                return (
                    "/v1/sessions/{id}",
                    lambda t: self._handle_session_get(t, session_id),
                    False,
                )
            if len(parts) == 4 and method == "DELETE":
                return (
                    "/v1/sessions/{id}",
                    lambda t: self._handle_session_delete(t, session_id),
                    False,
                )
            if len(parts) == 5 and parts[4] == "tuples" and method == "POST":
                return (
                    "/v1/sessions/{id}/tuples",
                    lambda t: self._handle_session_tuples(t, session_id),
                    True,
                )
            if len(parts) == 5 and parts[4] == "impute" and method == "POST":
                return (
                    "/v1/sessions/{id}/impute",
                    lambda t: self._handle_session_impute(t, session_id),
                    True,
                )
        return self.path, None, False

    # -- handlers --------------------------------------------------------
    def _handle_live(self, telemetry: Telemetry):
        """Liveness: the process is up and the handler pool answers.

        Deliberately unconditional (even while draining): liveness
        gates *restarts*, and a draining server must not be killed
        mid-drain.  Readiness is the gate for *traffic*.
        """
        body = json.dumps({
            "status": "ok",
            "sessions": len(self.server.sessions),
            "max_inflight": self.server.engine.config.max_inflight,
            "artifact_cache": self.server.engine.store is not None,
        }).encode("utf-8")
        return 200, body, "application/json"

    def _handle_ready(self, telemetry: Telemetry):
        """Readiness: whether this instance should receive traffic."""
        server = self.server
        store = server.engine.store
        session_store = server.sessions.store
        payload = {
            "status": "ready",
            "sessions": len(server.sessions),
            "recovered_sessions": server.sessions.recovered,
            "dropped_sessions": server.sessions.dropped,
            "durable_sessions": session_store is not None,
            "session_persist_failures": (
                session_store.persist_failures
                if session_store is not None else 0
            ),
            "artifact_corruptions": (
                store.corruptions if store is not None else 0
            ),
            "brownout": server.brownout.snapshot(),
            "admission": server.admission.snapshot(),
        }
        status = 200
        return status, json.dumps(payload).encode("utf-8"), (
            "application/json"
        )

    def _handle_metrics(self, telemetry: Telemetry):
        text = prometheus_text(self.server.telemetry.metrics)
        return 200, text.encode("utf-8"), (
            "text/plain; version=0.0.4; charset=utf-8"
        )

    def _handle_impute(self, telemetry: Telemetry):
        body = self._body
        relation = self._relation_from(body)
        discovery = self._discovery_from(body)[0]
        rfds = self._rfds_from(body)
        if rfds is None:
            self._enforce_cache_only(relation, discovery)
        result, source = self.server.engine.impute_once(
            relation,
            rfds,
            discovery=discovery,
            overrides=self._effective_overrides(body),
            budget_seconds=self._remaining_budget(),
            telemetry=telemetry,
        )
        payload = {
            "csv": to_csv_text(result.relation),
            "report": _report_payload(result.report),
            "rfd_source": source,
            "budget_remaining_seconds": self._remaining_budget(),
            "brownout_tier": self.server.brownout.tier,
        }
        return 200, json.dumps(payload).encode("utf-8"), "application/json"

    def _handle_session_create(self, telemetry: Telemetry):
        body = self._body
        relation = self._relation_from(body)
        incremental = body.get("incremental_discovery", True)
        if not isinstance(incremental, bool):
            raise _HTTPError(400, "'incremental_discovery' must be a bool")
        discovery, discovery_options = self._discovery_from(body)
        rfds = self._rfds_from(body)
        if rfds is None:
            self._enforce_cache_only(relation, discovery)
        overrides = self._effective_overrides(body)
        budget = self._budget_from(body)
        imputation, maintainer, source, result = (
            self.server.engine.open_session(
                relation,
                rfds,
                discovery=discovery,
                overrides=overrides,
                budget_seconds=budget,
                incremental_discovery=incremental,
                telemetry=telemetry,
            )
        )
        record = None
        if self.server.sessions.store is not None:
            engine = self.server.engine
            ref = None
            if engine.store is not None and rfds is None:
                ref = engine.store.discovery_ref(
                    relation, discovery or engine.config.discovery
                )
            record = creation_record(
                csv_text=body["csv"],
                name=str(body.get("name", "request")),
                rfd_texts=body.get("rfds"),
                discovery_options=discovery_options,
                overrides=overrides,
                budget_seconds=budget,
                incremental_discovery=incremental,
                rfd_source=source,
                discovery_ref=ref,
                discovery_inline=(
                    result.to_json() if result is not None else None
                ),
            )
        session = self.server.sessions.create(
            imputation, maintainer, rfd_source=source, record=record
        )
        if session is None:
            raise _HTTPError(
                429,
                f"session registry is full "
                f"(max_sessions="
                f"{self.server.engine.config.max_sessions}); "
                f"DELETE a session you no longer need",
            )
        self._session_gauge()
        return 201, json.dumps(session.snapshot()).encode("utf-8"), (
            "application/json"
        )

    def _handle_session_get(self, telemetry: Telemetry, session_id: str):
        session = self._session(session_id)
        return 200, json.dumps(session.snapshot()).encode("utf-8"), (
            "application/json"
        )

    def _handle_session_delete(self, telemetry: Telemetry, session_id: str):
        if not self.server.sessions.delete(session_id):
            raise _HTTPError(404, f"no session {session_id!r}")
        self._session_gauge()
        return 200, json.dumps({"deleted": session_id}).encode("utf-8"), (
            "application/json"
        )

    def _handle_session_tuples(self, telemetry: Telemetry, session_id: str):
        session = self._session(session_id)
        body = self._body
        if "rows" not in body:
            raise _HTTPError(400, "body needs a 'rows' list")
        outcome = session.append(session_rows(body["rows"]))
        outcome["budget_remaining_seconds"] = self._remaining_budget()
        return 200, json.dumps(outcome).encode("utf-8"), "application/json"

    def _handle_session_impute(self, telemetry: Telemetry, session_id: str):
        session = self._session(session_id)
        result = session.impute()
        payload = {
            "report": _report_payload(result.report),
            "outcomes": [_outcome_payload(o) for o in result.report],
            "csv": to_csv_text(result.relation),
            "budget_remaining_seconds": self._remaining_budget(),
        }
        return 200, json.dumps(payload).encode("utf-8"), "application/json"

    # -- deadline and brownout plumbing ----------------------------------
    def _remaining_budget(self) -> float | None:
        """Seconds left on this request's deadline (``None`` if none).

        What queueing and earlier work did not consume is all the
        engine gets — the deadline is absolute, fixed at arrival.  An
        expired deadline maps to an epsilon budget, not zero: the
        engine then runs its budget machinery (partial result,
        ``budget_exhausted`` report) instead of treating the request as
        unbudgeted.
        """
        if self._deadline is None:
            return None
        return max(1e-9, self._deadline - perf_counter())

    def _budget_headers(self) -> dict[str, str] | None:
        if self._deadline is None:
            return None
        remaining = max(0.0, self._deadline - perf_counter())
        return {"X-Budget-Remaining-Seconds": f"{remaining:.3f}"}

    def _effective_overrides(
        self, body: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Request overrides with the brownout tier's forced fields on
        top (the ladder's engine downgrade is result-identical — the
        scalar engine is the vectorized engine's reference)."""
        overrides = self._overrides_from(body)
        forced = self.server.brownout.overrides()
        if forced:
            self.server.telemetry.metrics.counter(
                _DEGRADED, _HELP_DEGRADED,
                tier=self.server.brownout.tier,
            ).inc()
            overrides = {**(overrides or {}), **forced}
        return overrides

    def _enforce_cache_only(
        self, relation: Any, discovery: DiscoveryConfig | None
    ) -> None:
        """At brownout level 2, shed discovery-requiring requests.

        A request with a pinned RFD set never discovers; one without is
        admitted only when the artifact cache already holds the
        discovery result for its exact (relation, config) key.
        """
        if not self.server.brownout.cache_only:
            return
        store = self.server.engine.store
        if store is not None:
            ref = store.discovery_ref(
                relation, discovery or self.server.engine.config.discovery
            )
            if store.path_for(
                "discovery", ref["fingerprint"], ref["config_key"]
            ).exists():
                return  # answerable from the warm artifact
        self.server.admission.shed("cache_only")

    # -- request parsing -------------------------------------------------
    def _read_json(self) -> dict[str, Any]:
        limit = self.server.engine.config.max_body_bytes
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise _HTTPError(400, "bad Content-Length") from None
        if length > limit:
            raise _HTTPError(
                413, f"body of {length} bytes exceeds {limit}"
            )
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"body is not JSON: {exc}") from None
        if not isinstance(body, dict):
            raise _HTTPError(400, "body must be a JSON object")
        return body

    def _relation_from(self, body: dict[str, Any]):
        csv_text = body.get("csv")
        if not isinstance(csv_text, str) or not csv_text.strip():
            raise _HTTPError(400, "body needs a non-empty 'csv' string")
        return read_csv_text(csv_text, name=str(body.get("name", "request")))

    @staticmethod
    def _rfds_from(body: dict[str, Any]):
        texts = body.get("rfds")
        if texts is None:
            return None
        if not isinstance(texts, list) or not all(
            isinstance(text, str) for text in texts
        ):
            raise _HTTPError(400, "'rfds' must be a list of RFD strings")
        if not texts:
            raise _HTTPError(400, "'rfds' must not be empty when given")
        return [parse_rfd(text) for text in texts]

    @staticmethod
    def _discovery_from(
        body: dict[str, Any]
    ) -> tuple[DiscoveryConfig | None, dict[str, Any] | None]:
        """(config, normalized options) — the options are what a durable
        session journals, so recovery rebuilds the same config."""
        spec = body.get("discovery")
        if spec is None:
            return None, None
        if not isinstance(spec, dict):
            raise _HTTPError(400, "'discovery' must be an object")
        normalized: dict[str, Any] = {}
        for key, value in spec.items():
            name = _DISCOVERY_ALIASES.get(key, key)
            if name not in _DISCOVERY_FIELDS:
                raise _HTTPError(
                    400, f"unknown discovery option {key!r}"
                )
            normalized[name] = value
        try:
            return DiscoveryConfig(**normalized), normalized
        except TypeError as exc:
            raise _HTTPError(400, f"bad discovery options: {exc}") from None

    @staticmethod
    def _overrides_from(body: dict[str, Any]) -> dict[str, Any] | None:
        spec = body.get("config")
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise _HTTPError(400, "'config' must be an object")
        unknown = set(spec) - _CONFIG_OVERRIDES
        if unknown:
            raise _HTTPError(
                400,
                f"unknown config option(s) {sorted(unknown)}; "
                f"allowed: {sorted(_CONFIG_OVERRIDES)}",
            )
        return dict(spec)

    @staticmethod
    def _budget_from(body: dict[str, Any]) -> float | None:
        budget = body.get("budget_seconds")
        if budget is None:
            return None
        if not isinstance(budget, (int, float)) or budget <= 0:
            raise _HTTPError(
                400, "'budget_seconds' must be a positive number"
            )
        return float(budget)

    def _session(self, session_id: str):
        session = self.server.sessions.get(session_id)
        if session is None:
            raise _HTTPError(404, f"no session {session_id!r}")
        return session

    # -- response plumbing -----------------------------------------------
    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        # One request per connection keeps the drain's thread-join
        # bounded: no idle keep-alive thread can stall shutdown.
        self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self._mid_kill:
            # Chaos mid-response kill: half the body, then an RST.
            self.wfile.write(body[: len(body) // 2])
            self.wfile.flush()
            self._abort_connection()
            return
        self.wfile.write(body)
        self.close_connection = True

    def _abort_connection(self) -> None:
        """Tear the TCP connection down with an RST (chaos faults)."""
        try:
            # SO_LINGER with zero timeout turns close() into a reset,
            # which is what a crashed or power-cycled peer looks like.
            self.connection.setsockopt(
                SOL_SOCKET, SO_LINGER, pack("ii", 1, 0)
            )
        except OSError:  # pragma: no cover - already torn down
            pass
        self.close_connection = True
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def _observe(self, route: str, status: int, seconds: float) -> None:
        metrics = self.server.telemetry.metrics
        metrics.counter(
            "renuver_http_requests_total",
            "HTTP requests served, by route template and status code.",
            route=route, code=str(status),
        ).inc()
        metrics.histogram(
            "renuver_http_request_seconds",
            "HTTP request latency by route template.",
            route=route,
        ).observe(seconds)

    def _session_gauge(self) -> None:
        self.server.telemetry.metrics.gauge(
            "renuver_http_sessions",
            "Live warm-start sessions.",
        ).set(len(self.server.sessions))


# ----------------------------------------------------------------------
# Payload rendering
# ----------------------------------------------------------------------
def _report_payload(report: ImputationReport) -> dict[str, Any]:
    return {
        "missing_cells": report.missing_count,
        "imputed_cells": report.imputed_count,
        "degraded_cells": report.degraded_count,
        "unimputed_cells": report.unimputed_count,
        "fill_rate": report.fill_rate,
        "status_counts": report.status_counts(),
        "elapsed_seconds": report.elapsed_seconds,
        "degradations": len(report.degradations),
        "budget_exhausted": any(
            event.scope == "run" for event in report.budget_events
        ),
        "replayed_cells": report.replayed_count,
    }


def _outcome_payload(outcome: Any) -> dict[str, Any]:
    return {
        "row": outcome.row,
        "attribute": outcome.attribute,
        "status": outcome.status.value,
        "value": None if is_missing(outcome.value) else outcome.value,
        "source_row": outcome.source_row,
        "rfd": str(outcome.rfd) if outcome.rfd is not None else None,
        "distance": outcome.distance,
    }
