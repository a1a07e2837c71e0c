"""repro.service — the long-running imputation service.

Turns the batch reproduction into a servable engine (the ROADMAP's
"heavy traffic" north star).  The pieces:

* :mod:`repro.service.artifacts` — a fingerprint-keyed on-disk store
  for discovery results and pattern matrices, so a warm engine skips
  RFD discovery entirely on repeated instances.
* :mod:`repro.service.engine` — :class:`PreparedEngine`: one-shot
  imputation (bit-identical to the CLI) plus warm-start sessions over
  :class:`~repro.extensions.incremental.ImputationSession` and
  :class:`~repro.discovery.incremental.IncrementalDiscovery`, with
  per-request deadlines riding the budget/degradation machinery.
* :mod:`repro.service.sessions` — the bounded, thread-safe session
  registry behind the ``/v1/sessions`` API.
* :mod:`repro.service.durability` — journaled session envelopes (two
  generations of :mod:`repro.utils.envelope`) and the replay recovery
  that makes warm sessions survive ``kill -9``.
* :mod:`repro.service.admission` — the bounded deadline-aware
  admission queue and the overload brownout ladder
  (normal → cache-only).
* :mod:`repro.service.http` — the stdlib ``ThreadingHTTPServer`` JSON
  API with liveness/readiness probes, per-request ``service.request``
  spans, Prometheus ``/metrics`` and a graceful drain for the CLI
  ``serve`` subcommand.
* :mod:`repro.service.client` — the hardened retrying client
  (capped exponential backoff + jitter, honors ``Retry-After``,
  retries transport errors only for idempotent requests).

See ``docs/SERVICE.md`` for the API reference and operational story.
"""

from repro.service.admission import (
    BROWNOUT_TIERS,
    AdmissionQueue,
    BrownoutController,
    ShedRequest,
)
from repro.service.artifacts import ARTIFACT_VERSION, ArtifactStore
from repro.service.client import ServiceClient
from repro.service.durability import (
    SESSION_VERSION,
    SessionRecoveryError,
    SessionStore,
)
from repro.service.engine import PreparedEngine, ServiceConfig
from repro.service.http import ImputationHTTPServer, build_server
from repro.service.sessions import ServiceSession, SessionManager

__all__ = [
    "ARTIFACT_VERSION",
    "AdmissionQueue",
    "ArtifactStore",
    "BROWNOUT_TIERS",
    "BrownoutController",
    "ImputationHTTPServer",
    "PreparedEngine",
    "SESSION_VERSION",
    "ServiceClient",
    "ServiceConfig",
    "ServiceSession",
    "SessionManager",
    "SessionRecoveryError",
    "SessionStore",
    "ShedRequest",
    "build_server",
]
