"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-classes mirror the main
subsystems (dataset handling, RFD parsing, discovery, imputation and
evaluation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation schema is invalid or an attribute lookup failed."""


class DataError(ReproError):
    """A relation instance contains malformed or unusable data."""


class CSVFormatError(DataError):
    """A CSV file could not be parsed into a relation."""


class RFDParseError(ReproError):
    """A textual RFD specification could not be parsed."""


class RFDValidationError(ReproError):
    """An RFD references unknown attributes or carries invalid thresholds."""


class DiscoveryError(ReproError):
    """RFD discovery was configured or executed incorrectly."""


class ImputationError(ReproError):
    """The imputation engine was misused (bad inputs, unknown attribute)."""


class EvaluationError(ReproError):
    """Evaluation of an imputation result failed (bad rules, bad masks)."""


class RuleFileError(EvaluationError):
    """A validation rule file is malformed."""


class JournalError(ReproError):
    """An imputation journal is unreadable or does not match the run."""


class TelemetryError(ReproError):
    """The telemetry layer was misused (bad metric name, type clash,
    non-monotonic histogram buckets, malformed trace file)."""


class InjectedFaultError(ReproError):
    """A deterministic fault raised by the chaos harness.

    Never raised by production code paths; the fault injectors of
    :mod:`repro.robustness.chaos` use it so tests can tell injected
    failures apart from genuine bugs.
    """


class ServiceError(ReproError):
    """The imputation service could not start or operate.

    Raised by :mod:`repro.service` for server-level failures — the
    listen socket cannot bind, the artifact directory is unusable, a
    session store overflow the caller asked to treat as fatal.  Request-
    level problems (bad payloads, unknown sessions, backpressure) are
    answered with HTTP status codes instead and never raise this.  The
    CLI maps this error to exit code 8.
    """


class ServiceClientError(ServiceError):
    """The hardened service client gave up on a request.

    Raised by :mod:`repro.service.client` once its retry budget (or the
    caller's deadline) is exhausted, or for a non-retryable HTTP error.
    ``status`` carries the last HTTP status code, if any response was
    received at all.
    """

    def __init__(self, message: str, *, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class PipelineError(ReproError):
    """A continuous-ingestion pipeline run could not start or commit.

    Raised by :mod:`repro.pipeline` for run-level failures — the ingest
    directory is unusable, a stage died on an I/O error (e.g. ENOSPC
    while reconciling the store), an in-progress run blocks a new one.
    Failures always name the run and stage; the run-state store stays
    consistent so ``pipeline resume`` can retake the run once the cause
    clears.  The CLI maps this error (and its subclasses below) to exit
    code 9.
    """


class StateError(PipelineError):
    """The pipeline's run-state store is unreadable or inconsistent.

    Raised when both ``state.json`` and its ``state.json.prev`` fallback
    fail to parse, or when an envelope's fields do not validate.  A
    truncated ``state.json`` alone never raises: the store falls back to
    the previous envelope with a counted warning.
    """


class LeaseError(PipelineError):
    """The pipeline lease is held by a live run.

    Raised when acquiring the run lock while another process holds a
    non-stale lease.  A *stale* lease (dead owner process, or no
    heartbeat within its TTL) never raises: exactly one contender takes
    it over and the rest get this error.
    """


class BudgetExceededError(ReproError):
    """A configured time or memory budget was exhausted.

    Mirrors the paper's 48-hour / 30 GB stress-test limits: benchmark
    harnesses convert this into the "TL"/"ML" table entries instead of
    letting a run go unbounded.

    Attributes
    ----------
    scope:
        ``"run"`` (the whole imputation) or ``"cell"`` (one missing
        cell's deadline).  The driver downgrades cell-scope overruns to
        the fallback tier; run-scope overruns end the run.
    kind:
        ``"time"`` or ``"memory"`` — the paper's "TL" vs "ML".
    partial_result:
        When the RENUVER driver raises a run-scope overrun it attaches
        the :class:`~repro.core.renuver.ImputationResult` built so far,
        so the work done before the limit is preserved.
    """

    def __init__(self, message: str, *, elapsed_seconds: float | None = None,
                 peak_bytes: int | None = None, scope: str = "run",
                 kind: str = "time") -> None:
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds
        self.peak_bytes = peak_bytes
        self.scope = scope
        self.kind = kind
        self.partial_result = None
