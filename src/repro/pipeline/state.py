"""Persistent run state for the continuous-ingestion pipeline.

Two crash-safety primitives live here:

:class:`RunStateStore`
    ``state.json`` — a two-generation
    :class:`~repro.utils.envelope.Envelope` holding the pipeline's
    :class:`PipelineState` (watermark, store version with its RFD set,
    the run in flight, history, and the carried-forward unresolved-cell
    ledger).
    A torn or corrupted current envelope degrades to a *counted*
    one-version rollback to ``state.json.prev``
    (``renuver_envelope_recoveries_total{store="pipeline_state"}``)
    instead of a crash.  Only when both copies are unreadable does the
    store raise :class:`~repro.exceptions.StateError`.

:class:`Lease`
    ``pipeline.lock`` — a single-writer lease guarding the whole
    pipeline root.  Acquisition hard-links a fully written payload file
    to the lock path (atomic on POSIX, and fails if the lock exists), so
    no contender ever reads a live lock half-written; a lease left
    behind by a crashed run is *stale* (corrupt
    payload, dead pid on the same host, or heartbeat older than its
    TTL) and is taken over via ``os.rename`` of the stale lock file —
    rename is atomic, so when several contenders race for the same
    stale lease exactly one wins the takeover and the rest retry
    against the winner's fresh (live) lock.  A held lease renews its
    mtime from a heartbeat thread so long runs never look stale.

Both are deliberately free of pipeline logic: the runner
(:mod:`repro.pipeline.runner`) decides *what* to persist and *when*;
this module only guarantees the persistence itself survives crashes.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from contextlib import contextmanager

from repro.discovery.dime import DiscoveryResult
from repro.exceptions import LeaseError, StateError
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.logs import get_logger
from repro.utils.envelope import Envelope

logger = get_logger("pipeline.state")

#: Envelope schema version; any other version is treated as corruption
#: (fall back to ``.prev``, then raise), never silently reinterpreted.
STATE_VERSION = 1

_RUN_MODES = ("full", "incr")
_RUN_STATUSES = ("running", "committed", "failed")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StateError(f"invalid pipeline state: {message}")


@dataclass(frozen=True)
class Watermark:
    """How far ingestion has been consumed: the exact ingest file names
    already folded into the persistent store, plus their total rows."""

    files: tuple[str, ...] = ()
    rows: int = 0

    def to_payload(self) -> dict[str, Any]:
        return {"files": list(self.files), "rows": self.rows}

    @classmethod
    def from_payload(cls, payload: Any) -> "Watermark":
        _require(isinstance(payload, dict), "watermark is not an object")
        files = payload.get("files", [])
        _require(
            isinstance(files, list)
            and all(isinstance(f, str) for f in files),
            "watermark.files is not a list of names",
        )
        rows = payload.get("rows", 0)
        _require(
            isinstance(rows, int) and rows >= 0,
            "watermark.rows is not a non-negative integer",
        )
        return cls(files=tuple(files), rows=rows)


@dataclass(frozen=True)
class StoreVersion:
    """One committed snapshot of the persistent imputed store."""

    version: int
    filename: str
    #: SHA-256 relation fingerprint of the snapshot *as re-read from
    #: disk* — what the next INCR run's store-integrity check must match.
    fingerprint: str
    rows: int
    #: The RFD set that holds on the snapshot, committed with it: the
    #: set the next INCR run maintains.  ``None`` in a state written
    #: before the envelope carried it (that run degrades to FULL).
    discovery: DiscoveryResult | None = None

    def to_payload(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "filename": self.filename,
            "fingerprint": self.fingerprint,
            "rows": self.rows,
            "discovery": None if self.discovery is None
            else self.discovery.to_json(),
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "StoreVersion":
        _require(isinstance(payload, dict), "store is not an object")
        version = payload.get("version")
        _require(
            isinstance(version, int) and version >= 1,
            "store.version is not a positive integer",
        )
        filename = payload.get("filename")
        _require(
            isinstance(filename, str) and bool(filename),
            "store.filename is not a file name",
        )
        fingerprint = payload.get("fingerprint")
        _require(
            isinstance(fingerprint, str) and bool(fingerprint),
            "store.fingerprint is not a digest",
        )
        rows = payload.get("rows", 0)
        _require(
            isinstance(rows, int) and rows >= 0,
            "store.rows is not a non-negative integer",
        )
        discovery = payload.get("discovery")
        _require(
            discovery is None or isinstance(discovery, dict),
            "store.discovery is not an object",
        )
        return cls(
            version=version, filename=filename,
            fingerprint=fingerprint, rows=rows,
            discovery=None if discovery is None
            else DiscoveryResult.from_json(discovery),
        )


@dataclass(frozen=True)
class RunRecord:
    """Everything needed to re-execute one run deterministically.

    ``files`` is the run's *complete* watermark-to-be (every ingest file
    the run covers); ``new_files`` is the delta beyond the previous
    watermark.  Together with ``base_version`` they pin the run's exact
    inputs, so ``pipeline resume`` rebuilds the identical dirty relation
    a crashed run started from — which is what lets the journal replay
    (fingerprint-checked) and the recommitted store come out
    bit-identical.
    """

    run_id: str
    mode: str                      # "full" | "incr"
    status: str                    # "running" | "committed" | "failed"
    files: tuple[str, ...]         # all ingest files covered by the run
    new_files: tuple[str, ...]     # files beyond the previous watermark
    base_version: int | None       # store version an INCR run extends
    requested_mode: str = "auto"
    degraded_reason: str | None = None
    started_unix: float = 0.0
    finished_unix: float | None = None
    rows_ingested: int = 0
    cells_imputed: int = 0

    def to_payload(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "mode": self.mode,
            "status": self.status,
            "files": list(self.files),
            "new_files": list(self.new_files),
            "base_version": self.base_version,
            "requested_mode": self.requested_mode,
            "degraded_reason": self.degraded_reason,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "rows_ingested": self.rows_ingested,
            "cells_imputed": self.cells_imputed,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "RunRecord":
        _require(isinstance(payload, dict), "run record is not an object")
        run_id = payload.get("run_id")
        _require(
            isinstance(run_id, str) and bool(run_id),
            "run.run_id is not a name",
        )
        mode = payload.get("mode")
        _require(mode in _RUN_MODES, f"run.mode {mode!r} is unknown")
        status = payload.get("status")
        _require(
            status in _RUN_STATUSES, f"run.status {status!r} is unknown"
        )
        for key in ("files", "new_files"):
            value = payload.get(key, [])
            _require(
                isinstance(value, list)
                and all(isinstance(f, str) for f in value),
                f"run.{key} is not a list of names",
            )
        base_version = payload.get("base_version")
        _require(
            base_version is None
            or (isinstance(base_version, int) and base_version >= 1),
            "run.base_version is not a positive integer",
        )
        started = payload.get("started_unix", 0.0)
        _require(
            isinstance(started, (int, float)),
            "run.started_unix is not a timestamp",
        )
        finished = payload.get("finished_unix")
        _require(
            finished is None or isinstance(finished, (int, float)),
            "run.finished_unix is not a timestamp",
        )
        for key in ("rows_ingested", "cells_imputed"):
            value = payload.get(key, 0)
            _require(
                isinstance(value, int) and value >= 0,
                f"run.{key} is not a non-negative integer",
            )
        degraded = payload.get("degraded_reason")
        _require(
            degraded is None or isinstance(degraded, str),
            "run.degraded_reason is not a string",
        )
        requested = payload.get("requested_mode", "auto")
        _require(
            requested in ("auto",) + _RUN_MODES,
            f"run.requested_mode {requested!r} is unknown",
        )
        return cls(
            run_id=run_id,
            mode=mode,
            status=status,
            files=tuple(payload.get("files", [])),
            new_files=tuple(payload.get("new_files", [])),
            base_version=base_version,
            requested_mode=requested,
            degraded_reason=degraded,
            started_unix=float(started),
            finished_unix=None if finished is None else float(finished),
            rows_ingested=payload.get("rows_ingested", 0),
            cells_imputed=payload.get("cells_imputed", 0),
        )


@dataclass(frozen=True)
class PipelineState:
    """The pipeline's whole persisted world, one immutable value.

    Mutation goes through :func:`dataclasses.replace` so every state
    transition is explicit in the runner and the envelope on disk is
    always one complete, internally consistent snapshot.
    """

    runs_started: int = 0
    watermark: Watermark = field(default_factory=Watermark)
    store: StoreVersion | None = None
    #: The run currently in flight (``status == "running"`` after a
    #: crash — that is precisely what ``pipeline resume`` looks for).
    run: RunRecord | None = None
    history: tuple[RunRecord, ...] = ()
    #: Journal ``cell`` records of cells earlier runs settled *without*
    #: a fill.  INCR runs preseed their journal with these so replay
    #: skips them — the delta run re-imputes only new work.
    unresolved: tuple[dict[str, Any], ...] = ()

    def to_payload(self) -> dict[str, Any]:
        return {
            "runs_started": self.runs_started,
            "watermark": self.watermark.to_payload(),
            "store": None if self.store is None else self.store.to_payload(),
            "run": None if self.run is None else self.run.to_payload(),
            "history": [record.to_payload() for record in self.history],
            "unresolved": [dict(record) for record in self.unresolved],
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "PipelineState":
        _require(isinstance(payload, dict), "state is not an object")
        runs_started = payload.get("runs_started", 0)
        _require(
            isinstance(runs_started, int) and runs_started >= 0,
            "runs_started is not a non-negative integer",
        )
        store = payload.get("store")
        run = payload.get("run")
        history = payload.get("history", [])
        _require(isinstance(history, list), "history is not a list")
        unresolved = payload.get("unresolved", [])
        _require(
            isinstance(unresolved, list)
            and all(
                isinstance(r, dict) and r.get("type") == "cell"
                for r in unresolved
            ),
            "unresolved is not a list of journal cell records",
        )
        return cls(
            runs_started=runs_started,
            watermark=Watermark.from_payload(
                payload.get("watermark", {})
            ),
            store=None if store is None else StoreVersion.from_payload(store),
            run=None if run is None else RunRecord.from_payload(run),
            history=tuple(
                RunRecord.from_payload(record) for record in history
            ),
            unresolved=tuple(dict(record) for record in unresolved),
        )


class RunStateStore:
    """Atomic, self-recovering persistence for :class:`PipelineState`.

    Layout under ``root``::

        state.json        the current envelope
        state.json.prev   the envelope one save earlier

    Both are :class:`~repro.utils.envelope.Envelope` generations with a
    monotonically increasing ``envelope_seq``.  This wrapper adds only
    the pipeline's policy: a failed save or a lost state raises
    :class:`StateError`.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.envelope = Envelope(
            Path(root) / "state.json", ("state_version", STATE_VERSION)
        )
        self.telemetry = telemetry or NULL_TELEMETRY

    def load(self) -> PipelineState:
        """The persisted state; a fresh one when nothing exists yet.

        A corrupt ``state.json`` falls back to ``state.json.prev`` (one
        committed run's worth of rollback — the reconciler re-derives
        the rest).  Both unreadable raises :class:`StateError`.
        """
        read = self.envelope.load(
            store="pipeline_state",
            metrics=self.telemetry.metrics,
            decode=PipelineState.from_payload,
        )
        if read.reason == "absent":
            return PipelineState()
        if not read.ok:
            raise StateError(
                f"pipeline state {self.envelope.path} and fallback "
                f"{self.envelope.previous_path} are both unreadable "
                f"({read.reason}: {read.detail})"
            )
        return read.payload

    def save(self, state: PipelineState) -> int:
        """Persist ``state``; returns the new envelope sequence number."""
        try:
            return self.envelope.save(state.to_payload())
        except OSError as exc:
            raise StateError(
                f"cannot persist pipeline state {self.envelope.path}: "
                f"{exc}"
            ) from exc


# ----------------------------------------------------------------------
# The pipeline lease
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    """Best-effort liveness; unknown (EPERM) counts as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


class Lease:
    """Single-writer lease over a pipeline root, with stale takeover.

    The lock file's *content* names the holder (owner, pid, host,
    token); its *mtime* is the heartbeat.  Liveness is judged in this
    order:

    1. unreadable/corrupt payload  → stale (a lock appears with its
       payload complete, so no live holder left it that way);
    2. holder pid dead, same host  → stale;
    3. heartbeat older than the holder's TTL → stale (covers remote or
       unverifiable holders);
    4. otherwise                   → live, and :meth:`acquire` raises
       :class:`~repro.exceptions.LeaseError` naming the holder.

    Takeover of a stale lease renames the lock file to a per-contender
    claim file first.  ``os.rename`` succeeds for exactly one of any
    number of simultaneous contenders (the rest get ``FileNotFoundError``
    and re-examine whatever lock exists next), which is the whole
    exactly-one-winner guarantee — no extra coordination needed.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        owner: str | None = None,
        ttl_seconds: float = 30.0,
    ) -> None:
        if ttl_seconds <= 0:
            raise LeaseError(
                f"lease TTL must be positive, got {ttl_seconds}"
            )
        self.path = Path(path)
        self.owner = owner or f"pid-{os.getpid()}"
        self.ttl_seconds = float(ttl_seconds)
        self.token = uuid.uuid4().hex
        self._held = False

    # ------------------------------------------------------------------
    def acquire(self, *, attempts: int = 8) -> None:
        """Take the lease, stealing a stale one if necessary."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # The payload is written and synced before the lock exists: a
        # contender that found an empty, just-created lock would judge
        # it corrupt, hence stale, and take over a live lease.
        staged = self.path.with_name(f"{self.path.name}.new-{self.token}")
        try:
            with open(staged, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self._payload()))
                handle.flush()
                os.fsync(handle.fileno())
            for _ in range(attempts):
                try:
                    os.link(staged, self.path)
                except FileExistsError:
                    holder = self.peek()
                    if not self.is_stale(holder):
                        raise LeaseError(
                            f"pipeline lease {self.path} is held by "
                            f"{holder.get('owner', '?')} "
                            f"(pid {holder.get('pid', '?')} on "
                            f"{holder.get('host', '?')}); a live run is "
                            f"in progress"
                        )
                    if self._take_over(holder):
                        continue  # stale lock removed; retry the link
                    # Lost the takeover race: someone else owns a fresh
                    # lock now — loop and re-judge it.
                    time.sleep(0.01)
                    continue
                self._held = True
                logger.info(
                    "lease %s acquired by %s (token %s)",
                    self.path, self.owner, self.token[:8],
                )
                return
        except OSError as exc:
            raise LeaseError(
                f"cannot write lease {self.path}: {exc}"
            ) from exc
        finally:
            try:
                staged.unlink()
            except OSError:
                pass
        raise LeaseError(
            f"could not acquire lease {self.path} after {attempts} "
            f"attempts (takeover contention)"
        )

    def renew(self) -> None:
        """Refresh the heartbeat (the lock file's mtime)."""
        if not self._held:
            return
        try:
            os.utime(self.path)
        except OSError:  # pragma: no cover - lease dir vanished
            logger.warning("lease %s heartbeat failed", self.path)

    def release(self) -> None:
        """Drop the lease — only if the lock is still ours (token
        match); a taken-over lock is left for its new holder."""
        if not self._held:
            return
        self._held = False
        holder = self.peek()
        if holder.get("token") == self.token:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            logger.info("lease %s released by %s", self.path, self.owner)

    @contextmanager
    def held(self) -> Iterator["Lease"]:
        """Acquire, heartbeat from a daemon thread, release."""
        self.acquire()
        stop = threading.Event()
        interval = max(0.05, self.ttl_seconds / 3.0)

        def beat() -> None:
            while not stop.wait(interval):
                self.renew()

        thread = threading.Thread(
            target=beat, name="pipeline-lease-heartbeat", daemon=True
        )
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=interval * 2)
            self.release()

    # ------------------------------------------------------------------
    def peek(self) -> dict[str, Any]:
        """The current lock payload; ``{}`` when absent or corrupt."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return {}
        return payload if isinstance(payload, dict) else {}

    def _payload(self) -> dict[str, Any]:
        return {
            "owner": self.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_unix": time.time(),
            "ttl_seconds": self.ttl_seconds,
            "token": self.token,
        }

    def is_stale(self, holder: dict[str, Any]) -> bool:
        if not holder or "token" not in holder:
            return True  # torn or foreign lock file
        pid = holder.get("pid")
        host = holder.get("host")
        if (
            isinstance(pid, int)
            and host == socket.gethostname()
            and not _pid_alive(pid)
        ):
            return True
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return False  # vanished: the next link will settle it
        ttl = holder.get("ttl_seconds")
        if not isinstance(ttl, (int, float)) or ttl <= 0:
            ttl = self.ttl_seconds
        return age > ttl

    def _take_over(self, holder: dict[str, Any]) -> bool:
        """Steal a stale lock; ``True`` when this contender won."""
        claim = self.path.with_name(
            f"{self.path.name}.claim-{self.token}"
        )
        try:
            os.rename(self.path, claim)
        except FileNotFoundError:
            return False  # another contender renamed it first
        except OSError as exc:  # pragma: no cover - exotic filesystems
            raise LeaseError(
                f"cannot take over stale lease {self.path}: {exc}"
            ) from exc
        logger.warning(
            "took over stale lease %s (was %s, pid %s on %s)",
            self.path, holder.get("owner", "?"),
            holder.get("pid", "?"), holder.get("host", "?"),
        )
        try:
            claim.unlink()
        except OSError:
            pass
        return True


__all__ = [
    "Lease",
    "PipelineState",
    "RunRecord",
    "RunStateStore",
    "STATE_VERSION",
    "StoreVersion",
    "Watermark",
]
