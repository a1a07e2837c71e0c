"""Warm-start session registry for the imputation service.

A *session* is a long-lived, append-only imputation workload: the
client uploads an initial instance, streams new tuples in, and asks for
imputation rounds whenever it likes — the whole accumulated instance
keeps serving as the donor pool (paper Section 7, incremental
scenarios).  Each :class:`ServiceSession` wraps one
:class:`~repro.extensions.incremental.ImputationSession`, which
maintains its RFD set as tuples arrive unless the client pinned one.

Durability: when the registry holds a
:class:`~repro.service.durability.SessionStore`, every acknowledged
mutation (creation, tuple append, imputation round) is journaled to a
checksummed per-session envelope *before* the response goes out, and
:meth:`SessionManager.recover` rebuilds all warm sessions on boot: the
creation record goes through the live session builder
(:meth:`~repro.service.engine.PreparedEngine.build_session`) and the
events replay through these same methods — so a ``kill -9``
followed by a restart answers the session's next request bit-identical
to an uninterrupted server.  Persistence failures degrade (counted,
logged, session keeps serving from memory); they never fail the
request.

Concurrency model: one :class:`threading.Lock` per session serializes
its mutations, so overlapping requests against the same session stay
consistent (they observe some serial order); requests against
different sessions run in parallel.  The registry itself is bounded —
creation beyond ``max_sessions`` is refused so a leaky client cannot
grow the process without limit.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.renuver import ImputationResult
from repro.extensions.incremental import ImputationSession
from repro.service.durability import (
    SessionRecoveryError,
    SessionStore,
    rebuild_session,
)
from repro.telemetry.logs import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.engine import PreparedEngine

logger = get_logger("service.sessions")


class ServiceSession:
    """One client session: accumulated relation + maintained RFDs."""

    def __init__(
        self,
        session_id: str,
        imputation: ImputationSession,
        *,
        rfd_source: str = "provided",
        record: dict[str, Any] | None = None,
        store: SessionStore | None = None,
    ) -> None:
        self.id = session_id
        self.imputation = imputation
        self.rfd_source = rfd_source
        self.lock = threading.Lock()
        #: Journal: the creation record plus the ordered event list.
        #: ``store=None`` (no durability, or mid-replay) journals
        #: nothing.
        self.record = record
        self.events: list[dict[str, Any]] = []
        self.store = store

    @property
    def rounds(self) -> int:
        """Imputation rounds run so far."""
        return self.imputation.rounds

    @property
    def appended_tuples(self) -> int:
        """Tuples appended since creation."""
        return self.imputation.appended_tuples

    # ------------------------------------------------------------------
    def append(self, rows: Sequence[Sequence[Any]]) -> dict[str, Any]:
        """Append tuples; returns row indices and maintenance info."""
        with self.lock:
            indices = self.imputation.append(rows)
            maintenance = self.imputation.maintenance
            self._journal({
                "type": "append",
                "rows": [list(row) for row in rows],
            })
            return {
                "rows": indices,
                "pending": len(self.imputation.pending_cells),
                "maintenance": (
                    None if maintenance is None else maintenance.summary()
                ),
            }

    def impute(self) -> ImputationResult:
        """Run one imputation round over the queued cells."""
        with self.lock:
            result = self.imputation.impute_pending()
            self._journal({"type": "impute"})
            return result

    def snapshot(self) -> dict[str, Any]:
        """Cheap stats for ``/healthz`` and session responses."""
        with self.lock:
            return {
                "id": self.id,
                "n_tuples": self.imputation.relation.n_tuples,
                "pending": len(self.imputation.pending_cells),
                "rounds": self.rounds,
                "appended_tuples": self.appended_tuples,
                "rfd_source": self.rfd_source,
                "durable": self.store is not None,
            }

    # ------------------------------------------------------------------
    def _journal(self, event: dict[str, Any]) -> None:
        """Append one event and persist the envelope (under the session
        lock, so the journal order is the serialization order)."""
        if self.store is None or self.record is None:
            return
        self.events.append(event)
        self.persist()

    def persist(self) -> bool:
        """Write the current journal; best effort (see SessionStore)."""
        if self.store is None or self.record is None:
            return False
        return self.store.save(self.id, {
            "created": self.record,
            "events": self.events,
        })


class SessionManager:
    """Bounded, thread-safe registry of live sessions."""

    def __init__(
        self,
        max_sessions: int = 64,
        *,
        store: SessionStore | None = None,
    ) -> None:
        self.max_sessions = max_sessions
        self.store = store
        self._lock = threading.Lock()
        self._sessions: dict[str, ServiceSession] = {}
        self._next_id = 1
        #: Sessions rebuilt by :meth:`recover` (readiness endpoint).
        self.recovered = 0
        #: Persisted sessions recovery had to drop (ditto).
        self.dropped = 0

    def create(
        self,
        imputation: ImputationSession,
        *,
        rfd_source: str = "provided",
        record: dict[str, Any] | None = None,
    ) -> ServiceSession | None:
        """Register a new session, or ``None`` when the registry is
        full (the HTTP layer answers 429; the client should delete a
        session it no longer needs).  ``record`` is the creation record
        journaled for crash recovery (no record = not durable)."""
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                return None
            session_id = f"s{self._next_id:06d}"
            self._next_id += 1
            session = ServiceSession(
                session_id,
                imputation,
                rfd_source=rfd_source,
                record=record,
                store=self.store if record is not None else None,
            )
            self._sessions[session_id] = session
        session.persist()
        logger.info("opened session %s", session_id)
        return session

    def get(self, session_id: str) -> ServiceSession | None:
        """The live session for ``session_id``, if any."""
        with self._lock:
            return self._sessions.get(session_id)

    def delete(self, session_id: str) -> bool:
        """Drop a session; returns whether it existed."""
        with self._lock:
            existed = self._sessions.pop(session_id, None) is not None
        if existed:
            if self.store is not None:
                self.store.delete(session_id)
            logger.info("closed session %s", session_id)
        return existed

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    def recover(self, engine: "PreparedEngine") -> dict[str, int]:
        """Rebuild every persisted session by replaying its journal.

        Called once at boot, before the server accepts traffic.  Each
        envelope's creation record goes through the live session
        builder (discovery comes from the inline journal copy — never
        recomputed, never looked up in the cache), then the event list
        replays through the live :meth:`ServiceSession.append` /
        :meth:`impute` paths with journaling suspended.  A session whose
        journal cannot be replayed is dropped and counted; recovery never
        refuses to boot.
        """
        if self.store is None:
            return {"recovered": 0, "dropped": 0}
        for session_id in self.store.session_ids():
            payload = self.store.load(session_id)
            if payload is None:
                self.dropped += 1
                continue
            created = payload.get("created")
            events = payload.get("events")
            if not isinstance(created, dict) or not isinstance(events, list):
                logger.error(
                    "session %s: journal has no created/events shape; "
                    "dropping", session_id,
                )
                self.dropped += 1
                continue
            try:
                session = ServiceSession(
                    session_id,
                    rebuild_session(engine, created),
                    rfd_source=str(created.get("rfd_source", "provided")),
                    record=created,
                    store=None,  # journaling suspended during replay
                )
                for event in events:
                    self._replay(session, event)
            except SessionRecoveryError as exc:
                logger.error(
                    "session %s: recovery failed (%s); dropping",
                    session_id, exc,
                )
                self.dropped += 1
                continue
            except Exception:  # noqa: BLE001 - drop one, keep booting
                logger.exception(
                    "session %s: replay crashed; dropping", session_id
                )
                self.dropped += 1
                continue
            # Re-arm journaling with the replayed event list so the
            # next live mutation extends — not restarts — the journal.
            session.events = list(events)
            session.store = self.store
            with self._lock:
                self._sessions[session_id] = session
                numeric = int(session_id.lstrip("s"))
                self._next_id = max(self._next_id, numeric + 1)
            self.recovered += 1
            logger.info(
                "recovered session %s (%d journaled events)",
                session_id, len(events),
            )
        return {"recovered": self.recovered, "dropped": self.dropped}

    @staticmethod
    def _replay(session: ServiceSession, event: dict[str, Any]) -> None:
        kind = event.get("type")
        if kind == "append":
            rows = event.get("rows")
            if not isinstance(rows, list):
                raise SessionRecoveryError("append event without rows")
            session.append(rows)
        elif kind == "impute":
            session.impute()
        else:
            raise SessionRecoveryError(f"unknown journal event {kind!r}")
