"""Durable warm-start sessions: journaled envelopes + replay recovery.

A warm session that lived only in process memory would be lost to a
crash.  This module makes a session survive ``kill -9``:

:class:`SessionStore`
    One two-generation :class:`~repro.utils.envelope.Envelope` per
    session under ``<root>/<id>.json`` (the artifact directory's
    ``sessions/`` area), with ``<id>.json.prev`` one save earlier.  A
    torn current envelope degrades to a *counted* one-event rollback;
    only both copies unreadable drops the session (counted too, in
    ``renuver_envelope_recoveries_total{store="session"}``, never a
    crash).

The envelope payload is a **journal**, not a snapshot: the session's
creation record (initial CSV, RFD source, config) plus the ordered
event list (``append`` rows, ``impute`` rounds).  Recovery *replays*
the journal through the same code paths the live requests used: the
creation record goes through
:meth:`~repro.service.engine.PreparedEngine.build_session`, the
builder behind every live session, and the events through the live
session methods.  RENUVER is deterministic, so the recovered session's
relation, pending set and maintained RFD set are bit-identical to the
moment of the last acknowledged request, and the next request answers
exactly as it would have on an uninterrupted server (asserted
byte-for-byte in ``tests/service/test_chaos_http.py``).

A discovered session's creation record also carries its discovery
result *inline* (the serialized result), and replay reads that copy
only: the session's RFD set is committed with its journal, so recovery
never consults the artifact cache and survives an evicted or corrupted
one without recomputing discovery.  Records written with a
``discovery_ref`` field still load; the field is ignored.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.dataset.csv_io import read_csv_text
from repro.discovery.config import DiscoveryConfig
from repro.discovery.dime import DiscoveryResult
from repro.exceptions import ServiceError
from repro.extensions.incremental import ImputationSession
from repro.rfd.parser import parse_rfd
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.logs import get_logger
from repro.utils.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.engine import PreparedEngine

logger = get_logger("service.durability")

#: Envelope schema version; any other version is treated as corruption
#: (fall back to ``.prev``, then drop the session), never reinterpreted.
SESSION_VERSION = 1

_PERSIST_FAILURES = "renuver_session_persist_failures_total"
_HELP_PERSIST = (
    "Session envelope saves that failed at the OS level."
)

_ID_PATTERN = re.compile(r"^s\d{6}$")


class SessionRecoveryError(ServiceError):
    """One session's journal could not be replayed (that session is
    dropped; the server keeps booting)."""


class SessionStore:
    """Per-session journals, each a two-generation envelope.

    Persistence is *best effort by contract*: a failed save is logged
    and counted (``renuver_session_persist_failures_total``), and the
    session keeps serving from memory — a full disk degrades
    durability, it must never fail the request that was trying to be
    durable.  A session whose envelope and ``.prev`` are both
    unreadable is dropped (``load`` returns ``None``), never a crash.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.root = Path(root)
        self.telemetry = telemetry or NULL_TELEMETRY
        self.persist_failures = 0

    # ------------------------------------------------------------------
    def path_for(self, session_id: str) -> Path:
        return self.root / f"{session_id}.json"

    def session_ids(self) -> list[str]:
        """Persisted session ids, in id order."""
        if not self.root.is_dir():
            return []
        ids = {
            path.stem
            for path in self.root.glob("s*.json")
            if _ID_PATTERN.match(path.stem)
        }
        return sorted(ids)

    def _envelope(self, session_id: str) -> Envelope:
        return Envelope(
            self.path_for(session_id),
            ("session_version", SESSION_VERSION),
            {"session_id": session_id},
        )

    # ------------------------------------------------------------------
    def save(self, session_id: str, payload: dict[str, Any]) -> bool:
        """Persist one session's journal; ``False`` on a failed write."""
        try:
            self._envelope(session_id).save(payload)
        except OSError as exc:
            self.persist_failures += 1
            self.telemetry.metrics.counter(
                _PERSIST_FAILURES, _HELP_PERSIST
            ).inc()
            logger.warning(
                "session %s: envelope save failed (%s); serving from "
                "memory only", session_id, exc,
            )
            return False
        return True

    def load(self, session_id: str) -> dict[str, Any] | None:
        """One session's journal payload, or ``None`` when unreadable.

        A torn current envelope falls back to ``.prev``; both
        unreadable drops the session (both counted in
        ``renuver_envelope_recoveries_total{store="session"}``).
        """
        read = self._envelope(session_id).load(
            store="session", metrics=self.telemetry.metrics
        )
        return read.payload if read.ok else None

    def delete(self, session_id: str) -> None:
        """Remove a closed session's envelope (and its ``.prev``)."""
        envelope = self._envelope(session_id)
        for target in (envelope.path, envelope.previous_path):
            try:
                target.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Journal replay
# ----------------------------------------------------------------------
def creation_record(
    *,
    csv_text: str,
    name: str,
    rfd_texts: list[str] | None,
    discovery_options: dict[str, Any] | None,
    overrides: dict[str, Any] | None,
    budget_seconds: float | None,
    incremental_discovery: bool,
    rfd_source: str,
    discovery_inline: dict[str, Any] | None,
) -> dict[str, Any]:
    """The envelope's ``created`` record (one place for its shape)."""
    return {
        "csv": csv_text,
        "name": name,
        "rfd_texts": rfd_texts,
        "discovery_options": discovery_options,
        "overrides": overrides,
        "budget_seconds": budget_seconds,
        "incremental_discovery": incremental_discovery,
        "rfd_source": rfd_source,
        "discovery_inline": discovery_inline,
    }


def rebuild_session(
    engine: "PreparedEngine", created: dict[str, Any]
) -> ImputationSession:
    """A fresh session from a creation record, built by
    :meth:`~repro.service.engine.PreparedEngine.build_session` exactly
    as the live request built it — only the discovery result is read
    from the record instead of recomputed."""
    try:
        relation = read_csv_text(
            created["csv"], name=str(created.get("name", "request"))
        )
    except Exception as exc:  # noqa: BLE001 - surfaced as recovery failure
        raise SessionRecoveryError(
            f"cannot rebuild the session relation: {exc}"
        ) from exc
    overrides = created.get("overrides")
    if isinstance(overrides, dict) and "engine" in overrides:
        # Sessions opened under the retired scalar brownout tier (or
        # with the retired ``engine`` override) journaled the field;
        # every engine gives bit-identical outcomes, so drop it.
        overrides = {k: v for k, v in overrides.items() if k != "engine"}
        logger.warning(
            "session replay: dropping retired 'engine' config override"
        )
    rfd_texts = created.get("rfd_texts")
    discovery: DiscoveryConfig | None = None
    if rfd_texts is not None:
        try:
            rfds = [parse_rfd(text) for text in rfd_texts]
        except Exception as exc:  # noqa: BLE001
            raise SessionRecoveryError(
                f"cannot re-parse the pinned RFD set: {exc}"
            ) from exc
        result = None
    else:
        options = created.get("discovery_options")
        try:
            discovery = DiscoveryConfig(**options) if options else None
        except TypeError as exc:
            raise SessionRecoveryError(
                f"cannot rebuild the discovery config: {exc}"
            ) from exc
        result = _inline_discovery(created)
        rfds = result.all_rfds
    return engine.build_session(
        relation,
        rfds,
        result,
        discovery=discovery,
        overrides=overrides,
        budget_seconds=created.get("budget_seconds"),
        incremental_discovery=created.get("incremental_discovery", True),
    )


def _inline_discovery(created: dict[str, Any]) -> DiscoveryResult:
    """The discovery result the creation record carries inline."""
    inline = created.get("discovery_inline")
    if not isinstance(inline, dict):
        raise SessionRecoveryError(
            "the creation record carries no inline discovery result"
        )
    try:
        return DiscoveryResult.from_json(inline)
    except Exception as exc:  # noqa: BLE001
        raise SessionRecoveryError(
            f"inline discovery result is unreadable: {exc}"
        ) from exc


__all__ = [
    "SESSION_VERSION",
    "SessionRecoveryError",
    "SessionStore",
    "creation_record",
    "rebuild_session",
]
