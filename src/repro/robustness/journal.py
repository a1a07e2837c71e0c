"""The JSONL imputation journal: checkpoint/resume for RENUVER runs.

A journaled run appends one JSON record per processed cell as it goes,
flushing after every record, so a run killed at any point leaves a
replayable prefix on disk.  ``Renuver.impute(resume_from=...)`` replays
that prefix onto a fresh copy of the *same* dirty relation — restoring
every filled value and skipping every settled cell — and continues
exactly where the run died.  Because the algorithm is deterministic, the
resumed run converges on a relation bit-identical to an uninterrupted
one.

Record types (one JSON object per line):

``header``
    Written once when the journal file is created: schema (attribute
    names), tuple count, missing-cell count and a SHA-256 fingerprint
    of the dirty relation.  Resume refuses to replay onto a relation
    with a different schema or fingerprint.  Journals written before
    the SHA-256 switch carry an MD5 fingerprint (32 hex chars); replay
    still accepts those by digest length.
``cell``
    One terminal :class:`~repro.core.report.CellOutcome`: coordinates,
    status, value, source row, RFD (re-parseable text), distance,
    engine tier, candidates tried and rollback count.  Journals written
    by older versions may carry an extra ``worker`` key; replay ignores
    it.
``budget``
    A :class:`~repro.core.report.BudgetEvent` (run- or cell-scope).
``degradation`` / ``reactivation``
    A :class:`~repro.core.report.Degradation`, or the key RFDs
    re-activated by a fill (Algorithm 1 line 14).  Audit records that
    only older journals contain; replay ignores them.
``end``
    The run finished normally.  Absent after a crash — which is fine:
    replay only needs the prefix.

A truncated final line (the record being written when the process died)
is tolerated and *counted*: replay drops the torn tail with a warning
and, when a telemetry spine is attached, increments
``renuver_journal_torn_records_total``.  Corruption anywhere else raises
:class:`~repro.exceptions.JournalError`.  Appends that fail at the OS
level (e.g. a full disk) surface as a :class:`JournalError` naming the
journal path rather than leaking a raw ``OSError``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, TextIO

from repro.core.report import (
    BudgetEvent,
    CellOutcome,
    Degradation,
    OutcomeStatus,
)
from repro.dataset.missing import is_missing
from repro.dataset.relation import Relation
from repro.exceptions import JournalError
from repro.rfd.parser import parse_rfd
from repro.rfd.rfd import RFD
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.logs import get_logger
from repro.utils.atomic import check_disk_fault

# Relation fingerprinting moved to repro.utils.fingerprint so the
# service's artifact cache shares it; re-exported here for backward
# compatibility (several callers import it from the journal).
from repro.utils.fingerprint import (  # noqa: F401 - re-export
    fingerprint_matches,
    relation_fingerprint,
)

logger = get_logger("robustness.journal")

JOURNAL_VERSION = 1


def cell_record(outcome: CellOutcome) -> dict[str, Any]:
    """The JSON journal record for one settled cell.

    The inverse of :func:`outcome_from_record`; shared by
    :meth:`JournalWriter.record_cell` and the pipeline's carried-forward
    unresolved-cell ledger, so every persisted cell outcome uses one
    vocabulary.
    """
    rollbacks = outcome.candidates_tried - (1 if outcome.filled else 0)
    return {
        "type": "cell",
        "row": outcome.row,
        "attribute": outcome.attribute,
        "status": outcome.status.value,
        "value": None if is_missing(outcome.value) else outcome.value,
        "source_row": outcome.source_row,
        "rfd": str(outcome.rfd) if outcome.rfd is not None else None,
        "distance": outcome.distance,
        "cluster_threshold": outcome.cluster_threshold,
        "candidates_tried": outcome.candidates_tried,
        "rollbacks": max(0, rollbacks),
        "engine_tier": outcome.engine_tier,
        "reason": outcome.reason,
    }


class JournalWriter:
    """Append-only JSONL journal, flushed after every record.

    ``fsync=True`` additionally syncs each record to stable storage
    (survives OS crashes, not just process death) at a per-cell cost.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._handle: TextIO | None = self.path.open(
            "a", encoding="utf-8", newline=""
        )
        self._fresh = self.path.stat().st_size == 0

    def write_header(self, relation: Relation, *, engine: str) -> None:
        """Record the run's identity; skipped when resuming an existing
        journal (the original header stands)."""
        if not self._fresh:
            return
        self._write({
            "type": "header",
            "version": JOURNAL_VERSION,
            "relation": relation.name,
            "n_tuples": relation.n_tuples,
            "n_attributes": relation.n_attributes,
            "attributes": list(relation.attribute_names),
            "missing": relation.count_missing(),
            "fingerprint": relation_fingerprint(relation),
            "engine": engine,
        })
        self._fresh = False
        logger.info(
            "journaling run on %s (%d tuples) to %s",
            relation.name, relation.n_tuples, self.path,
        )

    def record_cell(self, outcome: CellOutcome) -> None:
        """Journal one settled cell."""
        self._write(cell_record(outcome))

    def record_degradation(self, degradation: Degradation) -> None:
        """Journal one degradation-ladder downgrade (audit only).

        Nothing writes this record any more: degradations go to the
        report.  Like :meth:`record_reactivation`, the method stays for
        ``perfbench/spans.py``'s ``journal.write`` entry.
        """
        self._write({
            "type": "degradation",
            "row": degradation.row,
            "attribute": degradation.attribute,
            "from_tier": degradation.from_tier,
            "to_tier": degradation.to_tier,
            "reason": degradation.reason,
        })

    def record_reactivation(
        self, row: int, attribute: str, rfds: list[str]
    ) -> None:
        """Journal key RFDs re-activated by the fill at one cell.

        Nothing writes this record any more.  The method is kept because
        ``perfbench/spans.py`` looks it up by name to time
        ``journal.write``; delete it together with that entry.
        """
        self._write({
            "type": "reactivation",
            "row": row,
            "attribute": attribute,
            "rfds": rfds,
        })

    def record_budget(self, event: BudgetEvent) -> None:
        """Journal a budget trip (kept for the audit trail; replay
        ignores it)."""
        self._write({
            "type": "budget",
            "scope": event.scope,
            "kind": event.kind,
            "context": event.context,
            "elapsed_seconds": event.elapsed_seconds,
            "peak_bytes": event.peak_bytes,
            "row": event.row,
            "attribute": event.attribute,
        })

    def record_end(self) -> None:
        """Mark the run complete."""
        self._write({"type": "end"})

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _write(self, record: dict[str, Any]) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        try:
            check_disk_fault(self.path)
            self._handle.write(
                json.dumps(record, ensure_ascii=False) + "\n"
            )
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            # Locate the failure (full disk, yanked volume) instead of
            # leaking a raw OSError from deep inside a run.
            raise JournalError(
                f"cannot append {record.get('type', '?')!r} record to "
                f"journal {self.path}: {exc}"
            ) from exc


_TORN_RECORDS = "renuver_journal_torn_records_total"
_HELP_TORN = (
    "Torn trailing journal records dropped during parse/replay."
)


def _drop_torn_tail(
    path: Path, number: int, detail: str, telemetry: Telemetry
) -> None:
    """Count and warn about a torn final record, then carry on.

    A crash mid-append leaves the record being written as a truncated
    (or otherwise non-record) final line.  Replay only needs the
    complete prefix, so the tail is dropped — but never silently: the
    skip is logged and counted so operators can tell a crashed run's
    journal from a pristine one.
    """
    telemetry.metrics.counter(_TORN_RECORDS, _HELP_TORN).inc()
    logger.warning(
        "journal %s: dropping torn trailing record at line %d (%s) — "
        "crash mid-append; replaying the complete prefix",
        path, number, detail,
    )


def _parse_records(
    path: Path, *, telemetry: Telemetry = NULL_TELEMETRY
) -> list[dict[str, Any]]:
    """JSONL records of ``path``, tolerating a truncated last line.

    The torn tail a crash mid-append leaves behind — a final line that
    does not parse, or parses to something that is not a journal
    record — is skipped with a counted warning.  Corruption anywhere
    but the final line raises :class:`JournalError`.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    records: list[dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == len(lines):
                _drop_torn_tail(path, number, str(exc), telemetry)
                break  # the record being written when the run died
            raise JournalError(
                f"journal {path} line {number} is corrupt: {exc}"
            ) from exc
        if not isinstance(record, dict) or "type" not in record:
            if number == len(lines):
                _drop_torn_tail(
                    path, number, "not a journal record", telemetry
                )
                break
            raise JournalError(
                f"journal {path} line {number} is not a journal record"
            )
        records.append(record)
    return records


def load_journal(
    path: str | Path, *, telemetry: Telemetry = NULL_TELEMETRY
) -> list[dict[str, Any]]:
    """Parse a journal into records, tolerating a truncated last line."""
    path = Path(path)
    records = _parse_records(path, telemetry=telemetry)
    if not records or records[0].get("type") != "header":
        raise JournalError(f"journal {path} has no header record")
    return records


def replay_journal(
    path: str | Path,
    relation: Relation,
    *,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> list[CellOutcome]:
    """Replay a journal onto ``relation`` (mutating it in place).

    Verifies the header against ``relation`` — schema first (tuple and
    attribute counts, attribute names), with a located
    :class:`~repro.exceptions.JournalError` naming the mismatching
    field, then the fingerprint (the caller must pass the same dirty
    instance the journaled run started from).  On success re-applies
    every filled value and returns the replayed outcomes in journal
    order.  Cells the journal settled without a fill (skipped, no
    candidates, ...) are returned too so the driver knows not to retry
    them.
    """
    records = load_journal(path, telemetry=telemetry)
    header = records[0]
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path} has version {header.get('version')!r}, "
            f"expected {JOURNAL_VERSION}"
        )
    schema_checks = (
        ("n_tuples", relation.n_tuples),
        ("n_attributes", relation.n_attributes),
        ("attributes", list(relation.attribute_names)),
    )
    for name, actual in schema_checks:
        expected = header.get(name)
        if expected is not None and expected != actual:
            raise JournalError(
                f"journal {path} header mismatch: {name} is "
                f"{expected!r} but relation {relation.name!r} has "
                f"{actual!r}"
            )
    expected = header.get("fingerprint")
    if not fingerprint_matches(expected, relation):
        raise JournalError(
            f"journal {path} was written for a different relation "
            f"(fingerprint {expected} != "
            f"{relation_fingerprint(relation)}); resume must start "
            f"from the same dirty instance"
        )
    outcomes: list[CellOutcome] = []
    seen: set[tuple[int, str]] = set()
    for record in records[1:]:
        if record["type"] != "cell":
            continue
        row, attribute = record["row"], record["attribute"]
        if (row, attribute) in seen:
            raise JournalError(
                f"journal {path} settles cell ({row}, {attribute}) twice"
            )
        seen.add((row, attribute))
        outcome = outcome_from_record(record)
        if outcome.filled:
            relation.set_value(row, attribute, outcome.value)
        outcomes.append(outcome)
    logger.info(
        "replayed %d settled cells from %s", len(outcomes), path
    )
    return outcomes


def outcome_from_record(record: dict[str, Any]) -> CellOutcome:
    """Restore a :class:`CellOutcome` from its journal ``cell`` record.

    The inverse of :func:`cell_record`.  Unknown statuses raise
    :class:`~repro.exceptions.JournalError`; an unparseable RFD is
    dropped (it is provenance, not state).
    """
    try:
        status = OutcomeStatus(record["status"])
    except ValueError as exc:
        raise JournalError(
            f"unknown cell status {record['status']!r} in journal"
        ) from exc
    rfd: RFD | None = None
    if record.get("rfd"):
        try:
            rfd = parse_rfd(record["rfd"])
        except Exception:  # noqa: BLE001 - provenance only, not fatal
            rfd = None
    return CellOutcome(
        record["row"],
        record["attribute"],
        status,
        value=record.get("value"),
        source_row=record.get("source_row"),
        rfd=rfd,
        distance=record.get("distance"),
        cluster_threshold=record.get("cluster_threshold"),
        candidates_tried=record.get("candidates_tried", 0),
        engine_tier=record.get("engine_tier"),
        reason=record.get("reason"),
    )
