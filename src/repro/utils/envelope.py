"""Durable JSON envelopes: one checksummed, versioned, atomic format.

The pipeline's ``state.json``, the service's session journals and the
artifact cache all persist through this module.  The format is::

    {<version>, <identity fields>, "envelope_seq"?, "checksum", "payload"}

``checksum`` is the SHA-256 of the payload's canonical JSON (the form
:func:`~repro.utils.fingerprint.payload_fingerprint` hashes).  A write
renders it once and embeds that text, so a read hashes the text as it
stands; any other layout (an older ``indent=2`` state file) is
re-rendered from its parsed form first.

:meth:`Envelope.save` copies the current file to ``<name>.prev`` only
when that file verifies, so a torn file never replaces the last good
generation; :meth:`Envelope.load` falls back to ``.prev`` and counts
each fallback in ``renuver_envelope_recoveries_total{store,outcome}``
(``prev`` or ``lost``).  The caller decides what a lost envelope
means.  The artifact cache keeps no ``.prev``: it uses only
:meth:`Envelope.write` and :meth:`Envelope.read`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.telemetry.logs import get_logger
from repro.utils.atomic import atomic_write_text
from repro.utils.fingerprint import canonical_json, payload_fingerprint

logger = get_logger("utils.envelope")

#: Written between the header and the canonical payload text.
_PAYLOAD_KEY = ',"payload":'

_RECOVERIES = "renuver_envelope_recoveries_total"
_HELP_RECOVERIES = (
    "Envelope loads whose current file was unreadable, by store and "
    "outcome (prev: the .prev copy loaded; lost: neither did)."
)


@dataclass(frozen=True)
class EnvelopeRead:
    """A verified payload, or the ``reason`` there is none.

    Reasons, in the order a read checks them: ``absent``,
    ``unreadable`` (an OS error), ``corrupt`` (not UTF-8 JSON, not an
    object, no payload object, or a payload ``decode`` rejected),
    ``version``, ``key_mismatch`` and ``checksum``.
    """

    payload: Any = None
    reason: str | None = None
    detail: str = ""
    seq: int = 0

    @property
    def ok(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class Envelope:
    """One envelope file: its ``(field, number)`` version and the other
    header fields a reader requires to match exactly."""

    path: Path
    version: tuple[str, int]
    identity: Mapping[str, Any] = field(default_factory=dict)

    @property
    def previous_path(self) -> Path:
        return self.path.with_name(self.path.name + ".prev")

    def write(self, payload: dict[str, Any], seq: int | None = None) -> None:
        """Atomically replace the file; raises ``OSError``."""
        body = canonical_json(payload)
        header = {self.version[0]: self.version[1], **self.identity}
        if seq is not None:
            header["envelope_seq"] = seq
        header["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        head = json.dumps(header, ensure_ascii=False)[:-1]
        atomic_write_text(self.path, f"{head}{_PAYLOAD_KEY}{body}}}")

    def read(self) -> EnvelopeRead:
        """The current file's verified payload, or why there is none."""
        return self._read(self.path)[0]

    def save(self, payload: dict[str, Any]) -> int:
        """Stage a verified current file to ``.prev``, then write the
        next generation; returns its ``envelope_seq``.  Raises
        ``OSError``."""
        current, text = self._read(self.path)
        if current.ok:
            atomic_write_text(self.previous_path, text)
        else:
            current = self._read(self.previous_path)[0]
        self.write(payload, current.seq + 1)
        return current.seq + 1

    def load(
        self,
        *,
        store: str,
        metrics: Any,
        decode: Callable[[dict[str, Any]], Any] | None = None,
    ) -> EnvelopeRead:
        """The newest generation that verifies and decodes.  The reason
        is ``absent`` only when neither file exists."""
        current = self._read(self.path, decode)[0]
        if current.ok:
            return current
        previous = self._read(self.previous_path, decode)[0]
        if current.reason == previous.reason == "absent":
            return current
        outcome = "prev" if previous.ok else "lost"
        metrics.counter(
            _RECOVERIES, _HELP_RECOVERIES, store=store, outcome=outcome
        ).inc()
        (logger.warning if previous.ok else logger.error)(
            "%s envelope unreadable (%s: %s); its .prev: %s", store,
            current.reason, current.detail, previous.reason or "recovered",
        )
        if previous.ok or current.reason == "absent":
            return previous
        return current

    def _read(
        self, path: Path, decode: Callable[[dict[str, Any]], Any] | None = None
    ) -> tuple[EnvelopeRead, str]:
        """Verify (and decode) one file; also returns its text, for
        staging."""
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return EnvelopeRead(reason="absent", detail=str(path)), ""
        except OSError as exc:
            return EnvelopeRead(reason="unreadable", detail=str(exc)), ""
        try:
            text = raw.decode("utf-8")
            envelope = json.loads(text)
        except ValueError as exc:  # includes UnicodeDecodeError
            return _failed("corrupt", path, exc), ""
        result = self._verify(path, envelope, text)
        if result.ok and decode is not None:
            try:
                result = replace(result, payload=decode(result.payload))
            except Exception as exc:  # noqa: BLE001 - a bad generation
                return _failed("corrupt", path, exc), text
        return result, text

    def _verify(self, path: Path, envelope: Any, text: str) -> EnvelopeRead:
        if not isinstance(envelope, dict):
            return _failed("corrupt", path, "not an object")
        name, version = self.version
        if envelope.get(name) != version:
            return _failed("version", path, f"{name} {envelope.get(name)!r}")
        if any(envelope.get(k) != v for k, v in self.identity.items()):
            return _failed("key_mismatch", path, "identity fields differ")
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            return _failed("corrupt", path, "no payload object")
        if not _checksum_matches(text, payload, envelope.get("checksum")):
            return _failed("checksum", path, "checksum mismatch")
        seq = envelope.get("envelope_seq")
        return EnvelopeRead(
            payload=payload, seq=seq if isinstance(seq, int) else 0
        )


def _checksum_matches(text: str, payload: Any, checksum: Any) -> bool:
    """Hash the payload text as :meth:`Envelope.write` laid it out; only
    another layout (an older writer's whitespace) is re-rendered."""
    body = text.partition(_PAYLOAD_KEY)[2][:-1].encode("utf-8")
    return (
        hashlib.sha256(body).hexdigest() == checksum
        or payload_fingerprint(payload) == checksum
    )


def _failed(reason: str, path: Path, detail: Any) -> EnvelopeRead:
    return EnvelopeRead(reason=reason, detail=f"{path}: {detail}")


__all__ = ["Envelope", "EnvelopeRead"]
