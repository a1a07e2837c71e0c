"""Content fingerprints shared across subsystems.

The SHA-256 *relation fingerprint* identifies one exact dirty instance:
it is computed over the same rendering ``to_csv_text`` produces, so it
is stable across copies, process restarts and machines.  The journal
uses it to refuse resuming onto a different relation; the service's
artifact cache (:mod:`repro.service.artifacts`) uses it as the cache
key that lets a warm engine skip RFD discovery entirely.

Journals written before the SHA-256 switch carry an MD5 fingerprint
(32 hex chars); :func:`fingerprint_matches` still verifies those by
digest length, using ``usedforsecurity=False`` so FIPS-enabled builds
keep working.

:func:`payload_fingerprint` hashes an arbitrary JSON-serializable
payload (canonical form: sorted keys, no whitespace) — the artifact
cache combines it with the relation fingerprint so differently
configured discovery runs never collide.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.dataset.relation import Relation

__all__ = [
    "canonical_json",
    "fingerprint_matches",
    "payload_fingerprint",
    "relation_fingerprint",
]


def relation_fingerprint(relation: Relation) -> str:
    """SHA-256 over schema and cells — identifies the dirty instance.

    Computed over the same rendering `to_csv_text` produces, so the
    fingerprint is stable across copies and process restarts.  Earlier
    journal versions used MD5, which raises under FIPS-enabled Python
    builds; :func:`fingerprint_matches` still verifies those legacy
    journals by digest length.
    """
    from repro.dataset.csv_io import to_csv_text

    digest = hashlib.sha256()
    digest.update(to_csv_text(relation).encode("utf-8"))
    return digest.hexdigest()


def fingerprint_matches(expected: str, relation: Relation) -> bool:
    """Whether ``expected`` (SHA-256, or legacy MD5) matches ``relation``.

    A 32-hex-char fingerprint is from a pre-SHA-256 journal; it is
    re-verified with ``hashlib.md5(usedforsecurity=False)``, which stays
    available under FIPS.  Any other length only matches SHA-256.
    """
    if not isinstance(expected, str):
        return False
    if len(expected) == 32:
        from repro.dataset.csv_io import to_csv_text

        try:
            digest = hashlib.md5(usedforsecurity=False)
        except (TypeError, ValueError):  # pragma: no cover - exotic builds
            return False
        digest.update(to_csv_text(relation).encode("utf-8"))
        return digest.hexdigest() == expected
    return expected == relation_fingerprint(relation)


def payload_fingerprint(payload: Any) -> str:
    """SHA-256 of a JSON-serializable payload in canonical form.

    Canonical form sorts object keys and strips whitespace, so two
    payloads that are structurally equal hash identically regardless of
    construction order.
    """
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def canonical_json(payload: Any) -> str:
    """The canonical JSON text :func:`payload_fingerprint` hashes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
