"""Fingerprint-keyed on-disk artifact store for the imputation service.

RFD discovery dominates a cold run's wall clock, yet its output depends
only on the exact relation instance and the discovery configuration.
The store persists one artifact kind under a cache directory:

``discovery``
    A serialized :class:`~repro.discovery.dime.DiscoveryResult`
    (textual RFDs plus run metadata) keyed by the relation fingerprint
    and the full discovery config.  A hit makes a warm engine skip
    discovery entirely — provable from telemetry: the counter
    ``renuver_artifact_cache_hits_total`` increments and no ``discover``
    span is emitted.

The cache serves the service's warm path alone
(:meth:`~repro.service.engine.PreparedEngine.prepare_rfds` and the
brownout tier's existence check).  No committed state is recovered
from it: the pipeline commits its RFD set in its state envelope, and a
durable session journals its own inline.

The pair-distance matrix is not cached: serialized as JSON it costs
more to save and load than to rebuild (``docs/SERVICE.md``), so a
discovery-config miss rebuilds it.

Layout (``docs/SERVICE.md``)::

    <root>/<kind>/<fingerprint[:2]>/<fingerprint>-<confighash>.json

Every file is a checksummed :class:`~repro.utils.envelope.Envelope`
written atomically: readers see the previous complete artifact or the
new complete artifact, never a torn file.  Being a cache, it keeps no
``.prev`` generation.

The cache is bounded: a save that leaves more than
:data:`MAX_ARTIFACTS` files of its kind deletes the oldest-written ones
(by modification time).  Loads never touch the directory listing, so a
warm hit costs one file read.  A request for an evicted relation is a
plain cache miss: it rediscovers and saves again, and at the
``cache_only`` brownout tier it is shed like any other cold request.

Loads are corruption-tolerant by contract: a missing file, malformed
JSON, wrong envelope version, mismatched key, a failed checksum or a
payload the deserializer rejects all count as a cache *miss* (logged,
counted in ``renuver_artifact_cache_misses_total{kind,reason}``) — the
caller recomputes and overwrites.  *Saves* are tolerant the same way: a write
that fails at the OS level (full disk, permissions) is logged and
counted as a miss (reason ``write_error``) instead of raising — the
cache is an optimization, and a disk problem must never fail the
request that was merely trying to warm it.  The store never lets a bad
artifact, or a bad disk, crash a request.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable

from repro.dataset.relation import Relation
from repro.discovery.config import DiscoveryConfig
from repro.discovery.dime import DiscoveryResult
from repro.exceptions import ServiceError
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.logs import get_logger
from repro.utils.envelope import Envelope
from repro.utils.fingerprint import payload_fingerprint, relation_fingerprint

logger = get_logger("service.artifacts")

#: Envelope schema version; bumped on incompatible layout changes.
#: Readers treat any other version as a cache miss, so old caches are
#: silently recomputed rather than crashing a newer server.
ARTIFACT_VERSION = 2

#: Files kept per artifact kind; saves evict the oldest-written beyond
#: it, so a service with non-repeating traffic holds a bounded cache.
MAX_ARTIFACTS = 256

_HITS = "renuver_artifact_cache_hits_total"
_MISSES = "renuver_artifact_cache_misses_total"
_HELP_HITS = "Artifact-cache hits by artifact kind."
_HELP_MISSES = "Artifact-cache misses by artifact kind and reason."


class ArtifactStore:
    """Fingerprint-keyed, corruption-tolerant artifact cache.

    Parameters
    ----------
    root:
        Cache directory (created on first save).
    telemetry:
        Optional telemetry spine; hit/miss counters land in its metrics
        registry.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ServiceError(
                f"artifact directory {self.root} exists and is not a "
                f"directory"
            )
        self.telemetry = telemetry or NULL_TELEMETRY
        #: Process-local tallies (mirrored into the metrics registry).
        self.hits = 0
        self.misses = 0
        #: Misses caused by damaged on-disk state (torn/garbled files,
        #: wrong versions or checksums, undeserializable payloads) — not
        #: plain absence — surfaced on ``GET /healthz/ready`` so an
        #: operator sees disk rot before it becomes a latency problem.
        self.corruptions = 0

    # ------------------------------------------------------------------
    # Discovery results
    # ------------------------------------------------------------------
    def load_discovery(
        self, relation: Relation, config: DiscoveryConfig
    ) -> DiscoveryResult | None:
        """The cached discovery result for ``(relation, config)``.

        Returns ``None`` on any miss — including a corrupt or
        incompatible artifact — so the caller simply recomputes.
        """
        return self._load(
            "discovery",
            *self._discovery_key(relation, config),
            DiscoveryResult.from_json,
        )

    def save_discovery(
        self,
        relation: Relation,
        config: DiscoveryConfig,
        result: DiscoveryResult,
    ) -> Path | None:
        """Persist a discovery result; returns the artifact path, or
        ``None`` when the write failed (counted as a miss)."""
        return self._save(
            "discovery",
            *self._discovery_key(relation, config),
            result.to_json(),
        )

    def discovery_ref(
        self, relation: Relation, config: DiscoveryConfig
    ) -> dict[str, str]:
        """The stable ``(fingerprint, config_key)`` reference under
        which :meth:`save_discovery` files this pair (the brownout
        tier's existence check reads it)."""
        fingerprint, key = self._discovery_key(relation, config)
        return {"fingerprint": fingerprint, "config_key": key}

    # ------------------------------------------------------------------
    # Keys and the envelope
    # ------------------------------------------------------------------
    @staticmethod
    def _discovery_key(
        relation: Relation, config: DiscoveryConfig
    ) -> tuple[str, str]:
        from dataclasses import asdict

        payload = asdict(config)
        if payload.get("attribute_limits") is not None:
            payload["attribute_limits"] = dict(payload["attribute_limits"])
        return relation_fingerprint(relation), payload_fingerprint(payload)

    def path_for(self, kind: str, fingerprint: str, key: str) -> Path:
        """Where the artifact for ``(kind, fingerprint, key)`` lives."""
        return (
            self.root / kind / fingerprint[:2]
            / f"{fingerprint}-{key[:16]}.json"
        )

    def _envelope(self, kind: str, fingerprint: str, key: str) -> Envelope:
        return Envelope(
            self.path_for(kind, fingerprint, key),
            ("artifact_version", ARTIFACT_VERSION),
            {"kind": kind, "fingerprint": fingerprint, "config_key": key},
        )

    def _save(
        self, kind: str, fingerprint: str, key: str, payload: dict
    ) -> Path | None:
        envelope = self._envelope(kind, fingerprint, key)
        try:
            envelope.write(payload)
        except OSError as exc:
            # A failed save (ENOSPC, permissions) degrades to a miss:
            # the next load recomputes.  The artifact cache must never
            # fail the request that was merely trying to warm it.
            self._miss(kind, "write_error", detail=f"{envelope.path}: {exc}")
            return None
        logger.info("saved %s artifact to %s", kind, envelope.path)
        self._evict(kind)
        return envelope.path

    def _evict(self, kind: str) -> None:
        """Delete the oldest-written files of ``kind`` beyond
        :data:`MAX_ARTIFACTS`.  Best effort: a file another writer
        replaced or removed meanwhile is skipped, and a failure is
        logged, never raised."""
        try:
            aged = []
            for path in (self.root / kind).glob("*/*.json"):
                try:
                    aged.append((path.stat().st_mtime_ns, path.name, path))
                except FileNotFoundError:
                    continue
            aged.sort()
            for _, _, path in aged[:max(0, len(aged) - MAX_ARTIFACTS)]:
                path.unlink(missing_ok=True)
                logger.debug("evicted %s artifact %s", kind, path)
        except OSError as exc:
            logger.warning("artifact eviction (%s) failed: %s", kind, exc)

    def _load(
        self,
        kind: str,
        fingerprint: str,
        key: str,
        decode: Callable[[dict[str, Any]], Any],
    ) -> Any:
        """The decoded artifact, or ``None`` on any kind of miss."""
        read = self._envelope(kind, fingerprint, key).read()
        if not read.ok:
            self._miss(kind, read.reason, detail=read.detail)
            return None
        try:
            value = decode(read.payload)
        except Exception as exc:  # noqa: BLE001 - miss, never crash
            self._miss(kind, "undeserializable", detail=str(exc))
            return None
        self._hit(kind)
        return value

    # ------------------------------------------------------------------
    def _hit(self, kind: str) -> None:
        self.hits += 1
        self.telemetry.metrics.counter(_HITS, _HELP_HITS, kind=kind).inc()

    def _miss(self, kind: str, reason: str, *, detail: str = "") -> None:
        self.misses += 1
        if reason not in {"absent", "key_mismatch", "write_error"}:
            self.corruptions += 1
        self.telemetry.metrics.counter(
            _MISSES, _HELP_MISSES, kind=kind, reason=reason
        ).inc()
        if reason == "absent":
            logger.debug("artifact cache miss (%s): absent", kind)
        else:
            logger.warning(
                "artifact cache miss (%s, %s): %s — recomputing",
                kind, reason, detail,
            )
