"""The persistent imputed store: versioned snapshots under
``<root>/store/``.

The store is the pipeline's *only* downstream-visible output: one CSV
per committed version, named ``imputed-<version:06d>.csv``.  A run
writes its snapshot atomically, **re-reads** it, and fingerprints the
re-read relation — that round-tripped fingerprint is what lands in the
state envelope, so the integrity check and the artifact-cache key of
the *next* INCR run are computed over exactly the bytes a future load
will see (type re-inference and CSV rendering included), never over an
in-memory relation that might render differently.  The re-read
relation goes back to the caller too: it is exactly what loading the
new version would parse, so one post-write parse serves the integrity
record, the artifact key and, within one process, the next run's
base.

A snapshot whose re-read fingerprint no longer matches its envelope
entry (bit rot, manual edits) raises a located
:class:`~repro.exceptions.PipelineError`; the runner treats that as a
degradation to FULL, not a crash.
"""

from __future__ import annotations

from pathlib import Path

from repro.dataset.csv_io import read_csv, write_csv
from repro.dataset.relation import Relation
from repro.exceptions import PipelineError
from repro.pipeline.state import StoreVersion
from repro.telemetry.logs import get_logger
from repro.utils.fingerprint import relation_fingerprint

logger = get_logger("pipeline.reconcile")

STORE_DIR = "store"


def store_path(root: str | Path, version: StoreVersion) -> Path:
    """Where ``version``'s snapshot lives."""
    return Path(root) / STORE_DIR / version.filename


def store_filename(version: int) -> str:
    """Deterministic snapshot file name for ``version``."""
    return f"imputed-{version:06d}.csv"


def load_store_relation(
    root: str | Path, version: StoreVersion, *, name: str = "store"
) -> Relation:
    """The committed snapshot ``version``, integrity-checked.

    Raises :class:`PipelineError` when the file is gone, unreadable or
    its content no longer matches the committed fingerprint — the
    runner's cue to degrade an INCR run to FULL.
    """
    path = store_path(root, version)
    try:
        relation = read_csv(path, name=name)
    except OSError as exc:
        raise PipelineError(
            f"store snapshot {path} (version {version.version}) is "
            f"unreadable: {exc}"
        ) from exc
    actual = relation_fingerprint(relation)
    if actual != version.fingerprint:
        raise PipelineError(
            f"store snapshot {path} does not match its committed "
            f"fingerprint (expected {version.fingerprint[:12]}…, "
            f"found {actual[:12]}…); the store was modified outside "
            f"the pipeline"
        )
    return relation


def commit_store(
    root: str | Path, relation: Relation, version: int
) -> tuple[StoreVersion, Relation]:
    """Write ``relation`` as snapshot ``version``; return its
    description and the re-read snapshot.

    The snapshot is written atomically, then re-read so the recorded
    fingerprint and row count describe the on-disk bytes.  The re-read
    relation is what :func:`load_store_relation` would return for the
    new version, so a caller holds it instead of parsing the file a
    second time.  Raises :class:`PipelineError` on any write/re-read
    failure (the run stays resumable: the state envelope has not moved
    yet).
    """
    path = Path(root) / STORE_DIR / store_filename(version)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(relation, path)
        reread = read_csv(path, name="store")
    except OSError as exc:
        raise PipelineError(
            f"cannot commit store snapshot {path}: {exc}"
        ) from exc
    committed = StoreVersion(
        version=version,
        filename=path.name,
        fingerprint=relation_fingerprint(reread),
        rows=reread.n_tuples,
    )
    logger.info(
        "committed store snapshot %s (%d rows, fingerprint %s…)",
        path, committed.rows, committed.fingerprint[:12],
    )
    return committed, reread


def prune_store(
    root: str | Path, current: StoreVersion, *, keep: int
) -> list[Path]:
    """Remove snapshots older than the ``keep`` most recent ones.

    Pruning is best-effort (a locked or vanished file is skipped) and
    never touches versions newer than ``current`` minus ``keep``.
    Returns the paths actually removed.
    """
    directory = Path(root) / STORE_DIR
    if not directory.is_dir() or keep < 1:
        return []
    cutoff = current.version - keep
    removed: list[Path] = []
    for entry in sorted(directory.glob("imputed-*.csv")):
        stem = entry.stem.rsplit("-", 1)[-1]
        if not stem.isdigit() or int(stem) > cutoff:
            continue
        try:
            entry.unlink()
        except OSError:  # pragma: no cover - concurrent cleanup
            continue
        removed.append(entry)
    if removed:
        logger.info(
            "pruned %d old store snapshots (keeping %d)",
            len(removed), keep,
        )
    return removed


__all__ = [
    "STORE_DIR",
    "commit_store",
    "load_store_relation",
    "prune_store",
    "store_filename",
    "store_path",
]
