"""The staged pipeline runner: watermarked FULL/INCR imputation runs.

One :class:`Pipeline` owns a root directory::

    <root>/state.json[.prev]   run state        (repro.pipeline.state)
    <root>/pipeline.lock       single-writer lease
    <root>/store/              versioned imputed snapshots (reconcile)
    <root>/runs/<run_id>/      per-run artifacts           (runs)

and executes runs over an append-only ingest directory in five staged
phases — ``load``, ``discover``, ``impute``, ``artifacts``,
``commit`` — each wrapped in a ``pipeline.stage`` span under one
``pipeline.run`` span.

Crash model
-----------
A run's *only* commit point is the atomic replacement of the state
envelope in the ``commit`` stage; the envelope carries the new store
version together with the RFD set that holds on it.  Everything before
it — the journal, the delta CSV, even the new store snapshot file — is
reconstructible debris: ``pipeline resume`` rebuilds the identical
dirty relation from the persisted
:class:`~repro.pipeline.state.RunRecord`, replays the journal prefix
(fingerprint-checked), finishes the remaining cells and rewrites every
artifact atomically.  Because discovery and imputation are
deterministic, a SIGKILL at any instant followed by ``resume`` yields a
persistent store bit-identical to an uninterrupted run's.

Mode selection
--------------
``full``  rebuilds the store from *all* ingest files and discovers its
RFD set.  ``incr`` extends the committed store with only the new files:
the RFD set committed with the store is maintained under the inserted
rows by :class:`~repro.discovery.incremental.IncrementalDiscovery`,
with zero rediscovery.  ``auto`` prefers INCR whenever its
prerequisites hold.  A broken prerequisite — store snapshot missing or
fingerprint-mismatched, watermarked ingest files deleted, no committed
RFD set for the current discovery config — *degrades* the run to FULL
with a counted reason (``renuver_pipeline_degradations_total{reason}``);
it never crashes the pipeline.

INCR runs additionally preseed their journal with the carried-forward
*unresolved ledger*: cells earlier runs settled without a fill.  Replay
skips them, so an INCR run's imputation work is proportional to the
delta, not the store.  perfbench's ``pipeline-incr`` workload times
successive 8-row INCR runs.

One derivation per input
------------------------
A run parses and grows each thing once and hands it on.  The store
snapshot is loaded once per version (and the commit that writes a
version hands back its re-read, which primes that cache).  The RFD set
is decoded once, with the state envelope the run loaded, and is the
one the discover stage maintains.  The new rows are parsed once and
appended once: the maintainer's copy
of the store, grown by :meth:`IncrementalDiscovery.insert
<repro.discovery.incremental.IncrementalDiscovery.insert>`, is the
relation the run imputes, while the cached snapshot stays unmutated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

from repro.core import Renuver, RenuverConfig
from repro.core.report import ImputationReport
from repro.dataset.relation import Relation
from repro.discovery import DiscoveryConfig, discover_rfds
from repro.discovery.dime import DiscoveryResult
from repro.discovery.incremental import IncrementalDiscovery
from repro.exceptions import JournalError, PipelineError, ReproError
from repro.pipeline.ingest import batch_rows, load_combined, scan_ingest
from repro.pipeline.reconcile import (
    commit_store,
    load_store_relation,
    prune_store,
)
from repro.pipeline.runs import RunDirectory
from repro.pipeline.state import (
    Lease,
    PipelineState,
    RunRecord,
    RunStateStore,
    StoreVersion,
    Watermark,
)
from repro.robustness.journal import (
    JournalWriter,
    cell_record,
    outcome_from_record,
)
from repro.telemetry import Telemetry
from repro.telemetry.logs import get_logger

logger = get_logger("pipeline.runner")

_RUNS = "renuver_pipeline_runs_total"
_HELP_RUNS = "Pipeline runs by mode and outcome."
_DEGRADATIONS = "renuver_pipeline_degradations_total"
_HELP_DEGRADATIONS = (
    "INCR runs degraded to FULL, by broken prerequisite."
)
#: Committed store snapshots kept on disk (older ones are pruned).
KEEP_STORE_VERSIONS = 2
#: Committed run records retained in the state envelope.
HISTORY_LIMIT = 50


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning of one pipeline instance."""

    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)
    renuver: RenuverConfig = field(default_factory=RenuverConfig)
    #: ``auto`` | ``full`` | ``incr``.  ``incr`` is a *preference*: when
    #: its prerequisites are broken the run degrades to FULL (counted),
    #: it does not fail.
    mode: str = "auto"
    lease_ttl_seconds: float = 30.0
    owner: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "full", "incr"):
            raise PipelineError(
                f"pipeline mode must be auto, full or incr, "
                f"got {self.mode!r}"
            )


@dataclass(frozen=True)
class RunResult:
    """What one ``run``/``resume`` invocation did."""

    run_id: str | None
    mode: str                  # "full" | "incr" | "noop"
    outcome: str               # "committed" | "noop"
    rows_ingested: int = 0
    cells_imputed: int = 0
    cells_unresolved: int = 0
    store_version: int | None = None
    degraded_reason: str | None = None
    #: Whether a batch discovery ran (``False`` on the warm INCR path —
    #: the zero-rediscovery guarantee the benchmark asserts on).
    discovered: bool = False
    resumed: bool = False
    run_dir: Path | None = None

    def summary(self) -> str:
        """One-line digest for the CLI."""
        if self.outcome == "noop":
            return "pipeline: nothing to do (watermark is current)"
        bits = [
            f"run {self.run_id}: {self.mode.upper()} committed "
            f"store v{self.store_version}",
            f"{self.rows_ingested} rows ingested",
            f"{self.cells_imputed} cells imputed",
            f"{self.cells_unresolved} unresolved",
        ]
        if self.degraded_reason:
            bits.append(f"degraded ({self.degraded_reason})")
        if self.resumed:
            bits.append("resumed")
        return ", ".join(bits)


class Pipeline:
    """Crash-safe continuous-ingestion runner over one root directory.

    Parameters
    ----------
    root:
        The pipeline's private directory (state, lease, store, runs);
        created on first use.
    ingest_dir:
        The append-only directory of ``*.csv`` batches.
    config:
        :class:`PipelineConfig`; defaults throughout.
    telemetry:
        Optional shared spine.  By default each pipeline builds a live
        one, so every run directory gets a real trace and metrics
        snapshot.
    """

    def __init__(
        self,
        root: str | Path,
        ingest_dir: str | Path,
        config: PipelineConfig | None = None,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.root = Path(root)
        self.ingest_dir = Path(ingest_dir)
        self.config = config or PipelineConfig()
        self.telemetry = telemetry or Telemetry()
        self.root.mkdir(parents=True, exist_ok=True)
        self.state_store = RunStateStore(
            self.root, telemetry=self.telemetry
        )
        #: One store snapshot per version is enough for a whole run:
        #: mode choice, loading, and commit all read the same bytes.
        self._store_cache: tuple[int, Relation] | None = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute one run over whatever the ingest scan finds new.

        Refuses (with a located :class:`PipelineError`) when the state
        says a run is already in flight — that run must be ``resume``\\ d
        or has a live holder of the lease.  Returns a ``noop`` result
        when the watermark already covers every ingest file.
        """
        with self._lease().held():
            state = self.state_store.load()
            if state.run is not None and state.run.status == "running":
                raise PipelineError(
                    f"run {state.run.run_id} is in flight (crashed or "
                    f"killed); use `pipeline resume` to finish it "
                    f"before starting a new run"
                )
            files = scan_ingest(self.ingest_dir)
            new_files = tuple(
                name for name in files
                if name not in set(state.watermark.files)
            )
            if not new_files:
                self._count_run("noop", "noop")
                return RunResult(run_id=None, mode="noop", outcome="noop")

            mode, base_version, degraded = self._choose_mode(state, files)
            record = RunRecord(
                run_id=f"{state.runs_started + 1:06d}-{mode}",
                mode=mode,
                status="running",
                files=tuple(files),
                new_files=new_files,
                base_version=base_version,
                requested_mode=self.config.mode,
                degraded_reason=degraded,
                started_unix=time.time(),
            )
            state = replace(
                state, runs_started=state.runs_started + 1, run=record
            )
            # Persist the running record *before* any work: a crash
            # from here on leaves a resumable state envelope.
            self.state_store.save(state)
            return self._execute(state, resumed=False)

    def resume(self) -> RunResult:
        """Finish the run the state envelope says is in flight.

        Acquires the lease (taking over the crashed run's stale one),
        rebuilds the run's exact inputs from its persisted
        :class:`RunRecord`, replays the journal prefix and completes
        the run.  A noop when nothing is in flight.
        """
        with self._lease().held():
            state = self.state_store.load()
            record = state.run
            if record is None or record.status != "running":
                self._count_run("noop", "noop")
                return RunResult(run_id=None, mode="noop", outcome="noop")
            state = self._revalidate_for_resume(state)
            return self._execute(state, resumed=True)

    def status(self) -> dict[str, Any]:
        """A lease-free, read-only snapshot for ``pipeline status``."""
        state = self.state_store.load()
        lease = Lease(
            self.root / "pipeline.lock",
            ttl_seconds=self.config.lease_ttl_seconds,
        )
        holder = lease.peek()
        return {
            "root": str(self.root),
            "runs_started": state.runs_started,
            "watermark": state.watermark.to_payload(),
            "store": _store_status(state.store),
            "in_flight": None if state.run is None
            else state.run.to_payload(),
            "unresolved_cells": len(state.unresolved),
            "history": [
                record.to_payload() for record in state.history[-5:]
            ],
            "lease": {
                "held": bool(holder),
                "stale": bool(holder) and lease.is_stale(holder),
                "owner": holder.get("owner"),
                "pid": holder.get("pid"),
                "host": holder.get("host"),
            },
        }

    # ------------------------------------------------------------------
    # Mode selection and resume revalidation
    # ------------------------------------------------------------------
    def _choose_mode(
        self, state: PipelineState, files: Sequence[str]
    ) -> tuple[str, int | None, str | None]:
        """``(mode, base_version, degraded_reason)`` for a fresh run."""
        if self.config.mode == "full":
            return "full", None, None
        if state.store is None:
            # Bootstrap: there is nothing to extend.  Only a *requested*
            # INCR counts as degraded; auto's first run is simply FULL.
            if self.config.mode == "incr":
                return "full", None, self._degrade("no_store")
            return "full", None, None
        reason = self._incr_blocker(state, files)
        if reason is None:
            return "incr", state.store.version, None
        return "full", None, self._degrade(reason)

    def _incr_blocker(
        self, state: PipelineState, files: Sequence[str]
    ) -> str | None:
        """Why INCR cannot extend ``state.store``; ``None`` when it can."""
        missing = set(state.watermark.files) - set(files)
        if missing:
            return "watermark_mismatch"
        assert state.store is not None
        try:
            self._load_base(state.store)
        except PipelineError:
            return "store_integrity"
        committed = state.store.discovery
        if committed is None or committed.config != self.config.discovery:
            return "stale_rfds"
        return None

    def _degrade(self, reason: str) -> str:
        self.telemetry.metrics.counter(
            _DEGRADATIONS, _HELP_DEGRADATIONS, reason=reason
        ).inc()
        logger.warning(
            "INCR prerequisites broken (%s); degrading to FULL", reason
        )
        return reason

    def _revalidate_for_resume(self, state: PipelineState) -> PipelineState:
        """Degrade a resumed INCR run whose prerequisites rotted while
        it was down (store pruned, discovery config changed, files
        deleted)."""
        record = state.run
        assert record is not None
        if record.mode != "incr":
            return state
        reason = self._incr_blocker(state, scan_ingest(self.ingest_dir))
        if reason is None:
            return state
        # The dirty relation changes shape under FULL, so the old
        # journal can never replay; move it aside for forensics.
        rundir = RunDirectory(self.root, record.run_id)
        self._quarantine_journal(rundir, "degraded-" + reason)
        record = replace(
            record,
            mode="full",
            base_version=None,
            degraded_reason=self._degrade(reason),
        )
        state = replace(state, run=record)
        self.state_store.save(state)
        return state

    # ------------------------------------------------------------------
    # Run execution (shared by run() and resume())
    # ------------------------------------------------------------------
    def _execute(self, state: PipelineState, *, resumed: bool) -> RunResult:
        record = state.run
        assert record is not None
        rundir = RunDirectory(self.root, record.run_id)
        stage = "load"
        try:
            with self.telemetry.tracer.span(
                "pipeline.run",
                run_id=record.run_id, mode=record.mode, resumed=resumed,
            ):
                with self._stage("load", record):
                    base, dirty, rows = self._load(state, record)
                stage = "discover"
                with self._stage("discover", record):
                    dirty, rfds, discovered = self._discover(
                        state, record, base, dirty, rows
                    )
                stage = "impute"
                with self._stage("impute", record):
                    result = self._impute(
                        state, record, rundir, dirty, rfds,
                        resumed=resumed,
                    )
                stage = "artifacts"
                with self._stage("artifacts", record):
                    self._write_artifacts(record, rundir, result, base)
                stage = "commit"
                with self._stage("commit", record):
                    committed = self._commit(
                        state, record, rundir, result, rfds,
                        new_rows=dirty.n_tuples - (
                            0 if base is None else base.n_tuples
                        ),
                        discovered=discovered,
                        resumed=resumed,
                    )
        except ReproError as exc:
            self._count_run(record.mode, "failed")
            raise PipelineError(
                f"run {record.run_id} failed in stage {stage!r}: {exc}"
            ) from exc
        except Exception as exc:  # noqa: BLE001 - located, resumable
            self._count_run(record.mode, "failed")
            raise PipelineError(
                f"run {record.run_id} failed in stage {stage!r}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._count_run(record.mode, "committed")
        try:
            rundir.export_telemetry(self.telemetry)
        except OSError as exc:
            # The run has committed; losing the trace/metrics snapshot
            # must not fail it.
            logger.warning(
                "run %s committed but telemetry export failed: %s",
                record.run_id, exc,
            )
        return committed

    def _stage(self, name: str, record: RunRecord):
        return self.telemetry.tracer.span(
            "pipeline.stage", stage=name, run_id=record.run_id
        )

    def _count_run(self, mode: str, outcome: str) -> None:
        self.telemetry.metrics.counter(
            _RUNS, _HELP_RUNS, mode=mode, outcome=outcome
        ).inc()

    # -- load ------------------------------------------------------------
    def _load_base(self, store: StoreVersion) -> Relation:
        """The committed store snapshot, loaded once per version.

        Verification happens on first load (``load_store_relation``
        fingerprints the bytes), or the commit that wrote the version
        primes the cache with its own re-read.  Callers never mutate
        the returned relation; incremental maintenance grows a copy.
        """
        cached = self._store_cache
        if cached is not None and cached[0] == store.version:
            return cached[1]
        base = load_store_relation(self.root, store, name="store")
        self._store_cache = (store.version, base)
        return base

    def _load(
        self, state: PipelineState, record: RunRecord
    ) -> tuple[Relation | None, Relation | None, list[tuple]]:
        """``(base, dirty, new_rows)`` for the run.

        FULL: the dirty relation is every covered ingest file combined
        (types inferred over the whole data); there is no base and no
        batch.  INCR: the committed store snapshot and the new files'
        rows, parsed once under the store's schema — built so a resume
        reconstructs byte-identical inputs from the record alone.  The
        INCR dirty relation is left to :meth:`_discover`, whose
        maintenance grows it by exactly these rows.
        """
        if record.mode == "full":
            dirty = load_combined(
                self.ingest_dir, record.files, name="ingest"
            )
            return None, dirty, []
        assert state.store is not None
        base = self._load_base(state.store)
        rows = batch_rows(self.ingest_dir, record.new_files, base)
        return base, None, rows

    # -- discover --------------------------------------------------------
    def _discover(
        self,
        state: PipelineState,
        record: RunRecord,
        base: Relation | None,
        dirty: Relation | None,
        rows: list[tuple],
    ) -> tuple[Relation, DiscoveryResult, bool]:
        """``(dirty, rfds, discovered)``: the relation the run imputes,
        its RFD set and whether batch discovery ran.

        FULL always discovers on the dirty relation (deterministic, so a
        resumed FULL run finds the same set).  INCR never discovers: the
        RFD set committed with the base store is maintained
        incrementally under the batch ``rows``, and the maintainer's own
        copy of the base, grown by those rows, is the dirty relation.
        The base stays unmutated.
        """
        if record.mode == "full":
            assert dirty is not None
            result = discover_rfds(
                dirty, self.config.discovery, telemetry=self.telemetry
            )
            return dirty, result, True
        assert base is not None and state.store is not None
        committed = state.store.discovery
        assert committed is not None
        maintainer = IncrementalDiscovery(
            base, self.config.discovery, initial=committed
        )
        dirty = maintainer.relation
        dirty.name = "ingest"
        if rows:
            report = maintainer.insert(rows)
            logger.info(
                "incremental maintenance: %s", report.summary()
            )
        maintained = DiscoveryResult(
            rfds=maintainer.rfds,
            key_rfds=maintainer.key_rfds,
            config=self.config.discovery,
            n_pairs=committed.n_pairs,
            exact=False,
        )
        return dirty, maintained, False

    # -- impute ----------------------------------------------------------
    def _impute(
        self,
        state: PipelineState,
        record: RunRecord,
        rundir: RunDirectory,
        dirty: Relation,
        rfds: DiscoveryResult,
        *,
        resumed: bool,
    ):
        """Run the (journaled) imputation, resuming when possible."""
        journal = rundir.journal_path
        resume_from: Path | None = None
        if resumed and journal.exists():
            resume_from = journal
        elif not journal.exists() and record.mode == "incr":
            self._preseed_journal(state, journal, dirty)
            resume_from = journal if state.unresolved else None
        engine = Renuver(
            rfds.all_rfds,
            self.config.renuver,
            telemetry=self.telemetry,
        )
        try:
            return engine.impute(
                dirty, journal=journal, resume_from=resume_from
            )
        except JournalError as exc:
            if resume_from is None:
                raise
            # The journal a crashed run left is unusable (torn beyond
            # the tolerated tail, or the inputs drifted).  Quarantine
            # it and redo the run from scratch — determinism makes the
            # redo equivalent.
            logger.warning(
                "run %s: journal replay failed (%s); quarantining and "
                "re-running", record.run_id, exc,
            )
            self._quarantine_journal(rundir, "replay-failed")
            if record.mode == "incr":
                self._preseed_journal(state, journal, dirty)
                fresh_resume = journal if state.unresolved else None
            else:
                fresh_resume = None
            return engine.impute(
                dirty, journal=journal, resume_from=fresh_resume
            )

    def _preseed_journal(
        self, state: PipelineState, journal: Path, dirty: Relation
    ) -> None:
        """Seed an INCR journal with the carried-forward unresolved
        ledger, so replay settles those cells without re-imputing them.

        The ledger's records are journal ``cell`` records whose row
        coordinates index the store prefix of ``dirty``, so they replay
        verbatim.  An empty ledger still writes the header (the journal
        is about to be appended to by the run anyway).
        """
        writer = JournalWriter(journal)
        try:
            writer.write_header(dirty)
            for entry in state.unresolved:
                writer.record_cell(outcome_from_record(entry))
        finally:
            writer.close()

    def _quarantine_journal(
        self, rundir: RunDirectory, label: str
    ) -> None:
        journal = rundir.journal_path
        if not journal.exists():
            return
        target = journal.with_name(f"journal.{label}.corrupt")
        try:
            journal.replace(target)
        except OSError:  # pragma: no cover - same-dir rename
            journal.unlink(missing_ok=True)

    # -- artifacts -------------------------------------------------------
    def _write_artifacts(
        self,
        record: RunRecord,
        rundir: RunDirectory,
        result,
        base: Relation | None,
    ) -> None:
        """The run's delta CSV and report (all atomic writes)."""
        relation = result.relation
        start = 0 if base is None else base.n_tuples
        delta = _slice_rows(relation, start, name="delta")
        rundir.write_delta(delta)
        rundir.write_report(
            result.report,
            mode=record.mode,
            requested_mode=record.requested_mode,
            degraded_reason=record.degraded_reason,
            files=list(record.files),
            new_files=list(record.new_files),
            base_version=record.base_version,
        )

    # -- commit ----------------------------------------------------------
    def _commit(
        self,
        state: PipelineState,
        record: RunRecord,
        rundir: RunDirectory,
        result,
        rfds: DiscoveryResult,
        *,
        new_rows: int,
        discovered: bool,
        resumed: bool,
    ) -> RunResult:
        """Fold the accepted result into the persistent store and move
        the state envelope, with the RFD set that holds on the new
        snapshot — the run's single commit point."""
        report: ImputationReport = result.report
        version = 1 if state.store is None else state.store.version + 1
        committed, store_relation = commit_store(
            self.root, result.relation, version
        )
        # The re-read snapshot is what the next run's ``_load_base``
        # would parse, so it primes the cache.
        self._store_cache = (committed.version, store_relation)
        committed = replace(committed, discovery=DiscoveryResult(
            rfds=rfds.rfds,
            key_rfds=rfds.key_rfds,
            config=self.config.discovery,
            n_pairs=rfds.n_pairs,
            exact=False,
        ))

        unresolved = tuple(
            cell_record(outcome)
            for outcome in report.outcomes
            if not outcome.filled
        )
        finished = replace(
            record,
            status="committed",
            finished_unix=time.time(),
            rows_ingested=new_rows,
            cells_imputed=report.filled_count,
        )
        history = (state.history + (finished,))[-HISTORY_LIMIT:]
        new_state = replace(
            state,
            watermark=Watermark(
                files=tuple(record.files), rows=committed.rows
            ),
            store=committed,
            run=None,
            history=history,
            unresolved=unresolved,
        )
        self.state_store.save(new_state)  # <-- THE commit point
        prune_store(self.root, committed, keep=KEEP_STORE_VERSIONS)
        rundir.write_manifest(
            mode=finished.mode,
            store_version=committed.version,
            store_fingerprint=committed.fingerprint,
            rows=committed.rows,
            cells_imputed=finished.cells_imputed,
            unresolved=len(unresolved),
            degraded_reason=finished.degraded_reason,
        )
        return RunResult(
            run_id=finished.run_id,
            mode=finished.mode,
            outcome="committed",
            rows_ingested=finished.rows_ingested,
            cells_imputed=finished.cells_imputed,
            cells_unresolved=len(unresolved),
            store_version=committed.version,
            degraded_reason=finished.degraded_reason,
            discovered=discovered,
            resumed=resumed,
            run_dir=rundir.path,
        )

    # ------------------------------------------------------------------
    def _lease(self) -> Lease:
        return Lease(
            self.root / "pipeline.lock",
            owner=self.config.owner,
            ttl_seconds=self.config.lease_ttl_seconds,
        )


def _store_status(store: StoreVersion | None) -> dict[str, Any] | None:
    """``store`` for ``pipeline status``: its RFD set as a count."""
    if store is None:
        return None
    payload = store.to_payload()
    del payload["discovery"]
    payload["rfds"] = (
        None if store.discovery is None else len(store.discovery)
    )
    return payload


# ----------------------------------------------------------------------
# Relation helpers
# ----------------------------------------------------------------------
def _slice_rows(
    relation: Relation, start: int, *, name: str
) -> Relation:
    """Rows ``start..n`` of ``relation`` as a new relation (the run's
    delta; the whole relation when ``start`` is 0)."""
    rows = [
        relation.row_values(index)
        for index in range(start, relation.n_tuples)
    ]
    return Relation.from_rows(
        list(relation.attributes), rows, name=name
    )


__all__ = ["Pipeline", "PipelineConfig", "RunResult"]
