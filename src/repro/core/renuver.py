"""The RENUVER driver (Algorithm 1 of the paper).

Pipeline per run:

(a) *Pre-processing*: split ``Sigma`` into key and non-key RFDs
    (Definition 3.4) and collect the incomplete tuples ``r-hat``.
(b) *RFD selection*: for each missing value ``t[A] = _``, gather
    ``Sigma'_A`` (non-key RFDs with RHS ``A``) and cluster it by RHS
    threshold.
(c) *Imputation*: per cluster, generate candidate tuples (Algorithm 3),
    try them in ascending distance order and keep the first whose
    imputation is faultless (Algorithm 4); otherwise leave the cell blank.

After every successful imputation the key/non-key split is re-evaluated
(line 14): a fresh value can create the first LHS-matching pair of a key
RFD, turning it usable (Example 5.1).  Only pairs involving the imputed
tuple can do that, so the re-check is incremental.

Fault-tolerant runtime
----------------------
The driver wraps steps (b)+(c) in a recovery layer (see
``docs/ROBUSTNESS.md``):

* **Budgets** — per-run wall-clock/memory limits (the paper's 48 h /
  30 GB stress contract) checked at every cell and, through the
  engines' kernel-call seam, inside the donor scans; plus an optional
  per-cell deadline.  Run-scope overruns either raise
  :class:`~repro.exceptions.BudgetExceededError` with the partial
  result attached, or (``on_budget="partial"``) settle the remaining
  cells as skipped and return normally.
* **Fault isolation + degradation ladder** — an exception escaping one
  cell's imputation never aborts the run: the cell's tentative write is
  rolled back and the cell retries once on the run's own engine, then
  falls back to a mean/mode fill (``fallback="mean_mode"``) or is
  recorded as skipped.  Every downgrade lands in the report's
  ``degradations`` so results stay auditable.
* **Checkpoint/resume** — ``journal=`` appends a JSONL record per
  settled cell; ``resume_from=`` replays such a journal onto the same
  dirty relation and continues where the run died.
* **Chaos seam** — ``chaos=`` accepts a
  :class:`~repro.robustness.chaos.ChaosInjector` whose deterministic
  fault injectors exercise all of the above in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Iterable, Mapping

from repro.dataset.attribute import AttributeType
from repro.dataset.missing import MISSING, is_missing
from repro.dataset.relation import Relation
from repro.distance.base import DistanceFunction
from repro.distance.kernels import DistanceMemoPool
from repro.exceptions import (
    BudgetExceededError,
    DataError,
    ImputationError,
)
from repro.core.candidates import Candidate
from repro.core.donor_scan import VectorizedEngine
from repro.core.report import (
    BudgetEvent,
    CellOutcome,
    Degradation,
    ImputationReport,
    OutcomeStatus,
)
from repro.core.selection import (
    Cluster,
    cluster_by_rhs_threshold,
    select_rfds_for_attribute,
)
from repro.index.plan import IndexPlan
from repro.rfd.rfd import RFD
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.logs import get_logger
from repro.utils.memory import MemoryTracker
from repro.utils.timer import Timer

logger = get_logger("core.renuver")


def _missing_cells_in_row_order(relation: Relation) -> list[tuple[int, str]]:
    """The missing cells by row, each row's in schema order: the order
    the driver imputes them in."""
    names = relation.attribute_names
    return [
        (row, name)
        for row in relation.incomplete_rows()
        for name, value in zip(names, relation.row_values(row))
        if value is MISSING
    ]


@dataclass(frozen=True)
class RenuverConfig:
    """Tuning knobs of a RENUVER run.

    Attributes
    ----------
    cluster_order:
        ``"ascending"`` (default; the worked example's tightest-first
        order) or ``"descending"`` (Algorithm 2's literal wording).
    verify:
        Run IS_FAULTLESS on every tentative imputation.  Disabling it is
        an ablation: faster, but consistency (Definition 4.3) is no
        longer guaranteed.
    check_rhs_rfds:
        Extend verification to RFDs with the imputed attribute on the
        RHS (stronger than the paper's Algorithm 4).
    keyness_scope:
        Which tuple pairs count when testing Definition 3.4: ``"all"``
        (default; the literal definition) or ``"complete"`` (only pairs
        of complete tuples — closer to the paper's Example 5.2; see
        repro.rfd.keyness).
    max_candidates:
        Optional cap on candidates tried per cluster (the paper's ``k``).
    track_memory:
        Measure peak allocation with :mod:`tracemalloc` (slows the run;
        used by the stress benchmarks).
    time_budget_seconds / memory_budget_bytes:
        Abort with :class:`~repro.exceptions.BudgetExceededError` when
        exceeded — the paper's 48 h / 30 GB stress-test limits.
    cell_time_budget_seconds:
        Per-cell deadline.  A cell that overruns it is downgraded to the
        last-resort tier (and the trip recorded in the report's
        ``budget_events``) instead of ending the run.
    fallback:
        Last rung of the degradation ladder when a cell's imputation
        fails: ``"skip"`` (default; record the cell as skipped),
        ``"mean_mode"`` (fill with the column mean/mode, recorded as a
        DEGRADED outcome), or ``"raise"`` (disable fault isolation —
        the pre-robustness behavior, useful when debugging kernels).
    on_budget:
        What a *run-scope* budget overrun does: ``"raise"`` (default;
        raise BudgetExceededError with the partial result attached) or
        ``"partial"`` (settle every remaining cell as skipped and
        return the partial result normally).
    """

    cluster_order: str = "ascending"
    verify: bool = True
    check_rhs_rfds: bool = False
    keyness_scope: str = "all"
    max_candidates: int | None = None
    track_memory: bool = False
    time_budget_seconds: float | None = None
    memory_budget_bytes: int | None = None
    cell_time_budget_seconds: float | None = None
    fallback: str = "skip"
    on_budget: str = "raise"

    def __post_init__(self) -> None:
        if self.cluster_order not in ("ascending", "descending"):
            raise ImputationError(
                f"cluster_order must be 'ascending' or 'descending', "
                f"got {self.cluster_order!r}"
            )
        if self.keyness_scope not in ("complete", "all"):
            raise ImputationError(
                f"keyness_scope must be 'complete' or 'all', "
                f"got {self.keyness_scope!r}"
            )
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ImputationError("max_candidates must be >= 1 when given")
        if self.fallback not in ("raise", "skip", "mean_mode"):
            raise ImputationError(
                f"fallback must be 'raise', 'skip' or 'mean_mode', "
                f"got {self.fallback!r}"
            )
        if self.on_budget not in ("raise", "partial"):
            raise ImputationError(
                f"on_budget must be 'raise' or 'partial', "
                f"got {self.on_budget!r}"
            )
        if (self.cell_time_budget_seconds is not None
                and self.cell_time_budget_seconds <= 0):
            raise ImputationError(
                "cell_time_budget_seconds must be positive when given"
            )


@dataclass
class ImputationResult:
    """What :meth:`Renuver.impute` returns: the instance plus provenance."""

    relation: Relation
    report: ImputationReport


@dataclass
class _RunState:
    """Mutable per-run state shared by the private helpers."""

    relation: Relation
    engine: VectorizedEngine
    active_rfds: list[RFD]
    key_rfds: list[RFD]
    report: ImputationReport
    timer: Timer
    memory: MemoryTracker | None = None
    #: Journal writer, when the run is journaled.
    writer: object | None = None
    #: Cells already settled (by a replayed journal).
    done: set[tuple[int, str]] = field(default_factory=set)
    #: Chaos injector, when fault injection is active.
    chaos: object | None = None


class Renuver:
    """RFD-based null value repairer.

    Parameters
    ----------
    rfds:
        The set ``Sigma`` of RFDs holding on the (complete) instance.
    config:
        Optional :class:`RenuverConfig`.
    distance_overrides:
        Optional per-attribute distance functions replacing the paper's
        defaults.
    memo_pool:
        Optional :class:`~repro.distance.kernels.DistanceMemoPool` that
        every run's string memos come from, so a run starts from the
        edit distances earlier runs computed.  Sharing never changes an
        answer; without one each run has a private pool.

    Example
    -------
    >>> from repro import Renuver, make_rfd
    >>> engine = Renuver([make_rfd({"Zip": 0}, ("City", 2))])
    >>> result = engine.impute(relation)          # doctest: +SKIP
    >>> result.report.fill_rate                   # doctest: +SKIP
    """

    def __init__(
        self,
        rfds: Iterable[RFD],
        config: RenuverConfig | None = None,
        *,
        distance_overrides: Mapping[str, DistanceFunction] | None = None,
        telemetry: Telemetry | None = None,
        index_plan: IndexPlan | None = None,
        memo_pool: DistanceMemoPool | None = None,
    ) -> None:
        self.rfds: tuple[RFD, ...] = tuple(rfds)
        if not self.rfds:
            raise ImputationError("Renuver needs at least one RFD")
        self.config = config or RenuverConfig()
        self._distance_overrides = dict(distance_overrides or {})
        #: Shared :class:`~repro.index.plan.IndexPlan` (sessions reuse
        #: one across rounds); a run probes it when it shadows the
        #: imputed relation instance, and builds its own otherwise.
        self._index_plan = index_plan
        #: The owner's string-distance memos (service engine, session);
        #: ``None`` gives each run a private pool.
        self._memo_pool = memo_pool
        #: Observability spine (spans + metrics); the no-op default
        #: costs a method call per instrumentation site.  See
        #: docs/OBSERVABILITY.md.
        self.telemetry = telemetry or NULL_TELEMETRY

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def impute(
        self,
        relation: Relation,
        *,
        inplace: bool = False,
        journal: str | Path | None = None,
        resume_from: str | Path | None = None,
        chaos: object | None = None,
    ) -> ImputationResult:
        """Impute every missing value of ``relation`` (Algorithm 1).

        Returns an :class:`ImputationResult` whose relation is a copy
        unless ``inplace`` is true.  Cells for which no semantically
        consistent candidate exists are left missing, per Section 4.

        ``journal`` appends a JSONL record per settled cell so a killed
        run can be resumed; ``resume_from`` replays such a journal onto
        ``relation`` (which must be the same dirty instance the
        journaled run started from) and continues where it died —
        passing only ``resume_from`` keeps journaling into the same
        file.  ``chaos`` accepts a
        :class:`~repro.robustness.chaos.ChaosInjector` for deterministic
        fault injection.

        When a live :class:`~repro.telemetry.Telemetry` is attached,
        the run executes under an ``impute`` root span (with
        ``preprocess``, per-cell and kernel spans nested below it) and
        feeds the metrics registry; see docs/OBSERVABILITY.md for the
        span taxonomy and metric names.
        """
        self._validate_schema(relation)
        telemetry = self.telemetry
        with telemetry.tracer.span(
            "impute",
            engine=VectorizedEngine.name,
            relation=relation.name,
            n_tuples=relation.n_tuples,
            n_rfds=len(self.rfds),
        ) as span:
            try:
                result = self._run(
                    relation,
                    inplace=inplace,
                    journal=journal,
                    resume_from=resume_from,
                    chaos=chaos,
                )
            except BaseException as exc:
                telemetry.metrics.counter(
                    "renuver_runs_total",
                    "Imputation runs by final status.",
                    status="error",
                ).inc()
                logger.warning(
                    "imputation run failed: %s: %s",
                    type(exc).__name__, exc,
                )
                raise
            report = result.report
            span.set_attribute("missing_cells", report.missing_count)
            span.set_attribute("imputed_cells", report.imputed_count)
            span.set_attribute("fill_rate", round(report.fill_rate, 4))
            self._finish_run_telemetry(report)
        return result

    def _finish_run_telemetry(self, report: ImputationReport) -> None:
        """Run-level metrics + logs once a run settles normally."""
        metrics = self.telemetry.metrics
        metrics.counter(
            "renuver_runs_total",
            "Imputation runs by final status.",
            status="ok",
        ).inc()
        metrics.gauge(
            "renuver_run_elapsed_seconds",
            "Elapsed seconds of the most recent run.",
        ).set(report.elapsed_seconds)
        # Unified kernel counters: both engines' seam/vector statistics
        # land in the registry under one metric family.
        for name, value in report.kernel_counters.items():
            metrics.counter(
                "renuver_kernel_counter_total",
                "Engine kernel counters (seam ops and vector layer).",
                engine=VectorizedEngine.name,
                counter=name,
            ).inc(value)
        logger.info(
            "imputation run finished: %d/%d cells filled in %.3fs "
            "(%d degradations, %d budget events)",
            report.filled_count, report.missing_count,
            report.elapsed_seconds, len(report.degradations),
            len(report.budget_events),
        )

    def _run(
        self,
        relation: Relation,
        *,
        inplace: bool,
        journal: str | Path | None,
        resume_from: str | Path | None,
        chaos: object | None,
    ) -> ImputationResult:
        """Algorithm 1 proper, inside the root telemetry span."""
        working = relation if inplace else relation.copy()

        replayed: list[CellOutcome] = []
        if resume_from is not None:
            from repro.robustness.journal import replay_journal

            replayed = replay_journal(
                resume_from, working, telemetry=self.telemetry
            )
            if journal is None:
                journal = resume_from
            self.telemetry.tracer.event(
                "journal_replay", cells=len(replayed)
            )
            self.telemetry.metrics.counter(
                "renuver_journal_replayed_cells_total",
                "Cells restored from a checkpoint journal.",
            ).inc(len(replayed))
            logger.info(
                "replayed %d cells from journal %s",
                len(replayed), resume_from,
            )
        writer = None
        if journal is not None:
            from repro.robustness.journal import JournalWriter

            writer = JournalWriter(journal)
            writer.write_header(working)

        clock = getattr(chaos, "clock", None)
        timer = Timer(
            self.config.time_budget_seconds, scope="run", clock=clock
        )
        timer.start()

        if chaos is not None:
            chaos.corrupt(working)
            working.add_mutation_listener(chaos.listener)
        if self.config.track_memory:
            memory = MemoryTracker(self.config.memory_budget_bytes)
            memory.__enter__()
        else:
            memory = None
        state: _RunState | None = None
        try:
            state = self._preprocess(working, timer, memory, chaos)
            state.writer = writer
            state.chaos = chaos
            for outcome in replayed:
                state.done.add((outcome.row, outcome.attribute))
                state.report.add(outcome)
            state.report.replayed_count = len(replayed)
            self._impute_all(state)
            if writer is not None:
                writer.record_end()
        except BudgetExceededError as exc:
            partial = self._settle_budget_overrun(
                exc, working, timer, replayed, state, writer
            )
            if partial is not None:
                return partial
            raise
        finally:
            if state is not None:
                state.engine.close()
            if memory is not None:
                memory.__exit__(None, None, None)
            if chaos is not None:
                working.remove_mutation_listener(chaos.listener)
            if writer is not None:
                writer.close()
        state.report.elapsed_seconds = timer.stop()
        state.report.kernel_counters = state.engine.counters()
        if memory is not None:
            state.report.peak_bytes = memory.peak_bytes
        return ImputationResult(working, state.report)

    def explain(
        self, relation: Relation, row: int, attribute: str
    ) -> list[Candidate]:
        """Candidates RENUVER would consider for one missing cell.

        Diagnostic helper: runs selection + candidate generation for a
        single cell against a copy of ``relation`` without imputing
        anything.  Candidates from all clusters are concatenated in
        cluster order.  Uses the configured donor-scan engine — the same
        code path (and per-cell donor memoization) as the imputation
        driver.
        """
        self._validate_schema(relation)
        if not relation.is_missing_cell(row, attribute):
            raise ImputationError(
                f"cell ({row}, {attribute}) is not missing"
            )
        working = relation.copy()
        engine = self._make_engine(working)
        try:
            _, active = engine.partition_key_rfds(
                self.rfds, scope=self.config.keyness_scope
            )
            clusters = self._clusters_for(active, attribute)
            return [
                candidate
                for _, cluster_candidates in self._scan_clusters(
                    engine, row, attribute, clusters
                )
                for candidate in cluster_candidates
            ]
        finally:
            engine.close()

    # ------------------------------------------------------------------
    # Pipeline steps
    # ------------------------------------------------------------------
    def _preprocess(
        self,
        working: Relation,
        timer: Timer,
        memory: MemoryTracker | None,
        chaos: object | None = None,
    ) -> _RunState:
        """Step (a): split keys from usable RFDs, set up shared state."""
        with self.telemetry.tracer.span(
            "preprocess", n_rfds=len(self.rfds)
        ) as span:
            engine = self._make_engine(working)
            self._attach_runtime_hooks(engine, timer, chaos)
            # The keyness partition runs before any cell, so the per-cell
            # ladder cannot shield it; retry transient faults a few times
            # (injected or real) before giving up.
            attempts = 1 if self.config.fallback == "raise" else 5
            for attempt in range(1, attempts + 1):
                try:
                    key_rfds, active_rfds = engine.partition_key_rfds(
                        self.rfds, scope=self.config.keyness_scope
                    )
                    break
                except BudgetExceededError:
                    raise
                except Exception:  # noqa: BLE001 - bounded retry
                    if attempt == attempts:
                        raise
            span.set_attribute("key_rfds", len(key_rfds))
            span.set_attribute("active_rfds", len(active_rfds))
            logger.debug(
                "preprocess: %d key RFDs, %d active RFDs",
                len(key_rfds), len(active_rfds),
            )
        report = ImputationReport(key_rfds_initial=len(key_rfds))
        return _RunState(
            relation=working,
            engine=engine,
            active_rfds=active_rfds,
            key_rfds=key_rfds,
            report=report,
            timer=timer,
            memory=memory,
        )

    def _attach_runtime_hooks(
        self,
        engine: VectorizedEngine,
        timer: Timer,
        chaos: object | None,
    ) -> None:
        """Budget watchdog + chaos injector on the kernel-call seam."""
        if timer.budget_seconds is not None:
            def check_run_budget(op: str, row: int, attribute: str) -> None:
                if timer.expired:  # format the context only when tripping
                    timer.check_budget(f"donor-scan {op}")

            engine.add_kernel_hook(check_run_budget)
        kernel_hook = getattr(chaos, "kernel_hook", None)
        if kernel_hook is not None:
            engine.add_kernel_hook(kernel_hook)

    def _impute_all(self, state: _RunState) -> None:
        """Steps (b) + (c) over every missing cell, in tuple order.

        Each cell runs under the fault-isolation ladder; run-scope
        budget overruns either settle the remaining cells as skipped
        (``on_budget="partial"``) or propagate after being recorded.
        """
        relation = state.relation
        cells = _missing_cells_in_row_order(relation)
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        for row, attribute in cells:
            if (row, attribute) in state.done:
                continue
            with tracer.span("cell", row=row, attribute=attribute) as span:
                started = perf_counter() if metrics.enabled else 0.0
                try:
                    state.timer.check_budget("RENUVER imputation")
                    if state.memory is not None:
                        state.memory.check_budget("RENUVER imputation")
                    if state.chaos is not None:
                        state.chaos.on_cell_start(row, attribute)
                    outcome = self._impute_cell_guarded(
                        state, row, attribute
                    )
                except BudgetExceededError as exc:
                    # Record with cell context, then let impute() settle
                    # the run (partial result or raise, per on_budget).
                    self._record_budget_event(
                        state.report, state.writer, exc, row, attribute
                    )
                    raise
                span.set_attribute("status", outcome.status.value)
                span.set_attribute(
                    "candidates_tried", outcome.candidates_tried
                )
                if outcome.engine_tier is not None:
                    span.set_attribute("engine_tier", outcome.engine_tier)
                if metrics.enabled:
                    self._record_cell_metrics(
                        outcome, perf_counter() - started
                    )
            state.report.add(outcome)
            if state.writer is not None:
                state.writer.record_cell(outcome)
            if outcome.filled:
                self._reactivate_keys(state, row, attribute)

    def _impute_cell_guarded(
        self,
        state: _RunState,
        row: int,
        attribute: str,
    ) -> CellOutcome:
        """One cell under the degradation ladder.

        Tier 0 is the run's engine; a fault rolls the cell back and
        retries it once on the same engine (tier 1, ``retry``) with a
        fresh cell scan; whatever remains goes to the last resort
        (``fallback``).  Per-cell deadline overruns
        jump straight to the last resort — the retry would only overrun
        again.  Run-scope budget errors and ``BaseException`` (kill
        switch, Ctrl-C) propagate.
        """
        config = self.config
        tiers = [state.engine.name]
        if config.fallback != "raise":
            tiers.append("retry")
        last_reason = "degradation ladder exhausted"
        for tier_index, tier_name in enumerate(tiers):
            cell_timer = None
            if config.cell_time_budget_seconds is not None:
                cell_timer = Timer(
                    config.cell_time_budget_seconds,
                    scope="cell",
                    clock=getattr(state.chaos, "clock", None),
                )
                cell_timer.start()
            try:
                outcome = self._impute_cell(
                    state, row, attribute, cell_timer=cell_timer
                )
            except BudgetExceededError as exc:
                self._restore_cell(state, row, attribute)
                if exc.scope != "cell" or config.fallback == "raise":
                    raise
                self._record_budget_event(
                    state.report, state.writer, exc, row, attribute
                )
                last_reason = f"cell deadline: {exc}"
                self._record_degradation(
                    state, row, attribute, tier_name,
                    self._last_tier_name(), last_reason,
                )
                break
            except Exception as exc:  # noqa: BLE001 - fault isolation
                self._restore_cell(state, row, attribute)
                if config.fallback == "raise":
                    raise
                last_reason = f"{type(exc).__name__}: {exc}"
                next_tier = (
                    tiers[tier_index + 1]
                    if tier_index + 1 < len(tiers)
                    else self._last_tier_name()
                )
                self._record_degradation(
                    state, row, attribute, tier_name, next_tier,
                    last_reason,
                )
                continue
            if tier_index > 0:
                outcome = replace(outcome, engine_tier=tier_name)
            return outcome
        return self._last_resort(state, row, attribute, last_reason)

    def _impute_cell(
        self,
        state: _RunState,
        row: int,
        attribute: str,
        *,
        cell_timer: Timer | None = None,
    ) -> CellOutcome:
        """Algorithm 2 for one missing value."""
        selected = select_rfds_for_attribute(state.active_rfds, attribute)
        if not selected:
            return CellOutcome(row, attribute, OutcomeStatus.NO_RFDS)
        clusters = cluster_by_rhs_threshold(
            selected, attribute, order=self.config.cluster_order
        )
        tried_total = 0
        saw_candidates = False
        cell_context = (
            f"cell ({row}, {attribute})" if cell_timer is not None else ""
        )
        for cluster, candidates in self._scan_clusters(
            state.engine, row, attribute, clusters
        ):
            if not candidates:
                continue
            saw_candidates = True
            for candidate in candidates:
                if cell_timer is not None:
                    cell_timer.check_budget(cell_context)
                state.timer.check_budget("RENUVER imputation")
                tried_total += 1
                accepted = self._try_candidate(
                    state, row, attribute, candidate
                )
                if accepted:
                    return CellOutcome(
                        row,
                        attribute,
                        OutcomeStatus.IMPUTED,
                        value=candidate.value,
                        source_row=candidate.row,
                        rfd=candidate.rfd,
                        distance=candidate.distance,
                        cluster_threshold=cluster.rhs_threshold,
                        candidates_tried=tried_total,
                    )
        status = (
            OutcomeStatus.ALL_REJECTED
            if saw_candidates
            else OutcomeStatus.NO_CANDIDATES
        )
        return CellOutcome(
            row, attribute, status, candidates_tried=tried_total
        )

    def _try_candidate(
        self,
        state: _RunState,
        row: int,
        attribute: str,
        candidate: Candidate,
    ) -> bool:
        """Write the candidate value, verify, roll back on fault.

        Both the tentative write and the rollback go through
        ``Relation.set_value``, which patches the column's encoding
        that the engine's kernels read live, and whose mutation hook
        feeds the index plan — verification always sees the written
        value.
        """
        relation = state.relation
        relation.set_value(row, attribute, candidate.value)
        if not self.config.verify:
            return True
        if state.engine.is_faultless(
            row,
            attribute,
            state.active_rfds,
            check_rhs_rfds=self.config.check_rhs_rfds,
        ):
            return True
        relation.set_value(row, attribute, MISSING)
        return False

    def _record_cell_metrics(
        self, outcome: CellOutcome, seconds: float
    ) -> None:
        """Per-cell metrics; called only when the registry is live."""
        metrics = self.telemetry.metrics
        metrics.histogram(
            "renuver_cell_seconds",
            "Wall time spent settling one missing cell.",
        ).observe(seconds)
        metrics.counter(
            "renuver_cells_total",
            "Missing cells settled, by outcome status.",
            status=outcome.status.value,
        ).inc()
        metrics.counter(
            "renuver_candidates_tried_total",
            "Candidate values attempted across all cells.",
        ).inc(outcome.candidates_tried)

    # ------------------------------------------------------------------
    # Fault-tolerance helpers
    # ------------------------------------------------------------------
    def _record_degradation(
        self,
        state: _RunState,
        row: int,
        attribute: str,
        from_tier: str,
        to_tier: str,
        reason: str,
    ) -> None:
        """One degradation-ladder downgrade: report + span event +
        metric + warning, all from a single code path."""
        state.report.degradations.append(
            Degradation(row, attribute, from_tier, to_tier, reason)
        )
        self.telemetry.tracer.event(
            "degradation",
            row=row,
            attribute=attribute,
            from_tier=from_tier,
            to_tier=to_tier,
        )
        self.telemetry.metrics.counter(
            "renuver_degradations_total",
            "Degradation-ladder downgrades, by the tier degraded from.",
            stage=from_tier,
        ).inc()
        logger.warning(
            "cell (%d, %s) degraded %s -> %s: %s",
            row, attribute, from_tier, to_tier, reason,
        )

    def _restore_cell(
        self, state: _RunState, row: int, attribute: str
    ) -> None:
        """Re-blank a cell a failed tier may have left tentatively set.

        ``set_value`` applies the write and invalidates caches before
        surfacing listener failures, so a ``DataError`` here (e.g. an
        injected listener fault) still leaves the cell restored.
        """
        relation = state.relation
        if relation.is_missing_cell(row, attribute):
            return
        try:
            relation.set_value(row, attribute, MISSING)
        except DataError:
            pass

    def _last_tier_name(self) -> str:
        return "mean_mode" if self.config.fallback == "mean_mode" else "skip"

    def _last_resort(
        self,
        state: _RunState,
        row: int,
        attribute: str,
        reason: str,
    ) -> CellOutcome:
        """Bottom of the ladder: mean/mode fill or an audited skip."""
        if self.config.fallback == "mean_mode":
            relation = state.relation
            value = self._fallback_fill_value(relation, attribute)
            if value is not None:
                try:
                    relation.set_value(row, attribute, value)
                except DataError:
                    pass  # write applied; listener failure already audited
                return CellOutcome(
                    row,
                    attribute,
                    OutcomeStatus.DEGRADED,
                    value=relation.value(row, attribute),
                    engine_tier="mean_mode",
                    reason=reason,
                )
            reason = f"{reason}; no present values for mean/mode fallback"
        return CellOutcome(
            row, attribute, OutcomeStatus.SKIPPED, reason=reason
        )

    @staticmethod
    def _fallback_fill_value(
        relation: Relation, attribute: str
    ) -> object | None:
        """Column mean (numeric) or mode (otherwise), as in
        :class:`~repro.baselines.mean_mode.MeanModeImputer`."""
        from repro.baselines.mean_mode import _mode

        values = [
            value
            for value in relation.column(attribute)
            if not is_missing(value)
        ]
        if not values:
            return None
        kind = relation.attribute(attribute).type
        if kind is AttributeType.FLOAT:
            return sum(values) / len(values)
        if kind is AttributeType.INTEGER:
            return round(sum(values) / len(values))
        return _mode(values)

    def _record_budget_event(
        self,
        report: ImputationReport,
        writer: object | None,
        exc: BudgetExceededError,
        row: int | None = None,
        attribute: str | None = None,
    ) -> None:
        """Report, journal, trace, count and log one budget overrun —
        at a cell, or (``row`` None) before the first cell."""
        event = BudgetEvent(
            scope=exc.scope,
            kind=exc.kind,
            context=str(exc),
            elapsed_seconds=exc.elapsed_seconds,
            peak_bytes=exc.peak_bytes,
            row=row,
            attribute=attribute,
        )
        report.budget_events.append(event)
        if writer is not None:
            writer.record_budget(event)
        cell = {} if row is None else {"row": row, "attribute": attribute}
        self.telemetry.tracer.event(
            "budget_exceeded", scope=event.scope, kind=event.kind, **cell
        )
        self.telemetry.metrics.counter(
            "renuver_budget_events_total",
            "Budget overruns, by scope and kind.",
            scope=event.scope,
            kind=event.kind,
        ).inc()
        if row is None:
            logger.warning("budget exceeded before first cell: %s", exc)
        else:
            logger.warning(
                "budget exceeded at cell (%d, %s): %s", row, attribute, exc
            )

    def _settle_budget_overrun(
        self,
        exc: BudgetExceededError,
        working: Relation,
        timer: Timer,
        replayed: list[CellOutcome],
        state: _RunState | None,
        writer: object | None,
    ) -> ImputationResult | None:
        """Finalize a run a budget overrun is ending.

        Returns the partial result when ``on_budget="partial"`` applies
        (the caller returns it normally); otherwise attaches the partial
        result to ``exc`` and returns None (the caller re-raises).  The
        overrun may have hit before preprocessing finished (``state`` is
        None) — the partial report then holds only replayed outcomes.

        Cells settled here are *not* journaled: a resumed run should
        retry them, not inherit the exhausted budget's verdict.
        """
        if state is not None:
            report = state.report
            report.kernel_counters = state.engine.counters()
        else:
            report = ImputationReport()
            for outcome in replayed:
                report.add(outcome)
            report.replayed_count = len(replayed)
            self._record_budget_event(report, writer, exc)
        report.elapsed_seconds = timer.elapsed
        if self.config.on_budget == "partial" and exc.scope == "run":
            settled = {(o.row, o.attribute) for o in report}
            reason = f"run budget exhausted ({exc.kind})"
            for row, attribute in _missing_cells_in_row_order(working):
                if (row, attribute) not in settled:
                    report.add(CellOutcome(
                        row, attribute, OutcomeStatus.SKIPPED,
                        reason=reason,
                    ))
            return ImputationResult(working, report)
        exc.partial_result = ImputationResult(working, report)
        return None

    def _reactivate_keys(
        self, state: _RunState, row: int, attribute: str
    ) -> None:
        """Incremental Algorithm 1 line 14.

        Only pairs involving the imputed tuple can create a fresh
        LHS match.  Under ``keyness_scope="all"`` the new value must
        moreover sit on the key RFD's LHS to matter; under
        ``"complete"`` any imputation that completes the tuple brings
        all its pairs into scope, so every key RFD is re-checked (but
        only when the tuple has just become complete).
        """
        scope = self.config.keyness_scope
        relation = state.relation
        if scope == "complete" and relation.row(row).is_incomplete():
            return  # pairs with this tuple are still out of scope
        still_key: list[RFD] = []
        for rfd in state.key_rfds:
            if scope == "all" and not rfd.has_lhs_attribute(attribute):
                still_key.append(rfd)
                continue
            try:
                reactivates = state.engine.pair_reactivates(
                    rfd, row, scope=scope
                )
            except BudgetExceededError:
                raise  # run is over; key_rfds left as-is is safe
            except Exception as exc:  # noqa: BLE001 - fault isolation
                if self.config.fallback == "raise":
                    raise
                # Conservative: keep the RFD keyed; the next imputation
                # re-checks it.  Auditable via the degradation trail.
                still_key.append(rfd)
                self._record_degradation(
                    state, row, attribute, "key-recheck", "deferred",
                    f"{type(exc).__name__}: {exc}",
                )
                continue
            if reactivates:
                state.active_rfds.append(rfd)
                state.report.key_rfds_reactivated += 1
                self.telemetry.metrics.counter(
                    "renuver_key_rfds_reactivated_total",
                    "Key RFDs re-activated (Algorithm 1 line 14).",
                ).inc()
                logger.debug(
                    "key RFD reactivated by cell (%d, %s): %s",
                    row, attribute, rfd,
                )
            else:
                still_key.append(rfd)
        state.key_rfds = still_key

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _make_engine(self, relation: Relation) -> VectorizedEngine:
        """The run's donor-scan engine — the only one a run builds.

        It probes the shared plan if that shadows this relation
        instance; otherwise the engine builds (and closes) its own.
        """
        plan = self._index_plan
        if plan is not None and plan.relation is not relation:
            plan = None
        engine = VectorizedEngine(
            relation,
            self.rfds,
            overrides=self._distance_overrides,
            plan=plan,
            memo_pool=self._memo_pool,
        )
        engine.set_telemetry(self.telemetry)
        return engine

    def _scan_clusters(
        self,
        engine: VectorizedEngine,
        row: int,
        attribute: str,
        clusters: list[Cluster],
    ):
        """Yield ``(cluster, candidates)`` through one engine cell scan.

        The single shared donor-scan path of the driver and ``explain``:
        one scan context per missing cell, so per-donor work (the
        scalar oracle's distance patterns) is shared across the cell's
        clusters.
        """
        if not clusters:
            return
        scan = engine.cell_scan(row, attribute, clusters)
        for cluster in clusters:
            yield cluster, scan.candidates(
                cluster, max_candidates=self.config.max_candidates
            )

    def _clusters_for(
        self, active: list[RFD], attribute: str
    ) -> list[Cluster]:
        return cluster_by_rhs_threshold(
            select_rfds_for_attribute(active, attribute),
            attribute,
            order=self.config.cluster_order,
        )

    def _validate_schema(self, relation: Relation) -> None:
        known = set(relation.attribute_names)
        for rfd in self.rfds:
            unknown = set(rfd.attributes) - known
            if unknown:
                raise ImputationError(
                    f"RFD {rfd} references attributes {sorted(unknown)} "
                    f"absent from relation {relation.name!r}"
                )

    def with_config(self, **changes: object) -> "Renuver":
        """A copy of this engine with some config fields replaced."""
        return Renuver(
            self.rfds,
            replace(self.config, **changes),  # type: ignore[arg-type]
            distance_overrides=self._distance_overrides,
            telemetry=self.telemetry,
            index_plan=self._index_plan,
            memo_pool=self._memo_pool,
        )
