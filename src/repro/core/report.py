"""Imputation provenance: what was filled, from where, and why.

Every missing cell RENUVER touches produces a :class:`CellOutcome` —
either the imputed value plus its source tuple, RFD and distance, or the
reason the cell was left blank.  The :class:`ImputationReport` aggregates
outcomes and the run's resource usage; the evaluation harness and the
examples both read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.rfd.rfd import RFD


class OutcomeStatus(enum.Enum):
    """Terminal state of one missing cell after a run."""

    IMPUTED = "imputed"
    NO_CANDIDATES = "no_candidates"
    ALL_REJECTED = "all_rejected"
    NO_RFDS = "no_rfds"
    #: Filled by a fallback tier of the degradation ladder (not by the
    #: verified RENUVER path) — auditable via the report's degradations.
    DEGRADED = "degraded"
    #: Abandoned by the fault-tolerant runtime (fault, per-cell deadline
    #: or exhausted run budget); the cell is left missing but recorded.
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CellOutcome:
    """The outcome for one missing cell ``(row, attribute)``."""

    row: int
    attribute: str
    status: OutcomeStatus
    value: Any = None
    source_row: int | None = None
    rfd: RFD | None = None
    distance: float | None = None
    cluster_threshold: float | None = None
    candidates_tried: int = 0
    #: Ladder tier that produced the outcome when the degradation ladder
    #: stepped in: "retry" (the second attempt on the run's engine) or
    #: "mean_mode"; ``None`` on the normal path.  Journals written while
    #: the retry ran on the scalar engine carry "scalar".
    engine_tier: str | None = None
    #: Why a SKIPPED / DEGRADED cell left the normal path.
    reason: str | None = None

    @property
    def imputed(self) -> bool:
        """Whether the cell was filled by the verified RENUVER path."""
        return self.status is OutcomeStatus.IMPUTED

    @property
    def filled(self) -> bool:
        """Whether the cell holds a value (imputed or degraded fill)."""
        return self.status in (OutcomeStatus.IMPUTED, OutcomeStatus.DEGRADED)

    def __str__(self) -> str:
        if self.imputed:
            return (
                f"({self.row}, {self.attribute}) <- {self.value!r} "
                f"from tuple {self.source_row} via {self.rfd} "
                f"(dist={self.distance})"
            )
        if self.status is OutcomeStatus.DEGRADED:
            return (
                f"({self.row}, {self.attribute}) <- {self.value!r} "
                f"via fallback {self.engine_tier} ({self.reason})"
            )
        suffix = f" ({self.reason})" if self.reason else ""
        return (
            f"({self.row}, {self.attribute}) left missing: "
            f"{self.status.value}{suffix}"
        )


@dataclass(frozen=True)
class Degradation:
    """One step down the fault-tolerance ladder for one cell."""

    row: int
    attribute: str
    from_tier: str
    to_tier: str
    reason: str


@dataclass(frozen=True)
class BudgetEvent:
    """A time or memory budget tripping during a run."""

    scope: str  # "run" | "cell"
    kind: str   # "time" | "memory"
    context: str
    elapsed_seconds: float | None = None
    peak_bytes: int | None = None
    row: int | None = None
    attribute: str | None = None


@dataclass
class ImputationReport:
    """Aggregate result of one imputation run."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    peak_bytes: int = 0
    key_rfds_initial: int = 0
    key_rfds_reactivated: int = 0
    #: Donor-scan kernel statistics (subset gathers, index probes,
    #: Levenshtein DPs avoided by length blocking, ...).
    kernel_counters: dict[str, int] = field(default_factory=dict)
    #: Ladder steps taken by the fault-tolerant runtime, in run order.
    degradations: list[Degradation] = field(default_factory=list)
    #: Budget trips (run- and cell-scope), in run order.
    budget_events: list[BudgetEvent] = field(default_factory=list)
    #: Cells restored from a journal instead of re-imputed.
    replayed_count: int = 0

    def add(self, outcome: CellOutcome) -> None:
        """Record one cell outcome."""
        self.outcomes.append(outcome)

    @property
    def cell_outcomes(self) -> dict[tuple[int, str], str]:
        """Ledger mapping ``(row, attribute)`` to its final status value.

        The fault-tolerant runtime guarantees this covers *every*
        missing cell of the run — imputed, degraded or skipped, never
        silently dropped.
        """
        return {
            (outcome.row, outcome.attribute): outcome.status.value
            for outcome in self.outcomes
        }

    def __iter__(self) -> Iterator[CellOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def missing_count(self) -> int:
        """Number of missing cells the run attempted."""
        return len(self.outcomes)

    @property
    def imputed_count(self) -> int:
        """Number of cells filled by the verified RENUVER path."""
        return sum(1 for outcome in self.outcomes if outcome.imputed)

    @property
    def degraded_count(self) -> int:
        """Number of cells filled by a fallback tier."""
        return sum(
            1 for outcome in self.outcomes
            if outcome.status is OutcomeStatus.DEGRADED
        )

    @property
    def filled_count(self) -> int:
        """Number of cells holding a value (imputed + degraded)."""
        return sum(1 for outcome in self.outcomes if outcome.filled)

    @property
    def unimputed_count(self) -> int:
        """Number of cells left missing."""
        return self.missing_count - self.filled_count

    @property
    def fill_rate(self) -> float:
        """Fraction of attempted cells that hold a value, in [0, 1].

        Degraded fills count: the cell is no longer missing, and the
        degradations list records that it bypassed verification.
        """
        if not self.outcomes:
            return 0.0
        return self.filled_count / self.missing_count

    def imputed_cells(self) -> list[CellOutcome]:
        """Outcomes that filled a value, in processing order."""
        return [outcome for outcome in self.outcomes if outcome.filled]

    def outcome_for(self, row: int, attribute: str) -> CellOutcome | None:
        """The outcome recorded for one cell, if any."""
        for outcome in self.outcomes:
            if outcome.row == row and outcome.attribute == attribute:
                return outcome
        return None

    def status_counts(self) -> dict[str, int]:
        """Histogram of outcome statuses."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status.value] = (
                counts.get(outcome.status.value, 0) + 1
            )
        return counts

    def summary(self) -> str:
        """A one-paragraph human-readable digest."""
        lines = [
            f"missing cells : {self.missing_count}",
            f"imputed       : {self.imputed_count} "
            f"(fill rate {self.fill_rate:.1%})",
            f"left missing  : {self.unimputed_count}",
        ]
        for status, count in sorted(self.status_counts().items()):
            if status != OutcomeStatus.IMPUTED.value:
                lines.append(f"  - {status}: {count}")
        if self.degradations:
            lines.append(f"degradations  : {len(self.degradations)}")
        if self.budget_events:
            rendered = ", ".join(
                f"{event.scope}/{event.kind}" for event in self.budget_events
            )
            lines.append(f"budget events : {rendered}")
        if self.replayed_count:
            lines.append(f"replayed      : {self.replayed_count} from journal")
        if self.elapsed_seconds:
            lines.append(f"elapsed       : {self.elapsed_seconds:.3f}s")
        if self.kernel_counters:
            rendered = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.kernel_counters.items())
            )
            lines.append(f"kernels       : {rendered}")
        return "\n".join(lines)
