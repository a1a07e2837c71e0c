"""Incremental imputation sessions (paper Section 7, future work #3).

The paper's conclusion points to "incremental scenarios, like the
imputation of time series", where tuples arrive over time and only the
new ones should be processed.  :class:`ImputationSession` keeps a
growing relation and, on each :meth:`impute_pending` call, runs RENUVER
over its missing cells — while the whole accumulated instance serves as
the donor pool, so early arrivals keep helping later ones.

Cells that could not be imputed stay pending: new arrivals can provide
the donor that was missing before (the session-level analogue of the
paper's key-RFD reactivation).

The paper adds that such scenarios presuppose incremental RFD
discovery.  A session given a ``maintainer``
(:class:`~repro.discovery.incremental.IncrementalDiscovery`) inserts
every appended batch into it as well, and the next round runs against
the maintained RFD set.  The service's sessions, live and replayed
after a crash, are built this way.

The maintainer keeps its own copy of the instance, and two copies are
by design.  The maintainer's copy holds observed values only — each
batch as it arrived, missing cells still missing — which is what batch
discovery over the same tuples would see.  The session's relation
holds the values its rounds imputed; maintaining over it would let
imputed values vouch for the dependencies that imputed them.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.renuver import ImputationResult, Renuver, RenuverConfig
from repro.core.report import ImputationReport
from repro.dataset.missing import is_missing
from repro.dataset.relation import Relation
from repro.discovery.incremental import IncrementalDiscovery, MaintenanceReport
from repro.distance.kernels import DistanceMemoPool
from repro.exceptions import ImputationError
from repro.index.plan import IndexPlan
from repro.rfd.rfd import RFD
from repro.telemetry.logs import get_logger

logger = get_logger("extensions.incremental")


class ImputationSession:
    """A long-lived RENUVER session over an append-only relation.

    Parameters
    ----------
    schema:
        A relation providing the schema (its tuples seed the session).
    rfds:
        The RFD set assumed to hold on the accumulating instance.
    config:
        Optional :class:`RenuverConfig` for the inner engine.
    maintainer:
        Optional :class:`~repro.discovery.incremental.IncrementalDiscovery`
        seeded with ``schema``'s tuples.  Each :meth:`append` inserts
        the batch into it and swaps its maintained set in; an empty
        maintained set keeps the previous RFDs (a round needs at least
        one).
    memo_pool:
        The :class:`~repro.distance.kernels.DistanceMemoPool` every
        round's string memos come from: a service engine passes its
        own; without one the session owns a pool, so a round starts
        from the edit distances earlier rounds computed.
    """

    def __init__(
        self,
        schema: Relation,
        rfds: Iterable[RFD],
        config: RenuverConfig | None = None,
        *,
        maintainer: IncrementalDiscovery | None = None,
        memo_pool: DistanceMemoPool | None = None,
    ) -> None:
        rfds = list(rfds)
        self._relation = schema.copy(name=f"{schema.name}@session")
        self._seeded = schema.n_tuples
        # One blocking-index plan for every round: it rides the
        # relation's mutation hook, so appends and imputations maintain
        # the indexes instead of rebuilding them per round
        # (docs/INDEXING.md).
        self._index_plan = IndexPlan(self._relation, rfds)
        self._index_plan.attach()
        self._memo_pool = (
            DistanceMemoPool() if memo_pool is None else memo_pool
        )
        self._engine = Renuver(
            rfds,
            config,
            index_plan=self._index_plan,
            memo_pool=self._memo_pool,
        )
        self.maintainer = maintainer
        #: What maintenance did to the RFD set on the last append
        #: (``None`` without a maintainer or for an empty batch).
        self.maintenance: MaintenanceReport | None = None
        #: The relation's missing cells: every one is a target of the
        #: next round.
        self._missing: set[tuple[int, str]] = set(
            self._relation.missing_cells()
        )
        #: Tuples present when the last round ran; a missing cell in one
        #: of them went through a round and stayed unimputed.
        self._rounded_tuples = 0
        self.rounds = 0

    # ------------------------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The accumulated instance (live; do not mutate directly)."""
        return self._relation

    @property
    def pending_cells(self) -> list[tuple[int, str]]:
        """Missing cells queued for the next round."""
        return sorted(self._missing)

    @property
    def rfds(self) -> tuple[RFD, ...]:
        """The RFD set the next round runs against."""
        return self._engine.rfds

    @property
    def appended_tuples(self) -> int:
        """Tuples appended since the session opened."""
        return self._relation.n_tuples - self._seeded

    def append(self, rows: Sequence[Sequence[Any]]) -> list[int]:
        """Append tuples (schema order); returns their row indices.

        With a maintainer, the same rows are inserted into it and the
        maintained RFD set replaces the session's, unless maintenance
        dropped every dependency.
        """
        appended = self._relation.append_rows(rows, error=ImputationError)
        for row_index in appended:
            for name in self._relation.attribute_names:
                if is_missing(self._relation.value(row_index, name)):
                    self._missing.add((row_index, name))
        self.maintenance = None
        if self.maintainer is not None and rows:
            self.maintenance = self.maintainer.insert(rows)
            maintained = self.maintainer.all_rfds
            if maintained:
                self._index_plan.update_rfds(maintained)
                self._engine = Renuver(
                    maintained,
                    self._engine.config,
                    telemetry=self._engine.telemetry,
                    index_plan=self._index_plan,
                    memo_pool=self._memo_pool,
                )
            else:
                logger.warning(
                    "%s: maintenance dropped every RFD; keeping the "
                    "previous set", self._relation.name,
                )
        return list(appended)

    def impute_pending(self) -> ImputationResult:
        """Run RENUVER over the session relation in place.

        Every pending cell is a missing cell of the relation and the
        other way round, so the engine's report is this round's report
        as it stands: outcomes, budget events, degradations and kernel
        counters.  Cells that stay missing stay pending; filled ones —
        imputed or given a mean/mode fallback — leave.
        """
        self.rounds += 1
        if not self._missing:
            return ImputationResult(self._relation, ImputationReport())
        try:
            return self._engine.impute(self._relation, inplace=True)
        finally:
            # Also after a raised budget overrun: its partial writes
            # already filled some cells.
            self._missing = {
                cell for cell in self._missing
                if self._relation.is_missing_cell(*cell)
            }
            self._rounded_tuples = self._relation.n_tuples

    def unimputed_cells(self) -> list[tuple[int, str]]:
        """Cells that stayed missing through a past round."""
        return sorted(
            cell for cell in self._missing
            if cell[0] < self._rounded_tuples
        )
