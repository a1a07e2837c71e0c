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
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.renuver import ImputationResult, Renuver, RenuverConfig
from repro.core.report import ImputationReport
from repro.dataset.missing import is_missing
from repro.dataset.relation import Relation
from repro.exceptions import ImputationError
from repro.rfd.rfd import RFD


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
    """

    def __init__(
        self,
        schema: Relation,
        rfds: Iterable[RFD],
        config: RenuverConfig | None = None,
    ) -> None:
        self._relation = schema.copy(name=f"{schema.name}@session")
        self._index_plan = self._make_index_plan(
            rfds, config or RenuverConfig()
        )
        self._engine = Renuver(rfds, config, index_plan=self._index_plan)
        #: The relation's missing cells: every one is a target of the
        #: next round.
        self._missing: set[tuple[int, str]] = set(
            self._relation.missing_cells()
        )
        #: Tuples present when the last round ran; a missing cell in one
        #: of them went through a round and stayed unimputed.
        self._rounded_tuples = 0
        self.rounds = 0

    def _make_index_plan(
        self, rfds: Iterable[RFD], config: RenuverConfig
    ):
        """One blocking-index plan shared by every round of the session.

        Each :meth:`impute_pending` builds a fresh engine, but the plan
        rides the relation's mutation hook across rounds: appends and
        imputations maintain the indexes incrementally instead of
        rebuilding them per round (``docs/INDEXING.md``).  Only built
        when blocking can engage at some size.
        """
        if config.blocking == "off":
            return None
        from repro.index.plan import IndexPlan

        plan = IndexPlan(
            self._relation,
            rfds,
            max_group_size=config.max_group_size,
        )
        plan.attach()
        return plan

    # ------------------------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The accumulated instance (live; do not mutate directly)."""
        return self._relation

    @property
    def pending_cells(self) -> list[tuple[int, str]]:
        """Missing cells queued for the next round."""
        return sorted(self._missing)

    def append(self, rows: Sequence[Sequence[Any]]) -> list[int]:
        """Append tuples (schema order); returns their row indices."""
        names = self._relation.attribute_names
        start = self._relation.n_tuples
        width = len(names)
        for offset, row in enumerate(rows):
            if len(row) != width:
                raise ImputationError(
                    f"appended row {offset} has {len(row)} values, "
                    f"schema needs {width}"
                )
        appended = _append_rows(self._relation, names, rows)
        for row_index in appended:
            for name in names:
                if is_missing(self._relation.value(row_index, name)):
                    self._missing.add((row_index, name))
        return list(range(start, start + len(appended)))

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

    def update_rfds(self, rfds: Iterable[RFD]) -> None:
        """Replace the RFD set used by subsequent rounds.

        The service's warm-start sessions pair this with
        :class:`~repro.discovery.incremental.IncrementalDiscovery`:
        as appended tuples loosen, drop or de-key dependencies, the
        maintained set is pushed back into the session so the next
        :meth:`impute_pending` round runs against it.
        """
        rfds = list(rfds)
        if self._index_plan is not None:
            self._index_plan.update_rfds(rfds)
        self._engine = Renuver(
            rfds,
            self._engine.config,
            telemetry=self._engine.telemetry,
            index_plan=self._index_plan,
        )


def _append_rows(
    relation: Relation,
    names: tuple[str, ...],
    rows: Sequence[Sequence[Any]],
) -> list[int]:
    """Append raw rows to a relation in place, returning new indices.

    Uses the relation's own coercion by round-tripping through
    ``set_value``; grows the columns first with missing placeholders.
    """
    from repro.dataset.missing import MISSING

    start = relation.n_tuples
    # Grow every column by the number of new rows.
    for name in names:
        relation._columns[name].extend(  # noqa: SLF001 - same package
            [MISSING] * len(rows)
        )
    for offset, row in enumerate(rows):
        for name, value in zip(names, row):
            relation.set_value(start + offset, name, value)
    return [start + offset for offset in range(len(rows))]
