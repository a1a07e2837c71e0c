"""Incremental imputation sessions (paper Section 7, future work #3).

The paper's conclusion points to "incremental scenarios, like the
imputation of time series", where tuples arrive over time and only the
new ones should be processed.  :class:`ImputationSession` keeps a
growing relation and, on each :meth:`impute_pending` call, runs RENUVER
only over the missing cells that appeared since the last call — while
the whole accumulated instance serves as the donor pool, so early
arrivals keep helping later ones.

Cells that could not be imputed stay on a retry list: new arrivals can
provide the donor that was missing before (the session-level analogue of
the paper's key-RFD reactivation).
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
    retry_unimputed:
        Whether cells that previously failed are retried on the next
        :meth:`impute_pending` (default true).
    """

    def __init__(
        self,
        schema: Relation,
        rfds: Iterable[RFD],
        config: RenuverConfig | None = None,
        *,
        retry_unimputed: bool = True,
    ) -> None:
        self._relation = schema.copy(name=f"{schema.name}@session")
        self._index_plan = self._make_index_plan(
            rfds, config or RenuverConfig()
        )
        self._engine = Renuver(rfds, config, index_plan=self._index_plan)
        self.retry_unimputed = retry_unimputed
        self._pending: set[tuple[int, str]] = set(
            self._relation.missing_cells()
        )
        self._failed: set[tuple[int, str]] = set()
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
        cells = set(self._pending)
        if self.retry_unimputed:
            cells |= self._failed
        return sorted(cells)

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
                    self._pending.add((row_index, name))
        return list(range(start, start + len(appended)))

    def impute_pending(self) -> ImputationResult:
        """Run RENUVER over the queued cells only.

        Returns the result for this round; the session relation is
        updated in place.  Cells that stay missing move to the retry
        list (when ``retry_unimputed``) or are dropped.
        """
        targets = self.pending_cells
        self.rounds += 1
        if not targets:
            return ImputationResult(self._relation, ImputationReport())

        # Run the engine on a scoped copy: blank-protect nothing, simply
        # let it see the full instance; afterwards keep only the target
        # cells' changes (RENUVER only writes missing cells anyway).
        result = self._engine.impute(self._relation, inplace=True)

        round_report = ImputationReport(
            elapsed_seconds=result.report.elapsed_seconds,
            peak_bytes=result.report.peak_bytes,
            key_rfds_initial=result.report.key_rfds_initial,
            key_rfds_reactivated=result.report.key_rfds_reactivated,
        )
        target_set = set(targets)
        for outcome in result.report:
            if (outcome.row, outcome.attribute) in target_set:
                round_report.add(outcome)

        self._pending.clear()
        self._failed = {
            (outcome.row, outcome.attribute)
            for outcome in round_report
            if not outcome.imputed
        }
        return ImputationResult(self._relation, round_report)

    def unimputed_cells(self) -> list[tuple[int, str]]:
        """Cells that failed in past rounds and await retry."""
        return sorted(self._failed)

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
