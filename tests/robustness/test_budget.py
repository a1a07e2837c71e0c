"""Budget enforcement: run/cell deadlines, partial results, events."""

from __future__ import annotations

import pytest

from repro.core import Renuver, RenuverConfig
from repro.core.report import OutcomeStatus
from repro.exceptions import BudgetExceededError, ImputationError


class TestRunBudget:
    def test_raise_mode_attaches_partial_result(
        self, restaurant_sample, paper_rfds
    ):
        engine = Renuver(
            paper_rfds, RenuverConfig(time_budget_seconds=1e-9)
        )
        with pytest.raises(BudgetExceededError) as excinfo:
            engine.impute(restaurant_sample)
        exc = excinfo.value
        assert exc.scope == "run"
        assert exc.kind == "time"
        assert exc.partial_result is not None
        assert exc.partial_result.relation.n_tuples == 7

    def test_partial_mode_settles_remaining_as_skipped(
        self, restaurant_sample, paper_rfds
    ):
        engine = Renuver(paper_rfds, RenuverConfig(
            time_budget_seconds=1e-9, on_budget="partial"
        ))
        result = engine.impute(restaurant_sample)
        outcomes = result.report.cell_outcomes
        assert len(outcomes) == 4  # full ledger despite the overrun
        assert all(
            status == OutcomeStatus.SKIPPED.value
            for status in outcomes.values()
        )
        assert any(
            event.scope == "run" and event.kind == "time"
            for event in result.report.budget_events
        )

    def test_generous_budget_changes_nothing(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        baseline = Renuver(paper_rfds).impute(restaurant_sample)
        guarded_runs = [
            (RenuverConfig(time_budget_seconds=3600.0), None),
            # The full guarded runtime: run, cell and memory budgets
            # that never trip, the mean/mode fallback armed, a journal.
            (
                RenuverConfig(
                    time_budget_seconds=3600.0,
                    cell_time_budget_seconds=600.0,
                    memory_budget_bytes=1 << 40,
                    fallback="mean_mode",
                ),
                tmp_path / "guarded.jsonl",
            ),
        ]
        for config, journal in guarded_runs:
            budgeted = Renuver(paper_rfds, config).impute(
                restaurant_sample, journal=journal
            )
            assert budgeted.relation.equals(baseline.relation)
            assert budgeted.report.outcomes == baseline.report.outcomes
            assert budgeted.report.budget_events == []
            assert budgeted.report.degradations == []


class TestCellBudget:
    def test_overrun_degrades_instead_of_aborting(
        self, restaurant_sample, paper_rfds
    ):
        # A clock stuck fast-forwarding trips every cell deadline.
        engine = Renuver(paper_rfds, RenuverConfig(
            cell_time_budget_seconds=1e-9, fallback="mean_mode"
        ))
        result = engine.impute(restaurant_sample)
        outcomes = result.report.cell_outcomes
        assert len(outcomes) == 4
        assert set(outcomes.values()) <= {"degraded", "skipped"}
        assert all(
            event.scope == "cell" for event in result.report.budget_events
        )
        assert result.report.degradations

    def test_skip_fallback_leaves_cells_missing(
        self, restaurant_sample, paper_rfds
    ):
        engine = Renuver(paper_rfds, RenuverConfig(
            cell_time_budget_seconds=1e-9, fallback="skip"
        ))
        result = engine.impute(restaurant_sample)
        assert result.relation.count_missing() == 4
        assert set(result.report.cell_outcomes.values()) == {"skipped"}


class TestConfigValidation:
    def test_bad_fallback_rejected(self):
        with pytest.raises(ImputationError):
            RenuverConfig(fallback="pray")

    def test_bad_on_budget_rejected(self):
        with pytest.raises(ImputationError):
            RenuverConfig(on_budget="hope")

    def test_nonpositive_cell_budget_rejected(self):
        with pytest.raises(ImputationError):
            RenuverConfig(cell_time_budget_seconds=0.0)
