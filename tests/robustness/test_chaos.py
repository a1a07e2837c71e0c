"""The chaos suite: seeded fault injection against the full runtime.

Each test drives a complete imputation run with a deterministic
:class:`~repro.robustness.chaos.ChaosInjector` and asserts the two
contracts of the fault-tolerant runtime:

* the run never crashes and its report carries a *full* cell ledger
  (every originally missing cell has a terminal outcome), and
* a run killed mid-flight and resumed from its journal converges on a
  relation bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import pytest

from repro.core import Renuver, RenuverConfig
from repro.dataset.csv_io import to_csv_text
from repro.robustness import ChaosConfig, ChaosInjector, ChaosKill
from repro.telemetry import Telemetry
from tests.oracle import renuver_for

pytestmark = pytest.mark.chaos

#: A finished journal of the paper sample under seed-7 kernel faults
#: (rate 0.3, ``fallback="mean_mode"``), written by a version whose
#: ladder retried faulted cells on the scalar engine: its rescued
#: cells carry ``engine_tier: "scalar"``.
SCALAR_TIER_JOURNAL = (
    Path(__file__).parent / "data" / "scalar_tier_journal.jsonl"
)

ENGINES = ("scalar", "vectorized")


def _missing_cells(relation):
    return {
        (row, attribute)
        for row in relation.incomplete_rows()
        for attribute in relation.row(row).missing_attributes()
    }


class TestKernelFaults:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_full_ledger_despite_kernel_faults(
        self, restaurant_sample, paper_rfds, engine
    ):
        expected = _missing_cells(restaurant_sample)
        chaos = ChaosInjector(ChaosConfig(seed=7, kernel_fault_rate=0.3))
        result = renuver_for(engine, paper_rfds, RenuverConfig(
            fallback="mean_mode"
        )).impute(restaurant_sample, chaos=chaos)
        assert set(result.report.cell_outcomes) == expected
        assert chaos.faults_injected > 0
        assert result.report.degradations  # the ladder was exercised

    def test_deterministic_across_runs(
        self, restaurant_sample, paper_rfds
    ):
        def run():
            chaos = ChaosInjector(ChaosConfig(
                seed=42, kernel_fault_rate=0.25, corrupt_cells=2
            ))
            result = Renuver(paper_rfds, RenuverConfig(
                fallback="mean_mode"
            )).impute(restaurant_sample, chaos=chaos)
            return (
                to_csv_text(result.relation),
                result.report.cell_outcomes,
                chaos.corrupted,
                chaos.faults_injected,
            )

        assert run() == run()


class TestListenerFaults:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_full_ledger_despite_listener_faults(
        self, restaurant_sample, paper_rfds, engine
    ):
        expected = _missing_cells(restaurant_sample)
        chaos = ChaosInjector(ChaosConfig(seed=3, listener_fault_rate=0.5))
        result = renuver_for(engine, paper_rfds, RenuverConfig(
            fallback="skip"
        )).impute(restaurant_sample, chaos=chaos)
        assert set(result.report.cell_outcomes) == expected
        assert chaos.faults_injected > 0


class TestClockSkips:
    def test_budgeted_run_survives_clock_skips(
        self, restaurant_sample, paper_rfds
    ):
        chaos = ChaosInjector(ChaosConfig(seed=1, clock_skip_rate=0.2))
        result = Renuver(paper_rfds, RenuverConfig(
            time_budget_seconds=5.0, on_budget="partial"
        )).impute(restaurant_sample, chaos=chaos)
        assert set(result.report.cell_outcomes) == _missing_cells(
            restaurant_sample
        )
        assert chaos.clock_skips > 0
        assert any(
            event.kind == "time" for event in result.report.budget_events
        )


class TestCorruptedDonors:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_scrambled_cells_flow_through(
        self, restaurant_sample, paper_rfds, engine
    ):
        chaos = ChaosInjector(ChaosConfig(seed=11, corrupt_cells=5))
        result = renuver_for(engine, paper_rfds, RenuverConfig(
            fallback="mean_mode"
        )).impute(restaurant_sample, chaos=chaos)
        assert len(chaos.corrupted) == 5
        assert set(result.report.cell_outcomes) == _missing_cells(
            restaurant_sample
        )


class TestKillAndResume:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kill_after", (1, 2, 3))
    def test_resume_is_bit_identical_to_uninterrupted(
        self, restaurant_sample, paper_rfds, engine, kill_after, tmp_path
    ):
        renuver = renuver_for(engine, paper_rfds)
        uninterrupted = renuver.impute(restaurant_sample)

        journal = tmp_path / f"killed-{engine}-{kill_after}.jsonl"
        chaos = ChaosInjector(ChaosConfig(kill_after_cells=kill_after))
        with pytest.raises(ChaosKill):
            renuver.impute(
                restaurant_sample, journal=journal, chaos=chaos
            )

        resumed = renuver.impute(restaurant_sample, resume_from=journal)
        assert resumed.report.replayed_count == kill_after
        assert to_csv_text(resumed.relation) == to_csv_text(
            uninterrupted.relation
        )
        assert set(resumed.report.cell_outcomes) == _missing_cells(
            restaurant_sample
        )

    def test_kill_switch_is_not_swallowed_by_the_ladder(
        self, restaurant_sample, paper_rfds
    ):
        # ChaosKill derives from BaseException precisely so that the
        # fault-isolation ladder (which catches Exception) can't eat it,
        # even with the most forgiving fallback configured.
        chaos = ChaosInjector(ChaosConfig(kill_after_cells=0))
        with pytest.raises(ChaosKill):
            Renuver(paper_rfds, RenuverConfig(
                fallback="mean_mode"
            )).impute(restaurant_sample, chaos=chaos)
        assert issubclass(ChaosKill, BaseException)
        assert not issubclass(ChaosKill, Exception)


class TestRetryTier:
    """Tier 1 of the ladder is a second attempt on the run's engine."""

    @staticmethod
    def _run(relation, rfds, telemetry=None):
        chaos = ChaosInjector(ChaosConfig(seed=7, kernel_fault_rate=0.3))
        return Renuver(
            rfds, RenuverConfig(fallback="mean_mode"), telemetry=telemetry
        ).impute(relation, chaos=chaos)

    def test_run_builds_no_second_engine(
        self, restaurant_sample, paper_rfds
    ):
        telemetry = Telemetry()
        result = self._run(restaurant_sample, paper_rfds, telemetry)
        assert result.report.degradations
        family = {
            family.name: family for family in telemetry.metrics.families()
        }["renuver_kernel_calls_total"]
        engines = {
            dict(labels)["engine"] for labels in family.instruments
        }
        assert engines == {"vectorized"}

    def test_rescued_cells_carry_the_retry_tier(
        self, restaurant_sample, paper_rfds
    ):
        report = self._run(restaurant_sample, paper_rfds).report
        rescued = {
            (o.row, o.attribute) for o in report if o.engine_tier == "retry"
        }
        assert rescued == {(3, "Phone"), (5, "City")}
        steps = {(d.row, d.attribute, d.from_tier, d.to_tier)
                 for d in report.degradations}
        for row, attribute in rescued:
            assert (row, attribute, "vectorized", "retry") in steps
            assert (row, attribute, "retry", "mean_mode") not in steps
        assert {d.from_tier for d in report.degradations} <= {
            "vectorized", "retry"
        }

    def test_scalar_tier_journal_replays_to_the_same_relation(
        self, restaurant_sample, paper_rfds, tmp_path
    ):
        live = self._run(restaurant_sample, paper_rfds)
        journal = tmp_path / "journal.jsonl"
        shutil.copyfile(SCALAR_TIER_JOURNAL, journal)
        resumed = Renuver(paper_rfds).impute(
            restaurant_sample, resume_from=journal
        )
        assert resumed.report.replayed_count == 4
        assert to_csv_text(resumed.relation) == to_csv_text(live.relation)

        def relabeled(outcome):
            tier = "retry" if outcome.engine_tier == "scalar" else (
                outcome.engine_tier
            )
            return dataclasses.replace(outcome, engine_tier=tier)

        assert [relabeled(o) for o in resumed.report.outcomes] == (
            live.report.outcomes
        )
