"""Rollback discipline of ``Renuver._try_candidate`` (both engines).

Algorithm 4's tentative write must be invisible unless verification
accepts it: a rejected candidate — or a crash anywhere between the
write and the verdict — leaves the relation bit-identical to its
pre-attempt state.
"""

from __future__ import annotations

import pytest

from repro.core import RenuverConfig
from repro.core.donor_scan import ScalarEngine, VectorizedEngine
from repro.core.report import OutcomeStatus
from repro.dataset import MISSING, Relation
from repro.dataset.csv_io import to_csv_text
from repro.exceptions import InjectedFaultError
from repro.rfd import make_rfd
from tests.oracle import renuver_for

ENGINES = ("scalar", "vectorized")


def _zip_city() -> Relation:
    rows = [
        ["alice", "90001", "Los Angeles", 34],
        ["bob", "90001", "Los Angeles", 41],
        ["carol", "94101", "San Francisco", 29],
        ["dave", "94101", "San Francisco", 55],
    ]
    return Relation.from_rows(
        ["Name", "Zip", "City", "Age"], rows, name="zip-city"
    )


def _rejection_setup() -> tuple[Relation, list]:
    """A missing City cell where every candidate fails verification.

    The Age RFD offers every city as a candidate; the crisp
    ``City -> Zip`` dependency rejects them all because row 0's zip
    (77777) matches nobody else's.
    """
    relation = _zip_city()
    relation.set_value(0, "City", MISSING)
    relation.set_value(0, "Zip", "77777")
    sigma = [
        make_rfd({"Age": 100}, ("City", 0)),
        make_rfd({"City": 0}, ("Zip", 0)),
    ]
    return relation, sigma


class TestVerificationRollback:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_rejected_leaves_relation_bit_identical(self, engine):
        relation, sigma = _rejection_setup()
        before = to_csv_text(relation)
        result = renuver_for(engine, sigma).impute(relation)
        outcome = result.report.outcome_for(0, "City")
        assert outcome.status is OutcomeStatus.ALL_REJECTED
        assert outcome.candidates_tried > 0
        assert to_csv_text(result.relation) == before
        assert to_csv_text(relation) == before  # input untouched too

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_rejected_inplace_restores_input(self, engine):
        relation, sigma = _rejection_setup()
        before = to_csv_text(relation)
        renuver_for(engine, sigma).impute(relation, inplace=True)
        assert to_csv_text(relation) == before


class TestCrashRollback:
    """A fault raised *between* the tentative write and the verdict."""

    @pytest.fixture(autouse=True)
    def _faulty_verification(self, monkeypatch):
        def boom(self, *args, **kwargs):
            raise InjectedFaultError("verification crashed mid-candidate")

        monkeypatch.setattr(ScalarEngine, "is_faultless", boom)
        monkeypatch.setattr(VectorizedEngine, "is_faultless", boom)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_skip_fallback_restores_cell(self, engine):
        relation = _zip_city()
        relation.set_value(0, "City", MISSING)
        before = to_csv_text(relation)
        sigma = [make_rfd({"Zip": 0}, ("City", 1))]
        result = renuver_for(engine, sigma).impute(relation)
        outcome = result.report.outcome_for(0, "City")
        assert outcome.status is OutcomeStatus.SKIPPED
        assert to_csv_text(result.relation) == before
        assert result.report.degradations  # downgrade was audited

    @pytest.mark.parametrize("engine", ENGINES)
    def test_raise_fallback_restores_before_propagating(self, engine):
        relation = _zip_city()
        relation.set_value(0, "City", MISSING)
        before = to_csv_text(relation)
        sigma = [make_rfd({"Zip": 0}, ("City", 1))]
        engine_obj = renuver_for(
            engine, sigma, RenuverConfig(fallback="raise")
        )
        with pytest.raises(InjectedFaultError):
            engine_obj.impute(relation, inplace=True)
        assert to_csv_text(relation) == before
