"""Tests for the RENUVER driver (Algorithm 1), incl. the Figure 1 rerun."""

import pytest

from repro.core import OutcomeStatus, Renuver, RenuverConfig
from repro.dataset import MISSING, Relation
from repro.distance.pattern import PatternCalculator
from repro.exceptions import BudgetExceededError, ImputationError
from repro.rfd import holds_all, make_rfd


class TestFigure1:
    """The paper's worked example end to end."""

    def test_all_four_missing_values_imputed(
        self, restaurant_sample, paper_rfds
    ):
        result = Renuver(paper_rfds).impute(restaurant_sample)
        assert result.report.fill_rate == 1.0
        assert result.relation.count_missing() == 0

    def test_t7_phone_from_t2_after_t3_rejection(
        self, restaurant_sample, paper_rfds
    ):
        # Example 5.9: t3's phone violates phi7, so t2's is chosen.
        result = Renuver(paper_rfds).impute(restaurant_sample)
        outcome = result.report.outcome_for(6, "Phone")
        assert outcome.value == "310-932-9025"
        assert outcome.source_row == 1
        # At least the faulty t3 donation precedes t2's (the already
        # imputed t4 also donates t3's rejected phone by then).
        assert outcome.candidates_tried >= 2

    def test_t6_city_is_hollywood(self, restaurant_sample, paper_rfds):
        result = Renuver(paper_rfds).impute(restaurant_sample)
        outcome = result.report.outcome_for(5, "City")
        assert outcome.value == "Hollywood"
        assert outcome.source_row == 4

    def test_t4_phone_from_t3(self, restaurant_sample, paper_rfds):
        result = Renuver(paper_rfds).impute(restaurant_sample)
        outcome = result.report.outcome_for(3, "Phone")
        assert outcome.value == "213/857-0034"
        assert outcome.source_row == 2

    def test_original_not_mutated_by_default(
        self, restaurant_sample, paper_rfds
    ):
        before = restaurant_sample.count_missing()
        Renuver(paper_rfds).impute(restaurant_sample)
        assert restaurant_sample.count_missing() == before

    def test_inplace_mutates(self, restaurant_sample, paper_rfds):
        result = Renuver(paper_rfds).impute(restaurant_sample, inplace=True)
        assert result.relation is restaurant_sample
        assert restaurant_sample.count_missing() == 0


class TestConsistencyInvariant:
    def test_consistent_instance_stays_consistent(self, zip_city_relation):
        # Definition 4.3 on an initially consistent instance: with the
        # full verification (check_rhs_rfds=True) r' |= Sigma.
        sigma = [
            make_rfd({"Zip": 0}, ("City", 1)),
            make_rfd({"City": 1}, ("Zip", 0)),
        ]
        calculator = PatternCalculator(zip_city_relation)
        assert holds_all(sigma, calculator)
        zip_city_relation.set_value(0, "City", MISSING)
        zip_city_relation.set_value(3, "Zip", MISSING)
        result = Renuver(
            sigma, RenuverConfig(check_rhs_rfds=True)
        ).impute(zip_city_relation)
        assert result.report.fill_rate == 1.0
        assert holds_all(sigma, PatternCalculator(result.relation))

    def test_full_verification_adds_no_new_violations(
        self, restaurant_sample, paper_rfds
    ):
        # The paper's 7-row excerpt does not itself satisfy Sigma (phi2
        # and phi6 are violated by the raw data); what full verification
        # guarantees is that imputation introduces no NEW violation.
        from repro.rfd import find_violations

        def violation_set(relation):
            calculator = PatternCalculator(relation)
            return {
                (str(rfd), violation.row_a, violation.row_b)
                for rfd in paper_rfds
                for violation in find_violations(rfd, calculator)
            }

        before = violation_set(restaurant_sample)
        result = Renuver(
            paper_rfds, RenuverConfig(check_rhs_rfds=True)
        ).impute(restaurant_sample)
        after = violation_set(result.relation)
        assert after <= before

    def test_paper_algorithm_4_is_weaker(
        self, restaurant_sample, paper_rfds
    ):
        # With the paper's LHS-only check (the default), RFDs whose RHS
        # is the imputed attribute can acquire fresh violations — a
        # documented gap between Algorithm 4 and Definition 4.3.
        result = Renuver(paper_rfds).impute(restaurant_sample)
        calculator = PatternCalculator(result.relation)
        assert not holds_all(paper_rfds, calculator)

    def test_unverified_runs_can_violate(self, zip_city_relation):
        # Force a wrong donor: without verification the violation lands.
        sigma = [
            make_rfd({"Age": 100}, ("City", 100)),  # generator (loose)
            make_rfd({"City": 0}, ("Zip", 0)),       # would-be verifier
        ]
        zip_city_relation.set_value(0, "City", MISSING)
        verified = Renuver(sigma).impute(zip_city_relation)
        calculator = PatternCalculator(verified.relation)
        assert holds_all(sigma, calculator)
        unverified = Renuver(
            sigma, RenuverConfig(verify=False)
        ).impute(zip_city_relation)
        assert unverified.report.fill_rate == 1.0


class TestOutcomes:
    def test_no_rfds_outcome(self, zip_city_relation):
        zip_city_relation.set_value(0, "Name", MISSING)
        engine = Renuver([make_rfd({"Zip": 0}, ("City", 0))])
        result = engine.impute(zip_city_relation)
        outcome = result.report.outcome_for(0, "Name")
        assert outcome.status is OutcomeStatus.NO_RFDS

    def test_no_candidates_outcome(self, zip_city_relation):
        zip_city_relation.set_value(0, "City", MISSING)
        zip_city_relation.set_value(0, "Zip", "00000")  # matches nobody
        engine = Renuver([make_rfd({"Zip": 0}, ("City", 0))])
        result = engine.impute(zip_city_relation)
        outcome = result.report.outcome_for(0, "City")
        assert outcome.status is OutcomeStatus.NO_CANDIDATES

    def test_all_rejected_outcome(self, zip_city_relation):
        # Donor exists but every candidate violates City -> Zip.
        zip_city_relation.set_value(0, "City", MISSING)
        sigma = [
            make_rfd({"Age": 100}, ("City", 0)),   # candidates: all cities
            make_rfd({"City": 0}, ("Zip", 0)),     # verifier kills them
        ]
        result = Renuver(sigma).impute(zip_city_relation)
        outcome = result.report.outcome_for(0, "City")
        # "Los Angeles" survives via the t1 donor (same zip), so patch
        # the zip to something unique first to force rejection.
        if outcome.status is OutcomeStatus.IMPUTED:
            zip_city_relation.set_value(0, "Zip", "77777")
            result = Renuver(sigma).impute(zip_city_relation)
            outcome = result.report.outcome_for(0, "City")
        assert outcome.status is OutcomeStatus.ALL_REJECTED
        assert outcome.candidates_tried > 0

    def test_imputed_tuple_becomes_donor(self):
        # Section 4: an imputed tuple can donate to a later one.
        relation = Relation.from_rows(
            ["K", "V"],
            [
                ["a", "v1"],
                ["a", MISSING],
                ["b", MISSING],
            ],
        )
        relation.set_value(2, "K", "a")
        engine = Renuver([make_rfd({"K": 0}, ("V", 0))])
        result = engine.impute(relation)
        assert result.relation.value(1, "V") == "v1"
        assert result.relation.value(2, "V") == "v1"


class TestKeyReactivation:
    def test_example_5_1_reactivation(self, restaurant_sample, paper_rfds):
        # Under keyness_scope="complete", phi1 starts as a key and is
        # reactivated once t4 becomes complete.
        engine = Renuver(
            paper_rfds, RenuverConfig(keyness_scope="complete")
        )
        result = engine.impute(restaurant_sample)
        assert result.report.key_rfds_initial >= 1
        assert result.report.key_rfds_reactivated >= 1


class TestConfig:
    def test_invalid_cluster_order(self):
        with pytest.raises(ImputationError):
            RenuverConfig(cluster_order="sideways")

    def test_invalid_keyness_scope(self):
        with pytest.raises(ImputationError):
            RenuverConfig(keyness_scope="some")

    def test_invalid_max_candidates(self):
        with pytest.raises(ImputationError):
            RenuverConfig(max_candidates=0)

    def test_needs_rfds(self):
        with pytest.raises(ImputationError):
            Renuver([])

    def test_schema_validation(self, zip_city_relation):
        engine = Renuver([make_rfd({"Nope": 0}, ("City", 0))])
        with pytest.raises(ImputationError):
            engine.impute(zip_city_relation)

    def test_with_config_copies(self, paper_rfds):
        engine = Renuver(paper_rfds)
        flipped = engine.with_config(cluster_order="descending")
        assert flipped.config.cluster_order == "descending"
        assert engine.config.cluster_order == "ascending"
        assert flipped.rfds == engine.rfds

    def test_descending_cluster_order_runs(
        self, restaurant_sample, paper_rfds
    ):
        engine = Renuver(
            paper_rfds, RenuverConfig(cluster_order="descending")
        )
        result = engine.impute(restaurant_sample)
        assert result.report.missing_count == 4

    def test_max_candidates_cap(self, restaurant_sample, paper_rfds):
        engine = Renuver(paper_rfds, RenuverConfig(max_candidates=1))
        result = engine.impute(restaurant_sample)
        # t7[Phone]: only t3 is tried (distance 3 < 7), which is faulty,
        # and the next cluster takes over or the cell stays open.
        outcome = result.report.outcome_for(6, "Phone")
        assert outcome.candidates_tried <= 3  # one per cluster at most


class TestBudgets:
    def test_time_budget_raises(self, restaurant_sample, paper_rfds):
        engine = Renuver(
            paper_rfds, RenuverConfig(time_budget_seconds=1e-9)
        )
        with pytest.raises(BudgetExceededError):
            engine.impute(restaurant_sample)

    def test_track_memory_reports_peak(
        self, restaurant_sample, paper_rfds
    ):
        engine = Renuver(paper_rfds, RenuverConfig(track_memory=True))
        result = engine.impute(restaurant_sample)
        assert result.report.peak_bytes > 0


class TestExplain:
    def test_explain_lists_candidates(self, restaurant_sample, paper_rfds):
        engine = Renuver(paper_rfds)
        candidates = engine.explain(restaurant_sample, 6, "Phone")
        assert [candidate.row for candidate in candidates[:2]] == [2, 1]

    def test_explain_rejects_present_cell(
        self, restaurant_sample, paper_rfds
    ):
        engine = Renuver(paper_rfds)
        with pytest.raises(ImputationError):
            engine.explain(restaurant_sample, 0, "Phone")

    def test_explain_does_not_mutate(self, restaurant_sample, paper_rfds):
        engine = Renuver(paper_rfds)
        engine.explain(restaurant_sample, 6, "Phone")
        assert restaurant_sample.is_missing_cell(6, "Phone")
