"""Tests for incremental imputation sessions (future work #3)."""

import pytest

from repro import MISSING, Relation, make_rfd
from repro.core import OutcomeStatus, RenuverConfig
from repro.discovery import DiscoveryConfig, DiscoveryResult
from repro.discovery.incremental import IncrementalDiscovery
from repro.exceptions import ImputationError
from repro.extensions import ImputationSession


def _seed_relation() -> Relation:
    return Relation.from_rows(
        ["K", "V"],
        [["a", "v-a"], ["b", "v-b"]],
        name="stream",
    )


@pytest.fixture()
def rfd():
    return make_rfd({"K": 0}, ("V", 0))


class TestSession:
    def test_appended_missing_cells_become_pending(self, rfd):
        session = ImputationSession(_seed_relation(), [rfd])
        rows = session.append([["a", MISSING], ["c", MISSING]])
        assert rows == [2, 3]
        assert session.pending_cells == [(2, "V"), (3, "V")]

    def test_impute_pending_fills_what_it_can(self, rfd):
        session = ImputationSession(_seed_relation(), [rfd])
        session.append([["a", MISSING], ["c", MISSING]])
        result = session.impute_pending()
        assert session.relation.value(2, "V") == "v-a"
        assert session.relation.value(3, "V") is MISSING  # no donor yet
        assert result.report.imputed_count == 1
        assert session.unimputed_cells() == [(3, "V")]

    def test_late_donor_enables_retry(self, rfd):
        session = ImputationSession(_seed_relation(), [rfd])
        session.append([["c", MISSING]])
        session.impute_pending()
        assert session.relation.value(2, "V") is MISSING
        # The donor for key "c" arrives later.
        session.append([["c", "v-c"]])
        result = session.impute_pending()
        assert session.relation.value(2, "V") == "v-c"
        assert result.report.imputed_count == 1

    def test_degraded_fill_is_not_pending(self, rfd):
        # A per-cell deadline sends the cell to the mean/mode fallback:
        # it then holds a value, so no later round should target it.
        session = ImputationSession(_seed_relation(), [rfd], RenuverConfig(
            cell_time_budget_seconds=1e-9, fallback="mean_mode"
        ))
        session.append([["a", MISSING]])
        result = session.impute_pending()
        assert result.report.outcomes[0].status is OutcomeStatus.DEGRADED
        assert not session.relation.is_missing_cell(2, "V")
        assert session.pending_cells == []
        assert session.unimputed_cells() == []

    def test_round_report_is_the_engine_report(self, rfd):
        session = ImputationSession(_seed_relation(), [rfd], RenuverConfig(
            time_budget_seconds=1e-9, on_budget="partial"
        ))
        session.append([["a", MISSING], ["c", MISSING]])
        report = session.impute_pending().report
        assert report.budget_events
        assert {(o.row, o.attribute) for o in report} == {
            (2, "V"), (3, "V")
        }
        assert session.pending_cells == [(2, "V"), (3, "V")]

    def test_imputed_rows_become_donors(self, rfd):
        session = ImputationSession(_seed_relation(), [rfd])
        session.append([["a", MISSING]])
        session.impute_pending()
        # Row 2 now holds "v-a" and can donate within the same round.
        session.append([["a", MISSING]])
        result = session.impute_pending()
        assert result.report.imputed_count == 1
        assert session.relation.value(3, "V") == "v-a"

    def test_round_report_scoped_to_new_cells(self, rfd):
        seed = _seed_relation()
        seed.set_value(0, "V", MISSING)  # pre-existing missing cell
        session = ImputationSession(seed, [rfd])
        first = session.impute_pending()
        assert {(o.row, o.attribute) for o in first.report} == {(0, "V")}
        session.append([["b", MISSING]])
        second = session.impute_pending()
        reported = {(o.row, o.attribute) for o in second.report}
        assert (2, "V") in reported

    def test_empty_round_is_cheap(self, rfd):
        session = ImputationSession(_seed_relation(), [rfd])
        result = session.impute_pending()
        assert len(result.report) == 0
        assert session.rounds == 1

    def test_bad_row_width_rejected(self, rfd):
        session = ImputationSession(_seed_relation(), [rfd])
        with pytest.raises(ImputationError):
            session.append([["only-one-value"]])

    def test_values_coerced_on_append(self, rfd):
        relation = Relation.from_rows(["K", "N"], [["a", 1]])
        session = ImputationSession(
            relation, [make_rfd({"K": 0}, ("N", 0))]
        )
        session.append([["b", "7"]])
        assert session.relation.value(1, "N") == 7

    def test_seed_relation_not_mutated(self, rfd):
        seed = _seed_relation()
        session = ImputationSession(seed, [rfd])
        session.append([["a", MISSING]])
        session.impute_pending()
        assert seed.n_tuples == 2


class TestMaintainedSession:
    @staticmethod
    def _session(rfd) -> ImputationSession:
        seed = _seed_relation()
        config = DiscoveryConfig(threshold_limit=3)
        maintainer = IncrementalDiscovery(
            seed,
            config,
            initial=DiscoveryResult(
                rfds=[rfd], key_rfds=[], config=config, n_pairs=1,
                exact=True,
            ),
        )
        return ImputationSession(seed, [rfd], maintainer=maintainer)

    def test_append_maintains_the_rfd_set(self, rfd):
        session = self._session(rfd)
        # K=b meets a V one edit away: the RHS bound loosens to 1.
        session.append([["a", "v-a"], ["b", "v-bb"]])
        assert session.maintenance.summary().startswith("+2 tuples")
        assert session.rfds == (make_rfd({"K": 0}, ("V", 1)),)
        assert session.appended_tuples == 2

    def test_empty_maintained_set_keeps_the_previous_rfds(self, rfd):
        session = self._session(rfd)
        # K=a meets a V four edits away, past the limit of 3: the only
        # RFD is dropped, and the session keeps running against it.
        session.append([["a", "zzzz"]])
        assert session.maintenance.dropped == [rfd]
        assert session.maintainer.all_rfds == []
        assert session.rfds == (rfd,)
        session.append([["b", MISSING]])
        result = session.impute_pending()
        assert result.report.imputed_count == 1
        assert session.relation.value(3, "V") == "v-b"
        assert result.report.outcomes[0].rfd == rfd
