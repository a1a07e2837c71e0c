"""PreparedEngine: RFD preparation, warm starts, request configs."""

import pytest

from repro.dataset.csv_io import read_csv_text, to_csv_text
from repro.discovery import DiscoveryConfig
from repro.exceptions import ImputationError, ServiceError
from repro.rfd import parse_rfd
from repro.service import ArtifactStore, PreparedEngine, ServiceConfig
from repro.telemetry import Telemetry

CSV = (
    "Name,City,Phone\n"
    "ann,rome,111\n"
    "ann,rome,\n"
    "bob,oslo,222\n"
    "bob,oslo,222\n"
    "cat,lima,333\n"
)
DISCOVERY = DiscoveryConfig(threshold_limit=1, max_lhs_size=1)
RFDS = [parse_rfd("Name(<=0),City(<=0) -> Phone(<=0)")]


@pytest.fixture()
def relation():
    return read_csv_text(CSV, name="t")


@pytest.fixture()
def warm_engine(tmp_path):
    telemetry = Telemetry()
    return PreparedEngine(
        ServiceConfig(discovery=DISCOVERY),
        store=ArtifactStore(tmp_path / "cache", telemetry=telemetry),
        telemetry=telemetry,
    )


class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.max_inflight == 8

    @pytest.mark.parametrize("kwargs", [
        {"request_budget_seconds": 0.0},
        {"request_budget_seconds": -1.0},
        {"max_inflight": 0},
        {"max_sessions": 0},
        {"max_body_bytes": 10},
    ])
    def test_bad_values_raise_service_error(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs)


class TestPrepareRfds:
    def test_provided_set_is_passed_through(self, relation):
        engine = PreparedEngine()
        result, rfds, source = engine.prepare_rfds(relation, RFDS)
        assert result is None
        assert rfds == RFDS
        assert source == "provided"

    def test_without_store_discovers_every_time(self, relation):
        engine = PreparedEngine(ServiceConfig(discovery=DISCOVERY))
        _, rfds, source = engine.prepare_rfds(relation)
        assert source == "discovered"
        assert rfds
        _, _, source = engine.prepare_rfds(relation)
        assert source == "discovered"

    def test_store_turns_second_call_into_cache_hit(
        self, warm_engine, relation
    ):
        _, cold_rfds, cold_source = warm_engine.prepare_rfds(relation)
        assert cold_source == "discovered"
        _, warm_rfds, warm_source = warm_engine.prepare_rfds(relation)
        assert warm_source == "cache"
        assert [str(r) for r in warm_rfds] == [str(r) for r in cold_rfds]
        assert warm_engine.store.hits >= 1

    def test_warm_call_emits_no_discover_span(self, warm_engine, relation):
        cold = warm_engine.request_telemetry()
        warm_engine.prepare_rfds(relation, telemetry=cold)
        assert any(
            span.name == "discover" for span in cold.tracer.spans
        )
        warm = warm_engine.request_telemetry()
        warm_engine.prepare_rfds(relation, telemetry=warm)
        assert not any(
            span.name == "discover" for span in warm.tracer.spans
        )


class TestImputeOnce:
    def test_cold_and_warm_results_are_bit_identical(
        self, warm_engine, relation
    ):
        cold, cold_source = warm_engine.impute_once(relation)
        rewarmed = read_csv_text(CSV, name="t")
        warm, warm_source = warm_engine.impute_once(rewarmed)
        assert (cold_source, warm_source) == ("discovered", "cache")
        assert to_csv_text(cold.relation) == to_csv_text(warm.relation)

    def test_overrides_patch_the_run_config(self, relation):
        engine = PreparedEngine()
        result, _ = engine.impute_once(
            relation, RFDS, overrides={"verify": False}
        )
        assert result.report.imputed_count == 1
        assert "calls_is_faultless" not in result.report.kernel_counters

    def test_unknown_override_raises_imputation_error(self, relation):
        engine = PreparedEngine()
        for overrides in ({"bogus": 1}, {"engine": "scalar"}):
            with pytest.raises(ImputationError):
                engine.impute_once(relation, RFDS, overrides=overrides)

    def test_budget_degrades_to_partial_instead_of_raising(
        self, relation
    ):
        engine = PreparedEngine()
        # An absurdly small budget must still return a result (partial
        # semantics), never raise.
        result, _ = engine.impute_once(
            relation, RFDS, budget_seconds=1e-9
        )
        assert result.report.missing_count == 1


class TestOpenSession:
    def test_session_from_cache_skips_discovery(
        self, warm_engine, relation
    ):
        warm_engine.prepare_rfds(relation)  # seed the cache
        telemetry = warm_engine.request_telemetry()
        session, source, result = warm_engine.open_session(
            read_csv_text(CSV, name="again"), telemetry=telemetry
        )
        assert source == "cache"
        assert session.maintainer is not None
        assert result is not None
        assert not any(
            span.name == "discover" for span in telemetry.tracer.spans
        )
        session.append([["ann", "rome", None]])
        result = session.impute_pending()
        assert result.report.missing_count >= 1

    def test_an_empty_string_append_imputes_like_the_csv_one_shot(self):
        """JSON's ``""`` is missing, as an empty CSV cell is: a session
        append carrying it imputes what the one-shot of the same rows
        imputes."""
        base = CSV.replace("ann,rome,\n", "")
        engine = PreparedEngine()
        session, _, _ = engine.open_session(
            read_csv_text(base, name="t"), RFDS
        )
        session.append([["ann", "rome", ""]])
        appended = session.impute_pending()
        one_shot, _ = engine.impute_once(
            read_csv_text(base + "ann,rome,\n", name="t"), RFDS
        )
        assert appended.report.imputed_count == 1
        assert to_csv_text(appended.relation) == to_csv_text(
            one_shot.relation
        )

    def test_pinned_rfds_disable_maintenance(self, relation):
        engine = PreparedEngine()
        session, source, result = engine.open_session(relation, RFDS)
        assert source == "provided"
        assert session.maintainer is None
        assert result is None
